import cmath
import collections
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melaplace import (
    DomainError,
    FunctionSpec,
    MelaplaceError,
    NonFiniteIntegrand,
    QuadratureSpec,
    TailDivergence,
    integrate_finite,
    integrate_halfline,
    integrate_unit_singular,
)
from melaplace import quadrature
from melaplace.functions import evaluate
from melaplace.quadrature import (
    _FIRST_TAIL_WIDTH,
    _MAX_TAIL_PANELS,
    _TAIL_GROWTH,
    _Dirichlet,
    _filon_row,
    _gl,
    _gl_pair,
    _halfline,
    _peak_roots,
    _within,
)
from melaplace.transforms import _dirichlet

Q = QuadratureSpec()


def test_constant_on_unit_interval():
    est = integrate_finite(lambda t: np.ones_like(t), 0.0, 1.0)
    assert est.converged
    assert abs(est.value - 1.0) <= 1e-14


def test_decaying_exponential_closed_form():
    est = integrate_finite(lambda t: np.exp(-t), 0.0, 50.0)
    assert est.converged
    assert abs(est.value - (1.0 - math.exp(-50.0))) <= Q.rel_tol


def test_full_period_oscillation_cancels():
    est = integrate_finite(lambda t: np.exp(1j * t), -math.pi, math.pi)
    assert abs(est.value) <= Q.abs_tol


def test_empty_interval():
    est = integrate_finite(lambda t: np.exp(t), 2.0, 2.0)
    assert est.value == 0 and est.converged


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        integrate_finite(lambda t: t, 1.0, 0.0)
    # a bound that is not finite is the caller's error, not the integrand's
    f = lambda t: np.exp(-np.abs(t))
    for call, bound in [(lambda: integrate_halfline(f, -math.inf), "a"),
                        (lambda: integrate_halfline(f, math.nan), "a"),
                        (lambda: integrate_finite(f, 0.0, math.inf), "b"),
                        (lambda: integrate_finite(f, 0.0, math.nan), "b"),
                        (lambda: integrate_finite(f, -math.inf, 0.0), "a")]:
        with pytest.raises(ValueError, match=f"bound {bound} must be finite"):
            call()


def test_halfline_unit_mass():
    est = integrate_halfline(lambda t: np.exp(-t), 0.0)
    assert est.converged
    assert abs(est.value - 1.0) <= 1e-12


def test_halfline_closed_form():
    est = integrate_halfline(lambda t: np.exp(-2.0 * t), 0.0)
    assert abs(est.value - 0.5) <= 1e-12


def test_halfline_divergence_detected():
    # exp(t) overflows on the panel [511, 1023]; the others are still not
    # negligible when the geometric panels run out at t ~ 1.3e154
    with pytest.raises(NonFiniteIntegrand):
        integrate_halfline(lambda t: np.exp(t), 0.0)
    for f in (lambda t: t ** 0.5, np.ones_like, lambda t: 1.0 / (1.0 + t)):
        with pytest.raises(TailDivergence, match=r"^the integral diverges, or decays too "
                           r"slowly to resolve: tail panels still not negligible at "
                           r"t = 1\.34078e\+154$"):
            integrate_halfline(f, 0.0)


def test_fault_below_the_root_is_raised_from_its_leftmost_leaf():
    # 0.25 + 0.25 x[3] is a node of [0, 1]'s left child but not of the
    # root, so the root splits and the children's leaves report the fault;
    # a nan at the same node of the right child does not win over it
    x = _gl(16)[0]
    left, right = 0.25 + 0.25 * x[3], 0.75 + 0.25 * x[3]

    def f(t):
        values = np.sin(40.0 * t)
        values[t == left] = np.inf
        values[t == right] = np.nan
        return values

    with pytest.raises(NonFiniteIntegrand, match=r"^integrand not finite near "
                       r"t = 0\.06114889791124925$"):
        integrate_finite(f, 0.0, 1.0)
    assert left == 0.06114889791124925


def test_halfline_humped_integrand_is_not_divergent():
    # x**3 exp(-x/5) rises until x = 15 before it decays; the integral over
    # [1, inf) is exp(-g) * sum_k 3!/k! * g**(k-4) with g = 1/5
    g = 0.2
    want = math.exp(-g) * sum(6.0 / math.factorial(k) * g ** (k - 4) for k in range(4))
    est = integrate_halfline(lambda x: x ** 3 * np.exp(-g * x), 1.0)
    assert est.converged
    assert abs(est.value - want) <= 1e-10 * want


@st.composite
def _humps(draw):
    """An integer power a in [0, 40] and a decay g with hump a/g <= 1e3."""
    a = draw(st.integers(0, 40))
    return a, draw(st.floats(max(a / 1e3, 1e-3), 2.0))


@settings(max_examples=100, deadline=None)
@given(hump=_humps())
def test_halfline_humps_converge_to_their_closed_form(hump):
    # x**a exp(-g x) rises until x = a/g; its integral over [1, inf) is
    # exp(-g) * sum_k a!/k! * g**(k-a-1)
    a, g = hump
    want = math.exp(-g) * sum(math.factorial(a) / math.factorial(k) * g ** (k - a - 1)
                              for k in range(a + 1))
    est = integrate_halfline(lambda x: x ** a * np.exp(-g * x), 1.0)
    assert est.converged
    assert abs(est.value - want) <= 1e-10 * want


def test_unit_singular_inverse_sqrt():
    # int_0^1 x^(-1/2) dx = 2
    est = integrate_unit_singular(lambda x: x ** (-0.5), 0.5)
    assert est.converged
    assert abs(est.value - 2.0) <= 1e-10


def test_unit_singular_plain():
    est = integrate_unit_singular(lambda x: np.ones_like(x), 1.0)
    assert abs(est.value - 1.0) <= 1e-12


def test_unit_singular_power_kernel():
    # x^(z-1) * x^0.5 at z = 1.5 integrates to 1/(0.5 + 1.5)
    est = integrate_unit_singular(lambda x: x ** 0.5 * x ** 0.5, 1.5)
    assert abs(est.value - 0.5) <= 1e-11


def test_unit_singular_rejects_divergent_exponent():
    with pytest.raises(TailDivergence):
        integrate_unit_singular(lambda x: 1.0 / x, 0.0)


def test_additivity():
    f = lambda t: np.exp(-t) * np.sin(3 * t)
    whole = integrate_finite(f, 0.0, 7.0)
    left = integrate_finite(f, 0.0, 2.5)
    right = integrate_finite(f, 2.5, 7.0)
    assert abs(whole.value - (left.value + right.value)) <= 2 * (
        whole.err_est + left.err_est + right.err_est + 1e-14
    )


def test_linearity():
    f = lambda t: np.exp(-t)
    g = lambda t: np.cos(t) * np.exp(-0.5 * t)
    a, b = 2.5, -1.25
    combined = integrate_halfline(lambda t: a * f(t) + b * g(t), 0.0)
    separate = a * integrate_halfline(f, 0.0).value + b * integrate_halfline(g, 0.0).value
    assert abs(combined.value - separate) <= 1e-11


def test_error_estimate_drops_with_order():
    # single forced panel keeps the order comparison above the noise floor
    errs = []
    for order in (4, 8, 16):
        q = QuadratureSpec(panel_order=order, max_panels=1)
        errs.append(integrate_finite(lambda t: np.exp(-t), 0.0, 6.0, q).err_est)
    assert errs[0] > errs[1] > errs[2] - 5e-15


@pytest.mark.parametrize("z", [1.0, 1.7, 3.0])
def test_unit_singular_agrees_with_direct_for_smooth(z):
    f = lambda x: x ** (z - 1.0) * np.exp(-x)
    eps = 1e-12
    direct = integrate_finite(f, eps, 1.0)
    # the missing [0, eps] piece is below eps**z / z <= 1e-12
    sub = integrate_unit_singular(f, z)
    assert abs(sub.value - direct.value) <= 10 * Q.rel_tol + 1e-11


def test_converged_implies_tolerance_met():
    for est in (
        integrate_finite(lambda t: np.sin(10 * t) * np.exp(-t), 0.0, 20.0),
        integrate_halfline(lambda t: np.exp(-1.3 * t) * np.cos(t), 0.0),
    ):
        assert est.converged
        assert est.err_est <= max(Q.rel_tol * abs(est.value), Q.abs_tol)


def test_panel_budget_exhaustion_reported():
    q = QuadratureSpec(max_panels=4)
    est = integrate_finite(lambda t: np.sin(200.0 * t), 0.0, 10.0, q)
    assert not est.converged
    assert est.panels_used <= 4
    # a tail cut off after the panels [0, 1], [1, 3], [3, 7], [7, 15] is
    # charged at least the last one's magnitude
    slow = lambda t: np.exp(-0.01 * t)
    tail = integrate_halfline(slow, 0.0, q)
    assert not tail.converged
    assert tail.panels_used == 4
    assert tail.err_est >= abs(integrate_finite(slow, 7.0, 15.0).value)


def test_nonfinite_integrand_rejected():
    with pytest.raises(NonFiniteIntegrand):
        integrate_finite(lambda t: np.full_like(t, np.nan), 0.0, 1.0)
    with pytest.raises(NonFiniteIntegrand):
        integrate_halfline(lambda t: np.where(t > 2.0, np.inf, 1.0), 1.0)


def test_spec_validation():
    for bad in (
        dict(panel_order=1),
        dict(rel_tol=0.0),
        dict(abs_tol=-1.0),
        dict(max_panels=0),
        dict(panel_order=2.5),
        dict(max_panels=100.0),
        # bool is an int and np.bool_ is not, but neither is a number here
        dict(panel_order=True),
        dict(max_panels=True),
        dict(rel_tol=True),
        dict(abs_tol=True),
        dict(max_panels=np.bool_(True)),
        dict(rel_tol=np.bool_(True)),
    ):
        with pytest.raises(ValueError):
            QuadratureSpec(**bad)
    with pytest.raises(ValueError):
        QuadratureSpec.from_json([5])
    # tolerances that accept any error, and rules too large to build
    for bad in (dict(rel_tol=math.inf), dict(abs_tol=math.inf),
                dict(rel_tol=10**400), dict(panel_order=1025),
                dict(panel_order=100_000)):
        with pytest.raises(ValueError):
            QuadratureSpec(**bad)
    assert QuadratureSpec(panel_order=1024, rel_tol=1e308).panel_order == 1024


def test_spec_json_roundtrip():
    q = QuadratureSpec(panel_order=8, rel_tol=1e-8, abs_tol=1e-11,
                       max_panels=256)
    assert QuadratureSpec.from_json(q.to_json()) == q


def test_integrands_return_one_value_per_node():
    # a (nodes, 2) matrix of two integrals, or one scalar for all nodes
    def matrix(t):
        return np.stack([np.exp(-t), np.cos(t)], axis=1)

    for f in (matrix, lambda t: 1.0):
        with pytest.raises(ValueError, match="shape"):
            integrate_finite(f, 0.0, 1.0)
        with pytest.raises(ValueError, match="shape"):
            integrate_halfline(f, 0.0)


# ---------------------------------------------------------------------------
# the batched engine against the one-panel-at-a-time loops it replaced
# ---------------------------------------------------------------------------

def _reference_panel(f, a, b, order):
    nodes, weights = _gl_pair(order)
    half = 0.5 * b - 0.5 * a
    xs = 0.5 * a + 0.5 * b + half * nodes
    vals = np.asarray(f(xs), dtype=complex)
    if vals.shape != xs.shape:
        raise ValueError(f"integrand gave shape {vals.shape} for {xs.size} nodes")
    finite = np.isfinite(vals)
    if not finite.all():
        bad = float(xs[~finite][0])
        raise NonFiniteIntegrand(f"integrand not finite near t = {bad!r}")
    coarse, fine = (weights @ vals).tolist()
    if not cmath.isfinite(half * fine):
        raise DomainError(f"panel sum past the largest float near t = {0.5 * a + 0.5 * b!r}")
    return half * fine, half * abs(fine - coarse)


def _reference_finite(f, a, b, q=Q):
    """The adaptive integral, one panel per integrand call: panels are
    taken first in first out, so level by level, and a failing panel splits
    while the panels evaluated and waiting, with its two halves, number at
    most max_panels.  The kept panels are summed by left end, and the
    leftmost that is not finite, or whose value is not, raises."""
    if a > b:
        raise ValueError("integrate_finite requires a <= b")
    if a == b:
        return 0j, 0.0, 0, True
    queue = collections.deque([(float(a), float(b))])
    kept = []
    used = 0
    capped = False
    width_floor = 1e-14 * max(1.0, abs(a), abs(b))
    while queue:
        lo, hi = queue.popleft()
        used += 1
        try:
            fine, err = _reference_panel(f, lo, hi, q.panel_order)
        except (NonFiniteIntegrand, DomainError) as exc:
            kept.append((lo, 0j, 0.0, exc))
            continue
        mid = 0.5 * lo + 0.5 * hi
        if _within(q, err, abs(fine)) or (hi - lo) <= width_floor:
            kept.append((lo, fine, err, None))
        elif used + len(queue) + 2 > q.max_panels or not lo < mid < hi:
            kept.append((lo, fine, err, None))
            capped = True
        else:
            queue.append((lo, mid))
            queue.append((mid, hi))
    total = 0j
    err_sum = 0.0
    for _, fine, err, exc in sorted(kept, key=lambda panel: panel[0]):
        if exc is not None:
            raise exc
        total += fine
        err_sum += err
    return total, err_sum, used, (not capped) and _within(q, err_sum, abs(total))


def _reference_halfline(f, a, q=Q):
    lo = float(a)
    width = _FIRST_TAIL_WIDTH
    total = 0j
    err_sum = 0.0
    used = 0
    quiet = 0
    for _ in range(_MAX_TAIL_PANELS):
        value, err, panels, _ = _reference_finite(f, lo, lo + width, q)
        total += value
        err_sum += err
        used += panels
        mag = abs(value)
        size = abs(total)
        negligible = mag <= q.abs_tol and (mag <= q.rel_tol * size or size <= q.abs_tol)
        quiet = quiet + 1 if negligible else 0
        if quiet >= 2 or used >= q.max_panels:
            break
        lo += width
        width *= _TAIL_GROWTH
    else:
        raise TailDivergence("the integral diverges, or decays too slowly to resolve: "
                             f"tail panels still not negligible at t = {lo:g}")
    err_sum += mag
    return total, err_sum, used, quiet >= 2 and _within(q, err_sum, abs(total))


def _outcome(integrate, *args):
    """(value, err_est, panels_used, converged), or the type of the error;
    numpy's warnings are off, as inside the engine."""
    with np.errstate(all="ignore"):
        try:
            result = integrate(*args)
        except (MelaplaceError, ValueError) as exc:
            return type(exc)
    if isinstance(result, tuple):
        return result
    return result.value, result.err_est, result.panels_used, result.converged


def _assert_same(got, want):
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    value, err, panels, converged = got
    assert (panels, converged) == want[2:]
    assert abs(value - want[0]) <= 1e-15 * max(1.0, abs(want[0]))
    assert abs(err - want[1]) <= 1e-9 * want[1] + 1e-300


@st.composite
def _integrands(draw):
    """Decaying, oscillating, humped or growing; sometimes not finite past
    a cut, which may lie before or after where the integral stops."""
    kind = draw(st.sampled_from(["decaying", "oscillating", "humped", "growing"]))
    a = draw(st.floats(0.2, 3.0))
    w = draw(st.floats(0.5, 40.0))
    p = draw(st.floats(0.5, 4.0))
    family = {
        "decaying": lambda t: np.exp(-a * t),
        "oscillating": lambda t: np.exp(-(a + 1j * w) * t) + np.cos(w * t) * np.exp(-a * t),
        "humped": lambda t: np.abs(t) ** p * np.exp(-a * t),
        "growing": lambda t: np.exp(0.05 * a * t) * (1.0 + np.abs(t)) ** p,
    }[kind]
    cut = draw(st.none() | st.floats(0.0, 3000.0))
    if cut is None:
        return family
    bad = draw(st.sampled_from([np.inf, np.nan]))
    return lambda t: np.where(t > cut, bad, family(t))


_BUDGETS = st.integers(1, 64) | st.just(Q.max_panels)


@settings(max_examples=150, deadline=None)
@given(f=_integrands(), a=st.floats(-5.0, 20.0), width=st.floats(0.0, 40.0),
       max_panels=_BUDGETS)
def test_finite_engine_matches_one_panel_loop(f, a, width, max_panels):
    q = QuadratureSpec(max_panels=max_panels)
    _assert_same(_outcome(integrate_finite, f, a, a + width, q),
                 _outcome(_reference_finite, f, a, a + width, q))


@settings(max_examples=150, deadline=None)
@given(f=_integrands(), a=st.floats(0.0, 10.0), max_panels=_BUDGETS)
def test_halfline_engine_matches_one_panel_loop(f, a, max_panels):
    q = QuadratureSpec(max_panels=max_panels)
    _assert_same(_outcome(integrate_halfline, f, a, q),
                 _outcome(_reference_halfline, f, a, q))


def _exact_outcome(f, a, q):
    """repr of the Estimate, or the type and message of the error."""
    with np.errstate(all="ignore"):
        try:
            est = integrate_halfline(f, a, q)
        except (MelaplaceError, ValueError) as exc:
            return type(exc), str(exc)
    return repr((est.value, est.err_est, est.panels_used, est.converged))


@settings(max_examples=100, deadline=None)
@given(f=_integrands(), a=st.floats(0.0, 10.0), max_panels=_BUDGETS)
def test_lookahead_block_size_never_changes_a_result(f, a, max_panels):
    # the stop rule alone decides a result, and a panel's bits do not
    # depend on the level-order pass that evaluated it
    q = QuadratureSpec(max_panels=max_panels)
    outcomes = []
    for first in (1, 4, 8, 64):
        with mock.patch.object(quadrature, "_FIRST_TAIL_BLOCK", first):
            outcomes.append(_exact_outcome(f, a, q))
    assert outcomes[1:] == outcomes[:-1]


@pytest.mark.parametrize("f", [
    lambda t: np.where(t > 200.0, np.inf, np.exp(-t)),
    lambda t: np.where(t > 200.0, np.nan, np.exp(-t)),
    # overflows, with numpy's warning, from t = 215.5 on
    lambda t: np.exp(-t) + np.exp(20.0 * t - 3600.0),
])
def test_lookahead_panels_past_the_stop_raise_nothing(f):
    # the integral stops after [63, 127]; the first look-ahead block
    # reaches 255, so its last panel [127, 255] holds the non-finite values
    nonfinite = [0]

    def counted(t):
        values = f(t)
        nonfinite[0] += np.count_nonzero(~np.isfinite(values))
        return values

    est = integrate_halfline(counted, 0.0)
    assert est.converged
    assert abs(est.value - 1.0) <= 1e-12
    assert nonfinite[0] > 0
    _assert_same(_outcome(integrate_halfline, f, 0.0),
                 _outcome(_reference_halfline, f, 0.0))


def test_infinite_values_raise_nonfinite_not_overflow():
    # inf times a complex weight leaves NaN parts in both rules, and the
    # complex exp before it leaves errno at ERANGE, which CPython's abs of
    # a NaN complex reports as OverflowError
    f = lambda t: np.where(t > 15.0, np.inf,
                           np.exp(-(1.0 + 1.0j) * t) + np.cos(t) * np.exp(-t))
    for q in (QuadratureSpec(max_panels=5), Q):
        got = _outcome(integrate_halfline, f, 0.0, q)
        assert got is NonFiniteIntegrand
        _assert_same(got, _outcome(_reference_halfline, f, 0.0, q))


# ---------------------------------------------------------------------------
# one panel's bits
# ---------------------------------------------------------------------------

def _python_abs(z):
    """CPython's abs(z), with C99's cabs where CPython raises OverflowError:
    on finite parts whose modulus overflows, and on NaN parts after an
    earlier libm call left errno set."""
    try:
        return abs(z)
    except OverflowError:
        return math.nan if math.isnan(z.real) or math.isnan(z.imag) else math.inf


def _panel_rows(rng, count, size):
    """count rows of size complex values: ordinary, near 1e308, subnormal,
    or with an inf or NaN part."""
    rows = []
    for kind in rng.integers(0, 4, count):
        row = rng.uniform(-1.0, 1.0, size) + 1j * rng.uniform(-1.0, 1.0, size)
        if kind == 1:
            row *= 10.0 ** rng.uniform(307.0, 308.2)
        elif kind == 2:
            row *= 10.0 ** rng.uniform(-320.0, -300.0)
        elif kind == 3:
            where = rng.integers(0, size, rng.integers(1, 3))
            part = rng.choice([np.inf, -np.inf, np.nan])
            row[where] = complex(part, 0.5) if rng.integers(2) else complex(0.5, part)
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("seed", range(40))
def test_panels_keep_the_bits_of_one_row_at_a_time(seed):
    # each panel's value and error are those of its own row, with Python's
    # abs, bit for bit, and near overflow nothing raises; an error off by
    # one ulp flips split decisions, which tolerance-based tests let pass
    rng = np.random.default_rng(seed)
    order = int(rng.choice([2, 3, 8, 16]))
    count = int(rng.integers(1, 7))
    rows = _panel_rows(rng, count, 3 * order)
    mid = rng.uniform(-5.0, 5.0, count).tolist()
    half = (10.0 ** rng.uniform(-12.0, 3.0, count)).tolist()
    _, weights = _gl_pair(order)
    with np.errstate(all="ignore"):
        fine, moduli, err, faults = quadrature._panels(lambda t: rows.ravel(), mid, half,
                                                       order)
        for i, row in enumerate(rows):
            coarse_i, fine_i = (weights @ row).tolist()
            assert repr(fine[i]) == repr(half[i] * fine_i)
            assert repr(err[i]) == repr(half[i] * _python_abs(fine_i - coarse_i))
            finite = np.isfinite(row).all()
            assert isinstance(faults.get(i), NonFiniteIntegrand) == (not finite)
            assert isinstance(faults.get(i), DomainError) == (
                finite and not cmath.isfinite(fine[i]))
            if i not in faults:
                assert repr(moduli[i]) == repr(_python_abs(fine[i]))


def test_panel_error_near_overflow_raises_nothing():
    # the two rules of a coarse panel differ by more than the largest
    # float, where CPython's abs raises OverflowError; the integral is
    # 1.5e308 (1 + i) sin(300) / 300
    est = integrate_finite(lambda t: 1.5e308 * (1 + 1j) * np.cos(300.0 * t), 0.0, 1.0)
    assert (est.panels_used, est.converged) == (31, True)
    assert abs(est.value.real / (1.5e308 * math.sin(300.0) / 300.0) - 1.0) <= 1e-11
    assert est.value.imag == est.value.real


def test_panel_modulus_past_the_largest_float_raises_nothing():
    # the one panel's value is 1.3e308 (1 + i), whose modulus CPython's abs
    # cannot return
    est = integrate_finite(lambda t: 1.3e306 * (1 + 1j) * np.ones_like(t), 0.0, 100.0)
    assert (est.panels_used, est.converged) == (1, True)
    assert abs(est.value.real / 1.3e308 - 1.0) <= 1e-15
    assert est.value.imag == est.value.real


@pytest.mark.parametrize("integrate", [
    lambda: integrate_finite(lambda t: 1.5e308 * (1 + 1j) * np.ones_like(t), 0.0, 1.0),
    lambda: integrate_halfline(lambda t: 1.5e308 * (1 + 1j) * np.exp(-t), 0.0),
])
def test_panel_sum_past_the_largest_float_is_a_domain_error(integrate):
    # every node value is finite, but the first panel's order-2n sum is
    # not; halving it would spend the whole budget on a nan estimate
    with pytest.raises(DomainError, match="near t = 0.5$"):
        integrate()


def _head_and_tail(f, s, q):
    return tuple(_halfline(f, s, q, [(0.0, s)]))


def _head_and_tail_apart(f, s, q):
    return integrate_halfline(f, s, q), integrate_finite(f, 0.0, s, q)


def _exact_pair(integrate, f, s, q):
    """repr of the (tail, head) Estimates, or the type and message of the
    error."""
    with np.errstate(all="ignore"):
        try:
            return repr(integrate(f, s, q))
        except (MelaplaceError, ValueError) as exc:
            return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(f=_integrands(), s=st.floats(1e-3, 30.0), max_panels=_BUDGETS)
def test_head_prefetched_with_the_tail_changes_no_bit(f, s, max_panels):
    # the tail still raises first, and a non-finite head raises after it
    q = QuadratureSpec(max_panels=max_panels)
    assert (_exact_pair(_head_and_tail, f, s, q)
            == _exact_pair(_head_and_tail_apart, f, s, q))


def _exact_entry(integrate, *args):
    """repr of the (value, err_est, panels_used, converged) result, or the
    type and message of the error."""
    try:
        return repr(integrate(*args))
    except (MelaplaceError, ValueError) as exc:
        return type(exc), str(exc)


_ROOTS = st.lists(
    st.tuples(st.floats(-5.0, 20.0), st.just(0.0) | st.floats(0.0, 40.0))
    .map(lambda p: (p[0], p[0] + p[1])), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(f=_integrands(), roots=_ROOTS, pick=st.integers(0, 3),
       shift=st.sampled_from([-1, 0, 1]), fallback=st.integers(1, 64),
       order=st.sampled_from([4, 8, 16]))
def test_trees_equal_the_one_panel_loop_bit_for_bit(f, roots, pick, shift, fallback,
                                                    order):
    # budgets one below, at and one above the size of one root's tree: each
    # root of one level-order pass reads as the one-panel loop over it
    # alone, capped or not, and raises the same error
    pick %= len(roots)
    with np.errstate(all="ignore"):
        sized = quadrature._trees(f, roots, QuadratureSpec(panel_order=order))
        size = sized[pick][2] if isinstance(sized[pick], tuple) else fallback
        q = QuadratureSpec(panel_order=order, max_panels=max(1, size + shift))
        entries = quadrature._trees(f, roots, q)
        for root, entry in zip(roots, entries):
            assert (_exact_entry(quadrature._result, entry)
                    == _exact_entry(_reference_finite, f, *root, q))


def test_one_panel_tree_sums_from_zero():
    # the one panel's value underflows to (-0+0j); its tree adds it to 0j
    f = lambda t: np.full(t.shape, -1e-320 + 0j)
    assert repr(quadrature._panels(f, [5e-6], [5e-6], Q.panel_order)[0]) == "[(-0+0j)]"
    assert (repr(quadrature._trees(f, [(0.0, 1e-5)], Q)[0])
            == repr(_reference_finite(f, 0.0, 1e-5))
            == repr((0j, 0.0, 1, True)))


@pytest.mark.parametrize("a, b", [(1e308, 1.5e308), (-1.5e308, -1e308)])
def test_split_past_the_largest_float_is_walked(a, b):
    # a + b overflows, but the midpoint 0.5*a + 0.5*b and the half-width
    # do not, so the nodes stay finite and the panel splits.  Only a
    # tolerance below rounding fails a constant there, and its tree
    # outgrows the budget as it does over [a, b] / 10
    f = lambda t: np.ones_like(t)
    q = QuadratureSpec(rel_tol=1e-300, abs_tol=1e-300)
    est = integrate_finite(f, a, b, q)
    assert repr(est.value) == "(4.999999999999999e+307+0j)"
    assert (est.panels_used, est.converged) == (4095, False)
    with np.errstate(all="ignore"):
        assert _outcome(integrate_finite, f, a, b, q) == _reference_finite(f, a, b, q)
    # 1e300/t integrates to 1e300 ln 1.5, in one panel
    f = lambda t: 1e300 / t
    est = integrate_finite(f, a, b)
    assert repr(est.value) == repr(math.copysign(4.054651081081644e+299, a) + 0j)
    assert (est.panels_used, est.converged) == (1, True)
    assert _outcome(integrate_finite, f, a, b) == _reference_finite(f, a, b)


# ---------------------------------------------------------------------------
# batching: integrand calls per integral
# ---------------------------------------------------------------------------

def _counting(f):
    """f, and a list [calls, points] that each call of the wrapper adds to."""
    count = [0, 0]

    def counted(t):
        count[0] += 1
        count[1] += t.size
        return f(t)

    return counted, count


def test_one_integrand_call_per_refinement_level():
    # 31 panels over five levels: each level is one call of 48-node panels
    f, count = _counting(lambda t: np.exp(-(0.3 + 25j) * t))
    est = integrate_finite(f, 0.0, 10.0)
    assert (est.panels_used, est.converged) == (31, True)
    assert count == [5, 1488]
    # the first block of eight geometric panels, then a block of three
    # sized from the decay of panels 7 and 8: the stop rule ends on its second
    f, count = _counting(lambda x: x**3 * np.exp(-0.2 * x))
    est = integrate_halfline(f, 1.0)
    assert (est.panels_used, est.converged) == (10, True)
    assert count == [2, 528]


def test_head_prefetched_with_the_tail_saves_its_passes():
    # the four levels of the head [0, 5] of exp(-(0.3 + 25i) t) ride the
    # first tail pass, which is eight levels deep: the same points in four
    # calls fewer
    f, count = _counting(lambda t: np.exp(-(0.3 + 25j) * t))
    tail, head = _head_and_tail(f, 5.0, Q)
    assert (tail.panels_used, head.panels_used) == (207, 15)
    assert count == [8, 10656]
    count[:] = [0, 0]
    assert _head_and_tail_apart(f, 5.0, Q) == (tail, head)
    assert count == [12, 10656]


# (calls, points) of integrate_halfline for exp(-(r + i w) t) from 0: a
# look-ahead that refines panels the stop rule never reads shows up here
_TAIL_COSTS = {
    (0.05, 0.0): (2, 864), (0.05, 3.0): (13, 9024), (0.05, 8.0): (15, 22272),
    (0.2, 0.0): (2, 480), (0.2, 3.0): (5, 2208), (0.2, 8.0): (7, 5472),
    (1.0, 0.0): (1, 384), (1.0, 3.0): (2, 480), (1.0, 8.0): (3, 1056),
    (5.0, 0.0): (1, 384), (5.0, 3.0): (1, 384), (5.0, 8.0): (1, 384),
}


@pytest.mark.parametrize("r, w", sorted(_TAIL_COSTS))
def test_halfline_lookahead_cost_is_pinned(r, w):
    f, count = _counting(lambda t: np.exp(-(r + 1j * w) * t))
    est = integrate_halfline(f, 0.0)
    assert est.converged
    assert abs(est.value - 1.0 / (r + 1j * w)) <= 1e-12
    assert tuple(count) == _TAIL_COSTS[r, w]


def test_outgrown_tree_takes_one_integrand_call_per_level():
    # exp(-0.001 y) against the Dirichlet kernel at T = 80 over [0, 37000]
    # outgrows the 4096-panel budget, which its tree spends level by level:
    # one integrand call each, on the panels of the level
    x = 1.0
    g = FunctionSpec.exp(0.001)
    f, count = _counting(lambda y: _dirichlet(evaluate(g, y), 80.0, x - y))
    est = integrate_finite(f, 0.0, 37000.0)
    assert (est.panels_used, est.converged) == (4095, False)
    assert count == [13, 196560]
    _assert_same(_outcome(integrate_finite, f, 0.0, 37000.0),
                 _outcome(_reference_finite, f, 0.0, 37000.0))


@pytest.mark.parametrize("a", [1e17, 2.0**60])
def test_halfline_from_where_unit_panels_vanish(a):
    # a + 1 == a: the first geometric panels are empty and count as no panel
    f = lambda t: np.exp(a - t)
    _assert_same(_outcome(integrate_halfline, f, a),
                 _outcome(_reference_halfline, f, a))


# ---------------------------------------------------------------------------
# the Dirichlet kernel: Filon panels and the peak layout
# ---------------------------------------------------------------------------

def _power_moments(w, count):
    """int_{-1}^{1} x**p exp(-i w x) dx for p < count, by parts:
    I_p = (exp(-i w) - (-1)**p exp(i w))/(-i w) + p/(i w) I_{p-1}, which
    loses no digits while p < w."""
    moments = [2.0 * math.sin(w) / w]
    for p in range(1, count):
        ends = (cmath.exp(-1j * w) - (-1) ** p * cmath.exp(1j * w)) / (-1j * w)
        moments.append(ends + p / (1j * w) * moments[-1])
    return moments


@pytest.mark.parametrize("order", [4, 16, 32])
@pytest.mark.parametrize("ratio", [1.0, 1.7, 40.0, 1e4])
def test_filon_rules_integrate_their_polynomials_exactly(order, ratio):
    # each Filon rule takes a polynomial below its node count against
    # exp(-i w x) exactly, from w = 2n on: the order-n rule x**(n-1), the
    # order-2n rule x**(2n-1)
    w = 2 * order * ratio
    nodes, weights = _gl_pair(order)
    row = _filon_row(w, order) * weights.real.sum(axis=0)
    want = _power_moments(w, 2 * order)
    for power, part in [(order - 1, slice(None, order)),
                        (2 * order - 1, slice(order, None))]:
        got = np.sum(row[part] * nodes[part] ** power)
        assert abs(got - want[power]) <= 1e-13 * max(1.0, abs(want[power]))


@settings(max_examples=100, deadline=None)
@given(f=_integrands(), roots=_ROOTS, share=st.floats(0.01, 0.99), s=st.floats(-5.0, 60.0))
def test_kernel_panels_below_the_filon_width_are_the_plain_pair(f, roots, share, s):
    # a kernel whose panels are all narrower than 2n/T on each side takes
    # the plain pair on f times the kernel, bit for bit
    widest = max(0.5 * (b - a) for a, b in roots)
    T = share * 2 * Q.panel_order / widest if widest > 0.0 else share
    with np.errstate(all="ignore"):
        got = quadrature._trees(f, roots, Q, _Dirichlet(T, s))
        want = quadrature._trees(lambda u: _dirichlet(f(u), T, s - u), roots, Q)
    assert ([_exact_entry(quadrature._result, e) for e in got]
            == [_exact_entry(quadrature._result, e) for e in want])


@settings(max_examples=200, deadline=None)
@given(T=st.floats(0.1, 1e8), s=st.floats(-50.0, 50.0))
def test_peak_roots_tile_the_half_line_about_the_peak(T, s):
    # the roots and the tail's first panel tile [0, inf) in order from 0,
    # without gap: a peak root one kernel period (at most 1) wide, roots
    # at most doubling away from it but where clipped at 0, each but the
    # peak at least its half-width from it, and a tail panel at least 1/2
    # wide
    r = min(0.5, math.pi / T)
    start, width, heads = _peak_roots(T, s)
    roots = sorted(heads) + [(start, start + width)]
    assert roots[0][0] == 0.0
    assert all(a[1] == b[0] for a, b in zip(roots, roots[1:]))
    if s + r > 0.0:
        assert (max(s - r, 0.0), s + r) in heads
    # edges near s carry its rounding
    slack = 4 * math.ulp(abs(s) + width)
    right = [b - a for a, b in roots if a >= s + r and a > 0.0]
    assert all(w2 <= 2.0 * w1 + slack for w1, w2 in zip(right, right[1:]))
    left = [b - a for a, b in roots if 0.0 < a and b <= s - r]
    assert all(w1 <= 2.0 * w2 + slack for w1, w2 in zip(left, left[1:]))
    others = [(a, b) for a, b in roots if (a, b) != (max(s - r, 0.0), s + r)]
    assert all(abs(s - 0.5 * (a + b)) >= 0.5 * (b - a) - slack for a, b in others)
    assert width >= 0.5


def test_a_peak_lost_in_rounding_is_a_domain_error():
    # pi/T = 3e-20 is below half the spacing of floats at 30
    with pytest.raises(DomainError, match="central lobe"):
        _peak_roots(1e20, 30.0)
    assert _peak_roots(1e20, 0.0)[2][0] == (0.0, math.pi / 1e20)
