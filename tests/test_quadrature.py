import math

import numpy as np
import pytest

from melaplace import (
    NonFiniteIntegrand,
    QuadratureSpec,
    TailDivergence,
    integrate_finite,
    integrate_halfline,
    integrate_unit_singular,
)

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


def test_halfline_unit_mass():
    est = integrate_halfline(lambda t: np.exp(-t), 0.0)
    assert est.converged
    assert abs(est.value - 1.0) <= 1e-12


def test_halfline_closed_form():
    est = integrate_halfline(lambda t: np.exp(-2.0 * t), 0.0)
    assert abs(est.value - 0.5) <= 1e-12


def test_halfline_divergence_detected():
    with pytest.raises(TailDivergence):
        integrate_halfline(lambda t: np.exp(t), 0.0)
    with pytest.raises(TailDivergence):
        integrate_halfline(lambda t: t ** 0.5, 0.0)


def test_halfline_humped_integrand_is_not_divergent():
    # x**3 exp(-x/5) rises until x = 15 before it decays; the integral over
    # [1, inf) is exp(-g) * sum_k 3!/k! * g**(k-4) with g = 1/5
    g = 0.2
    want = math.exp(-g) * sum(6.0 / math.factorial(k) * g ** (k - 4) for k in range(4))
    est = integrate_halfline(lambda x: x ** 3 * np.exp(-g * x), 1.0)
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
    ):
        with pytest.raises(ValueError):
            QuadratureSpec(**bad)
    with pytest.raises(ValueError):
        QuadratureSpec.from_json([5])


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
