"""The four benchmark workloads: seeded inputs, one op per user-level call,
and an independent reference check for every op.

A workload is built once per process (``WORKLOADS[name](seed, part)``).
It builds the transforms and contours it reuses from ``seed`` alone, and
draws its ops from a stream keyed on ``seed`` and ``part``, so that the
parts of one run see different arguments.  ``cycle()`` returns the next
round of op thunks.  Each cycle holds a fixed mix of op kinds, so the mix
is the same on every seed; only the drawn parameters change.  An op thunk
runs the call, checks the result and raises ``CheckFailed`` on a miss.

The library receives only the generated inputs; the seed never reaches it.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math

import numpy as np

import melaplace as m
import melaplace.cli

LAP = m.InverseKind.LAPLACE_KERNEL
MEL = m.InverseKind.MELLIN_KERNEL

# acceptance tolerances, as pinned in tests/test_acceptance.py
RECT_TOL = 1e-6        # rectangle inverse against the residue oracle (rel.)
SPREAD_TOL = 1e-7      # delta/T invariance spread (abs., scaled by max(1, |f|))
CAUCHY_TOL = 1e-8      # Cauchy reproduction of the transform (rel.)
GAMMA_TOL = 1e-4       # Gamma-demo line inverse against exp(-y) (abs.)
BROMWICH_TOL = 5e-2    # numeric-moment line inverse against F(y) (rel.)
DIRECT_TOL = 1e-9      # direct transform against its closed form (rel.)

# inner quadrature of the line inverses, as in the acceptance Gamma demo
LINE_Q = m.QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)


class CheckFailed(Exception):
    """An op returned a value that misses its reference."""


def check(err: float, tol: float, what: str) -> None:
    # written so that a NaN error fails too
    if not err <= tol:
        raise CheckFailed(f"{what}: error {err:.3e} exceeds {tol:.0e}")


def rel_err(got: complex, want: complex) -> float:
    return abs(got - want) / abs(want)


def pole_sum(poles, z: complex) -> complex:
    """sum r/(z - p): the transform value from a bench-side pole list."""
    return sum(r / (z - p) for p, r in poles)


def strict_json(text: str):
    """json.loads that rejects NaN and +-Infinity, as any strict parser does."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def run_cli(argv) -> dict:
    """Run one CLI command in-process through cli_main; require exit 0 and
    strictly valid JSON on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = melaplace.cli.cli_main(list(argv))
    if code != 0:
        raise CheckFailed(f"cli exit {code}: {err.getvalue().strip()}")
    return strict_json(out.getvalue())


def complex_literal(z: complex) -> str:
    sign = "+" if z.imag >= 0 else ""
    return f"{z.real!r}{sign}{z.imag!r}i"


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def mixedexp_poles(g1: float, g2: float):
    # sin^2 = (1 - cos 2x)/2 and cos^2 = (1 + cos 2x)/2, derived here
    # independently of melaplace's own catalog
    return [
        (complex(-g1, 0.0), 0.5), (complex(-g1, 2.0), -0.25),
        (complex(-g1, -2.0), -0.25), (complex(-g2, 0.0), 0.5),
        (complex(-g2, 2.0), 0.25), (complex(-g2, -2.0), 0.25),
    ]


def random_poles(rng):
    """Conjugate-symmetric set of six poles whose inverse is positive.

    Real poles a > b = a - 2 carry residue 1; two conjugate pairs sit
    strictly between them in real part with |r| <= 0.1.  Each pair term is
    then at most 0.2 * max(exp(a x), exp(b x)), so the inverse stays above
    0.6 times that and relative error is well defined at every argument.
    The fixed gap gives every set's rectangle the same node count.
    """
    a = rng.uniform(-0.5, 0.5)
    b = a - 2.0
    poles = [(complex(a, 0.0), 1.0 + 0j), (complex(b, 0.0), 1.0 + 0j)]
    for _ in range(2):
        re, im = rng.uniform(b, a), rng.uniform(0.5, 3.0)
        r = 0.1 * rng.uniform(0.0, 1.0) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
        poles += [(complex(re, im), r), (complex(re, -im), r.conjugate())]
    return poles


class Target:
    """One rational transform as the bench knows it: its pole list, the
    melaplace object built from it, the inverse kernel, and the CLI flags
    that name the same transform."""

    def __init__(self, poles, expr, kind, cli_flag):
        self.poles = poles
        self.expr = expr
        self.kind = kind
        self.cli_flag = cli_flag
        self.re_max = max(p.real for p, _ in poles)

    @property
    def cli_kind(self) -> str:
        return "laplace" if self.kind is LAP else "mellin"

    def draw_arg(self, rng, x_span: float, y_lo: float, y_hi: float) -> float:
        if self.kind is LAP:
            return float(rng.uniform(-x_span, x_span))
        return float(math.exp(rng.uniform(math.log(y_lo), math.log(y_hi))))


def _catalog_target(spec, tkind, kind, poles):
    return Target(poles, m.analytic_transform(spec, tkind), kind,
                  "--func=" + m.format_spec_string(spec))


def exp_target(rng):
    """exp:gamma=g under Laplace."""
    g = float(rng.uniform(0.2, 3.0))
    return _catalog_target(m.FunctionSpec.exp(g), m.TransformKind.LAPLACE, LAP,
                           [(complex(-g), 1.0 + 0j)])


def power_target(rng):
    """power:gamma=g under the moment transform."""
    g = float(rng.uniform(0.2, 2.0))
    return _catalog_target(m.FunctionSpec.power(g), m.TransformKind.MOMENT, MEL,
                           [(complex(-g), 1.0 + 0j)])


def mixedexp_target(rng):
    """mixedexp:g1,g2 under Laplace."""
    g1, g2 = (float(g) for g in rng.uniform(0.2, 2.0, 2))
    return _catalog_target(m.FunctionSpec.mixed_exp(g1, g2), m.TransformKind.LAPLACE,
                           LAP, mixedexp_poles(g1, g2))


def random_pair(rng):
    """One random pole set, as a target under each inverse kernel."""
    poles = random_poles(rng)
    expr = m.TransformExpr.rational(poles)
    flag = "--poles=" + json.dumps([[p.real, p.imag, r.real, r.imag] for p, r in poles])
    return [Target(poles, expr, LAP, flag), Target(poles, expr, MEL, flag)]


CATALOG = (exp_target, power_target, mixedexp_target)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class RectGrid:
    """Rectangle inverses of rational transforms, each contour reused across
    many arguments.  Op: one inverse_eval plus its residue_inverse check."""

    trace_cycles = 40

    def __init__(self, seed: int, part: int = 0):
        rng = np.random.default_rng([seed, 1])
        self.targets = [make(rng) for make in CATALOG]
        self.targets += [t for _ in range(12) for t in random_pair(rng)]
        # heights on a fixed ladder, all above every set's im_max + delta:
        # node counts then vary 2.5x in the same way on every seed, so the
        # slowest ops, and the tail, are set by work rather than by noise
        self.rects = [m.rectangle_for(t.expr, 0.5, 4.0 + 0.25 * i)
                      for i, t in enumerate(self.targets)]
        self.rng = np.random.default_rng([seed, 2, part])

    def cycle(self):
        return [
            self._op(t, rect, t.draw_arg(self.rng, 8.0, 0.05, 20.0))
            for t, rect in zip(self.targets, self.rects)
        ]

    @staticmethod
    def _op(t, rect, arg):
        def op():
            got = m.inverse_eval(t.expr, t.kind, rect, arg)
            want = m.residue_inverse(t.expr, t.kind, arg)
            check(rel_err(got, want), RECT_TOL, f"rectangle inverse at {arg:g}")
        return op


class RectSweep:
    """(delta, T) grids in which every rectangle is new.  One cycle holds
    three ops: a 3x3 invariance sweep through the library, one through the
    CLI, and three CLI Cauchy checks on the diagonal of a 3x3 grid."""

    trace_cycles = 5
    # every rectangle is new anyway, so each op draws a fresh transform of
    # the next kind; with 3 ops a cycle and 5 kinds, 5 cycles hold every
    # pairing of op and transform kind once
    KINDS = CATALOG + (lambda rng: random_pair(rng)[0],
                       lambda rng: random_pair(rng)[1])

    def __init__(self, seed: int, part: int = 0):
        self.rng = np.random.default_rng([seed, 2, part])
        self.count = 0

    def cycle(self):
        ops = []
        for make in (self._sweep_lib, self._sweep_cli, self._cauchy_cli):
            t = self.KINDS[self.count % len(self.KINDS)](self.rng)
            self.count += 1
            deltas = sorted(float(d) for d in self.rng.uniform(0.1, 1.0, 3))
            Ts = sorted(float(T) for T in self.rng.uniform(5.0, 20.0, 3))
            ops.append(make(t, deltas, Ts))
        return ops

    def _sweep_lib(self, t, deltas, Ts):
        arg = t.draw_arg(self.rng, 2.0, 0.25, 4.0)

        def op():
            table = m.invariance_sweep(t.expr, t.kind, arg, deltas, Ts)
            check_sweep(t, arg, table.results)
        return op

    def _sweep_cli(self, t, deltas, Ts):
        arg = t.draw_arg(self.rng, 2.0, 0.25, 4.0)
        argv = [
            "sweep", "--json", "--kind", t.cli_kind, t.cli_flag, f"--x={arg!r}",
            "--deltas=" + ",".join(map(repr, deltas)),
            "--Ts=" + ",".join(map(repr, Ts)),
        ]

        def op():
            doc = run_cli(argv)
            values = [complex(float(r[2]), float(r[3])) for r in doc["rows"]]
            if len(values) != 9:
                raise CheckFailed(f"sweep returned {len(values)} rows, not 9")
            check_sweep(t, arg, values)
        return op

    def _cauchy_cli(self, t, deltas, Ts):
        # one CLI call per rectangle costs about as much as a whole CLI
        # sweep, so this op takes the grid's diagonal to keep op sizes close
        calls = []
        for d, T in zip(deltas, Ts):
            z = complex(t.re_max + d + self.rng.uniform(0.5, 3.0),
                        self.rng.uniform(-5.0, 5.0))
            argv = [
                "cauchy-check", "--json", "--kind", t.cli_kind, t.cli_flag,
                f"--delta={d!r}", f"--T={T!r}", f"--z={complex_literal(z)}",
            ]
            calls.append((argv, pole_sum(t.poles, z)))

        def op():
            for argv, want in calls:
                row = run_cli(argv)["rows"][0]
                got = complex(float(row[2]), float(row[3]))
                check(rel_err(got, want), CAUCHY_TOL, "Cauchy reproduction")
        return op


def check_sweep(t, arg, values) -> None:
    want = m.residue_inverse(t.expr, t.kind, arg)
    spread = max(abs(a - b) for a in values for b in values)
    check(spread / max(1.0, abs(want)), SPREAD_TOL, "invariance spread")
    for v in values:
        check(rel_err(v, want), RECT_TOL, f"sweep value at {arg:g}")


class LineNumeric:
    """Open Bromwich-line inverses of non-rational transforms: five Gamma
    demos (1e-4 against exp(-y)) then one numeric mixedpower moment
    (BROMWICH_TOL against F(y)) per cycle.  Op: one inverse at one argument.
    A mixedpower op costs about four Gamma ops, so with one in six the
    median stays among the Gamma ops.

    T is drawn per op, so no two ops share a contour and reuse across
    arguments is measured by rect_grid alone.
    """

    trace_cycles = 1

    # mixedpower parameters stay fixed: the cost of its numeric moment
    # varies about 3x with g1 and g2, which would swamp seed-to-seed spread
    g1, g2 = 0.5, 1.0

    def __init__(self, seed: int, part: int = 0):
        self.gamma = m.analytic_transform(m.FunctionSpec.exp_minus_x(),
                                          m.TransformKind.MELLIN)
        self.mixed = m.TransformExpr.numeric(
            m.FunctionSpec.mixed_power(self.g1, self.g2), m.TransformKind.MOMENT)
        self.rng = np.random.default_rng([seed, 2, part])

    def cycle(self):
        return [self._gamma_op() for _ in range(5)] + [self._mixed_op()]

    # T is drawn from ranges in which every line gets the same number of
    # pi/4 panels (26 here, 77 for mixedpower), so the work per op is fixed
    def _gamma_op(self):
        T = float(self.rng.uniform(9.85, 10.15))
        y = float(math.exp(self.rng.uniform(math.log(0.2), math.log(5.0))))

        def op():
            line = m.bromwich_for(self.gamma, 1.0, T)
            got = m.inverse_eval(self.gamma, MEL, line, y, LINE_Q)
            check(abs(got - math.exp(-y)), GAMMA_TOL, f"Gamma line at y={y:g}")
        return op

    def _mixed_op(self):
        # the line converges like 1/T; at T = 30 the worst error over
        # y in [0.3, 0.6] is about 3e-2, inside BROMWICH_TOL
        T = float(self.rng.uniform(29.85, 30.15))
        y = float(self.rng.uniform(0.3, 0.6))
        want = y ** self.g1 * math.sin(y) ** 2 + y ** self.g2 * math.cos(y) ** 2

        def op():
            line = m.bromwich_for(self.mixed, 0.5, T)
            got = m.inverse_eval(self.mixed, MEL, line, y, LINE_Q)
            check(rel_err(got, want), BROMWICH_TOL, f"mixedpower line at y={y:g}")
        return op


class Direct:
    """transform_estimate at one scattered z per call across the catalog:
    Laplace, moment and Mellin.  Op: one transform_estimate.

    Catalog parameters are drawn per op, like z, so that the cost of a
    cycle is an average over many parameters and the same on every seed.
    """

    trace_cycles = 150

    def __init__(self, seed: int, part: int = 0):
        self.rng = np.random.default_rng([seed, 2, part])

    def _z(self, growth: float) -> complex:
        """Re z 0.1 to 4 beyond the growth index, Im z in [-5, 5]."""
        return complex(growth + self.rng.uniform(0.1, 4.0), self.rng.uniform(-5.0, 5.0))

    def _s(self) -> float:
        """A real Mellin argument."""
        return float(self.rng.uniform(0.5, 4.0))

    def cycle(self):
        rng = self.rng
        L, M, MT = m.TransformKind.LAPLACE, m.TransformKind.MOMENT, m.TransformKind.MELLIN
        g, gp = (float(x) for x in rng.uniform(0.2, [3.0, 2.0]))
        g1, g2 = (float(x) for x in rng.uniform(0.2, 2.0, 2))
        exp, power = m.FunctionSpec.exp(g), m.FunctionSpec.power(gp)
        mixed, expx = m.FunctionSpec.mixed_exp(g1, g2), m.FunctionSpec.exp_minus_x()
        cases = []
        z = self._z(-g)
        cases.append((exp, L, z, 1.0 / (g + z)))
        z = self._z(-gp)
        cases.append((power, M, z, 1.0 / (gp + z)))
        z = self._z(-min(g1, g2))
        cases.append((mixed, L, z, pole_sum(mixedexp_poles(g1, g2), z)))
        z = self._z(-1.0)
        cases.append((expx, L, z, 1.0 / (1.0 + z)))
        # Mellin rows keep g >= 0.5: integrate_halfline wrongly raises
        # TailDivergence once the integrand x**(s-1) exp(-g x) rises to a
        # peak past x = (s-1)/g of about 8 (known defect, see README.md)
        h, h1, h2 = (float(x) for x in rng.uniform(0.5, [3.0, 2.0, 2.0]))
        s = self._s()
        cases.append((expx, MT, s, math.gamma(s)))
        s = self._s()
        cases.append((m.FunctionSpec.exp(h), MT, s, math.gamma(s) * h ** -s))
        s = self._s()
        # cos 2x = Re exp(2ix), so its Mellin transform is Re Gamma(s) (h - 2i)**-s
        cases.append((m.FunctionSpec.mixed_exp(h1, h2), MT, s, math.gamma(s) * 0.5 * (
            h1 ** -s + h2 ** -s - ((h1 - 2j) ** -s).real + ((h2 - 2j) ** -s).real)))
        return [self._op(*case) for case in cases]

    @staticmethod
    def _op(spec, kind, z, want):
        def op():
            est = m.transform_estimate(spec, kind, z)
            check(rel_err(est.value, want), DIRECT_TOL,
                  f"{kind.value} of {spec.kind.value} at {z}")
        return op


WORKLOADS = {
    "rect_grid": RectGrid,
    "rect_sweep": RectSweep,
    "line_numeric": LineNumeric,
    "direct": Direct,
}
