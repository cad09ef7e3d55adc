"""Built-in test-function catalog with exact growth metadata.

The catalog is closed on purpose: every entry carries analytically known
growth bounds, which is what lets contour placement be checked from
metadata instead of runtime divergence probing.  Its five kinds are the
rows of one table, ``_CATALOG``: each is a sum, in parameter order, of
terms base**g * weight(u)**2, base exp(-x) on [0, inf) or y on (0, 1]
(y = exp(-x) maps one onto the other), weight 1, sin or cos of the argument.

    exp         f(x) = exp(-g*x)                 on [0, inf)
    power       F(y) = y**g                      on (0, 1]
    mixedexp    f(x) = exp(-g1*x)*sin(x)**2 + exp(-g2*x)*cos(x)**2
    mixedpower  F(y) = y**g1*sin(y)**2 + y**g2*cos(y)**2
    expminusx   f(x) = exp(-x), exp with g = 1 built in (the Gamma demo)

Evaluation accepts scalars or numpy arrays.  Specs are written as strings
in a small grammar, one named real per parameter:

    exp:gamma=<r>   power:gamma=<r>   mixedexp:g1=<r>,g2=<r>
    mixedpower:g1=<r>,g2=<r>   expminusx
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError


class FunctionKind(enum.Enum):
    EXP = "exp"
    POWER = "power"
    MIXED_EXP = "mixedexp"
    MIXED_POWER = "mixedpower"
    EXP_MINUS_X = "expminusx"


class DomainHint(enum.Enum):
    HALF_LINE = "half_line"
    UNIT_INTERVAL = "unit_interval"


# (domain, parameter names in the spec grammar, weight of each term) per
# kind; a weight of None stands for 1
_CATALOG = {
    FunctionKind.EXP: (DomainHint.HALF_LINE, ("gamma",), (None,)),
    FunctionKind.POWER: (DomainHint.UNIT_INTERVAL, ("gamma",), (None,)),
    FunctionKind.MIXED_EXP: (DomainHint.HALF_LINE, ("g1", "g2"), (np.sin, np.cos)),
    FunctionKind.MIXED_POWER: (DomainHint.UNIT_INTERVAL, ("g1", "g2"), (np.sin, np.cos)),
    FunctionKind.EXP_MINUS_X: (DomainHint.HALF_LINE, (), (None,)),
}


@dataclass(frozen=True)
class FunctionSpec:
    """A catalog entry: kind plus its real parameters g (or g1, g2)."""

    kind: FunctionKind
    params: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        want = len(_CATALOG[self.kind][1])
        if len(self.params) != want:
            raise ValueError(
                f"{self.kind.value} takes exactly {want} parameter(s), "
                f"got {len(self.params)}"
            )
        for p in self.params:
            if not math.isfinite(p):
                raise ValueError("parameters must be finite reals")

    # -- convenience constructors ------------------------------------
    @classmethod
    def exp(cls, gamma):
        return cls(FunctionKind.EXP, (gamma,))

    @classmethod
    def power(cls, gamma):
        return cls(FunctionKind.POWER, (gamma,))

    @classmethod
    def mixed_exp(cls, g1, g2):
        return cls(FunctionKind.MIXED_EXP, (g1, g2))

    @classmethod
    def mixed_power(cls, g1, g2):
        return cls(FunctionKind.MIXED_POWER, (g1, g2))

    @classmethod
    def exp_minus_x(cls):
        return cls(FunctionKind.EXP_MINUS_X)

    @property
    def domain_hint(self) -> DomainHint:
        return _CATALOG[self.kind][0]


def parse_spec_string(s: str) -> FunctionSpec:
    """Parse the spec grammar of the module docstring.

    Whitespace-insensitive; errors carry the 1-based column in the
    whitespace-stripped string.
    """
    text = "".join(str(s).split())
    head, sep, rest = text.partition(":")
    try:
        kind = FunctionKind(head.lower())
    except ValueError:
        raise ParseError(
            f"unknown function kind {head!r} at column 1", position=1
        ) from None
    keys = _CATALOG[kind][1]
    if not keys:
        if sep:
            raise ParseError(
                f"{head} takes no parameters (column {len(head) + 1})",
                position=len(head) + 1,
            )
        return FunctionSpec(kind)
    if not sep:
        raise ParseError(
            f"expected ':' after {head!r} at column {len(head) + 1}",
            position=len(head) + 1,
        )
    pos = len(head) + 2  # 1-based column of the first char after ':'
    params = []
    pieces = rest.split(",")
    if len(pieces) != len(keys):
        raise ParseError(
            f"{head} takes {len(keys)} parameter(s) named {', '.join(keys)}",
            position=pos,
        )
    for key, piece in zip(keys, pieces):
        name, eq, value = piece.partition("=")
        if name != key or not eq:
            raise ParseError(
                f"expected '{key}=' at column {pos}", position=pos
            )
        value_col = pos + len(name) + 1
        try:
            params.append(float(value))
        except ValueError:
            raise ParseError(
                f"expected a decimal real at column {value_col}",
                position=value_col,
            ) from None
        pos += len(piece) + 1
    try:
        return FunctionSpec(kind, tuple(params))
    except ValueError as exc:
        raise ParseError(str(exc), position=len(head) + 2) from None


def format_spec_string(spec: FunctionSpec) -> str:
    """Inverse of parse_spec_string."""
    keys = _CATALOG[spec.kind][1]
    if not keys:
        return spec.kind.value
    body = ",".join(f"{k}={p!r}" for k, p in zip(keys, spec.params))
    return f"{spec.kind.value}:{body}"


@dataclass(frozen=True)
class GrowthBounds:
    """Critical growth index: |f(x)| is bounded by exp(right_index*x) on the
    exponential side, F(y) by 1/y**right_index on the power side."""

    right_index: float


@dataclass(frozen=True)
class Strip:
    """Vertical holomorphy strip c1 < Re z < c2 (borders may be infinite)."""

    c1: float
    c2: float

    def __post_init__(self):
        if not self.c1 < self.c2:
            raise ValueError("strip requires c1 < c2")

    def contains(self, re_z: float) -> bool:
        return self.c1 < re_z < self.c2


def _terms(spec: FunctionSpec):
    """The domain of spec, and its (g, weight) terms in parameter order."""
    domain, _, weights = _CATALOG[spec.kind]
    return domain, zip(spec.params or (1.0,), weights)


def _term_sum(terms, base, u):
    """Sum of base(g) * weight(u)**2 over the (g, weight) terms, in order."""
    out = None
    for g, w in terms:
        term = base(g) if w is None else base(g) * w(u) ** 2
        out = term if out is None else out + term
    return out


def evaluate(spec: FunctionSpec, x):
    """Pointwise value of the catalog function; x may be a scalar or ndarray.

    Power-family kinds require x >= 0.
    """
    xa = np.asarray(x, dtype=float)
    domain, terms = _terms(spec)
    if domain is DomainHint.HALF_LINE:
        out = _term_sum(terms, lambda g: np.exp(-g * xa), xa)
    elif np.any(xa < 0.0):
        raise DomainError(f"{spec.kind.value} requires a nonnegative argument")
    else:
        out = _term_sum(terms, lambda g: xa ** g, xa)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def growth_bounds(spec: FunctionSpec) -> GrowthBounds:
    """Exact analytic growth indices for a catalog entry."""
    return GrowthBounds(right_index=-min(spec.params or (1.0,)))
