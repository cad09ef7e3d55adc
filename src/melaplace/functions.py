"""Built-in test-function catalog with exact growth metadata.

The catalog is closed on purpose: every entry carries analytically known
growth bounds, which is what lets contour placement be checked from
metadata instead of runtime divergence probing.  Five kinds are provided:

    exp         f(x) = exp(-g*x)                 on [0, inf)
    power       F(y) = y**g                      on (0, 1]
    mixedexp    f(x) = exp(-g1*x)*sin(x)**2 + exp(-g2*x)*cos(x)**2
    mixedpower  F(y) = y**g1*sin(y)**2 + y**g2*cos(y)**2
    expminusx   f(x) = exp(-x)                   (the Gamma-function demo)

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

from .errors import DomainError, ParseError, UnsupportedMap


class FunctionKind(enum.Enum):
    EXP = "exp"
    POWER = "power"
    MIXED_EXP = "mixedexp"
    MIXED_POWER = "mixedpower"
    EXP_MINUS_X = "expminusx"


class DomainHint(enum.Enum):
    HALF_LINE = "half_line"
    UNIT_INTERVAL = "unit_interval"


# the parameters of each kind, by their names in the spec grammar
_PARAM_NAMES = {
    FunctionKind.EXP: ("gamma",),
    FunctionKind.POWER: ("gamma",),
    FunctionKind.MIXED_EXP: ("g1", "g2"),
    FunctionKind.MIXED_POWER: ("g1", "g2"),
    FunctionKind.EXP_MINUS_X: (),
}

_POWER_FAMILY = (FunctionKind.POWER, FunctionKind.MIXED_POWER)


@dataclass(frozen=True)
class FunctionSpec:
    """A catalog entry: kind plus its real parameters g (or g1, g2)."""

    kind: FunctionKind
    params: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        want = len(_PARAM_NAMES[self.kind])
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
        if self.kind in _POWER_FAMILY:
            return DomainHint.UNIT_INTERVAL
        return DomainHint.HALF_LINE

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "params": list(self.params)}

    @classmethod
    def from_json(cls, doc: dict) -> "FunctionSpec":
        return cls(FunctionKind(doc["kind"]), tuple(doc.get("params", ())))


def parse_spec_string(s: str) -> FunctionSpec:
    """Parse the spec grammar: exp:gamma=<r>, power:gamma=<r>,
    mixedexp:g1=<r>,g2=<r>, mixedpower:g1=<r>,g2=<r>, expminusx.

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
    keys = _PARAM_NAMES[kind]
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
    keys = _PARAM_NAMES[spec.kind]
    if not keys:
        return spec.kind.value
    body = ",".join(f"{k}={p!r}" for k, p in zip(keys, spec.params))
    return f"{spec.kind.value}:{body}"


@dataclass(frozen=True)
class GrowthBounds:
    """Critical growth indices: |f(x)| bounded by amplitude*exp(right_index*x)
    on the exponential side, F(y) by amplitude/y**right_index on the power
    side.  ``left_index`` is the matching lower bound (-inf when absent)."""

    right_index: float
    left_index: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.left_index <= self.right_index:
            raise ValueError("left_index must not exceed right_index")
        if not self.amplitude > 0:
            raise ValueError("amplitude must be positive")


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


def evaluate(spec: FunctionSpec, x):
    """Pointwise value of the catalog function; x may be a scalar or ndarray.

    Power-family kinds require x >= 0.
    """
    xa = np.asarray(x, dtype=float)
    if spec.kind in _POWER_FAMILY and np.any(xa < 0.0):
        raise DomainError(f"{spec.kind.value} requires a nonnegative argument")
    if spec.kind is FunctionKind.EXP:
        out = np.exp(-spec.params[0] * xa)
    elif spec.kind is FunctionKind.POWER:
        out = xa ** spec.params[0]
    elif spec.kind is FunctionKind.MIXED_EXP:
        g1, g2 = spec.params
        out = np.exp(-g1 * xa) * np.sin(xa) ** 2 + np.exp(-g2 * xa) * np.cos(xa) ** 2
    elif spec.kind is FunctionKind.MIXED_POWER:
        g1, g2 = spec.params
        out = xa ** g1 * np.sin(xa) ** 2 + xa ** g2 * np.cos(xa) ** 2
    else:
        out = np.exp(-xa)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def growth_bounds(spec: FunctionSpec) -> GrowthBounds:
    """Exact analytic growth indices for a catalog entry."""
    if spec.kind in (FunctionKind.EXP, FunctionKind.POWER):
        g = spec.params[0]
        return GrowthBounds(right_index=-g, left_index=-g)
    if spec.kind in (FunctionKind.MIXED_EXP, FunctionKind.MIXED_POWER):
        g1, g2 = spec.params
        return GrowthBounds(right_index=-min(g1, g2), left_index=-max(g1, g2))
    return GrowthBounds(right_index=-1.0, left_index=-1.0)


def to_moment_form(spec: FunctionSpec) -> FunctionSpec:
    """Map a half-line function f to the moment-side F with F(y) = f(-ln y).

    Only exponentials land back inside the catalog: exp(-g*x) becomes y**g.
    Everything else raises UnsupportedMap so no entry ever loses its exact
    growth metadata.
    """
    if spec.domain_hint is not DomainHint.HALF_LINE:
        raise UnsupportedMap("the map applies to half-line (Laplace-side) functions")
    if spec.kind is FunctionKind.EXP:
        return FunctionSpec.power(spec.params[0])
    if spec.kind is FunctionKind.EXP_MINUS_X:
        return FunctionSpec.power(1.0)
    raise UnsupportedMap(
        f"f(-ln y) for {spec.kind.value} is not representable in the catalog"
    )
