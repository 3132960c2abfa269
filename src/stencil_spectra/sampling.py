"""The test functions that `diff` and `figure 2b` sample, their `--fn`
grammar, and the rule of the grid they are sampled on.

The module imports without numpy, so that the CLI checks a `--fn` and its
grid before numpy loads: only the `sample` methods import it. `signals`,
which samples and differentiates, passes every name through. The test
functions are plain frozen records (`weights._Record`), as every record
of the package is.
"""

from __future__ import annotations

import math

from .weights import _Record


def check_grid(h: float, points: int, origin: int | None = None) -> int:
    """The origin of a grid of `points` samples spaced h, whose index
    `origin` maps to x = 0; by default the centre index points // 2, where
    make_signal puts it. A ValueError unless the grid has at least two
    points, h is positive and finite, the origin indexes into the points
    and the x of the farthest point is finite."""
    if points < 2:
        raise ValueError("need at least two points")
    if not 0 < h < math.inf:
        raise ValueError(f"h={h} must be a positive finite float")
    if origin is None:
        origin = points // 2
    if not 0 <= origin < points:
        raise ValueError("origin must index into the samples")
    reach = max(origin, points - 1 - origin)
    if not math.isfinite(reach * h):
        raise ValueError(f"h={h}: x = {reach}*h at the far end overflows the floats")
    return origin


def _poly_eval(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_diff(coeffs):
    return tuple(k * c for k, c in enumerate(coeffs))[1:] or (0.0,)


class Sinusoid(_Record):
    _fields = ("omega", "phase")

    def __init__(self, omega: float, phase: float = 0.0):
        self._init(omega, phase)

    def sample(self, m: np.ndarray, h: float) -> np.ndarray:
        """sin(omega * m * h + phase), its argument built in one float
        array: the same IEEE operations in the same order, without a
        temporary for each."""
        import numpy as np

        t = np.multiply(self.omega, m, dtype=float)
        t *= h
        t += self.phase
        return np.sin(t, out=t)

    def derivative(self, x: float, order: int) -> float:
        if order == 1:
            return self.omega * math.cos(self.omega * x + self.phase)
        return -(self.omega ** 2) * math.sin(self.omega * x + self.phase)


class Polynomial(_Record):
    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[float, ...]):
        self._init(coeffs)

    def sample(self, m: np.ndarray, h: float) -> np.ndarray:
        return _poly_eval(self.coeffs, m * h)

    def derivative(self, x: float, order: int) -> float:
        c = self.coeffs
        for _ in range(order):
            c = _poly_diff(c)
        return _poly_eval(c, x)


class ModulatedAlternating(_Record):
    """Samples (-1)**m * g(m h) with a polynomial envelope g: the grid alias
    of a Nyquist carrier modulated by g."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[float, ...]):
        self._init(coeffs)

    def envelope(self, x: float) -> float:
        return _poly_eval(self.coeffs, x)

    def sample(self, m: np.ndarray, h: float) -> np.ndarray:
        import numpy as np

        return np.where(m % 2, -1.0, 1.0) * self.envelope(m * h)


def parse_test_function(expr: str):
    """CLI test-function grammar: sin:omega=...[,phase=...], poly:c0,c1,...,
    altpoly:c0,c1,..."""
    head, sep, rest = expr.partition(":")
    if not sep or not rest:
        raise ValueError(f"malformed test function {expr!r}")
    if head == "sin":
        params = {}
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq or key not in ("omega", "phase"):
                raise ValueError(f"malformed sinusoid parameter {item!r}")
            if key in params:
                raise ValueError(f"sinusoid parameter {key} is given twice")
            params[key] = float(val)
        if "omega" not in params:
            raise ValueError("sinusoid needs omega=")
        return Sinusoid(**params)
    coeffs = tuple(float(c) for c in rest.split(","))
    if head == "poly":
        return Polynomial(coeffs)
    if head == "altpoly":
        return ModulatedAlternating(coeffs)
    raise ValueError(f"unknown test function family {head!r}")
