"""Compare the certified half-point route of `signals` with its exact route,
bit for bit.

    python tests/check_half_point.py [--count N] [--seed S]

Runs from any directory. For each n = 1..40 and n = 60, 100 and 300 it
draws random windows of each of three kinds of random 64-bit sample
patterns, and the edge families of `edge_signals`, and compares
`differentiate_half_point_signal` with the exact route
(`_HalfPointRule.exact`) at every index, as `.view(np.uint64)`:

- any finite float, with h >= 2·Σ|w(k)|, so that no value overflows;
- exponents anywhere in 2^-969..2^960, where products d·w_hi near the
  bottom fall below the route's 2^-968;
- exponents within 2^±8 of a drawn scale, where nearly every value is
  certified.

Each n up to 8 takes N (default 40,000) windows of each kind and the full
edge families; each larger n takes the share (8/n)² of them, which keeps
its cost, growing as n² per window, near n = 8's. h is dyadic in every
other chunk of 10^4 windows and non-dyadic in the others. Exits 1
naming the first index whose value differs, or prints the count of values
that fell back to the exact route for each n and a summary line.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from stencil_spectra.signals import (SampledSignal, _HalfPointRule,  # noqa: E402
                                     differentiate_half_point_signal)
from stencil_spectra.weights import half_point  # noqa: E402

CHUNK = 10 ** 4
N_VALUES = [*range(1, 41), 60, 100, 300]


def _patterns(rng: np.random.Generator, count: int, exponents: tuple[int, int] | None):
    """`count` random 64-bit patterns as finite floats; with `exponents`
    (lo, hi), the unbiased exponent is drawn from lo..hi."""
    bits = rng.integers(0, 2 ** 64, size=count, dtype=np.uint64, endpoint=False)
    if exponents is None:
        # an exponent field of all ones (inf, NaN) becomes one below it
        field = bits >> np.uint64(52) & np.uint64(0x7FF)
        bits = np.where(field == 0x7FF, bits - (np.uint64(1) << np.uint64(52)), bits)
    else:
        field = rng.integers(1023 + exponents[0], 1023 + exponents[1] + 1, size=count,
                             dtype=np.uint64)
        bits = bits & np.uint64(0x800F_FFFF_FFFF_FFFF) | field << np.uint64(52)
    return bits.view(np.float64)


def _spacing(rng: np.random.Generator, dyadic: bool, low: float, high: float) -> float:
    """h in [low, high): a power of two, or a random non-dyadic float."""
    if dyadic:
        return math.ldexp(1.0, int(rng.integers(math.ceil(math.log2(low)),
                                                math.floor(math.log2(high)))))
    while True:
        h = math.exp(rng.uniform(math.log(low), math.log(high)))
        if h.as_integer_ratio()[1] > 2 ** 30:
            return h


def random_signals(rng: np.random.Generator, n: int, count: int):
    """(kind, signal) chunks of the three random kinds, `count` windows each."""
    reach = 2 * n - 1
    bound = float(sum(abs(w) for _, w in half_point(n).nodes))  # 2·Σ|w(k)| over k > 0
    for kind, exponents, h_range in (("any finite float", None, (bound, 2.0 ** 30)),
                                     ("route range", (-969, 960), (2.0 ** -20, 2.0 ** 20)),
                                     ("close exponents", (-8, 8), (2.0 ** -20, 2.0 ** 20))):
        for i, start in enumerate(range(0, count, CHUNK)):
            size = min(CHUNK, count - start) + 2 * reach
            samples = _patterns(rng, size, exponents)
            if kind == "close exponents":
                samples = np.ldexp(samples, int(rng.integers(-300, 300)))
            yield kind, SampledSignal(h=_spacing(rng, i % 2 == 0, *h_range), samples=samples)


def _midpoint_samples(n: int, h: float, targets: list[Fraction]) -> np.ndarray:
    """Samples whose half-point value at index (reach + 2)·j + reach is
    targets[j] to within 2^-106 relative: f at that index ± 1 is the
    difference target·2h / w(1) as a float pair, and every other sample is
    1.0, which the index's other offsets cancel."""
    reach, width = 2 * n - 1, 2 * n + 1
    samples = np.ones(width * len(targets) + reach)
    scale = 2 * Fraction(h) / dict(half_point(n).nodes)[1]
    for j, target in enumerate(targets):
        difference = target * scale
        high = float(difference)
        samples[width * j + reach + 1] = high
        samples[width * j + reach - 1] = -float(difference - Fraction(high))
    return samples


def edge_signals(rng: np.random.Generator, n: int, share: float = 1.0):
    """(kind, signal) for the edge families, the first `share` of each:
    - values at and near rounding midpoints: for 300 random floats q
      (exponents -700..700) and 1.0, 1.5 and 0.1, each midpoint to either
      neighbour and the midpoint plus 1 and 3 times gap·2^-s either way for
      s = 30, 50, 53, 56, 60, the gap being the one the midpoint halves;
      1.0's lower midpoint lies just below a power of two;
    - 10^4 samples drawn from ±0, subnormals, 2^-1022, the route's least
      product 2^-968 and its greatest sample 2^994 and their neighbours
      outside, 2^995, 2^1023, the largest float and small integers, with
      h >= 2·Σ|w(k)|."""
    qs = np.concatenate([[1.0, 1.5, 0.1], _patterns(rng, 300, (-700, 700))]).tolist()
    targets = []
    for q in qs:
        for neighbour in (math.nextafter(q, math.inf), math.nextafter(q, -math.inf)):
            midpoint = (Fraction(q) + Fraction(neighbour)) / 2
            gap = abs(Fraction(neighbour) - Fraction(q))
            targets.append(midpoint)
            targets += [midpoint + j * gap / 2 ** s
                        for s in (30, 50, 53, 56, 60) for j in (-3, -1, 1, 3)]
    targets = targets[:max(1, round(len(targets) * share))]
    for h in (0.5, 0.001, _spacing(rng, False, 2.0 ** -10, 2.0 ** 10)):
        yield "midpoints", SampledSignal(h=h, samples=_midpoint_samples(n, h, targets))
    specials = np.array([0.0, 5e-324, 1e-310, 2.0 ** -1022, 2.0 ** -968,
                         math.nextafter(2.0 ** -968, 0), 2.0 ** 994,
                         math.nextafter(2.0 ** 994, math.inf), 2.0 ** 995, 2.0 ** 1023,
                         1.7976931348623157e308, 1.0, 3.0])
    specials = np.concatenate([specials, -specials])
    for dyadic in (True, False):
        h = _spacing(rng, dyadic, 4 * n, 2.0 ** 20)
        size = max(4 * n, round(CHUNK * share))
        yield "specials", SampledSignal(h=h, samples=rng.choice(specials, size))


def mismatch(signal: SampledSignal, n: int) -> tuple[str | None, int]:
    """The first index whose certified value differs from the exact
    route's, described (or the differing error of a value that overflows),
    and the count of values that fell back."""
    rule = _HalfPointRule(n)
    reach = rule.max_offset
    interior = np.arange(reach, len(signal) - reach)
    _, kept = rule._certified(signal, reach, len(signal) - reach)
    try:
        expected = rule.exact(signal, interior)
    except ValueError as error:
        expected = error
    try:
        got = differentiate_half_point_signal(signal, n).values[interior]
    except ValueError as error:
        got = error
    if isinstance(expected, ValueError) or isinstance(got, ValueError):
        if str(got) != str(expected):
            return f"n={n}, h={signal.h!r}: got {got!r}, the exact route gives {expected!r}", 0
        return None, int((~kept).sum())
    differ = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
    if len(differ):
        i = interior[differ[0]]
        window = signal.samples[i - reach:i + reach + 1].tolist()
        return (f"n={n}, h={signal.h!r}, index {i}, samples {window}: got {got[differ[0]]!r}, "
                f"the exact route gives {expected[differ[0]]!r}"), 0
    return None, int((~kept).sum())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=40_000,
                        help="random windows of each kind for each n up to 8 (default: 40,000)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    checked = fallbacks = 0
    for n in N_VALUES:
        share = min(1.0, (8 / n) ** 2)
        count = max(1, round(args.count * share))
        values = fell_back = 0
        for kind, signal in [*edge_signals(rng, n, share), *random_signals(rng, n, count)]:
            found, missed = mismatch(signal, n)
            if found:
                print(f"{kind}: {found}", file=sys.stderr)
                return 1
            values += len(signal) - 2 * (2 * n - 1)
            fell_back += missed
        print(f"n = {n}: {values} values, {fell_back} fell back", flush=True)
        checked += values
        fallbacks += fell_back
    print(f"{checked} half-point values for n = 1..40, 60, 100 and 300 match the exact route "
          f"bit for bit; {fallbacks} fell back to it (seed {args.seed}, numpy {np.__version__})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
