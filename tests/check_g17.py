"""Compare the float text of `tableblocks` with Python's: the CSV slots of
`float_slots` with format(v + 0.0, ".17g"), and the JSON slots of
`json_float_slots` with json.dumps(v), float.__repr__ for a finite v.

    python tests/check_g17.py [--count N] [--seed S]

Runs from any directory. It draws N (default 10^7) uniformly random 64-bit
patterns, N more whose exponent field lies in the fast range
1e-29 <= |v| < 1e16 (where the digits do not come from Python), and the
edge families of `edge_values`, and compares both texts on each. On each it
also checks that Python's text of |v| is that of v without its leading
"-", in both formats, as a table's column of |v| takes it. Exits 1
naming the first value whose text differs, or prints one summary line.
The comparison runs in chunks of 10^5 values; `float_slots` and
`json_float_slots` are the only code of the program it calls.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from itertools import chain

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from stencil_spectra.tableblocks import float_slots, json_float_slots  # noqa: E402

CHUNK = 10 ** 5


def _ulps(values: np.ndarray, steps: int) -> np.ndarray:
    """values and their neighbours within `steps` ulp either way."""
    out = [values]
    up = down = values
    with np.errstate(over="ignore"):  # the largest float's neighbour is inf
        for _ in range(steps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            out += [up, down]
    return np.concatenate(out)


def ties(digits: int = 17) -> np.ndarray:
    """Dyadic values m / 2^(k+1), m odd, at which |v| · 10^k is an integer
    plus one half exactly and has `digits` digits before the point, such
    as 3 · 2^-24 (10^23 · 3 · 2^-24 = 17881393432617187.5): a few m per k."""
    values = []
    for k in range(1, 47):
        low = Fraction(10) ** (digits - 1 - k) * 2 ** (k + 1)  # |v| = 10^(digits - 1 - k)
        first = int(low) + 1 | 1
        for m in range(first, min(first + 20, int(low * 10), 2 ** 53), 2):
            values.append(m / 2 ** (k + 1))
    return np.array(values)


def near_ties(digits: int = 17) -> np.ndarray:
    """Values m · 2^e in the fast range at which |v| · 10^k is an integer
    plus 1/2 ± 2^-s or ± 3 · 2^-s exactly and has `digits` digits before the
    point, for 8 <= s <= 52: m · 5^k is 2^(s-1) ± 1 or ± 3 modulo 2^s. The
    larger s lie closer to the tie than the rounding can tell."""
    values = []
    for k in range(1, 47):
        # |v| near 3 · 10^(digits - 1 - k)
        e = math.floor(math.log2(3 * 10.0 ** (digits - 1 - k))) - 52
        s = -(k + e)
        if not 8 <= s <= 52:
            continue
        inverse = pow(5 ** k, -1, 2 ** s)
        for d in (-3, -1, 1, 3):
            m = (2 ** (s - 1) + d) * inverse % 2 ** s
            m += -(m - 2 ** 52) // 2 ** s * 2 ** s  # the least such m >= 2^52
            if m < 2 ** 53:
                values.append(math.ldexp(m, e))
    return np.array(values)


def near_half_gaps(digits: int = 16) -> np.ndarray:
    """Values v = m · 2^q in the fast range, m in [2^52, 2^53), whose upper
    or lower half-gap edge (2m ± 1) · 2^(q-1) lies within ±2^-s or ±3 ·
    2^-s of a decimal of `digits` digits, in units of its last digit, for
    8 <= s <= 53: (2m ± 1) · 5^K is ±1 or ±3 modulo 2^s, K being the
    decimal's digits after the point. The larger s lie closer to the edge
    than the round trip can tell."""
    values = []
    for K in range(46):
        # v near 3 · 10^(digits - 1 - K)
        q = math.floor(math.log2(3 * 10.0 ** (digits - 1 - K))) - 52
        s = 1 - q - K
        if not 8 <= s <= 53:
            continue
        inverse = pow(5 ** K, -1, 2 ** s)
        for side in (1, -1):
            for d in (-3, -1, 1, 3):
                odd = 2 ** 53 + (d * inverse - 2 ** 53) % 2 ** s  # the least such odd >= 2^53
                m = (odd - side) // 2
                if 2 ** 52 <= m < 2 ** 53:
                    values.append(math.ldexp(m, q))
    return np.array(values)


def shortest_ties() -> np.ndarray:
    """Dyadic values t · 2^-s, t odd and near a power of two, whose 17
    digits t · 5^s end in 5, so that their two 16-digit neighbours are
    equally near; near the bottom of a binade both may read back, as at
    2^-24 = 5.9604644775390625e-08."""
    values = []
    for s in range(1, 25):
        for j in range(53):
            for t in range(max(1, 2 ** j - 7) | 1, 2 ** j + 8, 2):
                if 10 ** 16 <= t * 5 ** s < 10 ** 17 and t < 2 ** 53:
                    values.append(math.ldexp(t, -s))
    return np.array(values)


def edge_values() -> np.ndarray:
    """10^k and 2^j and their neighbours within ±3 ulp for k = -330..308
    and j = -1074..1023, dyadic ties and near ties at 17 and 16 digits,
    half-gap edges near 16- and 15-digit decimals, subnormals, ±0, nan,
    ±inf, the fast range's edges 1e-29 and 1e16, and
    the edges of repr's fixed form (1e-05, 0.0001, 9999999999999998.0),
    each with either sign."""
    powers = np.array([float(f"1e{k}") for k in range(-330, 309)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    special = np.array([0.0, 5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
                        1.7976931348623157e308, np.inf, np.nan, 1e-29, 1e16, 1e-5, 1e-4,
                        1e-3, 9999999999999998.0, 1.2345678901234568e17, 612857683458612.75])
    values = np.concatenate([_ulps(powers, 3), _ulps(twos, 3), ties(), near_ties(), ties(16),
                             near_ties(16), shortest_ties(), near_half_gaps(16),
                             near_half_gaps(15), _ulps(special, 3)])
    return np.concatenate([values, -values])


def random_patterns(rng: np.random.Generator, count: int, fast: bool) -> np.ndarray:
    """`count` random 64-bit patterns as floats; with `fast`, the exponent
    field is drawn from the binades that meet 1e-29 <= |v| < 1e16."""
    bits = rng.integers(0, 2 ** 64, size=count, dtype=np.uint64, endpoint=False)
    if fast:
        exponent = rng.integers(1023 - 97, 1023 + 54, size=count, dtype=np.uint64)
        bits = bits & np.uint64(0x800F_FFFF_FFFF_FFFF) | exponent << np.uint64(52)
    return bits.view(np.float64)


def _g17(v: float) -> str:
    return format(v + 0.0, ".17g")


def mismatch(values: np.ndarray, make=float_slots, text=_g17) -> str | None:
    """The first value whose slot text (CSV's, or another format's made by
    `make`) differs from Python's `text`, or whose |v| has a Python text
    other than v's without its leading "-" (the text a table reuses for a
    column of |v|), described."""
    slots, lengths = make(values)
    keep = np.arange(slots.shape[1]) < lengths[:, None]
    got = np.where(keep, slots, ord("\n")).tobytes().decode()
    expected = [text(v) for v in values.tolist()]
    magnitudes = list(map(text, np.abs(values).tolist()))
    if [t.removeprefix("-") for t in expected] != magnitudes:
        i = next(i for i, (t, a) in enumerate(zip(expected, magnitudes))
                 if t.removeprefix("-") != a)
        return f"{float(values[i])!r}: its text is {expected[i]!r}, that of |v| {magnitudes[i]!r}"
    width = slots.shape[1]
    if got == "".join(t.ljust(width, "\n") for t in expected):
        return None
    for i, t in enumerate(expected):
        slot = got[i * width:(i + 1) * width].rstrip("\n")
        if slot != t:
            bits = values[i:i + 1].view(np.uint64)[0]
            return f"{values[i]!r} (bits {bits:#018x}): got {slot!r}, Python gives {t!r}"
    raise AssertionError("the chunks differ but no value does")


# json writes repr(v), and these names for the values that have no number
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(v: float) -> str:
    text = repr(v)
    return _NON_FINITE.get(text, text)


def json_mismatch(values: np.ndarray) -> str | None:
    """The first value whose JSON slot text differs from json.dumps(v)."""
    return mismatch(values, json_float_slots, _json_float)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10 ** 7,
                        help="random patterns of each kind (default: 10^7)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    drawn = ((name, random_patterns(rng, min(CHUNK, args.count - start), fast))
             for fast, name in ((False, "random patterns"), (True, "fast-range patterns"))
             for start in range(0, args.count, CHUNK))
    checked = 0
    for name, values in chain([("edge families", edge_values())], drawn):
        for form, found in (("CSV", mismatch(values)), ("JSON", json_mismatch(values))):
            if found:
                print(f"{name}, {form}: {found}", file=sys.stderr)
                return 1
        checked += len(values)
    print(f"{checked} values match format(v + 0.0, '.17g') in CSV and json.dumps(v) in JSON, "
          f"and |v| prints as v without its '-' (seed {args.seed}, numpy {np.__version__})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
