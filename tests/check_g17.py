"""Compare the CSV float text of `csvblocks.float_slots` with Python's
format(v + 0.0, ".17g") on random bit patterns and on the edge families.

    python tests/check_g17.py [--count N] [--seed S]

Runs from any directory. It draws N (default 10^7) uniformly random 64-bit
patterns, N more whose exponent field lies in the fast range
1e-29 <= |v| < 1e16 (where the digits do not come from Python), and the
edge families of `edge_values`. Exits 1 naming the first value whose text
differs, or prints one summary line. The comparison runs in chunks of
10^5 values; `float_slots` is the only code of the program it calls.
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
from stencil_spectra.csvblocks import float_slots  # noqa: E402

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


def ties() -> np.ndarray:
    """Dyadic values m / 2^(k+1), m odd, at which |v| · 10^k is an integer
    plus one half exactly for the k of their 17-digit text, such as
    3 · 2^-24 (10^23 · 3 · 2^-24 = 17881393432617187.5): a few m per k."""
    values = []
    for k in range(1, 47):
        low = Fraction(10) ** (16 - k) * 2 ** (k + 1)  # |v| = 10^(16 - k)
        first = int(low) + 1 | 1
        for m in range(first, min(first + 20, int(low * 10), 2 ** 53), 2):
            values.append(m / 2 ** (k + 1))
    return np.array(values)


def near_ties() -> np.ndarray:
    """Values m · 2^e in the fast range at which |v| · 10^k is an integer
    plus 1/2 ± 2^-s or ± 3 · 2^-s exactly, for 8 <= s <= 52: m · 5^k is
    2^(s-1) ± 1 or ± 3 modulo 2^s. The larger s lie closer to the tie than
    the rounding can tell."""
    values = []
    for k in range(1, 47):
        e = math.floor(math.log2(3 * 10.0 ** (16 - k))) - 52  # |v| near 3 · 10^(16-k)
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


def edge_values() -> np.ndarray:
    """10^k and its neighbours within ±3 ulp for k = -330..308, dyadic ties
    and near ties, subnormals, ±0, nan, ±inf and the fast range's edges
    1e-29 and 1e16, each with either sign."""
    powers = np.array([float(f"1e{k}") for k in range(-330, 309)])
    special = np.array([0.0, 5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
                        1.7976931348623157e308, np.inf, np.nan, 1e-29, 1e16, 1e-5, 1e-4,
                        1e-3, 9999999999999998.0, 1.2345678901234568e17])
    values = np.concatenate([_ulps(powers, 3), ties(), near_ties(), _ulps(special, 3)])
    return np.concatenate([values, -values])


def random_patterns(rng: np.random.Generator, count: int, fast: bool) -> np.ndarray:
    """`count` random 64-bit patterns as floats; with `fast`, the exponent
    field is drawn from the binades that meet 1e-29 <= |v| < 1e16."""
    bits = rng.integers(0, 2 ** 64, size=count, dtype=np.uint64, endpoint=False)
    if fast:
        exponent = rng.integers(1023 - 97, 1023 + 54, size=count, dtype=np.uint64)
        bits = bits & np.uint64(0x800F_FFFF_FFFF_FFFF) | exponent << np.uint64(52)
    return bits.view(np.float64)


def mismatch(values: np.ndarray) -> str | None:
    """The first value whose slot text differs from Python's, described."""
    slots, lengths = float_slots(values)
    keep = np.arange(slots.shape[1]) < lengths[:, None]
    got = np.where(keep, slots, ord("\n")).tobytes().decode()
    expected = [format(v + 0.0, ".17g") for v in values.tolist()]
    width = slots.shape[1]
    if got == "".join(text.ljust(width, "\n") for text in expected):
        return None
    for i, text in enumerate(expected):
        slot = got[i * width:(i + 1) * width].rstrip("\n")
        if slot != text:
            bits = values[i:i + 1].view(np.uint64)[0]
            return f"{values[i]!r} (bits {bits:#018x}): got {slot!r}, Python gives {text!r}"
    raise AssertionError("the chunks differ but no value does")


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
        found = mismatch(values)
        if found:
            print(f"{name}: {found}", file=sys.stderr)
            return 1
        checked += len(values)
    print(f"{checked} values match format(v + 0.0, '.17g') (seed {args.seed}, "
          f"numpy {np.__version__})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
