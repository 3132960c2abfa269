"""The CSV or JSON text of every numeric table, its rows rendered in numpy
a block of rows at a time.

`table` is the one entry, and this module owns the format: the CSV
header and each field quoted as csv.writer quotes it, and the JSON
records' keys and strings as json.dumps writes them.

Each block of at most BLOCK_ROWS rows is one uint8 matrix. A row is the
row's fields, each a fixed-width slot with a stored length, with constant
byte fields around them: `,` and `\\n` in CSV, and in JSON the record's
braces, keys and separators (`,\\n  {\\n    "key": `, `,\\n    "key": `,
`\\n  }`). A boolean mask built from the lengths (not from zero bytes, which
a text cell may hold), a row per slot from its field's table of one row
per length, keeps the text, and the kept bytes are decoded once per
block. The matrix and the mask are made once per table, with the
constant bytes set, and each block writes only its slots and their mask.
`table` returns the blocks' text as an iterator that makes each block
when it is read, so a table's text is never held whole.

A CSV float slot holds exactly format(v + 0.0, ".17g"), the text of
Python's correctly rounded dtoa:

- E = floor(log10|v|) is exact: the count of a table's entries at or
  below |v|, each the smallest float at or above a power of ten, found at
  import by exact comparison. D = round-half-even(|v|·10^(16−E)) comes
  from Dekker's error-free product (Numer. Math. 18, 1971) of |v| and hi,
  `_eft.two_product`, the one the half-point route of `signals` uses,
  where 10^k = hi + lo is a split that is exact for k ≤ 46, so the fast
  range is 1e−29 ≤ |v| < 1e16 and E runs over −30..15. The rounding
  counts as certain when the fraction f = |v|·10^k − D lies more than
  2^−40 from ±½; the arithmetic errs by less than 2^−44.
- 10^16 ≤ D ≤ 10^17, and D = 10^17 is the carry 10^16 at E + 1 (fl(1e−14)
  rounds up to it).
- D's 17 digits are its lead digit and four 4-digit groups, each group
  one lookup in a table of 10^4 four-byte texts, in one source row per
  value with the constant bytes. The text is a layout, a row of indices
  into the source row, picked by (sign, E, digit count) and taken with one
  flat take per 1,024 values. Each layout is the text that %g's own rule
  writes (`_text`: the fixed form for E ≥ −4, else the e-XX form,
  trailing zeros cut) with placeholder digits, made at import.
- Zero prints as 0. Every other value (nan, ±inf, a value outside the fast
  range, a rounding that is not certain) takes Python's own format.

A JSON float slot holds exactly json's text, float.__repr__(v): the
shortest decimal that reads back as v (Steele & White, PLDI 1990), made
from the same D and f. The 16- and 15-digit decimals next to v come
from D + f and D's last two digits. A decimal reads back as v when it
lies within the half-gaps about v: ulp/2 above, and ulp/2 below, or
ulp/4 below a power of two. repr is D15, the nearest 15-digit decimal,
if that reads back (every decimal of at most 15 digits that does is
D15, since DBL_DIG = 15); else the nearer of the two 16-digit neighbours
that reads back (below a power of two the lower may not while the
upper does); else D. Its layouts are written by repr's rule: the fixed
form for −4 ≤ E < 16, with `.0` when no fraction digit is left, and
d.ddde±XX otherwise.
Zero prints as 0.0 or -0.0; nan, ±inf, a value outside the fast range,
and a value within 2^−40 of a half-gap edge, or of a tie between two
16-digit neighbours that both read back, take json's own text.

A column is a 1-D float64 array, a 1-D signed-integer array or Labels
whose codes are an integer array in range, all of one length. An int slot
holds the digits of the value's uint64 magnitude, which covers every
int64, and a Labels column is encoded once per distinct value and placed
by each row's code.

A table plans once how each float column renders, from its uint64 bits;
a whole-column comparison runs only where the first and last values
agree, so a table that repeats no column pays a few scalar comparisons
per pair of float columns:

- A column whose bits equal an earlier column's takes that column's slots
  and lengths: equal bits have equal text.
- A column of one bit pattern renders its first value once per block, its
  slot and length broadcast to every row: every row's text is that one.
- A column whose bits equal an earlier column's with the sign bit cleared
  takes that column's slots, and its mask drops their leading `-`: the
  text of |v| is the text of v without its leading `-` in both formats
  (CSV's v + 0.0 prints 0 for −0.0, and Python prints no sign on a nan),
  which `tests/check_g17.py` checks on every value it draws.

Only the other columns, and one value of each constant one, go through
the block's one float text call.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Callable, Iterator, Sequence
from functools import partial
from itertools import chain

import numpy as np

from ._eft import split, two_product
from .weights import _Record

# A block's temporaries take about 150 bytes per float, and they set the
# renderer's peak memory: a 2,048-row block of a spectrum table's five
# float columns takes about 1.5 MB
BLOCK_ROWS = 2048

# E = floor(log10 a) of the fast range, 1e-29 <= a < 1e16, runs over
# -30..15: fl(1e-29) lies below 10^-29
_E_MIN, _E_MAX = -30, 15


def _least_float_from(k: int) -> float:
    """The smallest float >= 10^k: 10^k rounded by Python's correctly
    rounded int division, and its successor if it rounded down, which an
    exact comparison of its integer ratio c / d with 10^k tells."""
    top, bottom = 10 ** max(k, 0), 10 ** max(-k, 0)
    v = top / bottom
    c, d = v.as_integer_ratio()
    return v if c * bottom >= top * d else math.nextafter(v, math.inf)


# _DECADES[i]: the smallest float >= 10^(_E_MIN + 1 + i), so that E is
# _E_MIN plus the count of entries <= a
_DECADES = np.array([_least_float_from(k) for k in range(_E_MIN + 1, _E_MAX + 1)])
# 10^k = _HI[k] + _LO[k] exactly for k = 0..46 (5^46 < 2^107), which
# covers the scales 10^(16 - E), and Veltkamp's split of _HI into two
# halves of at most 26 bits
_HI = np.array([float(10 ** k) for k in range(17 - _E_MIN)])
_LO = np.array([float(10 ** k - int(float(10 ** k))) for k in range(17 - _E_MIN)])
_HH, _HL = split(_HI)
# a rounding or a round trip decided closer than this to its edge is not
# certain: the fraction errs by less than 2^-44
_MARGIN = 2.0 ** -40
# a float's exponent field, ulp/2 of 1.0 (2^-53) times 10^k, and the
# last digit of 0..99
_EXPONENT_BITS = np.uint64(0x7FF << 52)
_HALF_ULP = _HI * 2.0 ** -53
_LAST_DIGIT = np.arange(100.0) % 10

# A value's source row: digits 1..16 as four 4-digit groups, digit 0, then
# the constants of the layouts. Little-endian words hold the groups.
_CONSTANTS = b"-.e+0123456789"
_ROW = np.frombuffer(b"0" * 17 + _CONSTANTS + b"\0", np.uint8)
_DIGITS = bytes([16, *range(16)])  # the places of digits 0..16
_GROUP = np.arange(10 ** 4, dtype=np.int16)
# _GROUP_TEXT[g]: the four digits of g, one word
_GROUP_TEXT = np.stack([_GROUP // 10 ** (3 - place) % 10 + ord("0") for place in range(4)],
                       axis=1).astype(np.uint8).view("<u4")[:, 0]
# _TAIL[p, g]: the digit count through group p's last nonzero digit, or 0
_TAIL = np.zeros((4, 10 ** 4), np.uint8)
_TAIL[:, 1:] = 5 - sum(_GROUP[1:] % 10 ** z == 0 for z in (1, 2, 3))
_TAIL[:, 1:] += 4 * np.arange(4, dtype=np.uint8)[:, None]

# the longest text of the fast range (-1.2345678901234567e-29 and
# -0.00012345678901234567), and the longest text of all
# (-1.2345678901234567e-308)
_WIDTH = 23
_FALLBACK_WIDTH = 24
_TAKE = 1024  # values per take of the layout
_SIGN = np.uint64(1 << 63)  # a float's sign bit


def _text(E: int, d: int, shortest: bool) -> bytes:
    """The text of a magnitude of exponent E with d significant digits,
    CSV's or with `shortest` repr's, its digits as placeholders (their
    places in the source row): d.ddde-XX below E = -4, 0.000ddd below
    E = 0, else the fixed form, whose digits up to the point may be zeros
    past the d-th, and where none follows the point, repr's `.0` (a zero
    digit)."""
    digits = _DIGITS[:d]
    if E < -4:
        return digits[:1] + b"." * (d > 1) + digits[1:] + b"e-%02d" % -E
    if E < 0:
        return b"0." + b"0" * (-E - 1) + digits
    fraction = _DIGITS[E + 1:max(d, E + 1 + shortest)]
    return _DIGITS[:E + 1] + b"." * bool(fraction) + fraction


def _float_text(shortest: bool) -> tuple[np.ndarray, np.ndarray]:
    """CSV's layouts, or with `shortest` JSON's, and their lengths: row
    (sign · 46 + E + 30) · 17 + digits − 1 is that text as _WIDTH indices
    into a value's source row, and the last two rows are +0's and -0's."""
    unsigned = [_text(E, d, shortest) for E in range(_E_MIN, _E_MAX + 1) for d in range(1, 18)]
    zeros = [b"0.0", b"-0.0"] if shortest else [b"0", b"0"]
    texts = [*unsigned, *(b"-" + text for text in unsigned), *zeros]
    places = bytes.maketrans(_CONSTANTS, bytes(range(17, 17 + len(_CONSTANTS))))
    layout = b"".join(text.ljust(_WIDTH, b"\0") for text in texts).translate(places)
    return (np.frombuffer(layout, np.uint8).reshape(-1, _WIDTH),
            np.array(list(map(len, texts)), np.uint8))


# CSV's layouts and lengths, then JSON's
_LAYOUTS = _float_text(False), _float_text(True)


def _scaled(a: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D = round-half-even(a · 10^(16 − E)) as int64, whether that rounding
    is certain, and the fraction a · 10^(16 − E) − D, for a > 0 with
    0 <= 16 − E <= 46 and a · 10^(16 − E) < 2^60."""
    k = 16 - E
    p, e = two_product(a, _HI[k], _HH[k], _HL[k])
    # a · 10^k = p + e + a · lo, where p is an integer from 2^53 on, |e| <=
    # 2^7, and a · lo (below 2^7) errs by < 2^-46: f errs by < 2^-44
    e += a * _LO[k]
    n = np.rint(p)
    f = p  # the fraction, made in p's place
    f -= n
    f += e
    r = np.rint(f)
    f -= r
    certain = np.abs(f) < 0.5 - _MARGIN
    D = n.astype(np.int64)
    D += r.astype(np.int64)
    return D, certain, f


def _rounded(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """(D, E, certain, f): D · 10^(E − 16) with 10^16 <= D < 10^17 is the
    17-digit rounding of each a in the fast range, and f = a · 10^(16 − E)
    − D."""
    E = np.searchsorted(_DECADES, a, side="right") + _E_MIN
    D, certain, f = _scaled(a, E)
    # fl(1e-14), 0.118 units of D below 10^-14, reaches the carry from its
    # exponent -15
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    E[carry] += 1
    f[carry] /= 10
    return D, E, certain, f


def _shortest(a, D, E, certain, f) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, E, certain): repr(a)'s digits as a 17-digit integer R (D15 · 100,
    D16 · 10 or D17, at 10^(E − 16) a unit), from the 17-digit rounding
    (D, E, certain, f) of each a in the fast range."""
    # the half-gaps about a in units of D: ulp/2 = 2^(e - 53) for a in
    # [2^e, 2^(e+1)) above, and below too unless a is 2^e
    binade = (a.view(np.uint64) & _EXPONENT_BITS).view(np.float64)  # 2^e
    above = binade * _HALF_ULP[16 - E]
    below = np.where(a == binade, above * 0.5, above)
    # each edge, as far in as a certain decision lies and as far out
    below_in, below_out = below - _MARGIN, below + _MARGIN
    m100 = D % 100
    offset = np.zeros(len(a))  # R - D
    for step, m in ((10, _LAST_DIGIT.take(m100)), (100, m100.astype(np.float64))):
        t = m + f  # a less the candidate q · step below it, in units of D
        # q · step reads back where t < below, and (q + 1) · step where
        # step - t < above. Where both do (only at step 10, as the gaps
        # are below 23 units), the nearer is repr's, and a tie is dtoa's
        low, low_out = t < below_in, t < below_out
        high, high_out = t > step - above + _MARGIN, t > step - above - _MARGIN
        up = high & ~(low & (t < step / 2))
        tie = low_out & high_out & (np.abs(t - step / 2) < _MARGIN)
        sure = ~((low ^ low_out) | (high ^ high_out) | tie)
        reads = low | high
        np.copyto(offset, up * float(step) - m, where=reads)
        certain = sure & (reads | certain)
    R = D + offset.astype(np.int64)
    carry = R == 10 ** 17
    R[carry] = 10 ** 16
    return R, E + carry, certain


def _float_slots(values: np.ndarray, shortest: bool) -> tuple[np.ndarray, np.ndarray]:
    """The text of each v of a float64 vector, CSV's or with `shortest`
    JSON's, as the rows of a uint8 matrix, left-aligned, and the text
    lengths."""
    n = len(values)
    a = np.abs(values)
    fast = (a >= 1e-29) & (a < 1e16)
    a[~fast] = 1.0  # a placeholder: these take the fallback text
    D, E, certain, f = _rounded(a)
    if shortest:
        D, E, certain = _shortest(a, D, E, certain, f)
    del a, f
    certain &= fast
    high, low = np.divmod(D, 10 ** 8)
    lead, high = np.divmod(high.astype(np.int32), 10 ** 8)
    groups = (*np.divmod(high, 10 ** 4), *np.divmod(low.astype(np.int32), 10 ** 4))
    del D, high, low  # a block's temporaries set the renderer's peak memory
    source = np.empty((n, len(_ROW)), np.uint8)
    source[:] = _ROW
    source[:, 16] += lead.astype(np.uint8)
    digits = np.ones(n, np.uint8)
    for place, group in enumerate(groups):
        source.view("<u4")[:, place] = _GROUP_TEXT.take(group)
        np.maximum(digits, _TAIL[place].take(group), out=digits)
    sign = np.signbit(values)
    layout = (sign * (_E_MAX - _E_MIN + 1) + E - _E_MIN) * 17 + digits - 1
    layouts, text_lengths = _LAYOUTS[shortest]
    # zero's text, and a placeholder for the rest
    np.copyto(layout, len(layouts) - 2 + sign, where=~certain)
    slots = np.empty((n, _WIDTH), np.uint8)
    for start in range(0, n, _TAKE):  # each take's intp indices are 8 bytes per text byte
        stop = min(start + _TAKE, n)
        flat = layouts.take(layout[start:stop], axis=0)
        flat = flat + np.arange(start * len(_ROW), stop * len(_ROW), len(_ROW))[:, None]
        source.reshape(-1).take(flat, out=slots[start:stop])
    lengths = text_lengths[layout]
    slow = np.flatnonzero(~certain & (values != 0))
    if slow.size:
        fallback = json.dumps if shortest else (lambda v: format(v + 0.0, ".17g"))
        texts = [fallback(v).encode() for v in values[slow].tolist()]
        if max(map(len, texts)) > _WIDTH:  # as -2.2250738585072014e-308; nan and ±inf fit
            slots = np.pad(slots, ((0, 0), (0, _FALLBACK_WIDTH - _WIDTH)))
        for i, text in zip(slow.tolist(), texts):
            slots[i, :len(text)] = np.frombuffer(text, np.uint8)
        lengths[slow] = list(map(len, texts))
    return slots, lengths


def float_slots(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """format(v + 0.0, ".17g") of each v of a float64 vector, as the rows
    of a uint8 matrix, left-aligned, and the text lengths."""
    return _float_slots(values, False)


def json_float_slots(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """json.dumps(v) of each v of a float64 vector (float.__repr__, NaN,
    Infinity, -Infinity), as the rows of a uint8 matrix, left-aligned, and
    the text lengths."""
    return _float_slots(values, True)


# powers of ten 10..10^19, below which an int has 1..19 digits
_POWERS = 10 ** np.arange(1, 20, dtype=np.uint64)


def _int_slots(values: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """%d of each int64 as rows of `width` bytes, right-aligned, and the
    text lengths."""
    magnitude = np.abs(values).view(np.uint64)  # |-2^63| wraps to -2^63, whose bits are 2^63
    digits = np.searchsorted(_POWERS, magnitude, side="right") + 1
    negative = values < 0
    slots = np.empty((len(values), width), np.uint8)
    for j in range(width - 1, -1, -1):
        magnitude, slots[:, j] = np.divmod(magnitude, np.uint64(10))
    slots += ord("0")
    rows = np.flatnonzero(negative)
    slots[rows, width - 1 - digits[rows]] = ord("-")
    return slots, digits + negative


class Labels(_Record):
    """A string column as its distinct values and each row's index into
    them, so that no row's string is hashed."""

    _fields = ("names", "codes")

    def __init__(self, names: Sequence[str], codes: np.ndarray):
        self._init(names, codes)

    def __len__(self) -> int:
        return len(self.codes)


def _column(column, encode: Callable[[str], str]):
    """How a column renders, and the bytes of its field (its widest slot in
    any block): ("float", float64 array, width), ("int", int64 array, width)
    or ("text", (encoded values as left-aligned rows, their lengths, each
    row's code), width)."""
    data = column.codes if isinstance(column, Labels) else column
    if isinstance(data, np.ndarray) and data.ndim != 1:
        raise TypeError(f"a table column is 1-D, not {data.ndim}-D")
    if isinstance(column, Labels):
        codes, count = column.codes, len(column.names)
        integers = isinstance(codes, np.ndarray) and codes.dtype.kind in "iu"
        # from two scalars and no full-size temporary, as the int fields
        if not integers or len(codes) and not 0 <= int(codes.min()) <= int(codes.max()) < count:
            raise TypeError(f"a Labels column's codes are an integer array in 0..{count - 1}")
        encoded = [encode(text).encode() for text in column.names]
        lengths = np.array(list(map(len, encoded)), np.intp)
        table = np.zeros((len(encoded), int(lengths.max(initial=0))), np.uint8)
        for row, text in zip(table, encoded):
            row[:len(text)] = np.frombuffer(text, np.uint8)
        return "text", (table, lengths, column.codes), table.shape[1]
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return "float", column, _FALLBACK_WIDTH
    if isinstance(column, np.ndarray) and column.dtype.kind == "i":
        # _int_slots' digits and sign place, from two scalars and no
        # full-size temporary
        low, high = int(column.min(initial=0)), int(column.max(initial=0))
        return "int", column.astype(np.int64, copy=False), len(str(max(-low, high))) + (low < 0)
    kind = getattr(column, "dtype", type(column).__name__)
    raise TypeError(f"a table column is a float64 or signed-integer array or Labels, not {kind}")


def _blocks(columns: Sequence, encode: Callable[[str], str], fixed: list[str],
            float_text, skip: int = 0) -> Iterator[str]:
    """The text of a table's rows, one str per block of at most BLOCK_ROWS
    rows. The columns, how each float column renders, and the byte matrix
    and keep mask with the constant bytes that every block shares, are made
    here; each block is made only as it is read."""
    specs = [_column(column, encode) for column in columns]
    widths = [width for _, _, width in specs]
    rows, step = len(columns[0]), BLOCK_ROWS
    if any(len(column) != rows for column in columns):
        raise TypeError(f"a table's columns have one length, not {[*map(len, columns)]}")
    # one row's constant bytes and their keep mask, then every row's
    row = np.zeros(sum(map(len, fixed)) + sum(widths), np.uint8)
    kept = np.zeros(len(row), bool)
    at, col = [], 0
    for text, width in zip(fixed, [*widths, 0]):
        row[col:col + len(text)] = np.frombuffer(text.encode(), np.uint8)
        kept[col:col + len(text)] = True
        col += len(text)
        at.append(col)
        col += width
    matrix, keep = np.tile(row, (min(rows, step), 1)), np.tile(kept, (min(rows, step), 1))
    # masks[i][length]: which bytes of column i's field are text, from the
    # left or (an int's) from the right
    masks = [(np.arange(width) < np.arange(width + 1)[:, None])[:, ::-1 if kind == "int" else 1]
             for kind, _, width in specs]
    # source[j] = (i, strip): float column j takes column i's text, its own
    # or an earlier column's, without the leading "-" where strip; the
    # columns in `constant` render one value per block (see the module
    # docstring)
    bits = {j: values.view(np.uint64) for j, (kind, values, _) in enumerate(specs)
            if kind == "float" and rows}
    source, constant = {}, set()
    for j, b in bits.items():
        for i, (own, strip) in source.items():
            a = bits[i]
            if b[0] == a[0] and b[-1] == a[-1] and np.array_equal(a, b):
                source[j] = own, strip
                break
            if (b[0] == a[0] & ~_SIGN and b[-1] == a[-1] & ~_SIGN
                    and np.array_equal(a & ~_SIGN, b)):
                source[j] = own, True
                break
        else:
            source[j] = j, False
            if b[0] == b[-1] and (b == b[0]).all():
                constant.add(j)
    rendered = [j for j, (i, _) in source.items() if i == j]

    def block(start: int) -> str:
        """Rows start.. in the shared matrix and mask: column i's slot goes
        in its field of widths[i] bytes from column at[i], and its mask row
        keeps the slot's text. The table's first row drops its first `skip`
        bytes."""
        stop = min(start + step, rows)
        parts = [specs[j][1][start:start + 1 if j in constant else stop] for j in rendered]
        if parts:
            slots, lengths = float_text(np.concatenate(parts))
        texts, k = {}, 0
        for j, part in zip(rendered, parts):
            texts[j] = slots[k:k + len(part)], lengths[k:k + len(part)]
            k += len(part)
        n = stop - start
        for j, ((kind, values, width), col, mask) in enumerate(zip(specs, at, masks)):
            if kind == "float":
                i, strip = source[j]
                slot, length = texts[i]  # one row, broadcast, for a constant column
            elif kind == "int":
                slot, length = _int_slots(values[start:stop], width)
            else:
                table, text_lengths, codes = values
                block_codes = codes[start:stop]
                slot, length = table.take(block_codes, axis=0), text_lengths.take(block_codes)
            matrix[:n, col:col + slot.shape[1]] = slot
            keep[:n, col:col + width] = mask.take(length, axis=0)
            if kind == "float" and strip:
                keep[:n, col] &= slot[:, 0] != ord("-")
        text = str(matrix[:n][keep[:n]], "utf-8")
        return text if start else text[skip:]

    return map(block, range(0, rows, step))


def _csv_field(text: str, alone: bool) -> str:
    """text as csv.writer writes it in a row of one field (alone) or more:
    an empty field is quoted only when it is the row's only one."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text] if alone else [text, ""])
    return buf.getvalue()[:-1 if alone else -2]


def table(names: Sequence[str], columns: Sequence, fmt: str) -> Iterator[str]:
    """The text of a table of equal-length columns, one str per block of
    rows and one for the CSV header or each JSON bracket: in CSV ("csv")
    the bytes of csv.writer's rows, the names and then each record, with
    floats as format(v + 0.0, ".17g"), and in JSON ("json") those of
    json.dumps(records, indent=2) and a newline. A column is a 1-D float64
    array, a 1-D signed-integer array or Labels with integer codes that
    index its names, all of one length, and each column has one name; any
    other column, columns of two lengths, no column, or a count of names
    other than that of columns raise TypeError here. The columns are read
    here; each block's text is made only as it is read."""
    if not columns or len(names) != len(columns):
        raise TypeError(f"a table has one name per column, not {len(names)} for {len(columns)}")
    if fmt == "json":
        keys = [json.dumps(name) for name in names]
        # each record opens with the separator after the one before it,
        # which the first record drops
        fixed = [f",\n  {{\n    {keys[0]}: ", *(f",\n    {key}: " for key in keys[1:]),
                 "\n  }"]
        records = _blocks(columns, json.dumps, fixed, json_float_slots, skip=2)
        if not len(columns[0]):
            return iter(["[]\n"])
        return chain(["[\n"], records, ["\n]\n"])
    alone = len(names) == 1
    header = ",".join(_csv_field(name, alone) for name in names) + "\n"
    separators = ["", *[","] * (len(columns) - 1), "\n"]
    rows = _blocks(columns, partial(_csv_field, alone=alone), separators, float_slots)
    return chain([header], rows)
