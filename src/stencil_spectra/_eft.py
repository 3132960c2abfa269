"""Error-free float transformations: Veltkamp's split, Knuth's TwoSum and
Dekker's TwoProduct (Numer. Math. 18, 1971). Each turns a float operation
into its rounded result and the exact error, as a pair of floats whose sum
is the exact value. Each function takes Python floats or float64 arrays
alike, elementwise, and the module imports nothing.

The certified half-point route of `signals` and the float text of
`tableblocks` build on these three.
"""

# Veltkamp's splitter 2^27 + 1: a float becomes two halves of at most 26
# significant bits, whose products are exact
SPLIT = 134217729.0


def split(x):
    """Veltkamp's split: x = hi + lo exactly, each half with at most 26
    significant bits (for 2^-1022 <= |x| <= 2^995, or x = 0)."""
    c = SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def two_sum(a, b):
    """Knuth's TwoSum: a + b = s + e exactly, s = fl(a + b), barring
    overflow."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def two_product(x, y, y_hi, y_lo):
    """Dekker's TwoProduct: x · y = p + e exactly, p = fl(x · y), for y
    split beforehand as y_hi + y_lo (see split), x and y in split's range,
    their exponents summing to -970 or more (no partial product loses bits
    to underflow) and x · y finite."""
    p = x * y
    x_hi, x_lo = split(x)
    return p, y_hi * x_hi - p + y_hi * x_lo + y_lo * x_hi + y_lo * x_lo
