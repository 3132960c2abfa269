"""Independent output checks, sharing no code with the program under test.

Each check reads an argv and the bytes the program wrote and returns a list
of problems (empty when the output is right). They run outside the timed
region, once per distinct argv of a run:

- `stencil`: the weights satisfy their moment conditions exactly, evaluated
  here in integers over a common denominator, through the degree the paper
  states for the family.
- `verify`: the suite reports k/k checks passed, with k = 13 * max-n.
- `spectrum` / `figure 1a|1b|2a|3a|3b`: N/2+1 rows per family, r = 0..N/2 in
  order, and omega = 2 pi r / (N h).
- `diff` and `figure 2b`: interior derivatives match the analytic derivative
  of the test function within DIFF_TOL, and figure 2b's envelope columns
  match the envelope.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# |got - want| <= DIFF_TOL * (1 + |want|), on every sampled interior row.
# With h = 0.001 the largest such error over every diff argv the workloads
# can draw is 8.9e-7 (one-sided first-derivative rule, n = 2, on
# sin(2x + 0.5)): a hundred-fold headroom, while a wrong weight, scale or
# offset misses by orders of magnitude.
DIFF_TOL = 1e-4
# figure 2b accumulates in exact rationals and rounds once; its corrected
# half-point column reproduces the envelope derivative to rounding error
# (largest relative error over the workload argvs: 8.5e-14).
ENVELOPE_TOL = 1e-9
# rows of a long diff output that are checked, spread evenly
DIFF_SAMPLE_ROWS = 400

SPECTRUM_COLUMNS = ["r", "omega", "re_b_conj", "im_b_conj", "ref_value", "abs_dev"]

# degree through which each family is exact, and its node count
_EXACT_DEGREE = {
    "central-first": lambda n: 2 * n,
    "central-second": lambda n: 2 * n + 1,
    "half-point-first": lambda n: 2 * n,
    "one-sided-first": lambda n: n,
    "one-sided-nth": lambda n: n,
}
_NODE_COUNT = {
    "central-first": lambda n: 2 * n,
    "central-second": lambda n: 2 * n + 1,
    "half-point-first": lambda n: 2 * n,
    "one-sided-first": lambda n: n + 1,
    "one-sided-nth": lambda n: n + 1,
}


def options(argv: list[str]) -> dict[str, str]:
    """--flag value pairs of an argv (every flag the workloads use takes one)."""
    return {argv[i][2:]: argv[i + 1] for i in range(len(argv) - 1)
            if argv[i].startswith("--")}


def check(argv: list[str], text: str) -> list[str]:
    command = argv[0]
    opts = options(argv)
    if command == "stencil":
        return check_stencil(text, opts["kind"], int(opts["n"]), opts.get("format", "csv"))
    if command == "verify":
        return _check_verify(text, int(opts["max-n"]), opts.get("format", "text"))
    if command == "spectrum":
        return _check_spectrum_rows(text, opts, [None])
    if command == "figure":
        figure = argv[1]
        if figure == "2b":
            return _check_envelope(text, opts)
        if figure in ("1a", "1b"):
            return _check_spectrum_rows(text, opts, [None])
        default = "1,10" if figure == "2a" else "1,3,5"
        ns = [int(v) for v in opts.get("n", default).split(",")]
        return _check_spectrum_rows(text, opts, ns)
    if command == "diff":
        return _check_diff(text, opts)
    return [f"no check for command {command!r}"]


# --- stencils ---------------------------------------------------------------


def parse_stencil(text: str, fmt: str) -> dict:
    if fmt == "json":
        data = json.loads(text)
        nodes = [(int(d["offset"]), Fraction(d["weight"])) for d in data["nodes"]]
        return {"kind": data["kind"], "n": int(data["n"]),
                "order": int(data["derivative_order"]),
                "prefactor": Fraction(data["prefactor"]), "nodes": nodes}
    lines = text.splitlines()
    head = dict(item.split("=", 1) for item in lines[0].lstrip("# ").split(","))
    if lines[1] != "offset,weight":
        raise ValueError(f"unexpected stencil header {lines[1]!r}")
    nodes = []
    for line in lines[2:]:
        offset, weight = line.split(",")
        nodes.append((int(offset), Fraction(weight)))
    return {"kind": head["kind"], "n": int(head["n"]),
            "order": int(head["derivative_order"]),
            "prefactor": Fraction(head["prefactor"]), "nodes": nodes}


def check_stencil(text: str, kind: str, n: int, fmt: str) -> list[str]:
    try:
        st = parse_stencil(text, fmt)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparseable stencil: {exc}"]
    problems = []
    if (st["kind"], st["n"]) != (kind, n):
        problems.append(f"stencil is {st['kind']}(n={st['n']}), asked {kind}(n={n})")
    if len(st["nodes"]) != _NODE_COUNT[kind](n):
        problems.append(f"{len(st['nodes'])} nodes, expected {_NODE_COUNT[kind](n)}")
    # prefactor * sum_m w_m m^k = d! delta(k, d), in integers: scale every
    # weight by the common denominator L of weights and prefactor.
    d = st["order"]
    terms = [w * st["prefactor"] for _, w in st["nodes"]]
    denom = math.lcm(*(t.denominator for t in terms))
    nums = [t.numerator * (denom // t.denominator) for t in terms]
    offsets = [o for o, _ in st["nodes"]]
    powers = [1] * len(offsets)
    for k in range(_EXACT_DEGREE[kind](n) + 1):
        moment = sum(a * p for a, p in zip(nums, powers))
        want = math.factorial(d) * denom if k == d else 0
        if moment != want:
            problems.append(f"moment condition fails at degree {k}")
            break
        powers = [p * o for p, o in zip(powers, offsets)]
    return problems


# --- verify -----------------------------------------------------------------


def _check_verify(text: str, max_n: int, fmt: str) -> list[str]:
    expected = 13 * max_n  # 5 families x 2 checks + 3 closed-form checks, per n
    if fmt == "json":
        data = json.loads(text)
        ok = (data["passed"] == expected and data["failed"] == 0
              and len(data["checks"]) == expected
              and all(c["ok"] for c in data["checks"]))
        return [] if ok else [f"verify json: {data['passed']} passed, {data['failed']} failed"]
    lines = text.splitlines()
    if lines[-1] != f"{expected}/{expected} checks passed":
        return [f"verify summary {lines[-1]!r}, expected {expected}/{expected}"]
    if len(lines) != expected + 1 or not all(l.startswith("PASS ") for l in lines[:-1]):
        return ["verify lists a check that did not pass"]
    return []


# --- spectra ----------------------------------------------------------------


def _table(text: str, fmt: str) -> tuple[list[str], list[list[str]]]:
    if fmt == "json":
        rows = json.loads(text)
        columns = list(rows[0]) if rows else []
        return columns, [[str(row[c]) for c in columns] for row in rows]
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _check_spectrum_rows(text: str, opts: dict, ns: list) -> list[str]:
    N = int(opts.get("N", "2000"))
    h = float(opts.get("h", "1"))
    columns, rows = _table(text, opts.get("format", "csv"))
    lead = [] if ns == [None] else ["n"]
    if columns != lead + SPECTRUM_COLUMNS:
        return [f"columns {columns}"]
    half = N // 2 + 1
    if len(rows) != len(ns) * half:
        return [f"{len(rows)} rows, expected {len(ns)} x (N/2+1) = {len(ns) * half}"]
    off = len(lead)
    for block, n in enumerate(ns):
        for r in range(half):
            row = rows[block * half + r]
            if lead and int(row[0]) != n:
                return [f"row {block * half + r}: n={row[0]}, expected {n}"]
            if int(row[off]) != r:
                return [f"row {block * half + r}: r={row[off]}, expected {r}"]
            if r % 97 == 1:
                omega = 2.0 * math.pi * r / (N * h)
                if not math.isclose(float(row[off + 1]), omega, rel_tol=1e-12):
                    return [f"r={r}: omega={row[off + 1]}, expected {omega!r}"]
    return []


# --- signals ----------------------------------------------------------------


def _poly(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_derivative(coeffs, order):
    for _ in range(order):
        coeffs = [k * c for k, c in enumerate(coeffs)][1:] or [0.0]
    return coeffs


def analytic_derivative(fn: str, order: int):
    """x -> d^order/dx^order of a `sin:` or `poly:` test function."""
    head, _, rest = fn.partition(":")
    if head == "sin":
        params = dict(item.split("=") for item in rest.split(","))
        omega = float(params["omega"])
        phase = float(params.get("phase", 0.0))
        return lambda x: omega ** order * math.sin(omega * x + phase + order * math.pi / 2)
    coeffs = _poly_derivative([float(c) for c in rest.split(",")], order)
    return lambda x: _poly(coeffs, x)


def _sampled(lo: int, hi: int):
    step = max(1, (hi - lo) // DIFF_SAMPLE_ROWS)
    return sorted(set(range(lo, hi, step)) | {hi - 1})


def _check_diff(text: str, opts: dict) -> list[str]:
    points = int(opts["points"])
    h = float(opts["h"])
    origin = points // 2
    if "stencil-file" in opts:
        with open(opts["stencil-file"], encoding="utf-8") as fh:
            st = parse_stencil(fh.read(), "json")
        order = st["order"]
        label = f"{st['kind']}(n={st['n']})"
        offsets = [o for o, _ in st["nodes"]]
        lo, hi = -min(offsets), points - max(offsets)
    else:
        n = int(opts["n"])
        order = int(opts.get("order", "1"))
        if opts.get("kind") == "half-point-first":
            label, reach = f"half-point({n})", 2 * n - 1
        else:
            label, reach = f"central({n})", n
        lo, hi = reach, points - reach
    columns, rows = _table(text, opts.get("format", "csv"))
    if columns != ["index", "x", "value", "policy"]:
        return [f"columns {columns}"]
    if len(rows) != points:
        return [f"{len(rows)} rows, expected {points}"]
    want_fn = analytic_derivative(opts["fn"], order)
    for i in _sampled(lo, hi):
        index, x, value, policy = rows[i]
        xi = (i - origin) * h
        if int(index) != i or policy != label:
            return [f"row {i}: index {index}, policy {policy!r}, expected {label!r}"]
        if not math.isclose(float(x), xi, rel_tol=1e-12, abs_tol=1e-15):
            return [f"row {i}: x={x}, expected {xi!r}"]
        want = want_fn(xi)
        if not abs(float(value) - want) <= DIFF_TOL * (1 + abs(want)):
            return [f"row {i}: derivative {value}, analytic {want!r}"]
    return []


def _check_envelope(text: str, opts: dict) -> list[str]:
    points = int(opts["points"])
    h = float(opts.get("h", "1"))
    n = int(opts["n"].split(",")[0])
    coeffs = [float(c) for c in opts["fn"].partition(":")[2].split(",")]
    slope = _poly_derivative(coeffs, 1)
    origin = points // 2
    reach = 2 * n - 1
    columns, rows = _table(text, opts.get("format", "csv"))
    if columns != ["index", "x", "signal", "envelope_upper", "envelope_lower",
                   "half_point_raw", "half_point_corrected"]:
        return [f"columns {columns}"]
    if len(rows) != points:
        return [f"{len(rows)} rows, expected {points}"]
    for i in _sampled(0, points):
        x = (i - origin) * h
        g = _poly(coeffs, x)
        upper, lower, corrected = (float(v) for v in (rows[i][3], rows[i][4], rows[i][6]))
        if not (math.isclose(upper, abs(g), rel_tol=1e-12)
                and math.isclose(lower, -abs(g), rel_tol=1e-12)):
            return [f"row {i}: envelope {upper}, {lower}, expected +-{abs(g)!r}"]
        interior = reach <= i < points - reach
        if interior != (not math.isnan(corrected)):
            return [f"row {i}: corrected value {corrected} at interior={interior}"]
        want = _poly(slope, x)
        if interior and not abs(corrected - want) <= ENVELOPE_TOL * (1 + abs(want)):
            return [f"row {i}: corrected half-point {corrected}, envelope slope {want!r}"]
    return []
