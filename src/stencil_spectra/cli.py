"""Command-line front end: stencils, spectra, derivatives, verification
reports, and figure-reproduction CSV datasets.

All output is deterministic: identical argv produces byte-identical bytes.
CSV floats are printed as format(v + 0.0, ".17g"), JSON floats as json's
shortest round-trip text; rational weights are exact "p/q" strings. The
handlers of `spectrum`, `diff` and `figure` return their tables as names
and columns, and `run` writes each, in either format, with
tableblocks.table, which owns their CSV header and quoting and their
JSON records, and renders their rows in numpy in blocks: a float in
1e-29 <= |v| < 1e16 gets its 17 digits from an error-free scaling by a
power of ten, and JSON's shortest digits from the 17 and their fraction;
nan, ±inf, other magnitudes and roundings or round trips too close to
their edge to decide that way take Python's text. `stencil` joins its
`# kind=...` line and its CSV rows as plain text: an int offset and a
"p/q" weight hold no character that CSV would quote. Its JSON and
`verify`'s are written directly from named columns (`_json_document`):
`stencil`'s offsets and weight texts, made from the integer pairs of
`weights.weight_pairs` by `weights.pair_fields` (no `Fraction` is made), and
`verify`'s check names, verdicts and details. Every key and string goes
through json's own escaper, byte for byte as json.dumps(indent=2) writes
the records the columns' rows make.

The module imports without numpy, `oracle`, `fractions` (and the `decimal`
it loads) or `json`, so `stencil`, `verify`, `--help` and every usage
error run on the exact layer alone; `run` loads `oracle` when it
dispatches `verify`, `_json_document` loads `json` for a JSON document,
and `diff` loads it to read a `--stencil-file` (the numeric layer's
`tableblocks` imports it too). No command loads `fractions`, but `diff`
to read a `--stencil-file` rational written as text, through
`weights._fraction`, the package's one import of it: every layer reads
the weights' integer pairs. The handlers of `spectrum`, `diff` and
`figure` first run every rule that reads no array: their usage errors,
each stencil's reach against N (`weights.reach` and
`weights.check_embedding`), the taps a `--limit` sequence fits, a
reference curve's h (`weights.ReferenceCurve`), `diff`'s and `figure
2b`'s `--fn` grammar and grid rule (`sampling`), and a `--N` or
`--points` too long for any numpy array (`_check_length`). Only then
does a handler load numpy, `spectra`, `signals` and `tableblocks`, so an
argv that one of these rules rejects exits without them. A rule that
follows an array step (a spectrum's curve h rule, a `--stencil-file`, a
derivative rule's h**order, a non-finite sample) stays after it, so that
an argv with a fault in each still reports the array step's.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable
from functools import partial

from . import weights
from .weights import CurveFamily, EmbeddingMode, StencilKind

# the numeric layer, bound by _load_numeric for the subcommands that use it
np = signals = spectra = tableblocks = None
_NUMERIC_COMMANDS = {"spectrum", "diff", "figure"}

_KIND_CHOICES = [k.value for k in StencilKind]
_LIMIT_CHOICES = [
    StencilKind.CENTRAL_FIRST.value,
    StencilKind.CENTRAL_SECOND.value,
    StencilKind.HALF_POINT_FIRST.value,
]
_CURVE_CHOICES = [c.value for c in CurveFamily]
_EMBED_CHOICES = [m.value for m in EmbeddingMode]
_SPECTRUM_COLUMNS = ["r", "omega", "re_b_conj", "im_b_conj", "ref_value", "abs_dev"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _even_int(text: str) -> int:
    value = int(text)
    if value < 2 or value % 2:
        raise argparse.ArgumentTypeError("must be an even integer >= 2")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _n_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("must be positive integers")
    return values


# --- output ---------------------------------------------------------------


def _write(chunks: Iterable[str], out: str | None) -> None:
    """Write each chunk as it is made, to the file out or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _json_document(header: dict, key: str, names: list[str], columns: list) -> str:
    """The bytes of json.dumps({**header, key: records}, indent=2) + "\n",
    the records being the rows of the named columns, each a dict of the
    names in their order, for scalar header values and column entries (str,
    int or bool), distinct names and columns of one length. They are
    written directly, since an indent sends json.dumps to its pure-Python
    encoder: keys and strings go through the escaper json.dumps uses under
    its default ensure_ascii, ints through str, and every record is one
    %-template of its fields, filled from the columns' texts interleaved."""
    import json  # here, so that the CLI starts without it

    escape = json.encoder.encode_basestring_ascii
    # the JSON text of a scalar by its type; any other type is a TypeError
    scalars = {str: escape, int: str, bool: {True: "true", False: "false"}.__getitem__}
    rows = len(columns[0]) if columns else 0
    if len(names) != len(columns) or any(len(column) != rows for column in columns):
        raise ValueError("the columns do not match their names in count and length")
    if len(set(names)) != len(names):
        raise ValueError("the column names repeat")
    values = [None] * (rows * len(names))
    try:
        lines = [f"  {escape(k)}: {scalars[type(v)](v)},\n" for k, v in header.items()]
        for i, column in enumerate(columns):
            values[i::len(names)] = [scalars[type(v)](v) for v in column]
    except KeyError as exc:
        raise TypeError(f"{exc.args[0].__name__} is not a JSON scalar here") from None
    if not rows:
        return "{\n" + "".join(lines) + f"  {escape(key)}: []\n}}\n"
    # a key's own % doubled, so that only the %s of each value formats
    record = "    {\n" + ",\n".join([f"      {escape(k).replace('%', '%%')}: %s"
                                     for k in names]) + "\n    }"
    body = ",\n".join([record] * rows) % tuple(values)
    return "{\n" + "".join(lines) + f"  {escape(key)}: [\n{body}\n  ]\n}}\n"


# --- subcommands ----------------------------------------------------------
#
# `stencil` and `verify` return (text, exit code) in the format asked for.
# Every other handler returns its table as (names, columns) and never reads
# --format: `run` renders it with tableblocks.table, and exits 0. A handler
# computes every value before it returns, so that an error exits before any
# byte is written; only the text of each block of rows is made as it is
# written.


def _cmd_stencil(args) -> tuple[str, int]:
    kind = StencilKind(args.kind)
    rule = weights.weight_pairs(kind, args.n)
    header, texts = weights.pair_fields(kind, args.n, *rule)
    offsets = rule[1]
    if args.format == "json":
        return _json_document(header, "nodes", ["offset", "weight"], [offsets, texts]), 0
    lines = ["# " + ",".join([f"{key}={value}" for key, value in header.items()]) + "\n",
             "offset,weight\n"]
    lines += [f"{o},{text}\n" for o, text in zip(offsets, texts)]
    return "".join(lines), 0


def _default_ref(kind: StencilKind, part: str) -> CurveFamily:
    if part == "re":
        return CurveFamily.ZERO
    if kind is StencilKind.HALF_POINT_FIRST:
        return CurveFamily.HALF_POINT_FOLD
    return CurveFamily.LINEAR_RAMP


def _limit_taps(kind: StencilKind, N: int, M: int | None) -> int:
    """How many taps of kind's limit sequence to make: M, or every tap that
    fits in a length-N embedding (offsets below N/2). The first t taps
    reach offset weights.reach(kind, t), which grows by one step per tap,
    so the taps that fit are counted without making any: N/2 - 1 for the
    central families and N/4 for half-point. An M above them is an error."""
    first = weights.reach(kind, 1)
    fitting = (N // 2 - 1 - first) // (weights.reach(kind, 2) - first) + 1
    if not fitting:
        raise ValueError(f"--limit {kind.value} fits no taps at N = {N}: it needs N >= 4")
    if M is not None and M > fitting:
        raise ValueError(f"--limit {kind.value} fits {fitting} taps at N = {N}, not --M {M}")
    return fitting if M is None else M


def _limit_sequence(kind: StencilKind, taps: int) -> dict[int, float]:
    """The first taps of kind's limit sequence, offset -> coefficient."""
    offsets, coefficients = weights.limit_coefficients(kind, taps)
    return dict(zip(offsets.tolist(), coefficients.tolist()))


def _check_reach(kind: StencilKind, ns: list[int], N: int) -> None:
    """Refuse a stencil of kind at any n of ns whose offsets reach past a
    length-N embedding (offsets below N/2), before any is built: a large
    n's weights alone take seconds to make."""
    for n in ns:
        weights.check_embedding(weights.stencil_label(kind, n), weights.reach(kind, n), N)


# numpy's arrays hold at most sys.maxsize bytes, and the widest values that
# a request's arrays hold, the complex spectra, take 16 bytes each
_MAX_LENGTH = sys.maxsize // 16


def _check_length(flag: str, value: int) -> None:
    """Refuse a --N or --points above _MAX_LENGTH, which numpy would refuse
    in words that name no flag; any length below it that does not fit in
    memory is an out-of-memory error."""
    if value > _MAX_LENGTH:
        raise ValueError(f"{flag} {value} is above {_MAX_LENGTH}, the most 16-byte values "
                         "one numpy array holds")


def _spectrum_columns(spectrum: spectra.FilterSpectrum, ref, part: str, h: float) -> list:
    """Columns r, omega, Re[b*(r)], Im[b*(r)], ref, |part - ref| for
    r = 0..N/2, where ref is the reference column in the units of the
    spectrum."""
    re_part, im_part, N = spectrum.re_conj, spectrum.im_conj, spectrum.N
    abs_dev = abs((im_part if part == "im" else re_part) - ref)
    return [np.arange(N // 2 + 1), spectra.omega_grid(N, h), re_part, im_part, ref, abs_dev]


# A table handler calls _load_numeric only after its rules that read no
# array (see the module docstring); a rule that follows an array step stays
# after it.


def _cmd_spectrum(args) -> tuple[list[str], list]:
    if args.kind and args.n is None:
        raise _Usage("--kind requires --n")
    if args.kind and args.M is not None:
        raise _Usage("--M applies to --limit sequences only")
    if args.limit and args.n is not None:
        raise _Usage("--n applies to --kind stencils only")
    kind = StencilKind(args.kind or args.limit)
    if args.kind:
        _check_reach(kind, [args.n], args.N)
        make_source = partial(weights.build, kind, args.n)
    else:
        make_source = partial(_limit_sequence, kind, _limit_taps(kind, args.N, args.M))
    _check_length("--N", args.N)
    _load_numeric()
    spectrum = spectra.dft_spectrum(make_source(), args.N, EmbeddingMode(args.embedding))
    ref_family = CurveFamily(args.ref) if args.ref else _default_ref(kind, args.part)
    curve = weights.ReferenceCurve(family=ref_family, h=args.h)
    # frequency curves carry the transform's measure h
    ref = spectra.reference_column(curve, args.part, args.N, measure=args.h)
    return _SPECTRUM_COLUMNS, _spectrum_columns(spectrum, ref, args.part, args.h)


def _sample(fn, args):
    """fn sampled at --points points spaced --h, centred, once the grid
    passes its rule; only then does the numeric layer load."""
    from . import sampling

    sampling.check_grid(args.h, args.points)
    _check_length("--points", args.points)
    _load_numeric()
    return signals.make_signal(fn, args.h, args.points)


def _cmd_diff(args) -> tuple[list[str], list]:
    if args.stencil_file and (args.n is not None or args.kind != "central"
                              or args.order is not None):
        raise _Usage("--stencil-file cannot be combined with --n/--kind/--order")
    order = args.order or 1
    if args.kind == StencilKind.HALF_POINT_FIRST.value and order != 1:
        raise _Usage("half-point differentiation supports --order 1 only")
    from . import sampling  # here, so that importing the CLI does not load it

    signal = _sample(sampling.parse_test_function(args.fn), args)
    if args.stencil_file:
        import json

        with open(args.stencil_file, "r", encoding="utf-8") as fh:
            try:
                # ints as text: stencil_from_dict reads them and names one too long
                data = json.load(fh, parse_int=str)
            except RecursionError:
                raise ValueError("the stencil file nests too deeply to read") from None
        stencil = weights.stencil_from_dict(data)
        result = signals.apply_stencil(signal, stencil)
    elif args.kind == StencilKind.HALF_POINT_FIRST.value:
        result = signals.differentiate_half_point_signal(signal, args.n or 1)
    else:
        result = signals.differentiate(signal, args.n or 1, order)

    index = np.arange(len(signal))
    return ["index", "x", "value", "policy"], [index, signal.x(index), result.values,
                                               tableblocks.Labels(*result.policy_codes())]


def _figure_limit_curve(family: CurveFamily, part: str, args) -> tuple[list[str], list]:
    curve = weights.ReferenceCurve(family=family, h=args.h)
    _check_length("--N", args.N)
    _load_numeric()
    ref = spectra.reference_column(curve, part, args.N)
    values, _bounds = spectra.truncated_limit_spectrum_dft_grid(
        family, args.N, args.h, args.M
    )
    return _SPECTRUM_COLUMNS, _spectrum_columns(spectra.FilterSpectrum(values), ref, part, args.h)


def _figure_finite_spectra(kind: StencilKind, part: str, args) -> tuple[list[str], list]:
    _check_reach(kind, args.n, args.N)
    curve = weights.ReferenceCurve(family=_default_ref(kind, part), h=args.h)
    _check_length("--N", args.N)
    _load_numeric()
    ref = spectra.reference_column(curve, part, args.N)
    blocks = [
        _spectrum_columns(spectra.dft_spectrum(weights.build(kind, n), args.N), ref, part,
                          args.h)
        for n in args.n
    ]
    return ["n", *_SPECTRUM_COLUMNS], [np.repeat(args.n, args.N // 2 + 1),
                                       *map(np.concatenate, zip(*blocks))]


def _figure_envelope_demo(args) -> tuple[list[str], list]:
    from . import sampling

    fn = sampling.parse_test_function(args.fn)
    if not isinstance(fn, sampling.ModulatedAlternating):
        raise _Usage("figure 2b needs an altpoly: test function")
    signal = _sample(fn, args)
    result = signals.differentiate_half_point_signal(signal, args.n)
    index = np.arange(len(signal))
    x = signal.x(index)
    envelope = np.abs(fn.envelope(x))  # the scalar Horner steps, element-wise
    raw = result.values
    even = (index - signal.origin) % 2 == 0
    return (["index", "x", "signal", "envelope_upper", "envelope_lower", "half_point_raw",
             "half_point_corrected"],
            [index, x, signal.samples, envelope, -envelope, raw, np.where(even, -raw, raw)])


# `cross_checks` reduces a (max-n + 1)**2 integer matrix up front, in
# O(max-n**3) operations on integers of at most max-n * log2(max-n) bits,
# and sums O(n**2) integer products per family at each n for the exactness
# checks (half as many for the central families, whose even or odd fold
# is all zeros); the moment systems add O(n) operations per family at each n,
# on node polynomials grown across n. At the limit, 100, `verify` takes
# about 1 s in a fresh interpreter on a 2-core x86-64 VM, half of it in
# the exactness sums and 0.05 s in the reduction
_VERIFY_MAX_N = 100


def _cmd_verify(args) -> tuple[str, int]:
    if args.max_n > _VERIFY_MAX_N:
        raise ValueError(f"--max-n {args.max_n} is above the limit of {_VERIFY_MAX_N}")
    from . import oracle  # here, so that every other command starts without it

    names, oks, details = zip(*oracle.cross_checks(args.max_n))  # 13 checks per n
    passed = sum(oks)
    if args.format == "json":
        text = _json_document({"max_n": args.max_n, "passed": passed,
                               "failed": len(oks) - passed}, "checks",
                              ["check", "ok", "detail"], [names, oks, details])
    else:
        lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
                 for name, ok, detail in zip(names, oks, details)]
        text = "\n".join(lines + [f"{passed}/{len(oks)} checks passed"]) + "\n"
    return text, 0 if passed == len(oks) else 1


# --- the parser -----------------------------------------------------------

_GRID = {"--h": dict(type=_positive_float, default=1.0),
         "--N": dict(type=_even_int, default=2000)}
_TAPS = {**_GRID, "--M": dict(type=_positive_int, default=10 ** 6)}


def _finite_figure(kind: StencilKind, part: str, default_ns: list[int]) -> tuple:
    return (partial(_figure_finite_spectra, kind, part),
            {**_GRID, "--n": dict(type=_n_list, default=default_ns,
                                  help="family parameters, comma separated")})


# figure id -> (handler, its flags as add_argument keywords): an id takes
# only the flags its handler reads
_FIGURES = {
    "1a": (partial(_figure_limit_curve, CurveFamily.FIRST_DERIV_LIMIT, "im"), _TAPS),
    "1b": (partial(_figure_limit_curve, CurveFamily.SECOND_DERIV_LIMIT, "re"), _TAPS),
    "2a": _finite_figure(StencilKind.HALF_POINT_FIRST, "im", [1, 10]),
    "2b": (_figure_envelope_demo,
           {"--h": _GRID["--h"], "--n": dict(type=_positive_int, default=2),
            "--fn": dict(default="altpoly:1,0.25", help="altpoly:c0,c1,..."),
            "--points": dict(type=_positive_int, default=65)}),
    "3a": _finite_figure(StencilKind.ONE_SIDED_FIRST, "im", [1, 3, 5]),
    "3b": _finite_figure(StencilKind.ONE_SIDED_FIRST, "re", [1, 3, 5]),
}


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises each error as one _Usage line; sub-parsers are of this class."""

    def error(self, message):
        raise _Usage(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=["csv", "json"], default="csv")
    table.add_argument("--out")

    parser = _Parser(
        prog="stencil-spectra",
        description="Differentiation weight sequences, their DFT spectra, "
        "signal derivatives, and figure datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stencil", parents=[table], help="generate one stencil")
    p.set_defaults(handler=_cmd_stencil)
    p.add_argument("--kind", required=True, choices=_KIND_CHOICES)
    p.add_argument("--n", required=True, type=_positive_int)

    p = sub.add_parser("spectrum", parents=[table], help="DFT spectrum of a weight sequence")
    p.set_defaults(handler=_cmd_spectrum)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--kind", choices=_KIND_CHOICES)
    group.add_argument("--limit", choices=_LIMIT_CHOICES,
                       help="truncated infinite-family sequence")
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--M", type=_positive_int,
                   help="taps kept from a limit sequence (default: largest fitting)")
    p.add_argument("--N", **_GRID["--N"])
    p.add_argument("--h", **_GRID["--h"])
    p.add_argument("--embedding", choices=_EMBED_CHOICES,
                   default=EmbeddingMode.HALF_SEQUENCE.value)
    p.add_argument("--ref", choices=_CURVE_CHOICES,
                   help="reference curve (default chosen from the sequence)")
    p.add_argument("--part", choices=["im", "re"], default="im")

    p = sub.add_parser("diff", parents=[table], help="differentiate a sampled test function")
    p.set_defaults(handler=_cmd_diff)
    p.add_argument("--fn", required=True,
                   help="sin:omega=...[,phase=...] | poly:c0,c1,... | altpoly:c0,c1,...")
    p.add_argument("--h", **_GRID["--h"])
    p.add_argument("--points", type=_positive_int, default=65)
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--order", type=int, choices=[1, 2], help="default: 1")
    p.add_argument("--kind", choices=["central", StencilKind.HALF_POINT_FIRST.value],
                   default="central")
    p.add_argument("--stencil-file", help="apply a JSON stencil instead")

    # flags follow the id: an argparse error about the id names that order
    figures = sub.add_parser("figure", help="figure-reproduction dataset").add_subparsers(
        dest="id", required=True, metavar="ID [flags]")
    for figure_id, (handler, flags) in _FIGURES.items():
        p = figures.add_parser(figure_id, parents=[table])
        p.set_defaults(handler=handler)
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)

    p = sub.add_parser("verify", help="run the oracle cross-check suite")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--max-n", type=_positive_int, default=8)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")
    return parser


_PARSER = _build_parser()


def _load_numeric() -> None:
    """Bind numpy, spectra, signals and the table block renderer."""
    global np, signals, spectra, tableblocks
    import numpy as np
    from . import signals, spectra, tableblocks


def run(argv: list[str]) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.command in _NUMERIC_COMMANDS:
            # the handler loads tableblocks with the rest of the numeric layer
            names, columns = args.handler(args)
            chunks, code = tableblocks.table(names, columns, args.format), 0
        else:
            *chunks, code = args.handler(args)  # chunks: the one text
        _write(chunks, args.out)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    # weights' EmbeddingOverflowError and spectra's CurveDomainError are ValueErrors
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy refuses an array too large at once
        print(f"error: out of memory ({exc})" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
