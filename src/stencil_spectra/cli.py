"""Command-line front end: stencils, spectra, derivatives, verification
reports, and figure-reproduction CSV datasets.

All output is deterministic: identical argv produces byte-identical bytes.
Floats are printed with 17 significant digits; rational weights are printed
as exact "p/q" strings, never as floats.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from . import oracle, signals, spectra, weights
from .spectra import CurveFamily, EmbeddingMode, ReferenceCurve
from .weights import StencilKind

_KIND_CHOICES = [k.value for k in StencilKind]
_LIMIT_CHOICES = [
    StencilKind.CENTRAL_FIRST.value,
    StencilKind.CENTRAL_SECOND.value,
    StencilKind.HALF_POINT_FIRST.value,
]
_CURVE_CHOICES = [c.value for c in CurveFamily]
_EMBED_CHOICES = [m.value for m in EmbeddingMode]
_SPECTRUM_COLUMNS = ["r", "omega", "re_b_conj", "im_b_conj", "ref_value", "abs_dev"]


def _fmt(x) -> str:
    return format(float(x) + 0.0, ".17g")  # +0.0 normalizes negative zero


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stencil-spectra",
        description="Differentiation weight sequences, their DFT spectra, "
        "signal derivatives, and figure datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stencil", help="generate one stencil")
    p.add_argument("--kind", required=True, choices=_KIND_CHOICES)
    p.add_argument("--n", required=True, type=_positive_int)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")

    p = sub.add_parser("spectrum", help="DFT spectrum of a weight sequence")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--kind", choices=_KIND_CHOICES)
    group.add_argument("--limit", choices=_LIMIT_CHOICES,
                       help="truncated infinite-family sequence")
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--M", type=_positive_int,
                   help="taps kept from a limit sequence (default: largest fitting)")
    p.add_argument("--N", type=_even_int, default=2000)
    p.add_argument("--h", type=_positive_float, default=1.0)
    p.add_argument("--embedding", choices=_EMBED_CHOICES,
                   default=EmbeddingMode.HALF_SEQUENCE.value)
    p.add_argument("--ref", choices=_CURVE_CHOICES,
                   help="reference curve (default chosen from the sequence)")
    p.add_argument("--part", choices=["im", "re"], default="im")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")

    p = sub.add_parser("diff", help="differentiate a sampled test function")
    p.add_argument("--fn", required=True,
                   help="sin:omega=...[,phase=...] | poly:c0,c1,... | altpoly:c0,c1,...")
    p.add_argument("--h", type=_positive_float, default=1.0)
    p.add_argument("--points", type=_positive_int, default=65)
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--order", type=int, choices=[1, 2], default=1)
    p.add_argument("--kind", choices=["central", StencilKind.HALF_POINT_FIRST.value],
                   default="central")
    p.add_argument("--stencil-file", help="apply a JSON stencil instead")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")

    p = sub.add_parser("figure", help="figure-reproduction dataset")
    p.add_argument("id", choices=["1a", "1b", "2a", "2b", "3a", "3b"])
    p.add_argument("--n", type=_n_list, help="family parameter(s), comma separated")
    p.add_argument("--N", type=_even_int, default=2000)
    p.add_argument("--h", type=_positive_float, default=1.0)
    p.add_argument("--M", type=_positive_int, default=10 ** 6)
    p.add_argument("--fn", default="altpoly:1,0.25",
                   help="modulated envelope for figure 2b")
    p.add_argument("--points", type=_positive_int, default=65)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the oracle cross-check suite")
    p.add_argument("--max-n", type=_positive_int, default=8)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")
    return parser


# --- table rendering ------------------------------------------------------


def _render_table(columns, rows, fmt: str) -> str:
    if fmt == "json":
        payload = [dict(zip(columns, row)) for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands ----------------------------------------------------------


def _cmd_stencil(args) -> str:
    stencil = weights.build(StencilKind(args.kind), args.n)
    if args.format == "json":
        return json.dumps(weights.stencil_to_dict(stencil), indent=2) + "\n"
    buf = io.StringIO()
    buf.write(
        f"# kind={stencil.kind.value},n={stencil.n},"
        f"derivative_order={stencil.derivative_order},"
        f"h_power={stencil.h_power},prefactor={stencil.prefactor}\n"
    )
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["offset", "weight"])
    for offset, weight in stencil.nodes:
        writer.writerow([offset, str(weight)])
    return buf.getvalue()


def _default_ref(kind_value: str, part: str) -> CurveFamily:
    if part == "re":
        return CurveFamily.ZERO
    if kind_value == StencilKind.HALF_POINT_FIRST.value:
        return CurveFamily.HALF_POINT_FOLD
    return CurveFamily.LINEAR_RAMP


def _limit_sequence(kind_value: str, N: int, M: int | None) -> dict[int, float]:
    kind = StencilKind(kind_value)
    half_point = kind is StencilKind.HALF_POINT_FIRST
    taps = M if M is not None else (N // 4 if half_point else N // 2 - 1)
    offsets, coefficients = weights.limit_coefficients(kind, taps)
    if half_point:
        coefficients = coefficients / math.pi
    return dict(zip(offsets.tolist(), coefficients.tolist()))


_INDEX_CURVES = (CurveFamily.HALF_POINT_FOLD, CurveFamily.LINEAR_RAMP, CurveFamily.ZERO)


def _reference_column(curve: ReferenceCurve, part: str, N: int, measure: float = 1.0):
    """The curve at r = 0..N/2, as the real column compared with `part`:
    an index curve as it is, a frequency curve's conjugated part at omega_r
    divided by measure (NaN where the curve excludes omega_r)."""
    if curve.family in _INDEX_CURVES:
        return spectra.reference_values(curve, range(N // 2 + 1))
    values = spectra.reference_values(curve, spectra.omega_grid(N, curve.h))
    return (-values.imag if part == "im" else values.real) / measure


def _spectrum_rows(values, ref, part: str, N: int, h: float) -> list[list]:
    """Rows r, omega, Re[b*(r)], Im[b*(r)], ref, |part - ref| for
    r = 0..N/2, where values holds b(r) and ref the reference column in
    the same units."""
    half = N // 2 + 1
    re_part = values[:half].real
    im_part = -values[:half].imag
    abs_dev = abs((im_part if part == "im" else re_part) - ref)
    columns = (spectra.omega_grid(N, h), re_part, im_part, ref, abs_dev)
    return [[r, *row] for r, row in enumerate(zip(*(c.tolist() for c in columns)))]


def _cmd_spectrum(args) -> str:
    if args.kind and args.n is None:
        raise _Usage("--kind requires --n")
    if args.kind and args.M is not None:
        raise _Usage("--M applies to --limit sequences only")
    if args.limit and args.n is not None:
        raise _Usage("--n applies to --kind stencils only")
    if args.kind:
        source = weights.build(StencilKind(args.kind), args.n)
        kind_value = args.kind
    else:
        source = _limit_sequence(args.limit, args.N, args.M)
        kind_value = args.limit
    spectrum = spectra.dft_spectrum(source, args.N, EmbeddingMode(args.embedding))
    ref_family = CurveFamily(args.ref) if args.ref else _default_ref(kind_value, args.part)
    curve = ReferenceCurve(family=ref_family, h=args.h, N=args.N)
    # frequency curves carry the transform's measure h
    ref = _reference_column(curve, args.part, args.N, measure=args.h)
    rows = _spectrum_rows(spectrum.values, ref, args.part, args.N, args.h)
    return _render_table(_SPECTRUM_COLUMNS, rows, args.format)


def _cmd_diff(args) -> str:
    if args.stencil_file and (args.n is not None or args.kind != "central"):
        raise _Usage("--stencil-file cannot be combined with --n/--kind")
    if args.kind == StencilKind.HALF_POINT_FIRST.value and args.order != 1:
        raise _Usage("half-point differentiation supports --order 1 only")
    fn = signals.parse_test_function(args.fn)
    signal = signals.make_signal(fn, args.h, args.points)

    if args.stencil_file:
        with open(args.stencil_file, "r", encoding="utf-8") as fh:
            stencil = weights.stencil_from_dict(json.load(fh))
        result = signals.apply_stencil(signal, stencil)
    elif args.kind == StencilKind.HALF_POINT_FIRST.value:
        result = signals.differentiate_half_point_signal(signal, args.n or 1)
    else:
        result = signals.differentiate(signal, args.n or 1, args.order)

    columns = ["index", "x", "value", "policy"]
    rows = [
        [i, signal.x(i), float(result.values[i]), result.policy[i]]
        for i in range(len(signal))
    ]
    return _render_table(columns, rows, args.format)


def _figure_limit_curve(args, figure_id: str) -> str:
    family = (
        CurveFamily.FIRST_DERIV_LIMIT if figure_id == "1a"
        else CurveFamily.SECOND_DERIV_LIMIT
    )
    part = "im" if figure_id == "1a" else "re"
    curve = ReferenceCurve(family=family, h=args.h)
    ref = _reference_column(curve, part, args.N)
    if figure_id == "1a":
        ref[-1] = math.nan  # the first-derivative limit excludes omega = pi/h
    values, _bounds = spectra.truncated_limit_spectrum_dft_grid(
        family, args.N, args.h, args.M
    )
    rows = _spectrum_rows(values, ref, part, args.N, args.h)
    return _render_table(_SPECTRUM_COLUMNS, rows, args.format)


def _figure_finite_spectra(args, figure_id: str) -> str:
    if figure_id == "2a":
        ns = args.n or [1, 10]
        kind, family, part = (
            StencilKind.HALF_POINT_FIRST, CurveFamily.HALF_POINT_FOLD, "im"
        )
    elif figure_id == "3a":
        ns = args.n or [1, 3, 5]
        kind, family, part = (
            StencilKind.ONE_SIDED_FIRST, CurveFamily.LINEAR_RAMP, "im"
        )
    else:
        ns = args.n or [1, 3, 5]
        kind, family, part = (StencilKind.ONE_SIDED_FIRST, CurveFamily.ZERO, "re")
    curve = ReferenceCurve(family=family, h=args.h, N=args.N)
    ref = _reference_column(curve, part, args.N)
    rows = []
    for n in ns:
        spectrum = spectra.dft_spectrum(weights.build(kind, n), args.N)
        rows += [[n, *row] for row in _spectrum_rows(spectrum.values, ref, part, args.N, args.h)]
    return _render_table(["n", *_SPECTRUM_COLUMNS], rows, args.format)


def _figure_envelope_demo(args) -> str:
    fn = signals.parse_test_function(args.fn)
    if not isinstance(fn, signals.ModulatedAlternating):
        raise _Usage("figure 2b needs an altpoly: test function")
    n = (args.n or [2])[0]
    signal = signals.make_signal(fn, args.h, args.points)
    result = signals.differentiate_half_point_signal(signal, n)
    columns = ["index", "x", "signal", "envelope_upper", "envelope_lower",
               "half_point_raw", "half_point_corrected"]
    rows = []
    for i in range(len(signal)):
        x = signal.x(i)
        envelope = fn.envelope(x)
        raw = float(result.values[i])
        corrected = -raw if (i - signal.origin) % 2 == 0 else raw
        rows.append([i, x, signal.samples[i], abs(envelope), -abs(envelope),
                     raw, corrected])
    return _render_table(columns, rows, args.format)


def _cmd_figure(args) -> str:
    if args.id in ("1a", "1b"):
        return _figure_limit_curve(args, args.id)
    if args.id == "2b":
        return _figure_envelope_demo(args)
    return _figure_finite_spectra(args, args.id)


# --- verify ---------------------------------------------------------------


def _verify_checks(max_n: int):
    """Yield (name, ok, detail) for the oracle cross-check suite."""
    table = {
        StencilKind.CENTRAL_FIRST: lambda n: 2 * n,
        StencilKind.CENTRAL_SECOND: lambda n: 2 * n + 1,
        StencilKind.HALF_POINT_FIRST: lambda n: 2 * n,
        StencilKind.ONE_SIDED_FIRST: lambda n: n,
        StencilKind.ONE_SIDED_NTH: lambda n: n,
    }
    for n in range(1, max_n + 1):
        for kind in StencilKind:
            stencil = weights.build(kind, n)
            label = stencil.label()

            system = oracle.MomentSystem(
                offsets=stencil.offsets,
                degree=len(stencil.offsets) - 1,
                target_order=stencil.derivative_order,
            )
            solution = oracle.solve_moment_system(system)
            scale = stencil.prefactor / math.factorial(stencil.derivative_order)
            ok = all(
                solution[i] == stencil.weight_at(o) * scale
                for i, o in enumerate(system.offsets)
            )
            yield f"moment-system {label}", ok, "oracle solver reproduces the weights"

            expected = table[kind](n)
            report = oracle.exactness_check(stencil, expected + 1)
            ok = report.max_exact_degree == expected
            yield (
                f"exactness {label}",
                ok,
                f"max exact degree {report.max_exact_degree}, expected {expected}",
            )

        cf = weights.central_first(n)
        ok = all(
            cf.weight_at(m)
            == Fraction(
                (-1) ** (m + 1) * 2 * math.factorial(n) ** 2,
                m * math.factorial(n - m) * math.factorial(n + m),
            )
            for m in range(1, n + 1)
        )
        yield f"closed-form central-first(n={n})", ok, "factorial ratio form"

        os1 = weights.one_sided_first(n)
        ok = (
            os1.weight_at(1) == n
            and os1.weight_at(0) == -weights.harmonic_number(n)
            and all(
                os1.weight_at(m) == weights.product_form_one_sided(m, n)
                for m in range(1, n + 1)
            )
            and sum(os1.weights, Fraction(0)) == 0
        )
        yield f"closed-form one-sided-first(n={n})", ok, "binomial/product/harmonic forms"

        det = oracle.vandermonde_det(n)
        closed = math.factorial(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                closed *= j - i
        ok = det == closed and all(
            Fraction(oracle.delta_m1_closed_form(m, n), det) == os1.weight_at(m)
            for m in range(1, n + 1)
        )
        yield f"determinants(n={n})", ok, "Vandermonde product and numerator ratios"


def _cmd_verify(args) -> tuple[str, int]:
    results = [
        {"check": name, "ok": bool(ok), "detail": detail}
        for name, ok, detail in _verify_checks(args.max_n)
    ]
    failed = [r for r in results if not r["ok"]]
    if args.format == "json":
        text = json.dumps(
            {"max_n": args.max_n, "passed": len(results) - len(failed),
             "failed": len(failed), "checks": results},
            indent=2,
        ) + "\n"
    else:
        lines = [
            f"{'PASS' if r['ok'] else 'FAIL'} {r['check']}: {r['detail']}"
            for r in results
        ]
        lines.append(
            f"{len(results) - len(failed)}/{len(results)} checks passed"
        )
        text = "\n".join(lines) + "\n"
    return text, 0 if not failed else 1


class _Usage(Exception):
    pass


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "stencil":
            text = _cmd_stencil(args)
        elif args.command == "spectrum":
            text = _cmd_spectrum(args)
        elif args.command == "diff":
            text = _cmd_diff(args)
        elif args.command == "figure":
            text = _cmd_figure(args)
        else:
            text, code = _cmd_verify(args)
            _write(text, args.out)
            return code
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (
        spectra.EmbeddingOverflowError,
        spectra.CurveDomainError,
        signals.BoundaryError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write(text, args.out)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
