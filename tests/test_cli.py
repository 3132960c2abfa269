"""CLI surface: exit codes, schemas, determinism, round trips."""

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stencil_spectra import weights
from stencil_spectra.cli import _render_table, run
from stencil_spectra.signals import SampledSignal, Sinusoid, apply_stencil, make_signal
from stencil_spectra.weights import StencilKind


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# --- stencil ----------------------------------------------------------------


def test_stencil_json_schema(capsys):
    code, out, _ = run_capture(
        capsys, ["stencil", "--kind", "one-sided-first", "--n", "2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "one-sided-first"
    assert payload["n"] == 2
    assert payload["derivative_order"] == 1
    assert payload["h_power"] == 1
    assert payload["prefactor"] == "1"
    assert payload["nodes"] == [
        {"offset": 0, "weight": "-3/2"},
        {"offset": 1, "weight": "2"},
        {"offset": 2, "weight": "-1/2"},
    ]


def test_stencil_csv_has_exact_fractions(capsys):
    code, out, _ = run_capture(capsys, ["stencil", "--kind", "central-first", "--n", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# kind=central-first,n=2")
    assert lines[1] == "offset,weight"
    assert "4/3" in out and "-1/6" in out and "." not in out.split("\n", 1)[1]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints integers of any length")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stencil_too_long_to_print_is_one_line_error(capsys, fmt):
    # 1/3000! has more digits than Python's default int-to-str limit
    code, out, err = run_capture(
        capsys, ["stencil", "--kind", "one-sided-nth", "--n", "3000", "--format", fmt]
    )
    assert code == 1 and out == ""
    assert err == ("error: one-sided-nth(n=3000): the weight at offset 0 has more "
                   "digits than Python prints exactly\n")


# --- spectrum ----------------------------------------------------------------


def test_spectrum_csv_matches_sine(capsys):
    code, out, _ = run_capture(
        capsys,
        ["spectrum", "--kind", "half-point-first", "--n", "1", "--N", "2000"],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["r", "omega", "re_b_conj", "im_b_conj", "ref_value", "abs_dev"]
    assert len(rows) == 1001
    for row in rows[::100]:
        r = int(row[0])
        assert float(row[3]) == pytest.approx(math.sin(2 * math.pi * r / 2000), abs=1e-10)


def test_spectrum_limit_sequence(capsys):
    code, out, _ = run_capture(
        capsys,
        ["spectrum", "--limit", "central-second", "--N", "64", "--M", "20",
         "--embedding", "full-symmetric", "--part", "re", "--ref", "zero"],
    )
    assert code == 0
    header, rows = parse_csv(out)
    # DC bin: 2 * sum of (-1)^(m+1) 2/m^2 over 20 taps, near pi^2/3
    assert float(rows[0][2]) == pytest.approx(math.pi ** 2 / 3, abs=1e-2)


def test_spectrum_embedding_overflow_is_domain_error(capsys):
    code, _, err = run_capture(
        capsys, ["spectrum", "--kind", "one-sided-first", "--n", "10", "--N", "16"]
    )
    assert code == 1
    assert "offset" in err


@pytest.mark.parametrize("family", ["central-first", "central-second", "half-point-first"])
def test_spectrum_limit_without_taps_is_one_line_error(capsys, family):
    # the largest fitting M, N/2 - 1 or N/4, is 0 at N = 2
    code, out, err = run_capture(capsys, ["spectrum", "--limit", family, "--N", "2"])
    assert (code, out) == (1, "")
    assert err == f"error: --limit {family} fits no taps at N = 2: it needs N >= 4\n"
    assert run_capture(capsys, ["spectrum", "--limit", family, "--N", "4"])[0] == 0


def test_spectrum_kind_requires_n(capsys):
    code, _, err = run_capture(capsys, ["spectrum", "--kind", "central-first"])
    assert code == 2


# --- diff ----------------------------------------------------------------------


def test_diff_csv_schema_and_policy(capsys):
    code, out, _ = run_capture(
        capsys,
        ["diff", "--fn", "poly:0,0,1", "--h", "0.5", "--n", "2", "--points", "9"],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["index", "x", "value", "policy"]
    assert rows[0][3] == "forward(2)"
    assert rows[4][3] == "central(2)"
    assert float(rows[4][2]) == 0.0  # d(x^2)/dx at the origin


def test_diff_table_memory_is_bounded(tmp_path):
    # the table is 5.4 MB of CSV; with every cell held as a string it
    # peaked at 36 MB
    path = tmp_path / "table.csv"
    tracemalloc.start()
    try:
        code = run(["diff", "--fn", "sin:omega=1", "--h", "0.001", "--points", "100001",
                    "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert path.read_text(encoding="utf-8").count("\n") == 100002
    assert peak < 28 * 10 ** 6


def test_diff_half_point_kind(capsys):
    code, out, _ = run_capture(
        capsys,
        ["diff", "--fn", "altpoly:1,0.25", "--h", "0.5", "--n", "2",
         "--kind", "half-point-first", "--points", "17"],
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][3] == "skipped"
    center = rows[8]
    assert center[3] == "half-point(2)"
    assert float(center[2]) == -0.25


@pytest.mark.parametrize("argv", [
    ["diff", "--fn", "poly:1e308,1e308", "--h", "10", "--points", "5"],
    ["diff", "--fn", "poly:1e308,1e308", "--h", "10", "--points", "5",
     "--kind", "half-point-first"],
    ["diff", "--fn", "sin:omega=nan", "--points", "5"],
    ["diff", "--fn", "sin:omega=1e308", "--h", "10", "--points", "5"],
], ids=["inf-samples", "inf-samples-half-point", "nan-samples", "sin-of-inf"])
def test_non_finite_samples_are_one_line_error(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_capture(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: sample ") and err.endswith("samples must be finite\n")


def test_diff_half_point_rejects_second_order(capsys):
    code, _, err = run_capture(
        capsys,
        ["diff", "--fn", "sin:omega=1", "--kind", "half-point-first", "--order", "2",
         "--n", "2"],
    )
    assert code == 2


def test_diff_stencil_file_round_trip(capsys, tmp_path):
    path = tmp_path / "stencil.json"
    code, _, _ = run_capture(
        capsys,
        ["stencil", "--kind", "central-first", "--n", "3", "--format", "json",
         "--out", str(path)],
    )
    assert code == 0
    code, out, _ = run_capture(
        capsys,
        ["diff", "--fn", "sin:omega=1", "--h", "0.25", "--points", "21",
         "--stencil-file", str(path)],
    )
    assert code == 0
    _, rows = parse_csv(out)

    signal = make_signal(Sinusoid(omega=1.0), 0.25, 21)
    expected = apply_stencil(signal, weights.central_first(3))
    for row in rows:
        i = int(row[0])
        if row[3] == "skipped":
            assert row[2] == "nan"
        else:
            assert float(row[2]) == expected.values[i]  # bit-exact round trip


def test_diff_stencil_file_conflicts(capsys, tmp_path):
    path = tmp_path / "s.json"
    run_capture(capsys, ["stencil", "--kind", "central-first", "--n", "1",
                         "--format", "json", "--out", str(path)])
    # the file's derivative_order decides, so --order 1 conflicts as well
    for flags in (["--n", "2"], ["--kind", "half-point-first"], ["--order", "2"],
                  ["--order", "1"]):
        code, out, err = run_capture(
            capsys, ["diff", "--fn", "sin:omega=1", "--stencil-file", str(path), *flags])
        assert (code, out) == (2, "")
        assert err == "usage error: --stencil-file cannot be combined with --n/--kind/--order\n"


_GOOD_STENCIL = {"kind": "central-first", "n": 1, "derivative_order": 1,
                 "h_power": 1, "prefactor": "1/2",
                 "nodes": [{"offset": -1, "weight": "-1"}, {"offset": 1, "weight": "1"}]}


@pytest.mark.parametrize("payload", [
    [_GOOD_STENCIL],
    {k: v for k, v in _GOOD_STENCIL.items() if k != "nodes"},
    {**_GOOD_STENCIL, "nodes": []},
    {**_GOOD_STENCIL, "nodes": [{"offset": 1, "weight": "1/0"}]},
    {**_GOOD_STENCIL, "nodes": [{"offset": 1, "weight": None}]},
    {**_GOOD_STENCIL, "prefactor": "half"},
    {**_GOOD_STENCIL, "nodes": [{"offset": 1, "weight": "1"}, {"offset": 1, "weight": "2"}]},
    {**_GOOD_STENCIL, "derivative_order": -1},
    {**_GOOD_STENCIL, "h_power": -3},
    {**_GOOD_STENCIL, "nodes": [{"offset": 1, "weight": "1/" + "7" * 5000}]},
    json.dumps(_GOOD_STENCIL).replace('"n": 1', '"n": ' + "7" * 5000),
    {**_GOOD_STENCIL, "n": 1.7,
     "nodes": [{"offset": -1.5, "weight": "-1"}, {"offset": 1.9, "weight": "1"}]},
    {**_GOOD_STENCIL, "h_power": True, "nodes": [{"offset": True, "weight": "1"}]},
    {**_GOOD_STENCIL, "nodes": [{"offset": 1, "weight": True}]},
    {**_GOOD_STENCIL, "prefactor": False},
    {**_GOOD_STENCIL, "h_power": 2},
    "[" * 100_000,
], ids=["not-object", "missing-key", "empty-nodes", "zero-denominator",
        "null-weight", "bad-prefactor", "duplicate-offset", "negative-order",
        "negative-h-power", "too-long-weight", "too-long-int-literal",
        "fractional-offset-and-n", "boolean-offset-and-h-power", "boolean-weight",
        "boolean-prefactor", "h-power-not-derivative-order", "too-deeply-nested"])
def test_diff_malformed_stencil_file_is_one_line_error(capsys, tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload),
                    encoding="utf-8")
    code, out, err = run_capture(
        capsys, ["diff", "--fn", "sin:omega=1", "--stencil-file", str(path)]
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if "7" * 5000 in path.read_text(encoding="utf-8"):
        field = "weight at offset 1" if isinstance(payload, dict) else "n"
        assert err == (f"error: malformed stencil: the {field} has more digits than "
                       "Python reads exactly\n")


@pytest.mark.parametrize("argv", [
    ["figure", "1a", "--h", "1e-320", "--N", "16", "--M", "100"],
    ["spectrum", "--kind", "central-first", "--n", "2", "--N", "16", "--h", "1e308",
     "--ref", "second-deriv-limit", "--part", "re"],
    ["spectrum", "--limit", "central-first", "--N", "16", "--h", "1e-320"],
    ["spectrum", "--kind", "central-second", "--n", "1", "--N", "16", "--h", "1e-160",
     "--ref", "second-deriv-limit", "--part", "re"],
    ["diff", "--fn", "sin:omega=1", "--h", "1e200", "--order", "2", "--points", "5"],
    ["diff", "--fn", "sin:omega=1", "--h", "1e-200", "--order", "2", "--points", "5"],
    ["diff", "--fn", "altpoly:1", "--h", "1e-320", "--points", "5"],
    ["diff", "--fn", "poly:0,0,1e308", "--h", "0.25", "--points", "11",
     "--kind", "half-point-first"],
    ["diff", "--fn", "sin:omega=1e-10", "--h", "1e308", "--points", "4"],
], ids=["figure-tiny-h", "spectrum-huge-h", "limit-tiny-h", "second-deriv-tiny-h",
        "diff-huge-h", "diff-tiny-h", "diff-values-overflow", "half-point-values-overflow",
        "diff-x-overflow"])
def test_overflowing_h_is_one_line_error(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_capture(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: h=") and err.count("\n") == 1


# one-sided-first(1034)'s bins at N = 4000 overflow in the sum, and the
# weights of n = 1100 (and of the forward rule diff uses) do not fit in a
# float; no golden argv comes near these n
@pytest.mark.parametrize("argv, name", [
    (["spectrum", "--kind", "one-sided-first", "--n", "1034", "--N", "4000"],
     "one-sided-first(n=1034)"),
    (["spectrum", "--kind", "one-sided-first", "--n", "1100", "--N", "4000"],
     "one-sided-first(n=1100)"),
    (["spectrum", "--kind", "one-sided-first", "--n", "1034", "--N", "4000",
      "--embedding", "full-antisymmetric"], "one-sided-first(n=1034)"),
    (["figure", "3a", "--n", "1,1034", "--N", "4000"], "one-sided-first(n=1034)"),
    (["figure", "3b", "--n", "1100", "--N", "4000"], "one-sided-first(n=1100)"),
    (["diff", "--fn", "sin:omega=1", "--n", "1100", "--points", "2300"], "forward(1100)"),
], ids=["spectrum-bins", "spectrum-weights", "spectrum-full-antisymmetric", "figure-3a",
        "figure-3b", "diff-weights"])
def test_overflowing_spectrum_or_weights_is_one_line_error(capsys, argv, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_capture(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {name}: ") and err.count("\n") == 1
    assert argv[0] == "diff" or "N=4000" in err


def test_spectrum_first_deriv_reference_is_nan_at_nyquist(capsys):
    code, out, _ = run_capture(
        capsys, ["spectrum", "--kind", "central-first", "--n", "3", "--N", "64",
                 "--h", "0.7", "--ref", "first-deriv-limit"])
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[-1][0] == "32"
    assert rows[-1][4:] == ["nan", "nan"]
    assert float(rows[10][4]) == pytest.approx(2 * (2 * math.pi * 10 / 64), rel=1e-12)


@pytest.mark.parametrize("N", ["22", "16"])
def test_first_deriv_reference_is_nan_at_nyquist_however_omega_rounds(capsys, N):
    # at N = 22, h = 0.5 omega_{N/2} rounds below pi/h, at N = 16 it does not
    code, out, _ = run_capture(
        capsys, ["spectrum", "--kind", "central-first", "--n", "1", "--N", N,
                 "--h", "0.5", "--ref", "first-deriv-limit"])
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[-1][0] == str(int(N) // 2)
    assert rows[-1][4:] == ["nan", "nan"]


# --- figure -----------------------------------------------------------------------


def test_figure_1b_reference_at_dc(capsys):
    code, out, _ = run_capture(capsys, ["figure", "1b", "--N", "64", "--M", "5000"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["r", "omega", "re_b_conj", "im_b_conj", "ref_value", "abs_dev"]
    assert float(rows[0][4]) == pytest.approx(math.pi ** 2 / 3, rel=1e-12)
    assert float(rows[0][5]) <= 1e-5


def test_figure_1a_nyquist_reference_is_nan(capsys):
    code, out, _ = run_capture(capsys, ["figure", "1a", "--N", "64", "--M", "2000"])
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[-1][4] == "nan"
    assert float(rows[10][4]) == pytest.approx(2 * (2 * math.pi * 10 / 64), rel=1e-12)


def test_figure_2a_im_part(capsys):
    code, out, _ = run_capture(capsys, ["figure", "2a", "--n", "1", "--N", "2000"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "r", "omega", "re_b_conj", "im_b_conj", "ref_value",
                      "abs_dev"]
    for row in rows[::250]:
        r = int(row[1])
        assert float(row[4]) == pytest.approx(math.sin(2 * math.pi * r / 2000),
                                              abs=1e-10)


def test_figure_3a_zero_sum_at_dc(capsys):
    code, out, _ = run_capture(capsys, ["figure", "3a", "--N", "256"])
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        if row[1] == "0":
            assert float(row[4]) == 0.0 and float(row[3]) == 0.0


def test_figure_2b_envelope_demo(capsys):
    code, out, _ = run_capture(capsys, ["figure", "2b", "--points", "33"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["index", "x", "signal", "envelope_upper", "envelope_lower",
                      "half_point_raw", "half_point_corrected"]
    interior = [row for row in rows if row[5] != "nan"]
    assert interior
    for row in interior:
        assert float(row[6]) == 0.25  # recovered envelope slope
    assert rows[0][5] == "nan"


def test_figure_2b_requires_modulated_function(capsys):
    code, _, _ = run_capture(capsys, ["figure", "2b", "--fn", "sin:omega=1"])
    assert code == 2


def test_figure_unknown_id(capsys):
    code, _, _ = run_capture(capsys, ["figure", "9z"])
    assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (["figure", "1a", "--fn", "poly:1"], "--fn"),
    (["figure", "1b", "--n", "3"], "--n"),
    (["figure", "2a", "--M", "5"], "--M"),
    (["figure", "3a", "--points", "7"], "--points"),
    (["figure", "2b", "--N", "64"], "--N"),
    (["figure", "2b", "--n", "3,4"], "--n"),
], ids=["1a-fn", "1b-n", "2a-M", "3a-points", "2b-N", "2b-n-list"])
def test_figure_flag_its_id_does_not_read_exits_2(capsys, argv, flag):
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (2, "")
    assert flag in err.splitlines()[-1]


def test_figure_flag_before_the_id_exits_2(capsys):
    for flag in (["--N", "64"], ["--format", "json"]):
        code, out, err = run_capture(capsys, ["figure", *flag, "1a"])
        assert (code, out) == (2, "")
        assert err.startswith("usage error: stencil-spectra figure: argument ID [flags]: "
                              "invalid choice: ")
        assert flag[1] in err and err.count("\n") == 1


# --- verify -------------------------------------------------------------------------


def test_verify_passes(capsys):
    code, out, _ = run_capture(capsys, ["verify", "--max-n", "4"])
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_verify_json(capsys):
    for max_n in (1, 2, 3):
        code, out, _ = run_capture(capsys, ["verify", "--max-n", str(max_n),
                                            "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["failed"] == 0
        assert payload["passed"] == len(payload["checks"]) == 13 * max_n
        assert all(check["ok"] for check in payload["checks"])


def test_verify_identities_hold_through_max_n_30(capsys):
    code, out, _ = run_capture(capsys, ["verify", "--max-n", "30", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["passed"], payload["failed"]) == (390, 0)


@pytest.mark.parametrize("fmt, digest", [
    ("text", "7ad5935b91ee5c45abaeb487988a80dfd5ebdba085c88d9a8548c702300c09cc"),
    ("json", "f8a2bbcc78a66d092c8dc8f495a293aeff996fd1cae5ac377aa419e3c28614cc"),
])
def test_verify_max_n_16_bytes_are_pinned(capsys, fmt, digest):
    # the SHA-256 of the stdout that the benchmark's golden digests record
    assert _verify_digest(capsys, 16, fmt) == digest


@pytest.mark.parametrize("fmt, digest", [
    ("text", "55f6b408c0665c5a8d44d3ff7d94601ae6c7cc921f2318e88cba27a5c34d1382"),
    ("json", "2f8da1f95b778aeb843c18ab3a26453b458ff7eaf15fd0d5a25ae99596e365fa"),
])
def test_verify_max_n_60_bytes_are_pinned(capsys, fmt, digest):
    # the SHA-256 of the stdout when each determinant had its own
    # elimination; CI compares the console script's text with it too
    assert _verify_digest(capsys, 60, fmt) == digest


def _verify_digest(capsys, max_n, fmt):
    code, out, _ = run_capture(capsys, ["verify", "--max-n", str(max_n), "--format", fmt])
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


def test_verify_max_n_above_the_limit_is_one_line_error(capsys):
    # the shared elimination holds (max-n + 1)**2 integers from the start
    code, out, err = run_capture(capsys, ["verify", "--max-n", "101"])
    assert (code, out) == (1, "")
    assert err == "error: --max-n 101 is above the limit of 100\n"


def test_verify_text_is_pinned(capsys):
    code, out, _ = run_capture(capsys, ["verify", "--max-n", "1"])
    assert code == 0
    assert out == """\
PASS moment-system central-first(n=1): oracle solver reproduces the weights
PASS exactness central-first(n=1): max exact degree 2, expected 2
PASS moment-system central-second(n=1): oracle solver reproduces the weights
PASS exactness central-second(n=1): max exact degree 3, expected 3
PASS moment-system half-point-first(n=1): oracle solver reproduces the weights
PASS exactness half-point-first(n=1): max exact degree 2, expected 2
PASS moment-system one-sided-first(n=1): oracle solver reproduces the weights
PASS exactness one-sided-first(n=1): max exact degree 1, expected 1
PASS moment-system one-sided-nth(n=1): oracle solver reproduces the weights
PASS exactness one-sided-nth(n=1): max exact degree 1, expected 1
PASS closed-form central-first(n=1): factorial ratio form
PASS closed-form one-sided-first(n=1): binomial/product/harmonic forms
PASS determinants(n=1): Vandermonde product and numerator ratios
13/13 checks passed
"""


def test_verify_fails_on_a_wrong_half_point_weight(capsys, monkeypatch):
    def bent_half_point(n):
        stencil = weights.half_point(n)
        bent = list(stencil.weights)
        bent[n] += Fraction(1, 10 ** 6)  # the weight at offset +1 only
        return dataclasses.replace(stencil, weights=tuple(bent))

    monkeypatch.setitem(weights._KIND_BUILDERS, StencilKind.HALF_POINT_FIRST,
                        bent_half_point)
    code, out, _ = run_capture(capsys, ["verify", "--max-n", "3"])
    assert code == 1
    failed = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == [f"FAIL {check} half-point-first(n={n})"
                      for n in (1, 2, 3) for check in ("moment-system", "exactness")]
    assert out.endswith("\n33/39 checks passed\n")


def _bent_builder(kind, position):
    """The builder of kind with the weight at index position(n) of the
    stored weights off by 10**-6."""
    build = weights._KIND_BUILDERS[kind]

    def bent(n):
        stencil = build(n)
        bent_weights = list(stencil.weights)
        bent_weights[position(n)] += Fraction(1, 10 ** 6)
        return dataclasses.replace(stencil, weights=tuple(bent_weights))
    return bent


# Each bent weight fails exactly its family's lines. The one-sided closed-form
# line compares the centre weight with -(1 + 1/2 + ... + 1/n), but that term
# is implied by the product-form terms at m >= 1 and by sum == 0: a bent
# centre weight breaks the sum and a bent weight at m >= 1 its product form,
# so no fault can fail the harmonic term alone (and, the same way, none can
# fail sum == 0 alone).
@pytest.mark.parametrize("kind, position, checks", [
    (StencilKind.CENTRAL_FIRST, lambda n: n,  # offset +1
     ["moment-system central-first", "exactness central-first", "closed-form central-first"]),
    (StencilKind.ONE_SIDED_FIRST, lambda n: 0,  # the centre, offset 0
     ["moment-system one-sided-first", "exactness one-sided-first",
      "closed-form one-sided-first"]),
    (StencilKind.ONE_SIDED_FIRST, lambda n: n,  # offset m = n >= 1
     ["moment-system one-sided-first", "exactness one-sided-first",
      "closed-form one-sided-first", "determinants"]),
], ids=["central-first-offset-1", "one-sided-centre", "one-sided-offset-n"])
def test_verify_fails_exactly_the_lines_of_a_bent_weight(capsys, monkeypatch, kind,
                                                        position, checks):
    monkeypatch.setitem(weights._KIND_BUILDERS, kind, _bent_builder(kind, position))
    code, out, _ = run_capture(capsys, ["verify", "--max-n", "3"])
    assert code == 1
    failed = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == [f"FAIL {check}(n={n})" for n in (1, 2, 3) for check in checks]
    assert out.endswith(f"\n{39 - 3 * len(checks)}/39 checks passed\n")


# --- general behavior ------------------------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    assert run_capture(capsys, ["frobnicate"])[0] == 2
    assert run_capture(capsys, [])[0] == 2


def test_bad_flag_values_exit_2(capsys):
    assert run_capture(capsys, ["stencil", "--kind", "nope", "--n", "1"])[0] == 2
    assert run_capture(capsys, ["stencil", "--kind", "central-first", "--n", "0"])[0] == 2
    assert run_capture(capsys, ["spectrum", "--kind", "central-first", "--n", "1",
                                "--N", "15"])[0] == 2


@pytest.mark.parametrize("argv", [
    ["stencil", "--kind", "nope", "--n", "1"],
    ["figure", "3a", "--M", "5"],
    ["spectrum", "--kind", "central-first", "--n", "1", "--N", "15"],
    [],
], ids=["unknown-kind", "flag-the-id-does-not-read", "odd-N", "no-command"])
def test_argparse_error_is_one_usage_line(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: stencil-spectra") and err.count("\n") == 1


def test_help_exits_0(capsys):
    code, out, err = run_capture(capsys, ["figure", "1a", "--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: stencil-spectra figure 1a ")


def test_run_builds_no_parser_per_call(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in [*_CHEAP_ARGVS.values(), ["figure", "3a", "--M", "5"], []]:
        run_capture(capsys, argv)
    assert built == []


def test_parse_errors_leave_the_parser_as_it_was(capsys):
    argv = ["figure", "2a", "--N", "64"]
    _, alone, _ = run_capture(capsys, argv)
    for earlier in (["figure", "2a", "--n", "3", "--N", "64"], ["figure", "2a", "--M", "5"],
                    ["figure", "2a", "--n", "0"], ["figure", "2b", "--n", "3,4"],
                    ["stencil", "--kind", "nope", "--n", "1"], []):
        run_capture(capsys, earlier)
        assert run_capture(capsys, argv) == (0, alone, "")


def test_output_is_deterministic(capsys):
    argv = ["spectrum", "--kind", "one-sided-first", "--n", "3", "--N", "128"]
    _, first, _ = run_capture(capsys, argv)
    _, second, _ = run_capture(capsys, argv)
    assert first == second


def test_out_file_writing(capsys, tmp_path):
    path = tmp_path / "table.csv"
    code, out, _ = run_capture(
        capsys, ["diff", "--fn", "poly:0,1", "--n", "1", "--points", "5",
                 "--out", str(path)]
    )
    assert code == 0
    assert out == ""
    text = path.read_text(encoding="utf-8")
    assert text.startswith("index,x,value,policy")


# one cheap argv per subcommand
_CHEAP_ARGVS = {
    "stencil": ["stencil", "--kind", "central-first", "--n", "2"],
    "spectrum": ["spectrum", "--kind", "central-first", "--n", "3", "--N", "16"],
    "diff": ["diff", "--fn", "poly:1,2", "--points", "5"],
    "figure": ["figure", "1a", "--N", "16", "--M", "100"],
    "verify": ["verify", "--max-n", "1"],
}


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", list(_CHEAP_ARGVS))
def test_out_to_an_unwritable_path_is_one_line_error(capsys, tmp_path, command, target):
    out = tmp_path / "missing" / "table" if target == "missing-directory" else tmp_path
    code, stdout, err = run_capture(capsys, _CHEAP_ARGVS[command] + ["--out", str(out)])
    assert code == 1 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fn, key", [("sin:omega=1,omega=2", "omega"),
                                     ("sin:phase=0,omega=1,phase=1", "phase")])
def test_repeated_sinusoid_parameter_is_one_line_error(capsys, fn, key):
    code, out, err = run_capture(capsys, ["diff", "--fn", fn, "--points", "5"])
    assert code == 1 and out == ""
    assert err == f"error: sinusoid parameter {key} is given twice\n"


# --- table rendering --------------------------------------------------------------


def _per_row_render(names, columns, fmt):
    """The table as one record per row: json.dumps(indent=2) or csv.writer."""
    rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    if fmt == "json":
        return json.dumps([dict(zip(names, row)) for row in rows], indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        writer.writerow([format(v + 0.0, ".17g") if isinstance(v, float) else v for v in row])
    return buf.getvalue()


_CELL_TEXT = st.text(st.one_of(st.sampled_from(list(',"\r\n %xé€')), st.characters()),
                     max_size=4)


@st.composite
def _tables(draw):
    names = draw(st.lists(st.sampled_from(["index", "x", "a,b", 'q"', "%s", "ü", ""]),
                          min_size=1, max_size=4, unique=True))
    rows = draw(st.integers(0, 6))
    columns = []
    for _ in names:
        kind = draw(st.sampled_from(["float", "int", "range", "text"]))
        if kind == "float":
            columns.append(np.array(draw(st.lists(st.floats(), min_size=rows, max_size=rows)),
                                    dtype=float))
        elif kind == "int":
            columns.append(draw(st.lists(st.integers(), min_size=rows, max_size=rows)))
        elif kind == "range":
            start = draw(st.integers(-3, 3))
            columns.append(range(start, start + rows))
        else:
            columns.append(tuple(draw(st.lists(_CELL_TEXT, min_size=rows, max_size=rows))))
    return names, columns


@settings(max_examples=300, deadline=None)
@given(table=_tables(), fmt=st.sampled_from(["csv", "json"]))
@example(table=(["policy"], [("", "", "")]), fmt="csv")
@example(table=(["x", "v"], [np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324]),
                             [0, -1, 2 ** 64, -2 ** 70, 3]]), fmt="csv")
@example(table=(["x", "v"], [np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324]),
                             [0, -1, 2 ** 64, -2 ** 70, 3]]), fmt="json")
def test_render_table_matches_per_row_rendering(table, fmt):
    names, columns = table
    assert _render_table(names, columns, fmt) == _per_row_render(names, columns, fmt)


# --- CLI fuzz -------------------------------------------------------------------------


_COEFFICIENTS = st.sampled_from(["0", "1", "-0.5", "0.25", "3", "1e-300", "1e308", "-1e308",
                                 "nan", "inf", "-inf"])
_FUNCTIONS = st.one_of(
    st.builds(lambda omega, phase: f"sin:omega={omega}" + (f",phase={phase}" if phase else ""),
              _COEFFICIENTS, st.none() | _COEFFICIENTS),
    st.builds(lambda family, coeffs: f"{family}:{','.join(coeffs)}",
              st.sampled_from(["poly", "altpoly"]),
              st.lists(_COEFFICIENTS, min_size=1, max_size=4)),
)
_KINDS = [kind.value for kind in StencilKind]
_LIMITS = ["central-first", "central-second", "half-point-first"]
_EMBEDDINGS = ["half-sequence", "full-antisymmetric", "full-symmetric"]
_CURVES = ["first-deriv-limit", "second-deriv-limit", "half-point-limit", "half-point-fold",
           "linear-ramp", "zero"]
_SPACINGS = st.one_of(st.sampled_from(["1e-320", "5e-324", "1e-200", "0.25", "1", "1e200",
                                       "1e308"]),
                      st.floats(1e-320, 1e308).map(repr))


@st.composite
def _signal_argvs(draw):
    fn, h = draw(_FUNCTIONS), draw(_SPACINGS)
    points, n = draw(st.integers(1, 64)), draw(st.integers(1, 5))
    fmt = draw(st.sampled_from(["csv", "json"]))
    if draw(st.booleans()):
        return ["figure", "2b", f"--fn={fn}", f"--h={h}", f"--points={points}", f"--n={n}",
                f"--format={fmt}"]
    kind = draw(st.sampled_from(["central", "half-point-first"]))
    order = draw(st.sampled_from(["1", "2"]))
    return ["diff", f"--fn={fn}", f"--h={h}", f"--points={points}", f"--n={n}",
            f"--order={order}", f"--kind={kind}", f"--format={fmt}"]


# flags argparse rejects, whatever the command: the last --N, --n, --kind or
# --format given wins, and a flag that the command lacks is unrecognized
_ARGPARSE_ERRORS = ["--N=15", "--N=0", "--n=0", "--kind=nope", "--format=xml"]


@st.composite
def _with_argparse_errors(draw, argvs):
    """An argv of argvs that, one draw in eight, ends in an argparse error."""
    argv = draw(argvs)
    if draw(st.integers(0, 7)) == 7:
        argv = argv + [draw(st.sampled_from(_ARGPARSE_ERRORS))]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_with_argparse_errors(_signal_argvs()))
@example(argv=["diff", "--fn", "poly:1e308,1e308", "--h", "10", "--points", "5"])
@example(argv=["diff", "--fn", "poly:1e308,1e308", "--h", "10", "--points", "5",
               "--kind", "half-point-first"])
@example(argv=["diff", "--fn", "sin:omega=nan", "--points", "5"])
def test_signal_commands_exit_cleanly(argv):
    _assert_exits_cleanly(argv)


def _assert_exits_cleanly(argv) -> int:
    """run(argv) exits 0, 1 or 2, warns nothing and writes at most one
    stderr line, which is empty exactly when the exit is 0."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run(argv)
    assert code in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
    assert (err.getvalue() == "") == (code == 0)
    if set(argv) & set(_ARGPARSE_ERRORS):
        assert code == 2 and err.getvalue().startswith("usage error: ")
    return code


_FORMATS = st.sampled_from(["csv", "json"])
_EVEN_N = st.integers(1, 128).map(lambda half: str(2 * half))
# the fuzz test writes the drawn stencil file and puts its path here
_STENCIL_FILE = "<stencil-file>"


@st.composite
def _stencil_argvs(draw):
    return ["stencil", f"--kind={draw(st.sampled_from(_KINDS))}",
            f"--n={draw(st.integers(1, 12))}", f"--format={draw(_FORMATS)}"]


@st.composite
def _spectrum_argvs(draw):
    argv = ["spectrum", f"--N={draw(_EVEN_N)}", f"--h={draw(_SPACINGS)}",
            f"--embedding={draw(st.sampled_from(_EMBEDDINGS))}",
            f"--part={draw(st.sampled_from(['im', 're']))}", f"--format={draw(_FORMATS)}"]
    if draw(st.booleans()):
        argv.append(f"--kind={draw(st.sampled_from(_KINDS))}")
        wanted, other = [f"--n={draw(st.integers(1, 12))}"], ["--M=7"]
    else:
        argv.append(f"--limit={draw(st.sampled_from(_LIMITS))}")
        wanted, other = [f"--M={draw(st.integers(1, 2000))}"] * draw(st.booleans()), ["--n=3"]
    # one draw in five takes the other source's flag instead: a usage error
    argv += other if draw(st.integers(0, 4)) == 4 else wanted
    if draw(st.booleans()):
        argv.append(f"--ref={draw(st.sampled_from(_CURVES))}")
    return argv


@st.composite
def _figure_argvs(draw):
    figure_id = draw(st.sampled_from(["1a", "1b", "2a", "3a", "3b"]))
    argv = ["figure", figure_id, f"--N={draw(_EVEN_N)}", f"--h={draw(_SPACINGS)}",
            f"--format={draw(_FORMATS)}"]
    if figure_id in ("1a", "1b"):
        argv.append(f"--M={draw(st.integers(1, 2000))}")
    elif draw(st.booleans()):
        ns = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
        argv.append(f"--n={','.join(map(str, ns))}")
    return argv


@st.composite
def _verify_argvs(draw):
    return ["verify", f"--max-n={draw(st.integers(1, 3))}",
            f"--format={draw(st.sampled_from(['text', 'json']))}"]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=12)


@st.composite
def _stencil_payloads(draw):
    """A stencil file's bytes: a built stencil, the good stencil with one
    field or one node field replaced by any JSON value, any JSON document,
    or any bytes."""
    choice = draw(st.sampled_from(["built", "field", "node", "document", "bytes"]))
    if choice == "bytes":
        return draw(st.binary(max_size=64))
    if choice == "built":
        payload = weights.stencil_to_dict(
            weights.build(draw(st.sampled_from(list(StencilKind))), draw(st.integers(1, 12))))
    elif choice == "document":
        payload = draw(_JSON)
    else:
        payload = json.loads(json.dumps(_GOOD_STENCIL))
        target = payload if choice == "field" else payload["nodes"][draw(st.integers(0, 1))]
        target[draw(st.sampled_from(sorted(target)))] = draw(_JSON)
    return json.dumps(payload).encode()


@st.composite
def _stencil_file_argvs(draw):
    # a signal that samples cleanly, so that the file is read
    fn = draw(st.sampled_from(["sin:omega=1", "poly:1,-2,0.5", "altpoly:1,0.25"]))
    return ["diff", f"--fn={fn}", f"--h={draw(st.sampled_from(['0.25', '1', '3']))}",
            f"--points={draw(st.integers(2, 64))}", f"--stencil-file={_STENCIL_FILE}",
            f"--format={draw(_FORMATS)}"], draw(_stencil_payloads())


def _without_file(argvs):
    return st.tuples(argvs, st.just(None))


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(*(_without_file(_with_argparse_errors(argvs))
                        for argvs in (_stencil_argvs(), _spectrum_argvs(), _figure_argvs(),
                                      _verify_argvs())),
                      _stencil_file_argvs()),
       out_dir=st.booleans())
def test_other_commands_exit_cleanly(case, out_dir):
    argv, payload = case
    with tempfile.TemporaryDirectory() as tmp:
        stencil_file = os.path.join(tmp, "stencil.json")
        if payload is not None:
            with open(stencil_file, "wb") as fh:
                fh.write(payload)
        argv = [arg.replace(_STENCIL_FILE, stencil_file) for arg in argv]
        code = _assert_exits_cleanly(argv + [f"--out={tmp}"] * out_dir)
    if out_dir:
        assert code != 0
