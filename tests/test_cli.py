"""CLI surface: exit codes, schemas, determinism, round trips."""

import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from stencil_spectra import weights
from stencil_spectra.cli import run
from stencil_spectra.signals import SampledSignal, Sinusoid, apply_stencil, make_signal


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
    code, _, _ = run_capture(
        capsys,
        ["diff", "--fn", "sin:omega=1", "--stencil-file", str(path), "--n", "2"],
    )
    assert code == 2


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
], ids=["not-object", "missing-key", "empty-nodes", "zero-denominator",
        "null-weight", "bad-prefactor", "duplicate-offset", "negative-order",
        "negative-h-power"])
def test_diff_malformed_stencil_file_is_one_line_error(capsys, tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run_capture(
        capsys, ["diff", "--fn", "sin:omega=1", "--stencil-file", str(path)]
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["figure", "1a", "--h", "1e-320", "--N", "16", "--M", "100"],
    ["spectrum", "--kind", "central-first", "--n", "2", "--N", "16", "--h", "1e308",
     "--ref", "second-deriv-limit", "--part", "re"],
    ["spectrum", "--limit", "central-first", "--N", "16", "--h", "1e-320"],
    ["spectrum", "--kind", "central-second", "--n", "1", "--N", "16", "--h", "1e-160",
     "--ref", "second-deriv-limit", "--part", "re"],
], ids=["figure-tiny-h", "spectrum-huge-h", "limit-tiny-h", "second-deriv-tiny-h"])
def test_overflowing_h_is_one_line_error(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_capture(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: h=") and err.count("\n") == 1


def test_spectrum_first_deriv_reference_is_nan_at_nyquist(capsys):
    code, out, _ = run_capture(
        capsys, ["spectrum", "--kind", "central-first", "--n", "3", "--N", "64",
                 "--h", "0.7", "--ref", "first-deriv-limit"])
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[-1][0] == "32"
    assert rows[-1][4:] == ["nan", "nan"]
    assert float(rows[10][4]) == pytest.approx(2 * (2 * math.pi * 10 / 64), rel=1e-12)


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


# --- verify -------------------------------------------------------------------------


def test_verify_passes(capsys):
    code, out, _ = run_capture(capsys, ["verify", "--max-n", "4"])
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_verify_json(capsys):
    code, out, _ = run_capture(capsys, ["verify", "--max-n", "2",
                                        "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert all(check["ok"] for check in payload["checks"])


# --- general behavior ------------------------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    assert run_capture(capsys, ["frobnicate"])[0] == 2
    assert run_capture(capsys, [])[0] == 2


def test_bad_flag_values_exit_2(capsys):
    assert run_capture(capsys, ["stencil", "--kind", "nope", "--n", "1"])[0] == 2
    assert run_capture(capsys, ["stencil", "--kind", "central-first", "--n", "0"])[0] == 2
    assert run_capture(capsys, ["spectrum", "--kind", "central-first", "--n", "1",
                                "--N", "15"])[0] == 2


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
