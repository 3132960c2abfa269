"""CLI surface: exit codes, schemas, determinism, round trips."""

import argparse
import contextlib
import csv
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

from stencil_spectra import cli, tableblocks, weights
from stencil_spectra.cli import run
from stencil_spectra.signals import (SKIPPED, SampledSignal, Sinusoid, apply_stencil,
                                     differentiate, differentiate_half_point_signal,
                                     make_signal, parse_test_function)
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


def _stencil_digest(capsys, kind, fmt, ns):
    """The SHA-256 of each stencil's exit code and stdout, in order of n."""
    digest = hashlib.sha256()
    for n in ns:
        code, out, _ = run_capture(capsys, ["stencil", "--kind", kind, "--n", str(n),
                                            "--format", fmt])
        digest.update(f"{code}\n{out}".encode())
    return digest.hexdigest()


# n outside the 12..48 of the golden stencil argvs (perfbench/golden.json)
_STENCIL_EDGE_NS = [*range(1, 12), *range(49, 61)]


@pytest.mark.parametrize("kind, fmt, digest", [
    ("central-first", "csv",
     "72c588965fdca7327adac67365f11575e62231084f6a3821e814c5ce3dcc286c"),
    ("central-first", "json",
     "6b78372b277834095f02d4dd9ce0c7a675d0cbf14e3c06b422c4d1aaf94a82f1"),
    ("central-second", "csv",
     "5aa0d5feb79151b743d558e12df89fb5eee6904cea3da21243be2ce5f1e55908"),
    ("central-second", "json",
     "8d9d8bb929cc29ddbc3a72cc6e46d37fface197105577c8462eb782287f0dec8"),
    ("half-point-first", "csv",
     "6186aa39b3aa18eab9c007f632e9769f70fd13808539088edb01a47996b26fa9"),
    ("half-point-first", "json",
     "757ac7845cc59cc04be6c106b2833d05b60c93dc351012ade6b3265894360dd7"),
    ("one-sided-first", "csv",
     "e789dfb0331caf916b9b3d0880ed910a93f5a2af09e9598d2e2094025da79337"),
    ("one-sided-first", "json",
     "0f82e272e1f40914e66dcb07c616d6795dd78f29db7443f4757ba27586f3d90f"),
    ("one-sided-nth", "csv",
     "fe1d2ceba2badbca45126287fe6869ba019c60c2ecaa74341044b44f509566c6"),
    ("one-sided-nth", "json",
     "d4955393445a52cecdbe0f35ccc63448228949b5f88bf48fead2cf7af08a540c"),
])
def test_stencil_bytes_outside_the_golden_range_are_pinned(capsys, kind, fmt, digest):
    # recorded when `stencil`'s CSV rows filled a % row template per row
    assert _stencil_digest(capsys, kind, fmt, _STENCIL_EDGE_NS) == digest


@pytest.mark.parametrize("kind", [k.value for k in StencilKind])
def test_stencil_json_is_the_bytes_of_json_dumps(capsys, kind):
    for n in range(1, 61):
        code, out, _ = run_capture(capsys, ["stencil", "--kind", kind, "--n", str(n),
                                            "--format", "json"])
        stencil = weights.build(StencilKind(kind), n)
        assert (code, out) == (0, json.dumps(weights.stencil_to_dict(stencil), indent=2) + "\n")


# the JSON scalars the documents may hold: strings with every kind of
# character json escapes, ints of any size, and booleans
_JSON_TEXT = st.text(st.one_of(st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f",
                                               "\u2028", "\u2029", "\ud800", "\xe9",
                                               "\U0001f600", "%", "{"]),
                               st.characters()), max_size=8)
_JSON_SCALAR = st.one_of(_JSON_TEXT, st.integers(),
                         st.integers(2 ** 64, 2 ** 200), st.integers(-2 ** 200, -2 ** 64),
                         st.booleans())


@st.composite
def _json_documents(draw):
    """(header, key, names, columns): distinct names, columns of one length."""
    header = draw(st.dictionaries(_JSON_TEXT, _JSON_SCALAR, max_size=4))
    key = draw(_JSON_TEXT.filter(lambda k: k not in header))
    names = draw(st.lists(_JSON_TEXT, unique=True, max_size=3))
    rows = draw(st.integers(0, 5))
    columns = [draw(st.lists(_JSON_SCALAR, min_size=rows, max_size=rows)) for _ in names]
    return header, key, names, columns


@settings(max_examples=300, deadline=None)
@given(document=_json_documents())
def test_json_document_is_the_bytes_of_json_dumps(document):
    header, key, names, columns = document
    records = [dict(zip(names, row)) for row in zip(*columns)]
    assert cli._json_document(header, key, names, columns) == json.dumps(
        {**header, key: records}, indent=2) + "\n"


@pytest.mark.parametrize("header, columns", [
    ({"v": 0.5}, []), ({}, [[1, 0.5]]), ({"v": None}, []),
    ({}, [[[1]]]), ({1: 1}, []),
], ids=["float-in-header", "float-in-column", "none", "list", "int-key"])
def test_json_document_takes_scalars_only(header, columns):
    with pytest.raises(TypeError):
        cli._json_document(header, "records", ["v"] * len(columns), columns)


@pytest.mark.parametrize("names, columns", [
    (["a", "b"], [[1, 2], [1]]), (["a"], [[1], [2]]), (["a", "b"], [[1]]),
], ids=["lengths", "more-columns", "more-names"])
def test_json_document_columns_match_their_names(names, columns):
    with pytest.raises(ValueError, match="^the columns do not match their names in count "
                                         "and length$"):
        cli._json_document({}, "records", names, columns)


def test_json_document_names_are_distinct():
    with pytest.raises(ValueError, match="^the column names repeat$"):
        cli._json_document({}, "records", ["a", "a"], [[1], [2]])


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


@pytest.mark.parametrize("family, fitting", [("central-first", 3), ("central-second", 3),
                                             ("half-point-first", 2)])
def test_spectrum_limit_oversized_M_is_rejected_before_its_taps(capsys, family, fitting):
    # each of 10**6 taps made before the embedding refused the first one
    # that does not fit took about 180 B: a 162 MB traced peak
    argv = ["spectrum", "--limit", family, "--N", "8", "--M", str(10 ** 6)]
    cli._load_numeric()  # the numeric layer's first import is not the taps' memory
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == f"error: --limit {family} fits {fitting} taps at N = 8, not --M 1000000\n"
    assert peak < 10 ** 6
    assert run_capture(capsys, [*argv[:-1], str(fitting)])[0] == 0
    assert run_capture(capsys, [*argv[:-1], str(fitting + 1)])[0] == 1


@pytest.mark.parametrize("argv", [
    ["figure", "2a", "--n", "10000", "--N", "8"],
    ["figure", "3a", "--n", "1,3,4", "--N", "8"],
    ["spectrum", "--kind", "central-second", "--n", "3000", "--N", "8"],
    ["spectrum", "--kind", "half-point-first", "--n", "3", "--N", "10"],
], ids=["2a", "3a-last-n", "spectrum", "spectrum-half-point"])
def test_stencil_that_cannot_fit_N_is_refused_before_it_is_built(capsys, monkeypatch, argv):
    # the check needs only n: a large n's stencil takes seconds to build
    built = []
    monkeypatch.setattr(weights, "build", lambda kind, n: built.append(n))
    code, out, err = run_capture(capsys, argv)
    assert (code, out, built) == (1, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "does not fit in a length-" in err


# the largest n whose offsets lie below N/2 = 8: 2n - 1 = 7, or n = 7
@pytest.mark.parametrize("command, kind, n", [
    *[(["spectrum", "--kind", kind.value], kind, 4 if kind is StencilKind.HALF_POINT_FIRST
       else 7) for kind in StencilKind],
    (["figure", "2a"], StencilKind.HALF_POINT_FIRST, 4),
    (["figure", "3b"], StencilKind.ONE_SIDED_FIRST, 7),
])
def test_stencil_that_fits_N_at_its_edge_runs_and_the_next_n_is_refused(capsys, command,
                                                                          kind, n):
    assert run_capture(capsys, [*command, "--n", str(n), "--N", "16"])[0] == 0
    code, out, err = run_capture(capsys, [*command, "--n", str(n + 1), "--N", "16"])
    assert (code, out) == (1, "")
    assert err == (f"error: {kind.value}(n={n + 1}) reaches offset {weights.reach(kind, n + 1)},"
                   " which does not fit in a length-16 embedding (need |m| < N/2)\n")


@pytest.mark.parametrize("kind", cli._LIMIT_CHOICES)
def test_limit_taps_are_counted_without_making_them(monkeypatch, capsys, kind):
    # the taps that fit, N/2 - 1 or N/4, are those of the first N/2 terms
    # whose offsets lie below N/2
    kind = StencilKind(kind)
    for N in range(2, 400, 2):
        offsets, _ = weights.limit_coefficients(kind, N // 2)
        fitting = int((offsets < N // 2).sum())
        if fitting:
            assert cli._limit_taps(kind, N, None) == fitting
            assert cli._limit_taps(kind, N, fitting) == fitting
        else:
            with pytest.raises(ValueError, match="fits no taps"):
                cli._limit_taps(kind, N, None)
    # and only those taps are made
    made = []
    limit_coefficients = weights.limit_coefficients
    monkeypatch.setattr(weights, "limit_coefficients",
                        lambda *args: made.append(args) or limit_coefficients(*args))
    assert run_capture(capsys, ["spectrum", "--limit", kind.value, "--N", "64"])[0] == 0
    assert made == [(kind, 16 if kind is StencilKind.HALF_POINT_FIRST else 31)]


# argvs with two faults, the first found by a step that reads an array and
# the second by a rule that reads none but follows that step, or with a
# --fn fault before a grid fault: each prints the line of its first fault
@pytest.mark.parametrize("argv, err", [
    (["spectrum", "--kind", "one-sided-first", "--n", "1100", "--N", "4000", "--h", "1e308"],
     "error: one-sided-first(n=1100): the spectrum at N=4000 overflows the floats\n"),
    (["diff", "--fn", "poly:0,0,1e300", "--h", "1e200", "--order", "2", "--points", "5"],
     "error: sample 0 is inf: samples must be finite\n"),
    (["diff", "--fn", "bogus:1", "--h", "inf", "--points", "5"],
     "error: unknown test function family 'bogus'\n"),
    (["figure", "2a", "--n", "1,3000", "--N", "64", "--h", "1e308"],
     "error: half-point-first(n=3000) reaches offset 5999, which does not fit in a length-64"
     " embedding (need |m| < N/2)\n"),
], ids=["spectrum-overflow-before-h", "sample-before-h-power", "fn-before-grid",
        "reach-before-h"])
def test_an_argv_with_two_faults_reports_its_first(capsys, argv, err):
    assert run_capture(capsys, argv) == (1, "", err)


# numpy's arrays hold at most sys.maxsize bytes, 16 bytes a complex value
_LONGEST = sys.maxsize // 16


@pytest.mark.parametrize("argv, flag", [
    (["diff", "--fn", "sin:omega=1", "--points", "{}"], "--points"),
    (["figure", "2b", "--points", "{}"], "--points"),
    (["spectrum", "--kind", "central-first", "--n", "2", "--N", "{}"], "--N"),
    (["spectrum", "--limit", "central-first", "--M", "3", "--N", "{}"], "--N"),
    (["figure", "1a", "--N", "{}"], "--N"),
    (["figure", "3b", "--N", "{}"], "--N"),
])
def test_a_length_past_numpy_arrays_names_its_flag(capsys, argv, flag):
    # the first length past the longest array is refused by name; the
    # longest (the largest even one, for --N) reaches numpy, which cannot
    # allocate it
    even = flag == "--N"
    above = _LONGEST + 1 + (even and (_LONGEST + 1) % 2)
    at = _LONGEST - (even and _LONGEST % 2)
    for value in (above, 10 ** 20):
        assert run_capture(capsys, [a.format(value) for a in argv]) == (
            1, "", f"error: {flag} {value} is above {_LONGEST}, the most 16-byte values "
                   "one numpy array holds\n")
    code, out, err = run_capture(capsys, [a.format(at) for a in argv])
    assert (code, out) == (1, "") and err.startswith("error: out of memory")


def test_spectrum_kind_requires_n(capsys):
    code, _, err = run_capture(capsys, ["spectrum", "--kind", "central-first"])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["--kind", "central-first", "--n", "3", "--M", "7"], "--M applies to --limit sequences only"),
    (["--limit", "central-first", "--n", "3"], "--n applies to --kind stencils only"),
])
def test_spectrum_flag_of_the_other_source_exits_2(capsys, argv, message):
    assert run_capture(capsys, ["spectrum", *argv]) == (2, "", f"usage error: {message}\n")


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


# Each table is written a block of rows at a time, so a request's traced
# peak is its numeric columns (3.2 MB per float column at 400,001 points)
# and one block: one bound holds from 100,001 points, where the peak was
# 13.3 MB (CSV) and 24.2 MB (JSON) with the blocks joined, to 400,001
# points, whose text alone is above it (21.7 MB of CSV, 43.9 MB of JSON).
_DIFF_TABLE_PEAK = 18 * 10 ** 6


def _diff_table_peak(points, out, fmt):
    """The tracemalloc peak of one `diff` table written to out."""
    cli._load_numeric()  # the numeric layer's first import is not the table's memory
    tracemalloc.start()
    try:
        code = run(["diff", "--fn", "sin:omega=1", "--h", "0.001", "--points", str(points),
                    "--format", fmt, "--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_diff_table_memory_is_bounded(tmp_path):
    # the table is 5.4 MB of CSV; with every cell held as a string it
    # peaked at 36 MB
    path = tmp_path / "table.csv"
    assert _diff_table_peak(100001, str(path), "csv") < _DIFF_TABLE_PEAK
    assert path.read_text(encoding="utf-8").count("\n") == 100002
    assert _diff_table_peak(400001, os.devnull, "csv") < _DIFF_TABLE_PEAK


def test_diff_json_table_memory_is_bounded(tmp_path):
    # the table is 10.8 MB of JSON; with json's text of every float cell and
    # one record string per row it peaked at 45.2 MB
    path = tmp_path / "table.json"
    assert _diff_table_peak(100001, str(path), "json") < _DIFF_TABLE_PEAK
    assert len(json.loads(path.read_text(encoding="utf-8"))) == 100001
    assert _diff_table_peak(400001, os.devnull, "json") < _DIFF_TABLE_PEAK


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
        "null-weight", "bad-prefactor", "duplicate-offset", "negative-order-not-h-power",
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
    # an h_power other than the derivative_order stops there, before the
    # sign of either is checked
    if isinstance(payload, dict) and payload["h_power"] != payload["derivative_order"]:
        assert err == "error: malformed stencil: the h_power must equal the derivative_order\n"
    if "7" * 5000 in path.read_text(encoding="utf-8"):
        field = "weight at offset 1" if isinstance(payload, dict) else "n"
        assert err == (f"error: malformed stencil: the {field} has more digits than "
                       "Python reads exactly\n")


def test_diff_stencil_file_of_negative_order_is_one_line_error(capsys, tmp_path):
    # the h_power equals the derivative_order, so the order itself is checked
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({**_GOOD_STENCIL, "derivative_order": -1, "h_power": -1}),
                    encoding="utf-8")
    assert run_capture(capsys, ["diff", "--fn", "sin:omega=1", "--stencil-file", str(path)]) \
        == (1, "", "error: malformed stencil: derivative_order must be >= 0\n")


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


@pytest.mark.parametrize("fmt, digest", [
    ("text", "9c53ca8e2643434481344d5dd1097c0ddb8969bc519dc85deb2da409fd40b32e"),
    ("json", "7c5bd4713cbef471b1bcc3d71b5c03a6c4a6afed365dd08c77c774613c643d40"),
])
def test_verify_max_n_100_bytes_are_pinned(capsys, fmt, digest):
    # the SHA-256 of the stdout at the largest max-n, as the Bareiss
    # elimination printed it; CI compares the console script's text with it
    assert _verify_digest(capsys, 100, fmt) == digest


def _verify_digest(capsys, max_n, fmt):
    code, out, _ = run_capture(capsys, ["verify", "--max-n", str(max_n), "--format", fmt])
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


def _verify_document(max_n):
    """The `verify --format json` document of oracle.cross_checks(max_n)."""
    from stencil_spectra import oracle

    checks = [{"check": name, "ok": ok, "detail": detail}
              for name, ok, detail in oracle.cross_checks(max_n)]
    passed = sum(check["ok"] for check in checks)
    return {"max_n": max_n, "passed": passed, "failed": len(checks) - passed,
            "checks": checks}


def test_verify_json_is_the_bytes_of_json_dumps(capsys):
    for max_n in range(1, 21):
        code, out, _ = run_capture(capsys, ["verify", "--max-n", str(max_n),
                                            "--format", "json"])
        assert (code, out) == (0, json.dumps(_verify_document(max_n), indent=2) + "\n")


def test_verify_max_n_above_the_limit_is_one_line_error(capsys):
    # the shared reduction holds (max-n + 1)**2 integers from the start
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


def _bent_generator(kind, position):
    """The generator of kind with the weight at index position(n) of the
    stored weights off by 10**-6."""
    generate = weights._GENERATORS[kind]

    def bent(n):
        order, offsets, pairs, prefactor = generate(n)
        bent_pairs = list(pairs)
        bent_pairs[position(n)] = (Fraction(*pairs[position(n)])
                                   + Fraction(1, 10 ** 6)).as_integer_ratio()
        return order, offsets, bent_pairs, prefactor
    return bent


def test_verify_fails_on_a_wrong_half_point_weight(capsys, monkeypatch):
    # the weight at offset +1 only
    monkeypatch.setitem(weights._GENERATORS, StencilKind.HALF_POINT_FIRST,
                        _bent_generator(StencilKind.HALF_POINT_FIRST, lambda n: n))
    code, out, _ = run_capture(capsys, ["verify", "--max-n", "3"])
    assert code == 1
    failed = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == [f"FAIL {check} half-point-first(n={n})"
                      for n in (1, 2, 3) for check in ("moment-system", "exactness")]
    assert out.endswith("\n33/39 checks passed\n")


def test_verify_json_with_a_failing_check_is_the_bytes_of_json_dumps(capsys, monkeypatch):
    # the weight at offset +1 only
    monkeypatch.setitem(weights._GENERATORS, StencilKind.HALF_POINT_FIRST,
                        _bent_generator(StencilKind.HALF_POINT_FIRST, lambda n: n))
    code, out, _ = run_capture(capsys, ["verify", "--max-n", "3", "--format", "json"])
    document = _verify_document(3)
    assert (document["passed"], document["failed"]) == (33, 6)
    assert (code, out) == (1, json.dumps(document, indent=2) + "\n")
    assert out.count('"ok": false') == 6


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
    monkeypatch.setitem(weights._GENERATORS, kind, _bent_generator(kind, position))
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


@pytest.mark.parametrize("argv, code, err", [
    (["diff", "--fn", "sin:omega=1", "--h", "0"], 2,
     "usage error: stencil-spectra diff: argument --h: must be positive\n"),
    (["figure", "2a", "--n", "1,x"], 2,
     "usage error: stencil-spectra figure 2a: argument --n: "
     "invalid literal for int() with base 10: 'x'\n"),
    (["spectrum", "--kind", "central-first", "--n", "2", "--M", "5"], 2,
     "usage error: --M applies to --limit sequences only\n"),
    (["diff", "--fn", "sin:phase=1"], 1, "error: sinusoid needs omega=\n"),
    (["diff", "--fn", "poly"], 1, "error: malformed test function 'poly'\n"),
    (["figure", "2b", "--fn", "altpoly:"], 1, "error: malformed test function 'altpoly:'\n"),
    (["diff", "--fn", "sin:omega=1,freq=2"], 1, "error: malformed sinusoid parameter 'freq=2'\n"),
    (["diff", "--fn", "sin:omega"], 1, "error: malformed sinusoid parameter 'omega'\n"),
], ids=["zero-h", "n-list-not-ints", "M-without-limit", "sinusoid-without-omega",
        "fn-without-colon", "fn-without-parameters", "sinusoid-unknown-parameter",
        "sinusoid-parameter-without-value"])
def test_flag_value_error_is_its_one_stderr_line(capsys, argv, code, err):
    assert run_capture(capsys, argv) == (code, "", err)


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


# --- the handler contract ----------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["spectrum", "--kind", "half-point-first", "--n", "3", "--N", "64"],
    ["spectrum", "--limit", "central-second", "--N", "64", "--part", "re"],
    ["diff", "--fn", "sin:omega=1", "--h", "0.1", "--n", "2", "--points", "33"],
    ["figure", "1a", "--N", "64", "--M", "100"],
    ["figure", "2a", "--N", "64"],
    ["figure", "2b", "--points", "33"],
    ["figure", "3b", "--N", "64"],
], ids=["spectrum-kind", "spectrum-limit", "diff", "1a", "2a", "2b", "3b"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_handler_returns_columns_that_run_renders(capsys, argv, fmt):
    # a table handler never reads --format: run renders what it returns
    cli._load_numeric()
    args = cli._PARSER.parse_args([*argv, "--format", fmt])
    del args.format
    names, columns = args.handler(args)
    code, out, _ = run_capture(capsys, [*argv, "--format", fmt])
    assert (code, out) == (0, "".join(tableblocks.table(names, columns, fmt)))


@pytest.mark.parametrize("argv", [
    ["stencil", "--kind", "central-first", "--n", "3"],
    ["stencil", "--kind", "half-point-first", "--n", "2", "--format", "json"],
    ["verify", "--max-n", "3"],
    ["verify", "--max-n", "3", "--format", "json"],
])
def test_exact_handler_returns_its_text_and_exit_code(capsys, argv):
    args = cli._PARSER.parse_args(argv)
    text, code = args.handler(args)
    assert run_capture(capsys, argv) == (code, text, "")


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


# one argv per subcommand whose handler raises after the arguments parse
_FAILING_ARGVS = {
    "stencil": ["stencil", "--kind", "one-sided-nth", "--n", "3000"],
    "spectrum": ["spectrum", "--limit", "central-first", "--N", "2"],
    "diff": ["diff", "--fn", "sin:omega=1", "--h", "1e200", "--order", "2", "--points", "5"],
    "figure": ["figure", "1a", "--h", "1e-320", "--N", "16", "--M", "100"],
    "verify": ["verify", "--max-n", "101"],
}


@pytest.mark.parametrize("command", list(_FAILING_ARGVS))
def test_handler_error_writes_nothing(capsys, tmp_path, command):
    # a handler computes every value before the first chunk is written
    out = tmp_path / "table"
    for argv in (_FAILING_ARGVS[command], _FAILING_ARGVS[command] + ["--out", str(out)]):
        code, stdout, err = run_capture(capsys, argv)
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


def _encodes(text):
    """Whether text has a UTF-8 encoding: a lone surrogate has none."""
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


def _as_column(values):
    """A drawn column as tableblocks takes it: ints as an int64 array, str
    as Labels, and a float64 array as it is."""
    if isinstance(values, np.ndarray):
        return values
    if values and isinstance(values[0], str):
        names = list(dict.fromkeys(values))
        return tableblocks.Labels(names, np.array([names.index(v) for v in values], np.intp))
    return np.array(values, np.int64)


_CELL_TEXT = st.text(st.one_of(st.sampled_from(list(',"\r\n %xé€\x00')), st.characters()),
                     max_size=4)
# any int64, with ints about ±2^31 and at both ends of int64
_INTS = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1), st.integers(-2 ** 31 - 2, -2 ** 31 + 2),
                  st.integers(2 ** 31 - 2, 2 ** 31 + 2), st.integers(-2 ** 63, -2 ** 63 + 2),
                  st.integers(2 ** 63 - 3, 2 ** 63 - 1))


@st.composite
def _tables(draw):
    names = draw(st.lists(st.sampled_from(["index", "x", "a,b", 'q"', "%s", "ü", ""]),
                          min_size=1, max_size=4, unique=True))
    rows = draw(st.integers(0, 9))
    columns = []
    for _ in names:
        kind = draw(st.sampled_from(["float", "int", "range", "text"]))
        if kind == "float":
            columns.append(np.array(draw(st.lists(st.floats(), min_size=rows, max_size=rows)),
                                    dtype=float))
        elif kind == "int":
            columns.append(draw(st.lists(_INTS, min_size=rows, max_size=rows)))
        elif kind == "range":
            start = draw(st.integers(-3, 3))
            columns.append(range(start, start + rows))
        else:
            columns.append(tuple(draw(st.lists(_CELL_TEXT, min_size=rows, max_size=rows))))
    return names, columns


# block sizes that split a table of up to 9 rows, and the default one
@settings(max_examples=500, deadline=None)
@given(table=_tables(), fmt=st.sampled_from(["csv", "json"]),
       block=st.sampled_from([1, 2, 3, 4, tableblocks.BLOCK_ROWS]))
@example(table=(["policy"], [("", "", "")]), fmt="csv", block=4096)
@example(table=(["x", "v"], [np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324]),
                             [0, -1, 2 ** 63 - 1, -2 ** 63, 3]]), fmt="csv", block=2)
@example(table=(["x", "v"], [np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324]),
                             [0, -1, 2 ** 63 - 1, -2 ** 63, 3]]), fmt="json", block=4096)
@example(table=(["x", "t", "i"], [np.array([1.5, -2.0, 3e-30]), ("\x00", "a\x00b", ""),
                                  [2 ** 31 - 1, -2 ** 31 + 1, 2 ** 31]]), fmt="csv", block=2)
# JSON records across block boundaries, with json's NaN and Infinity, -0.0,
# a 16-digit tie and the ulp/4 gap below a power of two
@example(table=(["x", "%s", "i"],
                [np.array([math.nan, 1.0, math.inf, -math.inf, -0.0, 612857683458612.75,
                           2.0 ** -24]),
                 ("a", "é", "\x00", "a", "", '"', "a"), range(-3, 4)]), fmt="json", block=2)
@example(table=(["v", "w"], [np.array([-math.inf, 1e-05, 0.0001, 9999999999999998.0]),
                             np.array([1e16, math.nan, 0.1, -1e300])]), fmt="json", block=3)
@example(table=(["i"], [[2 ** 40, -1, 0]]), fmt="json", block=2)
@example(table=(["x", "i"], [np.array([]), []]), fmt="json", block=2)
# a lone surrogate: no UTF-8 text holds it, and JSON escapes it
@example(table=(["index"], [("\ud800",)]), fmt="csv", block=4096)
@example(table=(["index"], [("\ud800",)]), fmt="json", block=4096)
def test_render_table_matches_per_row_rendering(table, fmt, block):
    names, columns = table
    expected = _per_row_render(names, columns, fmt)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tableblocks, "BLOCK_ROWS", block)
        if fmt == "csv" and not _encodes(expected):
            with pytest.raises(UnicodeEncodeError):
                tableblocks.table(names, list(map(_as_column, columns)), fmt)
            return
        rendered = "".join(tableblocks.table(names, list(map(_as_column, columns)), fmt))
        assert rendered == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_labels_column_renders_as_its_strings(fmt):
    names, codes = ["skipped", "a,b", "é"], np.array([1, 1, 0, 2, 1], np.uint8)
    texts = tuple(names[code] for code in codes.tolist())
    x = np.linspace(-1, 1, 5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tableblocks, "BLOCK_ROWS", 2)
        labels = "".join(tableblocks.table(["x", "policy"],
                                           [x, tableblocks.Labels(names, codes)], fmt))
        assert labels == _per_row_render(["x", "policy"], [x, texts], fmt)
    # no names and no rows: the empty table
    empty = tableblocks.Labels([], np.array([], np.intp))
    assert "".join(tableblocks.table(["policy"], [empty], fmt)) == \
        _per_row_render(["policy"], [()], fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_int_array_column_renders_as_ints_and_other_columns_are_rejected(fmt):
    for column in (np.arange(3), np.array([0, -1, 2 ** 63 - 1, -2 ** 63], np.int64),
                   np.array([7, -8], np.int8)):
        assert "".join(tableblocks.table(["n"], [column], fmt)) == \
            _per_row_render(["n"], [column], fmt)
    # raised by table itself, before any text is read
    for column in ([0, 1], range(2), ("a", "b"), np.array([0.5, 1.0], np.float32), []):
        with pytest.raises(TypeError, match="float64 or signed-integer array or Labels"):
            tableblocks.table(["n"], [column], fmt)
    with pytest.raises(TypeError, match="one length, not"):
        tableblocks.table(["a", "b"], [np.arange(3), np.arange(2.0)], fmt)
    # a name for each column, and one column at least
    for names, columns in ((["a", "b", "c"], [np.arange(2), np.arange(2.0)]),
                           (["a"], [np.arange(2), np.arange(2.0)]), ([], [])):
        with pytest.raises(TypeError, match=f"one name per column, not {len(names)} for "):
            tableblocks.table(names, columns, fmt)
    for column in (np.zeros((2, 2)), tableblocks.Labels(["a"], np.zeros((2, 1), np.intp))):
        with pytest.raises(TypeError, match="1-D, not 2-D"):
            tableblocks.table(["n"], [column], fmt)
    # a code past either end of the names (the count of names is the
    # first), or not an integer
    for codes in ([0, 1], [0, 3], [0.5, 0.0], [-1, 0]):
        with pytest.raises(TypeError, match=r"codes are an integer array in 0\.\.0"):
            tableblocks.table(["p"], [tableblocks.Labels(["a"], np.array(codes))], fmt)


@pytest.mark.parametrize("argv, kind, n, order", [
    (["--points", "9", "--n", "2"], "central", 2, 1),
    (["--points", "9", "--n", "2", "--order", "2"], "central", 2, 2),
    (["--points", "5", "--n", "3"], "central", 3, 1),  # a skipped middle
    (["--points", "12", "--n", "2", "--kind", "half-point-first"], "half-point-first", 2, 1),
    # --n defaults to 1 for either kind
    (["--points", "9"], "central", 1, 1),
    (["--points", "9", "--order", "2"], "central", 1, 2),
    (["--points", "12", "--kind", "half-point-first"], "half-point-first", 1, 1),
])
def test_diff_policy_column_is_the_result_policy(capsys, argv, kind, n, order):
    fn, h = "poly:0,1,0.5", 0.25
    signal = make_signal(parse_test_function(fn), h, int(argv[1]))
    if kind == "central":
        result = differentiate(signal, n, order)
    else:
        result = differentiate_half_point_signal(signal, n)
    base = ["diff", "--fn", fn, "--h", str(h), *argv]
    code, out, _ = run_capture(capsys, [*base, "--format", "json"])
    assert code == 0
    assert [record["policy"] for record in json.loads(out)] == list(result.policy)
    code, out, _ = run_capture(capsys, base)
    assert [row[3] for row in parse_csv(out)[1]] == list(result.policy)
    assert len(set(result.policy)) == len(result.spans) + (SKIPPED in result.policy)


@pytest.mark.parametrize("argv", [
    ["diff", "--fn", "sin:omega=1", "--points", "10000000000000"],
    ["figure", "2b", "--points", "10000000000000"],
    ["spectrum", "--kind", "central-first", "--n", "2", "--N", "10000000000000"],
], ids=["diff", "figure-2b", "spectrum"])
def test_oversized_allocation_is_one_line_error(capsys, argv):
    # numpy refuses each of these arrays (73 to 146 TiB) at once, so the
    # test allocates nothing
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: out of memory (Unable to allocate ")
    assert err.count("\n") == 1


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
