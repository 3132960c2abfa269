"""Start-up: the exact layer and its commands run without numpy, each
public name imports from its one home module, and the package root loads
no submodule."""

import importlib
import json
import os
import re
import sys
import types

import pytest

import stencil_spectra
from stencil_spectra.weights import StencilKind

from _in_child import in_child


# runs each argv through cli.run; with "blocked", every import of numpy
# raises ImportError. Prints each (exit code, stdout, stderr, the watched
# modules loaded after it), the --out file, and the watched modules loaded
# after importing the CLI: the numeric layer, `dataclasses`, `csv`, the
# oracle, `fractions`, the `decimal` it loads, and `json`. The argvs come
# as a Python literal (JSON text of a list of strings is one), and `json`
# is imported only to print the result, after every argv has run
_CLI_CHILD = """
import ast, contextlib, io, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
watched = ["numpy", "stencil_spectra.tableblocks", "stencil_spectra.signals",
           "stencil_spectra.spectra", "dataclasses", "csv", "stencil_spectra.oracle",
           "fractions", "decimal", "json"]
def loaded():
    return [name for name in watched if sys.modules.get(name) is not None]
from stencil_spectra.cli import run
after_import = loaded()
results = []
for argv in ast.literal_eval(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    results.append([code, out.getvalue(), err.getvalue(), loaded()])
with open(sys.argv[3], encoding="utf-8") as fh:
    written = fh.read()
import json
print(json.dumps([results, written, after_import]))
"""


def _exact_argvs(out_path):
    """The exact commands, those that write no JSON first: `stencil` in CSV,
    `--help`, a usage error and `verify` in text; then the JSON ones."""
    argvs = [["stencil", "--kind", kind.value, "--n", "5", "--format", "csv"]
             for kind in StencilKind]
    argvs += [["--help"], ["stencil", "--kind", "nope", "--n", "1"],
              ["verify", "--max-n", "8", "--format", "text"]]
    argvs += [["stencil", "--kind", kind.value, "--n", "5", "--format", "json"]
              for kind in StencilKind]
    argvs += [["stencil", "--kind", "central-first", "--n", "4", "--format", "json",
               "--out", out_path],
              ["verify", "--max-n", "8", "--format", "json"]]
    return argvs


def test_exact_commands_give_the_same_bytes_without_numpy(tmp_path):
    out_path = str(tmp_path / "stencil.json")
    argvs = json.dumps(_exact_argvs(out_path))
    normal, normal_written, after_import = in_child(_CLI_CHILD, "normal", argvs, out_path)
    os.remove(out_path)
    blocked, blocked_written, _ = in_child(_CLI_CHILD, "blocked", argvs, out_path)
    assert blocked == normal
    assert blocked_written == normal_written
    # importing the CLI loads none of the numeric layer (the table block
    # renderer among it), `dataclasses`, `csv`, the oracle, `fractions`,
    # `decimal` or `json`, in a normal interpreter; nor do `stencil` in
    # CSV, `--help` and a usage error. `verify` in text loads the oracle
    # alone, so no `fractions`; and the JSON argvs after it add `json`
    # alone (the lists are of every watched module loaded so far)
    assert after_import == []
    oracle = "stencil_spectra.oracle"
    assert [loaded for _, _, _, loaded in normal] == \
        [[]] * 7 + [[oracle]] + [[oracle, "json"]] * 7
    codes = [code for code, _, _, _ in normal]
    assert codes == [0] * 5 + [0, 2, 0] + [0] * 7
    assert normal[5][1].startswith("usage: stencil-spectra")
    assert normal[6][2].startswith("usage error: ")
    assert normal[7][1].endswith("\n104/104 checks passed\n")
    assert normal[-1][1].startswith('{\n  "max_n": 8')
    assert json.loads(normal_written)["kind"] == "central-first"


def test_a_json_document_alone_loads_json(tmp_path):
    # the argvs above run in one interpreter, where `verify` loads the
    # oracle first; here each JSON command runs in its own
    out_path = str(tmp_path / "unwritten")
    open(out_path, "w").close()
    for argv in (["stencil", "--kind", "half-point-first", "--n", "48", "--format", "json"],
                 ["verify", "--max-n", "16", "--format", "json"]):
        (code, out, _, loaded), = in_child(_CLI_CHILD, "normal", json.dumps([argv]),
                                           out_path)[0]
        assert code == 0 and out.startswith("{\n"), argv
        assert [name for name in loaded if name != "stencil_spectra.oracle"] == ["json"], argv


# one argv per rule that a numeric handler runs before numpy loads, each
# rejected by that rule alone
_REJECTED_BEFORE_NUMPY = [
    # spectrum: its three usage errors, --kind reach, and --limit's fit
    ["spectrum", "--kind", "central-first", "--N", "64"],
    ["spectrum", "--kind", "central-first", "--n", "2", "--M", "5"],
    ["spectrum", "--limit", "central-first", "--n", "3"],
    ["spectrum", "--kind", "half-point-first", "--n", "17", "--N", "64"],
    ["spectrum", "--limit", "half-point-first", "--N", "64", "--M", "17"],
    ["spectrum", "--limit", "central-second", "--N", "2"],
    # figure 1a/1b: the curve h rule
    ["figure", "1a", "--h", "1e-320", "--N", "16", "--M", "100"],
    ["figure", "1b", "--h", "1e308", "--N", "16", "--M", "100"],
    # figure 2a/3a/3b: reach for each n, then the curve h rule
    ["figure", "2a", "--n", "1,17", "--N", "64"],
    ["figure", "3a", "--n", "1,3,5", "--N", "64", "--h", "1e308"],
    # diff: its usage errors, the --fn grammar and the grid rule
    ["diff", "--fn", "sin:omega=1", "--stencil-file", "s.json", "--n", "2"],
    ["diff", "--fn", "sin:omega=1", "--kind", "half-point-first", "--order", "2"],
    ["diff", "--fn", "bogus:1"],
    ["diff", "--fn", "sin:phase=1"],
    ["diff", "--fn", "sin:omega=1,omega=2"],
    ["diff", "--fn", "poly:1,x"],
    ["diff", "--fn", "sin:omega=1", "--points", "1"],
    ["diff", "--fn", "sin:omega=1", "--h", "inf"],
    ["diff", "--fn", "sin:omega=1", "--h", "1e308", "--points", "5"],
    # figure 2b: the same, and its altpoly check
    ["figure", "2b", "--fn", "sin:omega=1"],
    ["figure", "2b", "--fn", "altpoly"],
    ["figure", "2b", "--points", "1"],
    ["figure", "2b", "--h", "inf"],
    ["figure", "2b", "--h", "1e308", "--points", "5"],
    # a --N or --points longer than any numpy array
    ["spectrum", "--kind", "central-first", "--n", "2", "--N", str(10 ** 20)],
    ["figure", "1b", "--N", str(10 ** 20)],
    ["figure", "2a", "--N", str(10 ** 20)],
    ["diff", "--fn", "sin:omega=1", "--points", str(10 ** 20)],
]


def test_numeric_rules_that_read_no_array_run_without_numpy(tmp_path):
    out_path = tmp_path / "unwritten"
    out_path.write_text("")
    argvs = json.dumps(_REJECTED_BEFORE_NUMPY)
    normal, _, _ = in_child(_CLI_CHILD, "normal", argvs, str(out_path))
    blocked, _, _ = in_child(_CLI_CHILD, "blocked", argvs, str(out_path))
    # the same exit code, nothing on stdout and the same one stderr line,
    # with numpy or without it; and the numeric layer stays unloaded
    assert [result[:3] for result in blocked] == [result[:3] for result in normal]
    for (code, out, err, loaded), argv in zip(normal, _REJECTED_BEFORE_NUMPY):
        assert code in (1, 2) and out == "" and err.count("\n") == 1, argv
        assert loaded == [], argv


def test_numeric_commands_load_no_dataclasses(tmp_path):
    # the numeric layer's records are `weights._Record`s too; and no
    # command loads `fractions`, a `--limit` spectrum's float taps included
    out_path = tmp_path / "unwritten"
    out_path.write_text("")
    argvs = [["spectrum", "--kind", "central-first", "--n", "2", "--N", "16"],
             ["spectrum", "--limit", "central-first", "--N", "16"],
             ["diff", "--fn", "sin:omega=1", "--points", "21"],
             ["figure", "1a", "--N", "16", "--M", "100"]]
    normal, _, _ = in_child(_CLI_CHILD, "normal", json.dumps(argvs), str(out_path))
    for (code, out, err, loaded), argv in zip(normal, argvs):
        assert code == 0 and out and err == "", argv
        assert "stencil_spectra.tableblocks" in loaded and "dataclasses" not in loaded, argv
        assert "fractions" not in loaded, argv


def test_a_length_past_numpy_arrays_is_one_line_without_numpy(tmp_path):
    # numpy's own words for these named no flag
    out_path = tmp_path / "unwritten"
    out_path.write_text("")
    argvs = [["diff", "--fn", "sin:omega=1", "--points", str(10 ** 20)],
             ["spectrum", "--kind", "central-first", "--n", "2", "--N", str(10 ** 20)]]
    blocked, _, _ = in_child(_CLI_CHILD, "blocked", json.dumps(argvs), str(out_path))
    assert blocked == [
        [1, "", f"error: --{flag} {10 ** 20} is above {sys.maxsize // 16}, the most 16-byte "
                "values one numpy array holds\n", []]
        for flag in ("points", "N")]


# each public name of the package when its root re-exported them -> the
# module that is now its one home; a submodule's home is the package
_HOMES = {
    **dict.fromkeys(["oracle", "signals", "spectra", "weights"], "stencil_spectra"),
    **dict.fromkeys([
        "CurveFamily", "EmbeddingMode", "EmbeddingOverflowError", "ReferenceCurve", "Stencil",
        "StencilFormatError", "StencilKind", "build", "central_first", "central_second", "half_point",
        "harmonic_number", "limit_coefficients", "one_sided_first", "one_sided_nth",
        "stencil_from_dict", "stencil_to_dict",
    ], "stencil_spectra.weights"),
    **dict.fromkeys([
        "ExactnessReport", "MomentSystem", "SingularSystemError", "cross_checks",
        "delta_m1_closed_form", "exactness_check", "product_form_half_point",
        "product_form_one_sided", "solve_moment_system", "vandermonde_det",
    ], "stencil_spectra.oracle"),
    **dict.fromkeys([
        "CurveDomainError", "DeviationReport", "FilterSpectrum",
        "deviation", "dft_spectrum", "omega_grid", "reference_column",
        "reference_values", "truncated_limit_spectrum", "truncated_limit_spectrum_dft_grid",
    ], "stencil_spectra.spectra"),
    **dict.fromkeys([
        "BoundaryError", "ConvergenceStudy", "DerivativeResult", "SampledSignal",
        "alternating_second_derivative_check", "apply_stencil", "apply_stencil_at",
        "convergence_study", "differentiate", "differentiate_half_point",
        "differentiate_half_point_signal", "make_signal",
    ], "stencil_spectra.signals"),
    **dict.fromkeys(["ModulatedAlternating", "Polynomial", "Sinusoid", "parse_test_function"],
                    "stencil_spectra.sampling"),
}


# the names that a module passes through from their numpy-free home
# (`weights` or `sampling`), for the callers of its own signatures
_PASSED_THROUGH = {
    **dict.fromkeys(["CurveFamily", "EmbeddingMode", "EmbeddingOverflowError",
                     "ReferenceCurve"], "spectra"),
    **dict.fromkeys(["ModulatedAlternating", "Polynomial", "Sinusoid", "parse_test_function"],
                    "signals"),
}


@pytest.mark.parametrize("name", sorted(_HOMES))
def test_every_public_name_imports_from_its_home(name):
    namespace = {}
    exec(f"from {_HOMES[name]} import {name}", namespace)
    value = namespace[name]
    # defined in its home, not passed through it: a submodule of the
    # package, or a name whose module is its home
    if _HOMES[name] == "stencil_spectra":
        assert value.__name__ == f"stencil_spectra.{name}"
    else:
        assert value.__module__ == _HOMES[name]
    if name in _PASSED_THROUGH:
        module = importlib.import_module(f"stencil_spectra.{_PASSED_THROUGH[name]}")
        assert getattr(module, name) is value


# a fresh interpreter: the package root imports no submodule and no numpy,
# and `from stencil_spectra import <submodule>` imports each as a submodule
_SURFACE_CHILD = """
import json, sys
loaded = [sorted(name for name in sys.modules if name.startswith("stencil_spectra.")),
          "numpy" in sys.modules]
from stencil_spectra import cli, oracle, signals, spectra, weights
print(json.dumps(loaded + [module.__name__
                           for module in (cli, oracle, signals, spectra, weights)]))
"""


def test_the_package_root_loads_no_submodule():
    assert in_child(_SURFACE_CHILD) == [
        [], False, "stencil_spectra.cli", "stencil_spectra.oracle",
        "stencil_spectra.signals", "stencil_spectra.spectra", "stencil_spectra.weights"]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stencil_spectra.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from stencil_spectra import no_such_name", {})
    # a name that the root once re-exported is now as unknown there
    with pytest.raises(AttributeError, match="dft_spectrum"):
        stencil_spectra.dft_spectrum  # noqa: B018
    with pytest.raises(ImportError, match="dft_spectrum"):
        exec("from stencil_spectra import dft_spectrum", {})


def test_the_package_root_binds_no_public_name():
    # the submodules are bound once imported, as for any package; no other
    # name of `_HOMES` is
    bound = [name for name in _HOMES
             if _HOMES[name] != "stencil_spectra" and hasattr(stencil_spectra, name)]
    assert bound == []
    assert [name for name, value in vars(stencil_spectra).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)] == []


# a fresh interpreter: with no `__all__`, a star import of the bare package
# binds no name, and `__version__` is the distribution's
_STAR_CHILD = """
import json
namespace = {}
exec("from stencil_spectra import *", namespace)
import stencil_spectra
print(json.dumps([sorted(name for name in namespace if name != "__builtins__"),
                  stencil_spectra.__version__]))
"""


def test_star_import_of_the_bare_package_binds_no_name():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")) as f:
        version = re.search(r'^version = "(.*)"$', f.read(), re.MULTILINE).group(1)
    assert in_child(_STAR_CHILD) == [[], version]
