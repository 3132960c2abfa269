"""Start-up: the exact layer and its commands run without numpy, each
public name imports from its one home module, and the package root loads
no submodule."""

import importlib
import json
import os
import re
import types

import pytest

import stencil_spectra
from stencil_spectra.weights import StencilKind

from _in_child import in_child


# runs each argv through cli.run; with "blocked", every import of numpy
# raises ImportError. Prints each (exit code, stdout, stderr, the watched
# modules loaded after it), the --out file, and the watched modules loaded
# after importing the CLI: the numeric layer, `dataclasses`, `csv` and the
# oracle
_CLI_CHILD = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
watched = ["numpy", "stencil_spectra.tableblocks", "stencil_spectra.signals",
           "stencil_spectra.spectra", "dataclasses", "csv", "stencil_spectra.oracle"]
def loaded():
    return [name for name in watched if sys.modules.get(name) is not None]
from stencil_spectra.cli import run
after_import = loaded()
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    results.append([code, out.getvalue(), err.getvalue(), loaded()])
with open(sys.argv[3], encoding="utf-8") as fh:
    written = fh.read()
print(json.dumps([results, written, after_import]))
"""


def _exact_argvs(out_path):
    argvs = [["stencil", "--kind", kind.value, "--n", "5", "--format", fmt]
             for kind in StencilKind for fmt in ("csv", "json")]
    argvs += [["--help"], ["stencil", "--kind", "nope", "--n", "1"],
              ["stencil", "--kind", "central-first", "--n", "4", "--format", "json",
               "--out", out_path]]
    argvs += [["verify", "--max-n", "8", "--format", fmt] for fmt in ("text", "json")]
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
    # renderer among it), `dataclasses`, `csv` or the oracle, in a normal
    # interpreter; nor do `stencil` in every format, `--help` and a usage
    # error. `verify`, the last two argvs, loads the oracle alone
    assert after_import == []
    assert [loaded for _, _, _, loaded in normal] == [[]] * 13 + [["stencil_spectra.oracle"]] * 2
    codes = [code for code, _, _, _ in normal]
    assert codes == [0] * 10 + [0, 2, 0] + [0, 0]
    assert normal[10][1].startswith("usage: stencil-spectra")
    assert normal[11][2].startswith("usage error: ")
    assert normal[-1][1].startswith('{\n  "max_n": 8')
    assert json.loads(normal_written)["kind"] == "central-first"


# each public name of the package when its root re-exported them -> the
# module that is now its one home; a submodule's home is the package
_HOMES = {
    **dict.fromkeys(["oracle", "signals", "spectra", "weights"], "stencil_spectra"),
    **dict.fromkeys([
        "CurveFamily", "EmbeddingMode", "Stencil", "StencilFormatError",
        "StencilKind", "build", "central_first", "central_second", "half_point",
        "harmonic_number", "limit_coefficients", "one_sided_first", "one_sided_nth",
        "stencil_from_dict", "stencil_to_dict",
    ], "stencil_spectra.weights"),
    **dict.fromkeys([
        "ExactnessReport", "MomentSystem", "SingularSystemError", "cross_checks",
        "delta_m1_closed_form", "exactness_check", "product_form_half_point",
        "product_form_one_sided", "solve_moment_system", "vandermonde_det",
    ], "stencil_spectra.oracle"),
    **dict.fromkeys([
        "CurveDomainError", "DeviationReport", "EmbeddingOverflowError", "FilterSpectrum",
        "ReferenceCurve", "deviation", "dft_spectrum", "omega_grid", "reference_column",
        "reference_values", "truncated_limit_spectrum", "truncated_limit_spectrum_dft_grid",
    ], "stencil_spectra.spectra"),
    **dict.fromkeys([
        "BoundaryError", "ConvergenceStudy", "DerivativeResult", "ModulatedAlternating",
        "Polynomial", "SampledSignal", "Sinusoid", "alternating_second_derivative_check",
        "apply_stencil", "apply_stencil_at", "convergence_study", "differentiate",
        "differentiate_half_point", "differentiate_half_point_signal", "make_signal",
        "parse_test_function",
    ], "stencil_spectra.signals"),
}


# the names that a module passes through from `weights`, for the callers
# of spectra's own signatures
_PASSED_THROUGH = {"CurveFamily": "spectra", "EmbeddingMode": "spectra"}


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
