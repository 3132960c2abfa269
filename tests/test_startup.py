"""Start-up: the exact layer and its commands run without numpy, and the
package keeps its surface while the numeric layer loads on first use."""

import json
import os

import pytest

import stencil_spectra
from stencil_spectra import oracle, signals, spectra, weights
from stencil_spectra.weights import StencilKind

from _in_child import in_child


# runs each argv through cli.run; with "blocked", every import of numpy
# raises ImportError. Prints each (exit code, stdout, stderr, the watched
# modules loaded after it), the --out file, and the watched modules loaded
# after importing the CLI: the numeric layer, `dataclasses` and the oracle
_CLI_CHILD = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
watched = ["numpy", "stencil_spectra.tableblocks", "stencil_spectra.signals",
           "stencil_spectra.spectra", "dataclasses", "stencil_spectra.oracle"]
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
    # renderer among it), `dataclasses` or the oracle, in a normal
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


# the public names of the package when it imported every layer eagerly
_PUBLIC_NAMES = [
    "BoundaryError", "ConvergenceStudy", "CurveDomainError", "CurveFamily",
    "DerivativeResult", "DeviationReport", "EmbeddingMode", "EmbeddingOverflowError",
    "ExactnessReport", "FilterSpectrum", "ModulatedAlternating", "MomentSystem",
    "Polynomial", "ReferenceCurve", "SampledSignal", "SingularSystemError", "Sinusoid",
    "Stencil", "StencilFormatError", "StencilKind", "alternating_second_derivative_check",
    "apply_stencil", "apply_stencil_at", "build", "central_first", "central_second",
    "convergence_study", "cross_checks", "delta_m1_closed_form", "deviation",
    "dft_spectrum", "differentiate", "differentiate_half_point",
    "differentiate_half_point_signal", "exactness_check", "half_point",
    "harmonic_number", "limit_coefficients", "make_signal", "omega_grid",
    "one_sided_first", "one_sided_nth", "oracle", "parse_test_function",
    "product_form_half_point", "product_form_one_sided", "reference_column",
    "reference_values", "signals", "solve_moment_system", "spectra",
    "stencil_from_dict", "stencil_to_dict", "truncated_limit_spectrum",
    "truncated_limit_spectrum_dft_grid", "vandermonde_det", "weights",
]


@pytest.mark.parametrize("name", _PUBLIC_NAMES)
def test_every_public_name_is_still_exported(name):
    assert hasattr(stencil_spectra, name)
    namespace = {}
    exec(f"from stencil_spectra import {name}", namespace)
    assert namespace[name] is getattr(stencil_spectra, name)
    assert name in dir(stencil_spectra)


def test_lazy_names_are_the_modules_own():
    assert stencil_spectra.dft_spectrum is spectra.dft_spectrum
    assert stencil_spectra.make_signal is signals.make_signal
    assert stencil_spectra.cross_checks is oracle.cross_checks
    assert spectra.CurveFamily is weights.CurveFamily
    assert spectra.EmbeddingMode is weights.EmbeddingMode
    assert signals.BoundaryError is weights.BoundaryError
    assert issubclass(stencil_spectra.BoundaryError, IndexError)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from stencil_spectra import *", namespace)
    assert set(_PUBLIC_NAMES) <= set(namespace)
    assert sorted(stencil_spectra.__all__) == sorted(_PUBLIC_NAMES)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stencil_spectra.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from stencil_spectra import no_such_name", {})


# a fresh interpreter: the numeric layer loads on first access, and a
# submodule that the package does not name is imported as one
_SURFACE_CHILD = """
import json, sys
import stencil_spectra
loaded = ["numpy" in sys.modules]
from stencil_spectra import cli, oracle, signals, spectra, weights
loaded.append("numpy" in sys.modules)
print(json.dumps(loaded + [cli.__name__, signals.__name__, spectra.__name__,
                           stencil_spectra.dft_spectrum is spectra.dft_spectrum]))
"""


def test_numeric_layer_loads_on_first_access():
    assert in_child(_SURFACE_CHILD) == [False, True, "stencil_spectra.cli",
                                         "stencil_spectra.signals",
                                         "stencil_spectra.spectra", True]
