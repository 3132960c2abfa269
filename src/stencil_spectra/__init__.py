"""Finite-difference weight sequences, their spectra, and differentiation.

The generators (`weights`) are bound at import and need no numpy. The
oracle (`oracle`) and the numeric layer's modules (`spectra`, `signals`),
and their names, resolve on first access through the module `__getattr__`
(PEP 562), which imports the module, so `import stencil_spectra` and
`import stencil_spectra.cli` load neither numpy nor the oracle.
"""

from importlib import import_module as _import_module

from .weights import (
    BoundaryError,
    CurveFamily,
    EmbeddingMode,
    Stencil,
    StencilFormatError,
    StencilKind,
    build,
    central_first,
    central_second,
    half_point,
    harmonic_number,
    limit_coefficients,
    one_sided_first,
    one_sided_nth,
    stencil_from_dict,
    stencil_to_dict,
)
# name -> the module that defines it, loaded on first access; a module maps
# to itself
_LAZY = {
    "oracle": "oracle",
    "signals": "signals",
    "spectra": "spectra",
    **dict.fromkeys([
        "ExactnessReport",
        "MomentSystem",
        "SingularSystemError",
        "cross_checks",
        "delta_m1_closed_form",
        "exactness_check",
        "product_form_half_point",
        "product_form_one_sided",
        "solve_moment_system",
        "vandermonde_det",
    ], "oracle"),
    **dict.fromkeys([
        "CurveDomainError",
        "DeviationReport",
        "EmbeddingOverflowError",
        "FilterSpectrum",
        "ReferenceCurve",
        "deviation",
        "dft_spectrum",
        "omega_grid",
        "reference_column",
        "reference_values",
        "truncated_limit_spectrum",
        "truncated_limit_spectrum_dft_grid",
    ], "spectra"),
    **dict.fromkeys([
        "ConvergenceStudy",
        "DerivativeResult",
        "ModulatedAlternating",
        "Polynomial",
        "SampledSignal",
        "Sinusoid",
        "alternating_second_derivative_check",
        "apply_stencil",
        "apply_stencil_at",
        "convergence_study",
        "differentiate",
        "differentiate_half_point",
        "differentiate_half_point_signal",
        "make_signal",
        "parse_test_function",
    ], "signals"),
}

__version__ = "0.1.0"


def __getattr__(name: str):
    # an unknown name is an AttributeError, so that `from stencil_spectra
    # import <submodule>` falls back to importing the submodule
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


# every public name, the lazy ones included: `from stencil_spectra import *`
# would otherwise see only the names bound so far
__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_LAZY))
