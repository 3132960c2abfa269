"""Finite-difference weight sequences, their spectra, and differentiation.

Each name has one home, its module: `weights` (the generators), `oracle`
(their independent verifiers), `spectra` (DFT spectra and reference
curves), `signals` (differentiation of sampled data), `tableblocks` (the
numeric tables) and `cli`. Import a name from its module, as in
`from stencil_spectra.spectra import dft_spectrum`. The package itself
imports none of them, so `import stencil_spectra` loads no numpy.
"""

__version__ = "0.1.0"
