"""mirrorspec: spectral analysis of accelerated-mirror arrays whose
reflection couplings encode the Moebius function and Dirichlet characters.

Submodules:
  numkit             zeta/Hardy-Z/L-function/Bessel numerics
  arith              Moebius sieve, Dirichlet characters, Gauss sums
  mirrors            bounce-path enumeration and the primality sieve
  transfer           transfer matrices, amplitude propagation, norms
  models             model families, zero tables, energy classification
  boundary_spectrum  single-mirror boundary eigenvalue problem
  cli                command-line driver
"""

from . import arith, boundary_spectrum, mirrors, models, numkit, transfer
from .errors import (AccuracyLossWarning, BracketError, DomainError,
                     InvalidPathError, PoleError, SingularCouplingError)

__version__ = "0.1.0"

__all__ = [
    "arith", "boundary_spectrum", "mirrors", "models", "numkit", "transfer",
    "AccuracyLossWarning", "BracketError", "DomainError",
    "InvalidPathError", "PoleError", "SingularCouplingError", "__version__",
]
