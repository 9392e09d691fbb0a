"""Massive-fermion boundary spectrum: the Bessel eigenvalue condition
e^{i vartheta} K_{1/2 - iE}(m l1) = K_{1/2 + iE}(m l1), its root table and
the counting asymptotics of its eigenvalues.

Since K_{1/2 + iE}(x) is the conjugate of K_{1/2 - iE}(x) for real x, the
complex condition collapses to the real root function
G(E) = Im( e^{i vartheta / 2} K_{1/2 - iE}(m l1) ).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from . import numkit
from .errors import BracketError, DomainError


@dataclass(frozen=True)
class BoundaryProblem:
    """Mass-radius product m*l1 and boundary phase vartheta."""

    m_ell1: float = 2 * math.pi
    vartheta: float = math.pi

    def __post_init__(self):
        if self.m_ell1 <= 0:
            raise DomainError("m*l1 must be positive")


@dataclass(frozen=True)
class RootList:
    """Ascending eigenvalue candidates with their equation residuals."""

    roots: tuple[float, ...]
    residuals: tuple[float, ...]


def eigen_residual(problem: BoundaryProblem, E: float) -> float:
    """G(E) = Im(e^{i vartheta/2} K_{1/2 - iE}(m l1)); zeros are eigenvalues.

    Raises BracketError where |K| is below the smallest normal double: there
    K underflows toward 0 and the sign of G, which the root scan brackets,
    is lost."""
    k = numkit.bessel_k_complex_order(0.5 - 1j * E, problem.m_ell1)
    if abs(k) < sys.float_info.min:
        raise BracketError(f"|K_(1/2-iE)(m l1)| = {abs(k):.1e} underflows at E={E}, "
                           f"m l1={problem.m_ell1}")
    return (cmath.exp(0.5j * problem.vartheta) * k).imag


def counting_estimate(problem: BoundaryProblem, E: float) -> float:
    """Asymptotic number of eigenvalues in [0, E] for E >> m*l1:
    (E/pi)(log(2E / m l1) - 1) - vartheta / (2 pi)."""
    if E <= 0:
        raise DomainError("counting window needs E > 0")
    return (E / math.pi) * (math.log(2 * E / problem.m_ell1) - 1) - problem.vartheta / (2 * math.pi)


def solve_spectrum(problem: BoundaryProblem, E_max: float) -> RootList:
    """All roots of G on [0, E_max], bracketed by numkit.scan_roots on a grid
    of a quarter of the asymptotic mean spacing at E_max."""
    if E_max <= 0:
        raise DomainError("E_max must be positive")
    step = 0.25 * math.pi / max(math.log(2 * E_max / problem.m_ell1), 1.0)
    f = lambda E: eigen_residual(problem, E)
    roots = numkit.scan_roots(f, 0.0, E_max, lambda E: step)
    return RootList(roots=tuple(roots), residuals=tuple(abs(f(r)) for r in roots))
