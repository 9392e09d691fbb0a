"""Single-mirror boundary eigenvalue problem."""

import math

import mpmath
import pytest

from mirrorspec import boundary_spectrum as bs
from mirrorspec import models
from mirrorspec.errors import BracketError, DomainError


def _mp_residual(problem, E):
    """G(E) from mpmath at 40 digits."""
    with mpmath.workdps(40):
        k = mpmath.besselk(mpmath.mpc(0.5, -E), problem.m_ell1)
        return float((mpmath.expj(mpmath.mpf(problem.vartheta) / 2) * k).imag)


def test_residual_symmetry_theta_pi():
    p = bs.BoundaryProblem(vartheta=math.pi)
    for E in (0.5, 3.2, 9.7):
        assert abs(bs.eigen_residual(p, E) - bs.eigen_residual(p, -E)) < 1e-9


def test_residual_antisymmetry_theta_zero():
    p = bs.BoundaryProblem(vartheta=0.0)
    for E in (0.5, 3.2, 9.7):
        assert abs(bs.eigen_residual(p, E) + bs.eigen_residual(p, -E)) < 1e-9


def test_zero_energy_root_iff_theta_zero():
    assert abs(bs.eigen_residual(bs.BoundaryProblem(vartheta=0.0), 0.0)) < 1e-12
    assert abs(bs.eigen_residual(bs.BoundaryProblem(vartheta=math.pi), 0.0)) > 1e-6


def test_solve_spectrum_window():
    p = bs.BoundaryProblem()
    roots = bs.solve_spectrum(p, 15.0)
    assert len(roots.roots) == 3
    assert all(r <= 15.0 for r in roots.roots)
    assert all(abs(res) < 1e-12 for res in roots.residuals)
    # residual really changes sign around each root
    for r in roots.roots:
        assert bs.eigen_residual(p, r - 1e-4) * bs.eigen_residual(p, r + 1e-4) < 0
    assert sum(r <= 10.0 for r in roots.roots) == 1


def test_spectrum_to_80_bracketed_by_mpmath():
    p = bs.BoundaryProblem()
    roots = bs.solve_spectrum(p, 80.0)
    assert len(roots.roots) == 57
    for r, res in zip(roots.roots, roots.residuals):
        lo, hi = _mp_residual(p, r - 1e-7), _mp_residual(p, r + 1e-7)
        assert lo * hi < 0, r
        assert res <= min(abs(lo), abs(hi)), r
        # the residual is G at the root that the scan returns, not a re-evaluation
        assert res == abs(bs.eigen_residual(p, r)), r


def test_residual_raises_where_k_underflows():
    # |K_{1/2}(710)| = 2e-310 is subnormal: the sign of G is no longer resolved
    with pytest.raises(BracketError):
        bs.eigen_residual(bs.BoundaryProblem(m_ell1=710.0), 0.0)
    # |K_{1/2}(700)| = 4.7e-306 is still a normal double at full precision
    assert bs.eigen_residual(bs.BoundaryProblem(m_ell1=700.0), 0.0) != 0.0


def test_count_matches_estimate():
    p = bs.BoundaryProblem()
    roots = bs.solve_spectrum(p, 15.0)
    est = bs.counting_estimate(p, 15.0)
    assert abs(len(roots.roots) - est) <= 1.0 + 1e-9


def test_counting_estimate_rejects_nonpositive():
    with pytest.raises(DomainError):
        bs.counting_estimate(bs.BoundaryProblem(), 0.0)


def test_average_zero_count_scaling(chi1):
    # under E = t/2 the boundary count tracks the zeta average to O(1)
    t = 60.0
    assert abs(bs.counting_estimate(bs.BoundaryProblem(vartheta=math.pi), t / 2)
               - models.zero_count(chi1, t)) < 2.0
