"""Bounce-path enumeration and the ray-based primality sieve."""

import math
from fractions import Fraction

import pytest

from mirrorspec import mirrors
from mirrorspec.errors import DomainError, InvalidPathError


def test_path_validation():
    mirrors.MirrorPath((7,))
    mirrors.MirrorPath((2, 1, 2))
    with pytest.raises(InvalidPathError):
        mirrors.MirrorPath((2, 1))          # even length
    with pytest.raises(InvalidPathError):
        mirrors.MirrorPath((2, 2, 3))       # zig-zag violated
    with pytest.raises(InvalidPathError):
        mirrors.MirrorPath((1, 1, 2))       # odd position below 2


def _ratio(path: mirrors.MirrorPath) -> Fraction:
    pt = mirrors.proper_time(path)
    return Fraction(pt.numerator, pt.denominator)


def test_proper_time_exact():
    path = mirrors.MirrorPath((6, 2, 4))
    assert _ratio(path) == Fraction(12, 1)
    assert abs(mirrors.proper_time(path).tau - math.log(12)) < 1e-14


def test_concatenate_is_additive():
    # joining two paths through the boundary mirror 1 adds their proper times
    p1 = mirrors.MirrorPath((2, 1, 2))
    p2 = mirrors.MirrorPath((3,))
    joined = mirrors.MirrorPath(p1.bounces + (1,) + p2.bounces)
    assert _ratio(joined) == _ratio(p1) * _ratio(p2)


def test_enumerate_known_sets():
    assert [p.bounces for p in mirrors.enumerate_paths(7)] == [(7,)]
    assert [p.bounces for p in mirrors.enumerate_paths(4)] == [(2, 1, 2), (4,)]
    got6 = {p.bounces for p in mirrors.enumerate_paths(6)}
    assert (2, 1, 3) in got6 and (3, 1, 2) in got6 and (6,) in got6
    assert [p.bounces for p in mirrors.enumerate_paths(2)] == [(2,)]


def test_every_path_reproduces_target():
    for n in (12, 30, 97):
        for p in mirrors.enumerate_paths(n, max_depth=4):
            assert _ratio(p) == Fraction(n, 1)


def test_primes_have_single_ray(is_prime):
    for n in range(2, 200):
        if is_prime(n):
            assert len(mirrors.enumerate_paths(n, max_depth=4)) == 1, n


def test_classification_matches_trial_division_block(is_prime):
    for n in range(2, 2000):
        want = "prime" if is_prime(n) else "composite"
        assert mirrors.classify_integer(n, max_depth=4) == want, n


def test_classify_rejects_bad_input():
    with pytest.raises(DomainError):
        mirrors.classify_integer(1)
    with pytest.raises(DomainError):
        mirrors.classify_integer(10, max_depth=1)
    with pytest.raises(DomainError):
        mirrors.enumerate_paths(1)
