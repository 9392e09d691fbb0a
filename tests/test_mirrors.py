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


def test_proper_time_exact():
    pt = mirrors.proper_time(mirrors.MirrorPath((6, 2, 4)))
    assert pt.ratio == Fraction(12, 1)
    assert abs(pt.tau - math.log(12)) < 1e-14


def test_concatenate_is_additive():
    p1 = mirrors.MirrorPath((2, 1, 2))
    p2 = mirrors.MirrorPath((3,))
    joined = mirrors.concatenate(p1, p2)
    t1, t2, tj = (mirrors.proper_time(p).ratio for p in (p1, p2, joined))
    assert tj == t1 * t2


def test_harmonic_proper_time():
    pt = mirrors.harmonic_proper_time((5, 2, 4))
    assert pt.numerator == 7 and pt.denominator == 1
    with pytest.raises(InvalidPathError):
        mirrors.harmonic_proper_time((3, 3, 4))


def test_enumerate_known_sets():
    assert [p.bounces for p in mirrors.enumerate_paths(7)] == [(7,)]
    assert [p.bounces for p in mirrors.enumerate_paths(4)] == [(2, 1, 2), (4,)]
    got6 = {p.bounces for p in mirrors.enumerate_paths(6)}
    assert (2, 1, 3) in got6 and (3, 1, 2) in got6 and (6,) in got6
    assert [p.bounces for p in mirrors.enumerate_paths(2)] == [(2,)]


def test_every_path_reproduces_target():
    for n in (12, 30, 97):
        for p in mirrors.enumerate_paths(n, max_depth=4):
            assert mirrors.proper_time(p).ratio == Fraction(n, 1)


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
