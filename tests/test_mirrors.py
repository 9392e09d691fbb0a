"""Bounce-path enumeration and the ray-based primality sieve."""

import math
from fractions import Fraction

import pytest

from mirrorspec import arith, mirrors
from mirrorspec.errors import DomainError, InvalidPathError


def _reference_paths(n: int, max_depth: int) -> list[list[tuple[int, ...]]]:
    """The search on Fractions, in discovery order: iterative deepening, a
    DFS that stops a zig-zag once the running ratio reaches n, and the final
    zig-zag solved as o/e = n/ratio. Entry d - 1 holds the paths found with
    max_depth = d, for d = 1..max_depth."""
    found = [(n,)]
    by_depth = [list(found)]
    cap = n - 1
    if cap < 2 or arith.factorize(n)[-1][0] > cap:
        return by_depth * max_depth
    target = Fraction(n)

    def dfs(prefix: list[int], ratio: Fraction, pairs_left: int) -> None:
        if pairs_left == 1:
            R = target / ratio
            d = R.denominator
            for e in range(d, min(prefix[-1] - 1, int(cap / R)) + 1, d):
                found.append(tuple(prefix) + (e, int(R * e)))
            return
        for e in range(1, prefix[-1]):
            r_e = ratio / e
            for o in range(e + 1, cap + 1):
                r = r_e * o
                if r >= target:
                    break
                dfs(prefix + [e, o], r, pairs_left - 1)

    for k in range(2, max_depth + 1):
        for first in range(2, cap + 1):
            dfs([first], Fraction(first), k - 1)
        by_depth.append(list(found))
    return by_depth


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
        for p in mirrors.enumerate_paths(n, max_depth=5):
            assert _ratio(p) == Fraction(n, 1)


def test_search_matches_fraction_reference():
    # the reference needs 6.6 s more for n = 30..40 and 48 at depth 4
    top = {n: 5 if n <= 24 else 4 if n < 30 else 3 for n in [*range(2, 41), 48]}
    for n, max_depth in top.items():
        for d, want in enumerate(_reference_paths(n, max_depth), start=1):
            got = [p.bounces for p in mirrors.enumerate_paths(n, max_depth=d)]
            assert got == sorted(want), (n, d)
            first_two = [p.bounces for p in mirrors._search(n, d, limit=2)]
            assert first_two == want[:2], (n, d)


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
