"""Accelerated-mirror ray geometry: bounce paths on the sqrt-spaced array,
their exact observer proper times, and the path-count primality sieve.

A path of depth k bounces on interior mirrors n_1, ..., n_{2k-1} subject to
the zig-zag ordering 1 < n_1 > n_2 < n_3 > ... > 1 (even positions may touch
the boundary mirror 1). On the sqrt-spaced array the observer clock advances
by log(prod odd-position / prod even-position), so integer targets
tau = log n reduce to an exact rational divisibility search.

Two exact facts prune that search:
(1) along a path the running ratio grows strictly at every zig-zag
    (each factor is odd/even > 1), so partial ratios above the target die;
(2) any multi-bounce path for target n uses only mirrors below n, hence the
    odd-position product cannot contain a prime factor of n larger than the
    mirror cap. In particular prime targets admit the single direct ray only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import factorize
from .errors import DomainError, InvalidPathError


@dataclass(frozen=True)
class MirrorPath:
    """Interior bounce labels of a closed observer-to-observer ray."""

    bounces: tuple[int, ...]

    def __post_init__(self):
        b = tuple(self.bounces)
        object.__setattr__(self, "bounces", b)
        if len(b) % 2 == 0 or not b:
            raise InvalidPathError(f"need an odd number of bounces, got {len(b)}")
        for i, n in enumerate(b):
            lo = 2 if i % 2 == 0 else 1
            if n < lo:
                raise InvalidPathError(f"bounce {i} below minimum {lo}: {b}")
            if i % 2 == 1 and (b[i - 1] <= n or b[i + 1] <= n):
                raise InvalidPathError(f"zig-zag ordering violated at position {i}: {b}")


@dataclass(frozen=True)
class ProperTime:
    """tau = log(numerator / denominator) held exactly."""

    numerator: int
    denominator: int

    @property
    def tau(self) -> float:
        return math.log(self.numerator / self.denominator)


def proper_time(path: MirrorPath) -> ProperTime:
    """Exact tau on the sqrt-spaced array: log(prod odd-pos / prod even-pos)."""
    num = math.prod(path.bounces[0::2])
    den = math.prod(path.bounces[1::2])
    return ProperTime(numerator=num, denominator=den)


def _search(n: int, max_depth: int, max_mirror: int, limit: int | None) -> list[MirrorPath]:
    found: list[MirrorPath] = []
    if n <= max_mirror:
        found.append(MirrorPath((n,)))
    if max_depth == 1 or (limit is not None and len(found) >= limit):
        return found

    cap = min(max_mirror, n - 1)  # fact (2): interior bounces stay below n
    if cap < 2 or factorize(n)[-1][0] > cap:
        return found
    target = Fraction(n)

    def closure(prefix: list[int], ratio: Fraction) -> bool:
        """Final zig-zag (e, o) solved by divisibility: o/e = n/ratio."""
        R = target / ratio
        d = R.denominator
        e_max = min(prefix[-1] - 1, int(cap / R))
        for e in range(d, e_max + 1, d):
            o = int(R * e)
            found.append(MirrorPath(tuple(prefix) + (e, o)))
            if limit is not None and len(found) >= limit:
                return True
        return False

    def dfs(prefix: list[int], ratio: Fraction, pairs_left: int) -> bool:
        if pairs_left == 1:
            return closure(prefix, ratio)
        for e in range(1, prefix[-1]):
            r_e = ratio / e
            for o in range(e + 1, cap + 1):
                r = r_e * o
                if r >= target:
                    break
                if dfs(prefix + [e, o], r, pairs_left - 1):
                    return True
        return False

    # iterative deepening so a secondary path (smallest-factor split at
    # depth 2) surfaces before any deep subtree is explored
    for k in range(2, max_depth + 1):
        stop = False
        for first in range(2, cap + 1):
            if dfs([first], Fraction(first), k - 1):
                stop = True
                break
        if stop:
            break
    return found


def enumerate_paths(n: int, max_depth: int = 4, max_mirror: int | None = None) -> list[MirrorPath]:
    """All bounce paths with tau = log n, lexicographically ordered."""
    if n < 2:
        raise DomainError("path targets start at n = 2")
    if max_depth < 1:
        raise DomainError("max_depth must be >= 1")
    if max_mirror is None:
        max_mirror = 4 * n
    if max_mirror < n:
        raise DomainError("max_mirror must be at least n")
    found = _search(n, max_depth, max_mirror, limit=None)
    found.sort(key=lambda p: p.bounces)
    return found


def classify_integer(n: int, max_depth: int = 4) -> str:
    """'prime' iff the observer sees a single ray coming back.

    The path count is short-circuited at 2: fact (2) certifies primes with no
    search at all, and every composite n = a*b splits as the depth-2 path
    (a, 1, b), which iterative deepening reaches almost immediately.
    """
    if max_depth < 2:
        raise DomainError("classification needs max_depth >= 2")
    if n < 2:
        raise DomainError("classification starts at n = 2")
    paths = _search(n, max_depth, 4 * n, limit=2)
    return "prime" if len(paths) == 1 else "composite"
