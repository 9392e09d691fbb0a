"""Integer-sequence machinery: Moebius sieve, trial-division factorisation,
Euler totient, Dirichlet characters with their conductors, Gauss sums.

Characters are represented by explicit value tables over residues (O(1) lookups
inside Moebius-weighted sums), built from the cyclic structure of the unit
group: a primitive root for each odd prime power, the {-1, 5} generator pair
for powers of two, glued by CRT.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError

_MAX_SIEVE = 50_000_000
_MAX_MODULUS = 1_000_000


@lru_cache(maxsize=8)
def moebius_sieve(limit: int) -> np.ndarray:
    """mu(n) for 0 <= n <= limit as a read-only int8 array, mu[0] = 0."""
    if limit < 1:
        raise DomainError("sieve limit must be >= 1")
    if limit > _MAX_SIEVE:
        raise DomainError(f"sieve limit {limit} exceeds memory budget {_MAX_SIEVE}")
    mu = np.ones(limit + 1, dtype=np.int8)
    # rest[n]: n divided once by each prime p <= sqrt(limit) that divides it
    rest = np.arange(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if rest[p] == p:  # no smaller prime divides p
            mu[p::p] *= -1
            mu[p * p::p * p] = 0
            rest[p::p] //= p
    # n <= limit has at most one prime factor above sqrt(limit): for squarefree
    # n it is what rest[n] holds (non-squarefree n already have mu = 0)
    np.negative(mu, out=mu, where=rest > 1)
    mu[0] = 0
    mu.flags.writeable = False
    return mu


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of n >= 1 by trial division: (p, e) pairs with the
    primes ascending."""
    if n < 1:
        raise DomainError(f"factorize needs n >= 1, got {n}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(q: int) -> int:
    return math.prod(p ** (e - 1) * (p - 1) for p, e in factorize(q))


def _primitive_root(pe: int, p: int) -> int:
    """Smallest primitive root modulo p^e for odd prime p."""
    phi = pe - pe // p
    factors = [f for f, _ in factorize(phi)]
    for g in range(2, pe):
        if math.gcd(g, pe) != 1:
            continue
        if all(pow(g, phi // f, pe) != 1 for f in factors):
            return g
    raise RuntimeError(f"no primitive root mod {pe}")  # unreachable for odd p^e


@dataclass(frozen=True, eq=False)
class DirichletCharacter:
    """A Dirichlet character mod q as an explicit residue table.

    `table[n % q]` holds chi(n) as a complex root of unity (0 on non-units).
    `parity` is 0 for even characters (chi(-1)=1) and 1 for odd ones.
    """

    modulus: int
    table: np.ndarray = field(repr=False)
    parity: int
    primitive: bool
    conductor: int
    index: int  # position in the deterministic ordering of characters_mod

    def __call__(self, n: int) -> complex:
        return complex(self.table[n % self.modulus])

    def values_upto(self, limit: int) -> np.ndarray:
        """chi(0..limit) as a complex array (index 0 unused, set to 0)."""
        out = self.table[np.arange(limit + 1) % self.modulus]
        out[0] = 0.0
        return out

    @property
    def is_principal(self) -> bool:
        return self.conductor == 1


def _unit_group_generators(q: int) -> list[tuple[int, int]]:
    """(generator, order) pairs for (Z/q)^*, CRT-lifted to modulus q."""
    gens: list[tuple[int, int]] = []
    for p, e in factorize(q):
        pe = p**e
        rest = q // pe
        # CRT lift: congruent to g mod p^e, to 1 mod q/p^e
        def lift(g: int) -> int:
            if rest == 1:
                return g % q
            inv = pow(rest, -1, pe)
            return (1 + rest * ((g - 1) * inv % pe)) % q
        if p == 2:
            if e == 2:
                gens.append((lift(3), 2))
            elif e >= 3:
                gens.append((lift(pe - 1), 2))
                gens.append((lift(5), pe // 4))
            # e == 1 contributes nothing (trivial group)
        else:
            g = _primitive_root(pe, p)
            gens.append((lift(g), pe - pe // p))
    return gens


def characters_mod(q: int) -> list[DirichletCharacter]:
    """All phi(q) Dirichlet characters mod q, principal character first.

    Ordering is deterministic: lexicographic in the exponent tuple with
    respect to the fixed generator list of the unit group.
    """
    if q < 1:
        raise DomainError("modulus must be positive")
    if q > _MAX_MODULUS:
        raise DomainError(f"modulus {q} exceeds supported bound {_MAX_MODULUS}")
    gens = _unit_group_generators(q)
    orders = [m for _, m in gens]
    # exponent tuples in lexicographic order; (0,...,0) is the principal character
    tuples = list(itertools.product(*map(range, orders)))
    # discrete logs: the unit prod_i g_i^t_i has the exponent tuple t
    dlog = {math.prod(pow(g, t, q) for (g, _), t in zip(gens, exps)) % q: exps
            for exps in tuples}
    units = np.array(list(dlog))
    # the conductor is the smallest d | q with chi = 1 on the units = 1 (mod d)
    cosets = [(d, units[units % d == 1 % d]) for d in range(1, q + 1) if q % d == 0]

    chars: list[DirichletCharacter] = []
    for index, cs in enumerate(tuples):
        table = np.zeros(q, dtype=np.complex128)
        table[units] = [cmath.exp(2j * math.pi * sum(c * t / m for c, t, m
                                                     in zip(cs, exps, orders)))
                        for exps in dlog.values()]
        parity = 0 if abs(table[q - 1] - 1.0) < 1e-9 else 1
        cond = next(d for d, ones in cosets
                    if np.all(np.abs(table[ones] - 1.0) <= 1e-9))
        chars.append(DirichletCharacter(modulus=q, table=table, parity=parity,
                                        primitive=(cond == q), conductor=cond,
                                        index=index))
    return chars


def gauss_sum(chi: DirichletCharacter) -> complex:
    """sum_{n=0..q-1} chi(n) exp(2 pi i n / q); modulus sqrt(q) for primitive
    chi. Starting at n = 0 keeps exp(2 pi i) out of the sum, so the character
    mod 1 has a Gauss sum of exactly 1."""
    q = chi.modulus
    total = 0j
    for n in range(q):
        total += chi(n) * cmath.exp(2j * math.pi * n / q)
    return total
