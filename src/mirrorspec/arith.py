"""Integer-sequence machinery: Moebius sieve, Euler totient, Dirichlet characters, Gauss sums.

Characters are represented by explicit value tables over residues (O(1) lookups
inside Moebius-weighted sums), built from the cyclic structure of the unit
group: a primitive root for each odd prime power, the {-1, 5} generator pair
for powers of two, glued by CRT.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError

_MAX_SIEVE = 50_000_000
_MAX_MODULUS = 1_000_000


@dataclass(frozen=True)
class MoebiusTable:
    """mu(n) for 1 <= n <= limit; values[n] in {-1, 0, +1} (index 0 unused)."""

    limit: int
    values: np.ndarray

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise DomainError(f"mu({n}) outside sieved range [1, {self.limit}]")
        return int(self.values[n])


@lru_cache(maxsize=8)
def moebius_sieve(limit: int) -> MoebiusTable:
    """Linear sieve for the Moebius function up to `limit` (inclusive)."""
    if limit < 1:
        raise DomainError("sieve limit must be >= 1")
    if limit > _MAX_SIEVE:
        raise DomainError(f"sieve limit {limit} exceeds memory budget {_MAX_SIEVE}")
    mu = np.zeros(limit + 1, dtype=np.int8)
    mu[1] = 1
    is_comp = bytearray(limit + 1)
    primes: list[int] = []
    for i in range(2, limit + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        mi = mu[i]
        for p in primes:
            ip = i * p
            if ip > limit:
                break
            is_comp[ip] = 1
            if i % p == 0:
                mu[ip] = 0
                break
            mu[ip] = -mi
    return MoebiusTable(limit=limit, values=mu)


def mertens(limit: int) -> int:
    """Partial sum of mu(n) for n <= limit."""
    return int(moebius_sieve(limit).values[1:].sum())


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
        if self.modulus == 1:
            return 1.0 + 0.0j
        return complex(self.table[n % self.modulus])

    def values_upto(self, limit: int) -> np.ndarray:
        """chi(1..limit) as a complex array (index 0 unused)."""
        out = np.zeros(limit + 1, dtype=np.complex128)
        if self.modulus == 1:
            out[1:] = 1.0
        else:
            idx = np.arange(limit + 1) % self.modulus
            out[:] = self.table[idx]
            out[0] = 0.0
        return out

    @property
    def is_principal(self) -> bool:
        return self.conductor == 1

    @property
    def is_real(self) -> bool:
        return bool(np.all(np.abs(self.table.imag) < 1e-12))


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


def _conductor(q: int, table: np.ndarray) -> int:
    """Smallest d | q such that chi(n) = 1 whenever n = 1 (mod d), gcd(n, q) = 1."""
    if q == 1:
        return 1
    divisors = sorted(d for d in range(1, q + 1) if q % d == 0)
    for d in divisors:
        ok = True
        for n in range(1, q + 1, d ):
            if math.gcd(n, q) == 1 and abs(table[n % q] - 1.0) > 1e-9:
                ok = False
                break
        if ok:
            return d
    return q


def characters_mod(q: int) -> list[DirichletCharacter]:
    """All phi(q) Dirichlet characters mod q, principal character first.

    Ordering is deterministic: lexicographic in the exponent tuple with
    respect to the fixed generator list of the unit group.
    """
    if q < 1:
        raise DomainError("modulus must be positive")
    if q > _MAX_MODULUS:
        raise DomainError(f"modulus {q} exceeds supported bound {_MAX_MODULUS}")
    if q == 1:
        table = np.ones(1, dtype=np.complex128)
        return [DirichletCharacter(modulus=1, table=table, parity=0,
                                   primitive=True, conductor=1, index=0)]

    gens = _unit_group_generators(q)
    orders = [m for _, m in gens]
    phi = euler_phi(q)
    assert math.prod(orders) == phi if orders else phi == 1

    # discrete logs of every unit with respect to the generator tuple
    units = [n for n in range(1, q + 1) if math.gcd(n, q) == 1]
    dlog: dict[int, tuple[int, ...]] = {}
    # enumerate products of generator powers
    def fill(i: int, residue: int, exps: tuple[int, ...]) -> None:
        if i == len(gens):
            dlog[residue] = exps
            return
        g, m = gens[i]
        r = residue
        for t in range(m):
            fill(i + 1, r, exps + (t,))
            r = (r * g) % q
    fill(0, 1, ())
    assert len(dlog) == phi

    chars: list[DirichletCharacter] = []
    # exponent tuples in lexicographic order; (0,...,0) is the principal character
    def char_tuples(i: int, prefix: tuple[int, ...]):
        if i == len(orders):
            yield prefix
            return
        for c in range(orders[i]):
            yield from char_tuples(i + 1, prefix + (c,))

    minus_one = (q - 1) % q
    for index, cs in enumerate(char_tuples(0, ())):
        table = np.zeros(q, dtype=np.complex128)
        for n in units:
            exps = dlog[n]
            phase = sum(c * t / m for c, t, m in zip(cs, exps, orders))
            table[n % q] = cmath.exp(2j * math.pi * phase)
        parity = 0 if abs(table[minus_one] - 1.0) < 1e-9 else 1
        cond = _conductor(q, table)
        chars.append(DirichletCharacter(modulus=q, table=table, parity=parity,
                                        primitive=(cond == q), conductor=cond,
                                        index=index))
    return chars


def gauss_sum(chi: DirichletCharacter) -> complex:
    """sum_{n=1..q} chi(n) exp(2 pi i n / q); modulus sqrt(q) for primitive chi."""
    q = chi.modulus
    total = 0j
    for n in range(1, q + 1):
        total += chi(n) * cmath.exp(2j * math.pi * n / q)
    return total


def primitive_characters(q_max: int) -> list[DirichletCharacter]:
    """Every primitive character with modulus 2 <= q <= q_max, plus q = 1."""
    out = [characters_mod(1)[0]]
    for q in range(2, q_max + 1):
        out.extend(c for c in characters_mod(q) if c.primitive)
    return out
