"""Quadratic residue symbols by three independent routes, plus Jacobi/Kronecker.

The three Legendre routes (square enumeration, Euler's criterion, the
half-system sign product) are deliberately kept independent of each other so
that they can serve as oracles for one another.

Gauss's Lemma is (a/p) = (-1)^#{x in A : a*x mod p not in A} for a half-system
A.  The traced `gauss_lemma` takes that count one a_j at a time.
`gauss_lemma_sign` takes the same count in discrete-log coordinates: with A as
a (p-1)-bit mask holding bit log(x) for each x in A, rotating the mask by
k = log(a) gives the mask of a*A, and the bits it shares with A number
|a*A & A|.  It never reads the parity of k: (-1)^k is Euler's criterion in log
form, and a sign taken from it would ignore A and make the half-system
independence checks a tautology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

from .arith import require_odd_prime
from .errors import (
    InternalInconsistencyError,
    InvalidArgumentError,
    InvalidHalfSystemError,
    NotCoprimeError,
)


@dataclass(frozen=True)
class HalfSystem:
    """(p-1)/2 residues mod p meeting each pair {a, -a} exactly once."""

    p: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        require_odd_prime(self.p)
        m = (self.p - 1) // 2
        if len(self.elements) != m:
            raise InvalidHalfSystemError(
                f"expected {m} elements for p={self.p}, got {len(self.elements)}"
            )
        seen = self.positions.keys()
        if len(seen) != m or seen | {self.p - a for a in seen} != set(range(1, self.p)):
            raise InvalidHalfSystemError(
                f"{self.elements} does not represent each pair {{a, -a}} mod {self.p} exactly once"
            )

    @cached_property
    def positions(self) -> dict[int, int]:
        """a_j -> j, the position of each element."""
        return {aj: j for j, aj in enumerate(self.elements)}

    @cached_property
    def log_mask(self) -> tuple[dict[int, int], int]:
        """(x -> log_g x on (Z/p)^x, shared per p by `_unit_logs`;
        the (p-1)-bit mask with bit log_g(x) set for each x in A).

        The mask's bits are set in a byte array and read as one little-endian
        int, in O(p); summing 1 << log x would be O(p^2).
        """
        log = _unit_logs(self.p)
        bits = bytearray((self.p + 6) // 8)  # p - 1 bits
        for x in self.elements:
            k = log[x]
            bits[k >> 3] |= 1 << (k & 7)
        return log, int.from_bytes(bits, "little")


@lru_cache(maxsize=64)
def _unit_logs(p: int) -> dict[int, int]:
    """x -> log_g x on (Z/p)^x for odd prime p, one table per p for every half-system mod p; read only.

    g is the least residue whose power walk from 1 visits all p-1 units; the walk
    itself shows that g generates, so no order or factorization is needed.
    """
    for g in range(2, p):
        log = {}
        x = 1
        while x not in log:
            log[x] = len(log)
            x = x * g % p
        if len(log) == p - 1:
            return log
    raise InvalidArgumentError(f"no residue generates (Z/{p})^x, so {p} is not an odd prime")


@dataclass(frozen=True)
class GaussLemmaRow:
    """One congruence a*a_j = sign * a_{target} mod p; row j of a trace belongs to a_j."""

    product: int  # a * a_j reduced to [1, p-1]
    sign: int
    target: int


def legendre_brute(a: int, p: int) -> int:
    """Legendre symbol by enumerating squares mod p. The slow oracle."""
    require_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    return 1 if any(x * x % p == a for x in range(1, p)) else -1


def legendre_euler(a: int, p: int) -> int:
    """Legendre symbol via a^((p-1)/2) mod p."""
    require_odd_prime(p)
    r = pow(a, (p - 1) // 2, p)
    if r == 0:
        return 0
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    # Euler's criterion admits no other value for prime p.
    raise InternalInconsistencyError(f"a^((p-1)/2) = {r} mod {p}; {p} is not prime")


def _check_gauss_args(a: int, p: int, system: HalfSystem) -> None:
    if system.p != p:
        raise InvalidArgumentError(f"half-system is for p={system.p}, not {p}")
    if gcd(a, p) != 1:
        raise NotCoprimeError(f"{a} is not coprime to {p}")


def gauss_lemma_sign(a: int, p: int, system: HalfSystem) -> int:
    """Legendre symbol as the product of half-system signs, without a trace.

    The sign is -1 exactly when an odd number of the products a*a_j mod p fall
    outside the half-system A.  That number is len(A) - |a*A & A|, counted as the
    bits shared by A's log mask and the mask rotated by k = log(a) in p-1 bits;
    the parity of k itself is never read.  Same value and argument checks as
    `gauss_lemma`.
    """
    _check_gauss_args(a, p, system)
    log, mask = system.log_mask
    k = log[a % p]
    rotated = mask << k | mask >> (p - 1 - k)  # bits from p-1 up fall outside mask
    outside = len(system.elements) - (rotated & mask).bit_count()
    return -1 if outside & 1 else 1


def gauss_lemma(a: int, p: int, system: HalfSystem) -> tuple[int, tuple[GaussLemmaRow, ...]]:
    """Legendre symbol as the product of half-system signs, with one row per a_j in order.

    Callers that need only the value use `gauss_lemma_sign`, which builds no rows.
    """
    _check_gauss_args(a, p, system)
    positions = system.positions
    rows = []
    sign_product = 1
    for aj in system.elements:
        t = a * aj % p
        if t in positions:
            sign, target = 1, positions[t]
        else:
            sign, target = -1, positions[p - t]
        rows.append(GaussLemmaRow(product=t, sign=sign, target=target))
        sign_product *= sign
    return sign_product, tuple(rows)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, by reciprocity reduction (no factoring)."""
    if n <= 0 or n % 2 == 0:
        raise InvalidArgumentError(f"Jacobi symbol needs odd positive n, got {n}")
    a %= n
    sign = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def kronecker(d: int, a: int) -> int:
    """Kronecker symbol (d/a), totally defined and completely multiplicative in a."""
    if a == 0:
        return 1 if d in (1, -1) else 0
    sign = 1
    if a < 0:
        a = -a
        if d < 0:
            sign = -sign
    while a % 2 == 0:
        if d % 2 == 0:
            return 0
        a //= 2
        if d % 8 in (3, 5):
            sign = -sign
    return sign * jacobi(d, a)


def pstar(p: int) -> int:
    """The signed prime (-1)^((p-1)/2) * p, always = 1 mod 4."""
    require_odd_prime(p)
    return p if p % 4 == 1 else -p


def default_half_system(p: int) -> HalfSystem:
    """The canonical half-system {1, ..., (p-1)/2}."""
    require_odd_prime(p)
    return HalfSystem(p=p, elements=tuple(range(1, (p - 1) // 2 + 1)))


def random_half_system(p: int, rng: random.Random) -> HalfSystem:
    """A uniformly random half-system: pick one representative of each pair {a, -a}."""
    require_odd_prime(p)
    elements = tuple(a if rng.random() < 0.5 else p - a for a in range(1, (p - 1) // 2 + 1))
    return HalfSystem(p=p, elements=elements)
