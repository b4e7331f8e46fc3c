"""Ray class groups of Q, ideal groups, the Artin map on ray classes, conductors, witnesses.

A modulus is a positive integer m0 plus an optional infinite place.  With the
infinite place, ray classes mod m0*oo biject with coprime residues mod m0 via
the unique positive generator of each ideal; without it, (a) = (-a) forces the
quotient by the class of -1, and classes are labeled by min(r, m0 - r).  So an
ideal group H is a subgroup of (Z/m0)^x = Gal(Q(zeta_m0)/Q): the residues whose
ideals lie in H.  It holds -1 when the modulus has no infinite place, so either
way its index in (Z/m0)^x is (D_m : H).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

from .arith import euler_phi, factorize, primes_up_to, require_odd_prime
from .errors import (
    InvalidArgumentError,
    InvalidDiscriminantError,
    NotCoprimeError,
    NotInTakagiGroupError,
    TooLargeError,
    WitnessNotFoundError,
)
from .groups import TABLE_BOUND, Subgroup, unit_group
from .symbols import kronecker


@dataclass(frozen=True)
class Modulus:
    """Finite part m0 >= 1 plus optionally the real place."""

    m0: int
    infinite: bool = False

    def __post_init__(self) -> None:
        if self.m0 < 1:
            raise InvalidArgumentError(f"finite part must be >= 1, got {self.m0}")

    def __str__(self) -> str:
        return f"({self.m0}){'oo' if self.infinite else ''}"

    def label(self, residue: int) -> int:
        """Label of the residue's class: r = residue mod m0, or min(r, m0 - r) without oo; 1 mod 1."""
        if self.m0 == 1:
            return 1
        r = residue % self.m0
        return r if self.infinite else min(r, self.m0 - r)


def is_fundamental_discriminant(d: int) -> bool:
    """True for discriminants of quadratic fields: 1 mod 4 squarefree, or 4m, m = 2,3 mod 4 squarefree."""
    if d == 0 or d == 1:
        return False
    if d % 4 == 1:
        return _squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


def _squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(abs(n)))


@dataclass(frozen=True)
class FundamentalDiscriminant:
    d: int

    def __post_init__(self) -> None:
        if not is_fundamental_discriminant(self.d):
            raise InvalidDiscriminantError(f"{self.d} is not a fundamental discriminant")

    @property
    def modulus(self) -> Modulus:
        """(|d|), with the infinite place exactly when d < 0."""
        return Modulus(abs(self.d), infinite=self.d < 0)


def fundamental_discriminants(limit: int) -> list[FundamentalDiscriminant]:
    """All fundamental discriminants with |d| <= limit, sorted by |d| then sign."""
    out = []
    for n in range(2, limit + 1):
        for d in (n, -n):
            if is_fundamental_discriminant(d):
                out.append(FundamentalDiscriminant(d))
    return out


@dataclass(frozen=True, eq=False)
class RayClassGroup:
    """D_m / P_m^(1) for Q; each class is its residue label, as in `Modulus.label`."""

    modulus: Modulus
    labels: tuple[int, ...]

    def class_of(self, residue: int) -> int:
        """The label of the residue's ray class; NotCoprimeError unless gcd(residue, m0) = 1."""
        m0 = self.modulus.m0
        if gcd(residue, m0) != 1:
            raise NotCoprimeError(f"{residue} is not coprime to {m0}")
        return self.modulus.label(residue)


@dataclass(frozen=True)
class IdealGroupH(Subgroup):
    """An ideal group P_m^(1) <= H <= D_m, as the subgroup of unit_group(m0) of residues in H."""

    modulus: Modulus = field(kw_only=True)

    def validate(self) -> None:
        """InvalidArgumentError unless H is a subgroup of (Z/m0)^x that holds -1 when m has no oo."""
        super().validate()
        if not self.modulus.infinite and self.parent.id_of(self.modulus.m0 - 1) not in self:
            raise InvalidArgumentError(f"ideal group mod {self.modulus} does not hold -1")


def ray_class_group(m: Modulus) -> RayClassGroup:
    """D_m / P_m^(1) as its labels: residues coprime to m0 up to m0, or up to m0 // 2 without oo."""
    m0 = m.m0
    # The labels are cheap; the bound caps the labels tuple, and moving it changes which moduli raise.
    if euler_phi(m0) > TABLE_BOUND:
        raise TooLargeError(f"phi({m0}) exceeds the table bound {TABLE_BOUND}")
    if m0 <= 2:
        return RayClassGroup(modulus=m, labels=(1,))
    top = m0 if m.infinite else m0 // 2
    return RayClassGroup(modulus=m, labels=tuple(r for r in range(1, top + 1) if gcd(r, m0) == 1))


def ideal_class(G: RayClassGroup, num: int, den: int = 1) -> int:
    """Label of the class of the fractional ideal (num/den); signs are irrelevant to ideals."""
    if num == 0 or den <= 0:
        raise InvalidArgumentError("need a nonzero numerator and positive denominator")
    m0 = G.modulus.m0
    if gcd(abs(num) * den, m0) != 1:
        raise NotCoprimeError(f"{num}/{den} is not coprime to {m0}")
    return G.class_of(abs(num) * pow(den, -1, m0))


def _ideal_group(m: Modulus, in_H: Callable[[int], bool]) -> IdealGroupH:
    """The validated ideal group mod m of the residues r coprime to m0 with in_H(r)."""
    G = unit_group(m.m0)
    H = IdealGroupH(parent=G, members=tuple(i for i, r in enumerate(G.labels) if in_H(r)), modulus=m)
    H.validate()
    return H


def takagi_group_quadratic(d: FundamentalDiscriminant | int) -> IdealGroupH:
    """Norm group of Q(sqrt(d)): the classes (a) with Kronecker symbol (d/a) = +1."""
    if isinstance(d, int):
        d = FundamentalDiscriminant(d)
    return _ideal_group(d.modulus, lambda r: kronecker(d.d, r) == 1)


def takagi_group_cyclotomic(m: int) -> IdealGroupH:
    """Norm group of Q(zeta_m) mod m*oo: the principal ray alone."""
    if m < 3:
        raise InvalidArgumentError(f"cyclotomic construction needs m >= 3, got {m}")
    return _ideal_group(Modulus(m, infinite=True), lambda r: r == 1)


def squares_group(p: int) -> IdealGroupH:
    """The ideal group of square classes mod p*oo; index 2 in the ray class group."""
    require_odd_prime(p)
    return _ideal_group(Modulus(p, infinite=True), {a * a % p for a in range(1, p)}.__contains__)


@dataclass(frozen=True)
class FirstInequalityResult:
    index: int
    holds: bool      # index <= degree
    divides: bool    # the post-CFT refinement


def first_inequality_check(H: IdealGroupH, degree: int) -> FirstInequalityResult:
    """Check (D_m : H) <= degree, and whether the index divides the degree."""
    if degree < 1:
        raise InvalidArgumentError(f"degree must be positive, got {degree}")
    idx = H.index
    return FirstInequalityResult(index=idx, holds=idx <= degree, divides=degree % idx == 0)


@dataclass(frozen=True)
class ConstancyReport:
    """Per-ray-class symbol values for primes up to a bound, plus any violation."""

    class_values: tuple[tuple[int, int], ...]  # (class label, symbol value), sorted
    counterexample: tuple[int, int] | None      # (prime, clashing value) if any

    @property
    def constant_on_classes(self) -> bool:
        return self.counterexample is None


def artin_class_constancy_check(d: FundamentalDiscriminant | int, bound: int) -> ConstancyReport:
    """Partition primes <= bound by ray class mod (|d|, oo iff d<0); check (d/.) constant per class."""
    if isinstance(d, int):
        d = FundamentalDiscriminant(d)
    G = ray_class_group(d.modulus)
    values: dict[int, int] = {}
    counterexample = None
    for p in primes_up_to(bound):
        if abs(d.d) % p == 0:
            continue
        label = G.class_of(p)
        chi = kronecker(d.d, p)
        if label in values:
            if values[label] != chi and counterexample is None:
                counterexample = (p, chi)
        else:
            values[label] = chi
    return ConstancyReport(class_values=tuple(sorted(values.items())), counterexample=counterexample)


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def _character_factors_through(d: int, m: Modulus) -> bool:
    """Does (d/.) on positive integers coprime to d factor through ray classes mod m?"""
    dd = abs(d)
    fibers: dict[int, int] = {}
    for r in range(1, dd + 1):
        if gcd(r, dd) != 1:
            continue
        chi = kronecker(d, r)
        if fibers.setdefault(m.label(r), chi) != chi:
            return False
    return True


def conductor_quadratic(d: FundamentalDiscriminant | int) -> Modulus:
    """Smallest modulus (finite part dividing |d|) the quadratic character factors through."""
    if isinstance(d, int):
        d = FundamentalDiscriminant(d)
    for f in _divisors(abs(d.d)):
        for infinite in (False, True):
            m = Modulus(f, infinite=infinite)
            if _character_factors_through(d.d, m):
                return m
    raise InvalidArgumentError(f"character mod {d.d} factors through no divisor modulus")  # unreachable


def takagi_witness(
    a: int, d: FundamentalDiscriminant | int, prime_bound: int = 10**4
) -> tuple[tuple[int, int], ...]:
    """Factor the class of a as (split primes) * (something = 1 mod |d| and > 0).

    Returns (prime, exponent) pairs with (d/p) = +1 such that
    s = a * prod p**(-e) is a positive rational with numerator = denominator
    mod |d|.  The decomposition is re-verified before returning.
    """
    if isinstance(d, int):
        d = FundamentalDiscriminant(d)
    dd = abs(d.d)
    if a <= 0:
        raise InvalidArgumentError(f"need a positive integer, got {a}")
    if gcd(a, dd) != 1:
        raise NotCoprimeError(f"{a} is not coprime to {d.d}")
    if kronecker(d.d, a) != 1:
        raise NotInTakagiGroupError(f"({d.d}/{a}) = {kronecker(d.d, a)}, not +1")

    target = a % dd
    witness: tuple[tuple[int, int], ...] | None = None
    if target == 1 % dd:
        witness = ()
    else:
        split_primes = _split_primes(d.d, prime_bound)
        # A single prime = a mod |d| gives s = a/p; Dirichlet guarantees one at
        # desk scale. Fall back to a breadth-first walk over split-prime classes.
        for p in split_primes:
            if p % dd == target:
                witness = ((p, 1),)
                break
        if witness is None:
            witness = _witness_bfs(target, dd, split_primes)
    if witness is None:
        raise WitnessNotFoundError(
            f"no witness for a={a}, d={d.d} with primes up to {prime_bound}"
        )
    _verify_witness(a, d.d, witness)
    return witness


@lru_cache(maxsize=256)
def _split_primes(d: int, bound: int) -> tuple[int, ...]:
    return tuple(
        p for p in primes_up_to(bound) if abs(d) % p != 0 and kronecker(d, p) == 1
    )


def _witness_bfs(
    target: int, dd: int, split_primes: tuple[int, ...]
) -> tuple[tuple[int, int], ...] | None:
    """BFS over residues mod dd, multiplying by split primes or their inverses."""
    gens = split_primes[:64]
    start = 1 % dd
    paths: dict[int, tuple[tuple[int, int], ...]] = {start: ()}
    queue = deque([start])
    while queue:
        r = queue.popleft()
        path = paths[r]
        for p in gens:
            for step in (1, -1):
                nr = r * pow(p, step, dd) % dd
                if nr in paths:
                    continue
                paths[nr] = path + ((p, step),)
                if nr == target:
                    return _collect_exponents(paths[nr])
                queue.append(nr)
    return None


def _collect_exponents(path: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    exps: dict[int, int] = {}
    for p, step in path:
        exps[p] = exps.get(p, 0) + step
    return tuple(sorted((p, e) for p, e in exps.items() if e != 0))


def witness_fraction(a: int, witness: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """(numerator, denominator) of s = a * prod p**(-e) over the witness pairs (p, e)."""
    num, den = a, 1
    for p, e in witness:
        if e > 0:
            den *= p**e
        else:
            num *= p ** (-e)
    return num, den


def _verify_witness(a: int, d: int, witness: tuple[tuple[int, int], ...]) -> None:
    dd = abs(d)
    for p, _ in witness:
        if kronecker(d, p) != 1:
            raise WitnessNotFoundError(f"witness prime {p} has symbol != +1")
    num, den = witness_fraction(a, witness)
    if num % dd != den % dd:
        raise WitnessNotFoundError(f"witness for a={a}, d={d} fails s = 1 mod {dd}")
