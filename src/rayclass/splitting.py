"""Prime decomposition laws and the two quadratic-reciprocity drivers.

One driver compares the Kummer-side splitting of q in Q(sqrt(p*)) with the
class-field-side splitting (square classes mod p*oo); the other evaluates the
transfer of q's residue class to {+-1} via the literal coset formula and
compares it with the Kronecker symbol (p*/q).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .arith import euler_phi, mult_order, primes_up_to, require_odd_prime, require_prime
from .classfield import FundamentalDiscriminant, IdealGroupH, squares_group
from .errors import InternalInconsistencyError, InvalidArgumentError, NotCoprimeError, RamifiedError
from .groups import (
    CosetDecomposition,
    Subgroup,
    UnitGroup,
    coset_order,
    decomposition_from_reps,
    kernel_of,
    require_unit_group,
    subgroup_generated,
    transfer,
    transfer_homomorphism,
    unit_group,
)
from .symbols import HalfSystem, gauss_lemma, kronecker, pstar


@dataclass(frozen=True)
class SplittingType:
    """Ramification index e, residue degree f, number of primes g; e*f*g = degree."""

    e: int
    f: int
    g: int

    @property
    def degree(self) -> int:
        return self.e * self.f * self.g

    @property
    def word(self) -> str:
        """split / inert / ramified, for the degree-2 trichotomy."""
        if self.e > 1:
            return "ramified"
        if self.f == 1 and self.g == self.degree:
            return "split"
        if self.f == self.degree:
            return "inert"
        return "mixed"


@dataclass(frozen=True)
class Quadratic:
    d: FundamentalDiscriminant


@dataclass(frozen=True)
class Cyclotomic:
    m: int


# A Subgroup U of (Z/m)^x names the subfield of Q(zeta_m) that it fixes.
FieldDescriptor = Quadratic | Cyclotomic | Subgroup


def splitting_quadratic(q: int, d: FundamentalDiscriminant | int) -> SplittingType:
    """Decomposition of q in Q(sqrt(d)) from the Kronecker symbol."""
    d = FundamentalDiscriminant.of(d)
    require_prime(q)
    chi = kronecker(d.d, q)
    if chi == 1:
        return SplittingType(e=1, f=1, g=2)
    if chi == -1:
        return SplittingType(e=1, f=2, g=1)
    return SplittingType(e=2, f=1, g=1)


def splitting_cyclotomic(q: int, m: int) -> SplittingType:
    """Decomposition of q in Q(zeta_m): e = phi(q^k), f = ord(q mod m/q^k)."""
    if m < 3:
        raise InvalidArgumentError(f"need m >= 3, got {m}")
    require_prime(q)
    qk = 1
    m1 = m
    while m1 % q == 0:
        m1 //= q
        qk *= q
    e = euler_phi(qk)
    f = 1 if m1 <= 2 else mult_order(q, m1)
    return SplittingType(e=e, f=f, g=euler_phi(m) // (e * f))


def splitting_in_subfield(q: int, U: Subgroup) -> SplittingType:
    """Decomposition of unramified q in the subfield of Q(zeta_m) fixed by U <= (Z/m)^x."""
    m = require_unit_group(U.parent).modulus
    require_prime(q)
    if m % q == 0:
        raise RamifiedError(f"{q} divides {m}; ramified case unsupported here")
    f = coset_order(U, U.parent.id_of(q % m))
    return SplittingType(e=1, f=f, g=U.index // f)


def splits_completely_in_class_field(q: int, H: IdealGroupH) -> bool:
    """True iff the class of (q) lies in the ideal group H."""
    require_prime(q)
    m0 = H.modulus.m0
    if gcd(q, m0) != 1:
        raise NotCoprimeError(f"{q} is not coprime to {m0}")
    return H.parent.id_of(q % m0) in H


def spl_set(field: FieldDescriptor, bound: int) -> list[int]:
    """All primes <= bound that are unramified with e = f = 1 in the field."""
    if bound < 2:
        raise InvalidArgumentError(f"bound must be >= 2, got {bound}")
    out = []
    for q in primes_up_to(bound):
        if isinstance(field, Quadratic):
            if kronecker(field.d.d, q) == 1:
                out.append(q)
        elif isinstance(field, Cyclotomic):
            st = splitting_cyclotomic(q, field.m)
            if st.e == 1 and st.f == 1:
                out.append(q)
        else:
            m = require_unit_group(field.parent).modulus
            if m % q and splitting_in_subfield(q, field).f == 1:  # unramified, f = 1
                out.append(q)
    return out


def transfer_kernel_classfield(p: int) -> tuple[IdealGroupH, Quadratic]:
    """Kernel of the transfer (Z/p)^x -> {+-1}, checked equal to `squares_group(p)` (both subgroups
    of `unit_group(p)`, so ids match) and returned as it; class field Q(sqrt(p*))."""
    require_odd_prime(p)
    _, U = _transfer_setup(p)
    sq = squares_group(p)
    if kernel_of(transfer_homomorphism(U)).members != sq.members:
        raise InternalInconsistencyError(
            f"transfer kernel mod {p} differs from the square classes"
        )
    return sq, Quadratic(FundamentalDiscriminant(pstar(p)))


def gauss_lemma_is_transfer(p: int, a: int, system: HalfSystem) -> bool:
    """True when the transfer to {+-1}, with the half-system as coset reps, is Gauss's Lemma step by step.

    With U = {+-1} and rep r_j = a_j, the coset step a*a_j = a_k*u is the Gauss row
    a*a_j = s_j*a_{pi(j)}: step j must be (pi(j), s_j), and the value must be the symbol.
    """
    symbol, rows = gauss_lemma(a, p, system)
    G, U, transversal = _half_system_transversal(system)
    result = transfer(U, G.id_of(a % p), transversal)
    to_sign = {G.id_of(1): 1, G.id_of(p - 1): -1}
    return to_sign[result.value] == symbol and [(row.target, row.sign) for row in rows] == [
        (j, to_sign[u]) for j, u in result.contributions
    ]


@lru_cache(maxsize=64)
def _half_system_transversal(system: HalfSystem) -> tuple[UnitGroup, Subgroup, CosetDecomposition]:
    """(G, U, the half-system as a transversal of U) for the transfer (Z/p)^x -> U = {+-1}.

    Cosets of {+-1} are exactly the pairs {a_j, -a_j}, so a half-system is a transversal;
    it is built once for all of the system's rows.
    The entry keeps its own G and U, so it stays valid if `_transfer_setup` rebuilds them.
    """
    G, U = _transfer_setup(system.p)
    return G, U, decomposition_from_reps(U, tuple(G.id_of(aj) for aj in system.elements))


@dataclass(frozen=True)
class ReciprocityCheck:
    lhs: int  # (p*/q)
    rhs: int
    equal: bool


def _require_distinct_odd_primes(p: int, q: int) -> None:
    require_odd_prime(p)
    require_odd_prime(q)
    if p == q:
        raise InvalidArgumentError("primes must be distinct")


def qr_via_splitting(p: int, q: int) -> ReciprocityCheck:
    """Compare (p*/q) with the class-field splitting of q mod p*oo (square classes)."""
    _require_distinct_odd_primes(p, q)
    lhs = kronecker(pstar(p), q)
    rhs = 1 if splits_completely_in_class_field(q, squares_group(p)) else -1
    return ReciprocityCheck(lhs=lhs, rhs=rhs, equal=lhs == rhs)


@lru_cache(maxsize=64)
def _transfer_setup(p: int):
    """Memoized (G, U) for the transfer (Z/p)^x -> U = {+-1}; U keeps its cosets and U'.

    G stores no products, so each cached entry is O(p) whatever p a caller passes.
    """
    G = unit_group(p)
    return G, subgroup_generated(G, {G.id_of(p - 1)})


def transfer_sign(p: int, a: int) -> int:
    """Transfer of a's class under (Z/p)^x -> {+-1}, as +-1, with setup cached per p."""
    if gcd(a, p) != 1:
        raise NotCoprimeError(f"{a} is not coprime to {p}")
    G, U = _transfer_setup(p)
    result = transfer(U, G.id_of(a % p))
    return 1 if result.value == G.identity else -1


def qr_via_transfer(p: int, q: int) -> ReciprocityCheck:
    """Compare (p*/q) with the transfer of q's class under (Z/p)^x -> {+-1}."""
    _require_distinct_odd_primes(p, q)
    lhs = kronecker(pstar(p), q)
    rhs = transfer_sign(p, q)
    return ReciprocityCheck(lhs=lhs, rhs=rhs, equal=lhs == rhs)
