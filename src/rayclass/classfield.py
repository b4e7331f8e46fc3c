"""Ray class groups of Q, ideal groups, the Artin map on ray classes, conductors, witnesses.

A modulus is a positive integer m0 plus an optional infinite place.  An ideal
coprime to m0 is (a) for a unique a > 0, so an ideal group H is a subgroup of
(Z/m0)^x = Gal(Q(zeta_m0)/Q): the residues whose ideals lie in H.  Its m0 is
its parent's modulus.  Without the infinite place (a) = (-a), so H holds -1;
either way its index in (Z/m0)^x is (D_m : H).  The smallest ideal group is
the ray P_m^(1), {1} or {+-1}, and the ray classes are its cosets, each named
by its least residue.  The conductor of any subgroup of (Z/m0)^x is the least
modulus whose ray lies in it.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd

from .arith import divisors, factorize, primes_up_to, require_odd_prime
from .errors import (
    InvalidArgumentError,
    InvalidDiscriminantError,
    NotCoprimeError,
    NotInTakagiGroupError,
    WitnessNotFoundError,
)
from .groups import Subgroup, require_unit_group, unit_group
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

    @classmethod
    def of(cls, d: FundamentalDiscriminant | int) -> FundamentalDiscriminant:
        """d itself, or the discriminant an int names (InvalidDiscriminantError if none)."""
        return cls(d) if isinstance(d, int) else d

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


@dataclass(frozen=True)
class IdealGroupH(Subgroup):
    """An ideal group P_m^(1) <= H <= D_m, as the subgroup of unit_group(m0) of residues in H."""

    infinite: bool = field(kw_only=True)

    @cached_property
    def modulus(self) -> Modulus:
        """m0 is the parent's modulus; InvalidArgumentError unless the parent is some (Z/m0)^x."""
        return Modulus(require_unit_group(self.parent).modulus, self.infinite)

    def validate(self) -> None:
        """InvalidArgumentError unless H is a subgroup of (Z/m0)^x that holds -1 when m has no oo."""
        m = self.modulus
        super().validate()
        if not m.infinite and self.parent.id_of(m.m0 - 1) not in self:
            raise InvalidArgumentError(f"ideal group mod {m} does not hold -1")


def ray_class_group(m: Modulus) -> IdealGroupH:
    """The ray P_m^(1) in (Z/m0)^x: {1}, or {+-1} without oo; its cosets are the ray classes."""
    return _ideal_group(m, {1, 1 if m.infinite else m.m0 - 1}.__contains__)


def ideal_class(P: IdealGroupH, num: int, den: int = 1) -> int:
    """Least residue of the ray class of the fractional ideal (num/den), P = ray_class_group(m).

    That residue labels the coset's canonical rep, its least id, as ids ascend with the
    residues.  Signs are irrelevant to ideals.
    """
    if num == 0 or den <= 0:
        raise InvalidArgumentError("need a nonzero numerator and positive denominator")
    m0 = P.modulus.m0
    if gcd(abs(num) * den, m0) != 1:
        raise NotCoprimeError(f"{num}/{den} is not coprime to {m0}")
    G, cosets = P.parent, P.cosets
    x = G.id_of(abs(num) * pow(den, -1, m0) % m0)
    return G.label_of(cosets.reps[cosets.canonical[x]])


def _ideal_group(m: Modulus, in_H: Callable[[int], bool]) -> IdealGroupH:
    """The validated ideal group mod m of the residues r coprime to m0 with in_H(r)."""
    G = unit_group(m.m0)
    members = tuple(i for i, r in enumerate(G.labels) if in_H(r))
    H = IdealGroupH(parent=G, members=members, infinite=m.infinite)
    H.validate()
    return H


def takagi_group_quadratic(d: FundamentalDiscriminant | int) -> IdealGroupH:
    """Norm group of Q(sqrt(d)): the classes (a) with Kronecker symbol (d/a) = +1."""
    d = FundamentalDiscriminant.of(d)
    return _ideal_group(d.modulus, lambda r: kronecker(d.d, r) == 1)


def takagi_group_cyclotomic(m: int) -> IdealGroupH:
    """Norm group of Q(zeta_m) mod m*oo: the principal ray alone."""
    if m < 3:
        raise InvalidArgumentError(f"cyclotomic construction needs m >= 3, got {m}")
    return ray_class_group(Modulus(m, infinite=True))


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

    class_values: tuple[tuple[int, int], ...]  # (class label, symbol value), sorted; seen before any clash
    counterexample: tuple[int, int] | None      # (prime, clashing value) if any

    @property
    def constant_on_classes(self) -> bool:
        return self.counterexample is None


def artin_class_constancy_check(d: FundamentalDiscriminant | int, bound: int) -> ConstancyReport:
    """Partition primes <= bound by ray class mod (|d|, oo iff d<0); check (d/.) constant per class.

    The scan stops at the first prime whose value clashes with its class, so later primes are not seen.
    """
    d = FundamentalDiscriminant.of(d)
    P = ray_class_group(d.modulus)
    dd = abs(d.d)
    label = {r: ideal_class(P, r) for r in P.parent.labels}
    values: dict[int, int] = {}
    counterexample = None
    for p in primes_up_to(bound):
        if dd % p == 0:
            continue
        chi = kronecker(d.d, p)
        if values.setdefault(label[p % dd], chi) != chi:
            counterexample = (p, chi)
            break
    return ConstancyReport(class_values=tuple(sorted(values.items())), counterexample=counterexample)


def conductor(H: Subgroup) -> Modulus:
    """The least modulus whose ray lies in H <= (Z/m0)^x: its finite part f divides m0.

    Divisors f ascend, and for each f the ray of (f), every x = +-1 mod f, is tried
    before that of f*oo, every x = 1 mod f.  The ray of m0*oo is {1}, so one is found.
    """
    G = require_unit_group(H.parent)
    return next(
        Modulus(f, infinite)
        for f in divisors(G.modulus)
        for infinite, ray in ((False, {1 % f, -1 % f}), (True, {1 % f}))
        if all(i in H for i, r in enumerate(G.labels) if r % f in ray)
    )


def conductor_quadratic(d: FundamentalDiscriminant | int) -> Modulus:
    """Conductor of Q(sqrt(d)), the conductor of its norm group."""
    return conductor(takagi_group_quadratic(d))


def takagi_witness(
    a: int, d: FundamentalDiscriminant | int, prime_bound: int = 10**4
) -> tuple[tuple[int, int], ...]:
    """Factor the class of a as (split primes) * (something = 1 mod |d| and > 0).

    Returns (prime, exponent) pairs with (d/p) = +1 such that
    s = a * prod p**(-e) is a positive rational with numerator = denominator
    mod |d|.  The decomposition is re-verified before returning.
    """
    d = FundamentalDiscriminant.of(d)
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
