"""Exhaustive desk-scale verification suites.

Each suite sweeps a bounded family of inputs, counts checks, and collects the
first few counterexamples (an empty failure list means the sweep passed).  The
suites are what the CLI's `verify` command runs and what the acceptance tests
assert on.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import gcd

from . import classfield, groups, splitting, symbols
from .arith import euler_phi, primes_up_to
from .classfield import (
    FundamentalDiscriminant,
    fundamental_discriminants,
)
from .errors import InvalidHomomorphismError, NotInTakagiGroupError
from .groups import FiniteGroup, Subgroup

_MAX_REPORTED_FAILURES = 10


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok and len(self.failures) < _MAX_REPORTED_FAILURES:
            self.failures.append(message)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"[{status}] {self.name}: {self.checks} checks"
        if self.failures:
            line += f", first failure: {self.failures[0]}"
        return line


def _sweep(result: SuiteResult, run, items, threads: int) -> SuiteResult:
    """Fold each item's `run(item) -> (checks, failures)` into `result`, in item order.

    `run` is mapped over the items on a thread pool when threads > 1; the
    outcome does not depend on the thread count.
    """
    if threads <= 1:
        outcomes = map(run, items)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run, items))
    for checks, failures in outcomes:
        for msg in failures:
            result.check(False, msg)
        result.checks += checks - len(failures)
    return result


def _odd_primes(bound: int) -> list[int]:
    return [p for p in primes_up_to(bound) if p % 2 == 1]


def qr_splitting_suite(max_prime: int = 541, threads: int = 1) -> SuiteResult:
    """Reciprocity by comparing decomposition laws, all ordered pairs of odd primes."""
    result = SuiteResult("qr-splitting", params={"max_prime": max_prime})
    ps = _odd_primes(max_prime)

    def run(p: int) -> tuple[int, list[str]]:
        bad = []
        sq = classfield.squares_group(p)
        for q in ps:
            if q == p:
                continue
            lhs = symbols.kronecker(symbols.pstar(p), q)
            rhs = 1 if splitting.splits_completely_in_class_field(q, sq) else -1
            if lhs != rhs:
                bad.append(f"(p={p}, q={q}): (p*/q)={lhs} but splitting gives {rhs}")
        return len(ps) - 1, bad

    return _sweep(result, run, ps, threads)


def qr_transfer_suite(
    max_p: int = 101, max_q: int = 541, spl_bound: int = 2000, threads: int = 1
) -> SuiteResult:
    """Reciprocity via the literal coset-formula transfer, plus the Spl-set agreement."""
    result = SuiteResult(
        "qr-transfer", params={"max_p": max_p, "max_q": max_q, "spl_bound": spl_bound}
    )
    ps = _odd_primes(max_p)
    qs = _odd_primes(max_q)

    def run(p: int) -> tuple[int, list[str]]:
        bad = []
        for q in qs:
            if q == p:
                continue
            chk = splitting.qr_via_transfer(p, q)
            if not chk.equal:
                bad.append(f"(p={p}, q={q}): (p*/q)={chk.lhs} but transfer gives {chk.rhs}")
        return len(qs) - (p in qs), bad

    _sweep(result, run, ps, threads)
    return spl_sweep(result, min(61, max_p), spl_bound)


def spl_sweep(result: SuiteResult, max_p: int, spl_bound: int) -> SuiteResult:
    """Check into `result`, for odd p <= max_p and q <= spl_bound, that q splits in
    Q(sqrt(p*)) iff the transfer of q mod p is +1 iff q is a square mod p."""
    for p in _odd_primes(max_p):
        H, fld = splitting.transfer_kernel_classfield(p)
        in_spl = set(splitting.spl_set(fld, spl_bound))
        for q in primes_up_to(spl_bound):
            if q == p:
                continue
            by_kronecker = q in in_spl
            by_transfer = splitting.transfer_sign(p, q) == 1
            by_legendre = symbols.legendre_brute(q, p) == 1
            result.check(
                by_kronecker == by_transfer == by_legendre,
                f"Spl disagreement at p={p}, q={q}: "
                f"kronecker={by_kronecker}, transfer={by_transfer}, legendre={by_legendre}",
            )
    return result


def gauss_lemma_suite(
    max_prime: int = 211, n_systems: int = 20, seed: int = 20260824, threads: int = 1
) -> SuiteResult:
    """Three-route symbol agreement and half-system independence."""
    result = SuiteResult(
        "gauss-lemma", params={"max_prime": max_prime, "n_systems": n_systems}
    )
    ps = _odd_primes(max_prime)

    def run(p: int) -> tuple[int, list[str]]:
        bad = []
        rng = random.Random(seed + p)
        default = symbols.default_half_system(p)
        systems = [symbols.random_half_system(p, rng) for _ in range(n_systems)]
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            brute = 1 if a in squares else -1
            euler = symbols.legendre_euler(a, p)
            gauss = symbols.gauss_lemma_sign(a, p, default)
            if not brute == euler == gauss:
                bad.append(f"(a={a}, p={p}): brute={brute}, euler={euler}, gauss={gauss}")
            for system in systems:
                value = symbols.gauss_lemma_sign(a, p, system)
                if value != gauss:
                    bad.append(f"(a={a}, p={p}): half-system {system.elements} gives {value}")
        return (p - 1) * (1 + n_systems), bad

    _sweep(result, run, ps, threads)

    # Transfer/Gauss-Lemma bridge at a lighter bound.
    rng = random.Random(seed)
    for p in _odd_primes(min(61, max_prime)):
        systems = [symbols.default_half_system(p)] + [
            symbols.random_half_system(p, rng) for _ in range(3)
        ]
        for a in range(1, p):
            for system in systems:
                report = splitting.gauss_lemma_is_transfer(p, a, system)
                result.check(
                    report.ok,
                    f"bridge mismatch at p={p}, a={a}, A={system.elements}",
                )
    return result


def _random_abelian_products(count: int, rng: random.Random) -> list[FiniteGroup]:
    out = []
    while len(out) < count:
        n_factors = rng.randint(2, 3)
        orders = [rng.randint(2, 16) for _ in range(n_factors)]
        total = 1
        for n in orders:
            total *= n
        if total > 256:
            continue
        G = groups.cyclic_group(orders[0])
        for n in orders[1:]:
            G = groups.direct_product(G, groups.cyclic_group(n))
        out.append(G)
    return out


def _all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Full subgroup lattice of an abelian G by closing the cyclic subgroups under joins.

    Each cyclic subgroup is the powers of one element.  In an abelian group the
    join of B and C is the product set B*C, the union of the cosets B*c for c
    in C, so each coset is added once, when its first c turns up.
    """
    t, e = G.table, G.identity
    cyclic = set()
    for g in G.elements:
        powers, x = [e], g
        while x != e:
            powers.append(x)
            x = t[x][g]
        cyclic.add(frozenset(powers))
    subs = set(cyclic)
    frontier = list(subs)
    while frontier:
        base = frontier.pop()
        for c in cyclic:
            if c <= base:
                continue
            joined = set(base)
            for b in c:
                if b not in joined:
                    joined.update([t[a][b] for a in base])
            joined = frozenset(joined)
            if joined not in subs:
                subs.add(joined)
                frontier.append(joined)
    lattice = sorted((tuple(sorted(m)) for m in subs), key=lambda m: (len(m), m))
    return [Subgroup(parent=G, members=m) for m in lattice]


def transfer_props_suite(seed: int = 20260824, threads: int = 1, max_order: int = 256) -> SuiteResult:
    """Lemma-level transfer properties over a generated abelian corpus.

    Covers: V(x) = x^f for cyclic quotients of order f, independence of the
    coset representatives, the homomorphism property, surjectivity for cyclic
    groups, and triviality on Klein's four group.  Every group of the corpus
    and of the surjectivity sweep has order <= max_order; the corpus is drawn
    the same at any max_order, so a smaller bound keeps a subset of its groups.
    """
    result = SuiteResult("transfer-props", params={"seed": seed})
    rng = random.Random(seed)

    corpus: list[FiniteGroup] = []
    corpus += [groups.group_from_unit_residues(m) for m in range(3, 121)]
    corpus += [groups.cyclic_group(n) for n in range(1, 65)]
    corpus += _random_abelian_products(50, rng)
    corpus = [G for G in corpus if G.order <= max_order]

    def run(indexed: tuple[int, FiniteGroup]) -> tuple[int, list[str]]:
        i, G = indexed
        rng = random.Random(seed + 7919 * i)  # per-group stream, stable under threading
        bad = []
        for U in _all_subgroups(G):
            f = U.index
            if not any(groups.coset_order(U, x) == f for x in G.elements):
                continue  # the power law below needs a cyclic quotient
            hom = groups.transfer_homomorphism(U)
            # Cyclic-quotient power law.
            for x in G.elements:
                if hom.values[x] != G.power(x, f):
                    bad.append(f"|G|={G.order}, U={U.members}: V({x}) != {x}^{f}")
                    break
            # Rep independence over random transversals.
            sample = (
                tuple(G.elements)
                if G.order <= 12
                else tuple(sorted(rng.sample(range(G.order), 6)))
            )
            expected = tuple(hom.values[g] for g in sample)
            rep_rows, members, choice = [G.table[r] for r in U.cosets.reps], U.members, rng.choice
            for _ in range(50):
                # choice(members) draws what members[randrange(len(members))] would.
                reps = tuple([row[choice(members)] for row in rep_rows])
                dec = groups.decomposition_from_reps(U, reps)
                values = groups.transfer_values(U, sample, dec)
                if values != expected:
                    g = next(g for g, v, w in zip(sample, values, expected) if v != w)
                    bad.append(f"|G|={G.order}, U={U.members}: transfer({g}) depends on reps")
                    break  # one failure per subgroup; later draws would repeat it
            # Homomorphism property, on generators, for modest orders.
            if G.order <= 100:
                try:
                    groups.kernel_of(hom)
                except InvalidHomomorphismError:
                    bad.append(f"|G|={G.order}, U={U.members}: V not a homomorphism")
        return max(1, len(bad)), bad

    _sweep(result, run, enumerate(corpus), threads)

    # Surjectivity on all subgroups of all cyclic groups up to max_order.
    for n in range(1, max_order + 1):
        G = groups.cyclic_group(n)
        for d in sorted({k for k in range(1, n + 1) if n % k == 0}):
            U = groups.subgroup_generated(G, {d % n})
            hom = groups.transfer_homomorphism(U)
            result.check(
                set(hom.values) == U.member_set,
                f"transfer Z/{n} -> subgroup of order {U.order} not surjective",
            )

    # Klein four: transfer to every order-2 subgroup is trivial.
    V4 = groups.klein_four_group()
    for g in V4.elements:
        if g == V4.identity:
            continue
        U = groups.subgroup_generated(V4, {g})
        hom = groups.transfer_homomorphism(U)
        result.check(
            all(v == V4.identity for v in hom.values),
            f"Klein four transfer to {U.members} is not trivial",
        )
    return result


def euler_formulation_suite(max_disc: int = 101, prime_bound: int = 5000, threads: int = 1) -> SuiteResult:
    """Kronecker symbol constant on ray classes mod (|d|, oo iff d<0): Euler's formulation."""
    result = SuiteResult(
        "euler-formulation", params={"max_disc": max_disc, "prime_bound": prime_bound}
    )

    def run(d: FundamentalDiscriminant) -> tuple[int, list[str]]:
        report = classfield.artin_class_constancy_check(d, prime_bound)
        if not report.constant_on_classes:
            return 1, [f"d={d.d}: symbol not constant, counterexample {report.counterexample}"]
        return 1, []

    return _sweep(result, run, fundamental_discriminants(max_disc), threads)


def takagi_suite(
    max_disc: int = 101, witness_max_disc: int = 60, witness_max_a: int = 300,
    prime_bound: int = 10**4, threads: int = 1,
) -> SuiteResult:
    """Index-2 norm groups, the refined first inequality, and factorization witnesses."""
    result = SuiteResult(
        "takagi",
        params={
            "max_disc": max_disc,
            "witness_max_disc": witness_max_disc,
            "witness_max_a": witness_max_a,
            "prime_bound": prime_bound,
        },
    )
    for d in fundamental_discriminants(max_disc):
        H = classfield.takagi_group_quadratic(d)
        idx = classfield.index(H)
        result.check(idx == 2, f"d={d.d}: norm group index {idx} != 2")
        chk = classfield.first_inequality_check(H, 2)
        result.check(chk.holds and chk.divides, f"d={d.d}: first inequality fails")

    def run(d: FundamentalDiscriminant) -> tuple[int, list[str]]:
        bad = []
        for a in range(1, witness_max_a + 1):
            if gcd(a, d.d) != 1 or symbols.kronecker(d.d, a) != 1:
                continue
            try:
                witness = classfield.takagi_witness(a, d, prime_bound)
            except NotInTakagiGroupError:
                bad.append(f"a={a}, d={d.d}: rejected despite symbol +1")
                continue
            except Exception as exc:  # noqa: BLE001 - report, do not abort the sweep
                bad.append(f"a={a}, d={d.d}: {exc}")
                continue
            # takagi_witness re-verifies internally; double-check the congruence here.
            num, den = classfield.witness_fraction(a, witness)
            if num % abs(d.d) != den % abs(d.d):
                bad.append(f"a={a}, d={d.d}: witness {witness} does not verify")
        return max(1, len(bad)), bad

    return _sweep(result, run, fundamental_discriminants(witness_max_disc), threads)


def indices_suite(max_m: int = 100, prime_bound: int = 500, threads: int = 1) -> SuiteResult:
    """Cyclotomic bookkeeping: e*f*g = phi(m) including ramified primes, and index phi(m)."""
    result = SuiteResult("indices", params={"max_m": max_m, "prime_bound": prime_bound})
    ps = primes_up_to(prime_bound)

    def run(m: int) -> tuple[int, list[str]]:
        bad = []
        phi = euler_phi(m)
        for q in ps:
            st = splitting.splitting_cyclotomic(q, m)
            if st.degree != phi:
                bad.append(f"(q={q}, m={m}): e*f*g = {st.degree} != phi(m) = {phi}")
        return len(ps), bad

    _sweep(result, run, range(3, max_m + 1), threads)

    for m in range(3, min(max_m, 60) + 1):
        H = classfield.takagi_group_cyclotomic(m)
        idx = classfield.index(H)
        phi = euler_phi(m)
        result.check(idx == phi, f"m={m}: cyclotomic norm group index {idx} != phi(m) = {phi}")
        chk = classfield.first_inequality_check(H, phi)
        result.check(chk.holds and chk.divides, f"m={m}: first inequality fails")
    return result


def conductor_suite(max_disc: int = 100, threads: int = 1) -> SuiteResult:
    """conductor(d) = (|d|, oo iff d < 0) by exhaustive divisor-modulus search."""
    result = SuiteResult("conductor", params={"max_disc": max_disc})

    def run(d: FundamentalDiscriminant) -> tuple[int, list[str]]:
        m = classfield.conductor_quadratic(d)
        if m != d.modulus:
            return 1, [f"d={d.d}: conductor {m} != expected {d.modulus}"]
        return 1, []

    return _sweep(result, run, fundamental_discriminants(max_disc), threads)


SUITES = {
    "qr-splitting": qr_splitting_suite,
    "qr-transfer": qr_transfer_suite,
    "gauss-lemma": gauss_lemma_suite,
    "transfer-props": transfer_props_suite,
    "euler-formulation": euler_formulation_suite,
    "takagi": takagi_suite,
    "indices": indices_suite,
    "conductor": conductor_suite,
}


def run_suite(name: str, max_prime: int | None = None, threads: int = 1) -> list[SuiteResult]:
    """Run one named suite (or 'all'); max_prime scales the prime sweeps down or up."""
    names = list(SUITES) if name == "all" else [name]
    results = []
    for n in names:
        fn = SUITES[n]
        kwargs: dict = {"threads": threads}
        if max_prime is not None:
            if n == "qr-splitting":
                kwargs["max_prime"] = max_prime
            elif n == "qr-transfer":
                kwargs["max_p"] = min(101, max_prime)
                kwargs["max_q"] = max_prime
            elif n == "gauss-lemma":
                kwargs["max_prime"] = min(211, max_prime)
            elif n in ("euler-formulation", "takagi", "conductor"):
                kwargs["max_disc"] = min(101, max_prime)
            elif n == "indices":
                kwargs["prime_bound"] = max_prime
        results.append(fn(**kwargs))
    return results
