"""The verify suites' failure path: counts, failure order and thread invariance.

A fault planted in the layer a suite checks must make it fail with the passing
run's check count and the expected first failures, in order.
"""

import random
from dataclasses import replace

import pytest

from rayclass import classfield, groups, splitting, symbols, verify
from rayclass.arith import primes_up_to


@pytest.mark.parametrize("threads", [1, 3])
def test_qr_transfer_reports_failures_in_order(monkeypatch, threads):
    def suite():
        return verify.qr_transfer_suite(max_p=13, max_q=60, spl_bound=200, threads=threads)

    passing = suite()
    assert passing.passed
    sign = splitting.transfer_sign
    monkeypatch.setattr(splitting, "transfer_sign", lambda p, a: -sign(p, a) if p == 7 else sign(p, a))
    failing = suite()
    assert failing.checks == passing.checks
    qs = [q for q in primes_up_to(60) if q not in (2, 7)][:10]
    lhs = {q: symbols.kronecker(symbols.pstar(7), q) for q in qs}
    assert failing.failures == [
        f"(p=7, q={q}): (p*/q)={lhs[q]} but transfer gives {-lhs[q]}" for q in qs
    ]


@pytest.mark.parametrize("wrong", [(12,), (-4, 13)])
def test_conductor_suite_lists_the_wrong_discriminants(monkeypatch, wrong):
    passing = verify.conductor_suite(max_disc=20)
    assert passing.passed
    conductor = classfield.conductor_quadratic

    def wrong_at(d):
        return classfield.Modulus(1) if d.d in wrong else conductor(d)

    monkeypatch.setattr(classfield, "conductor_quadratic", wrong_at)
    for threads in (1, 2):
        failing = verify.conductor_suite(max_disc=20, threads=threads)
        assert failing.checks == passing.checks
        assert failing.failures == [
            f"d={d}: conductor (1) != expected {classfield.FundamentalDiscriminant(d).modulus}"
            for d in wrong
        ]


# gauss_lemma_suite's default seed: its half-systems, and so its failure messages, follow from it.
SEED = 20260824


def gauss_lemma_suite():
    return verify.gauss_lemma_suite(max_prime=23, n_systems=2, seed=SEED)


def test_gauss_lemma_suite_catches_a_wrong_euler_value(monkeypatch):
    passing = gauss_lemma_suite()
    assert passing.passed
    euler = symbols.legendre_euler
    monkeypatch.setattr(
        symbols, "legendre_euler", lambda a, p: -euler(a, p) if (a, p) == (2, 7) else euler(a, p)
    )
    failing = gauss_lemma_suite()
    assert failing.checks == passing.checks
    assert failing.failures == ["(a=2, p=7): brute=1, euler=-1, gauss=1"]


def test_gauss_lemma_suite_catches_a_half_system_dependence(monkeypatch):
    passing = gauss_lemma_suite()
    assert passing.passed
    sign = symbols.gauss_lemma_sign
    default = symbols.default_half_system(11)

    def flipped(a, p, system):
        value = sign(a, p, system)
        return -value if p == 11 and system != default else value

    monkeypatch.setattr(symbols, "gauss_lemma_sign", flipped)
    failing = gauss_lemma_suite()
    assert failing.checks == passing.checks
    rng = random.Random(SEED + 11)
    systems = [symbols.random_half_system(11, rng) for _ in range(2)]
    assert all(system != default for system in systems)
    assert failing.failures == [
        f"(a={a}, p=11): half-system {system.elements} gives {-symbols.legendre_brute(a, 11)}"
        for a in range(1, 11)
        for system in systems
    ][:10]


def test_gauss_lemma_suite_catches_a_bridge_sign_mismatch(monkeypatch):
    passing = gauss_lemma_suite()
    assert passing.passed
    traced = splitting.gauss_lemma

    def flipped(a, p, system):
        value, trace = traced(a, p, system)
        if p != 7:
            return value, trace
        rows = tuple(replace(row, sign=-row.sign) for row in trace.rows)
        return value, replace(trace, rows=rows)

    monkeypatch.setattr(splitting, "gauss_lemma", flipped)
    failing = gauss_lemma_suite()
    assert failing.checks == passing.checks
    # The bridge walks p = 3, 5, 7 with one seeded stream, default system first.
    rng = random.Random(SEED)
    for p in (3, 5, 7):
        systems = [symbols.default_half_system(p)] + [
            symbols.random_half_system(p, rng) for _ in range(3)
        ]
    assert failing.failures == [
        f"bridge mismatch at p=7, a={a}, A={system.elements}"
        for a in range(1, 7)
        for system in systems
    ][:10]


def test_qr_splitting_catches_non_squares_at_7(monkeypatch):
    passing = verify.qr_splitting_suite(max_prime=31)
    assert passing.passed
    squares = classfield.squares_group

    def non_squares_at_7(p):
        H = squares(p)
        if p != 7:
            return H
        return replace(H, labels=frozenset(H.parent.labels) - H.labels)

    monkeypatch.setattr(classfield, "squares_group", non_squares_at_7)
    failing = verify.qr_splitting_suite(max_prime=31)
    assert failing.checks == passing.checks
    qs = [q for q in primes_up_to(31) if q not in (2, 7)]
    lhs = {q: symbols.kronecker(-7, q) for q in qs}
    assert failing.failures[0] == "(p=7, q=3): (p*/q)=-1 but splitting gives 1"
    assert failing.failures == [
        f"(p=7, q={q}): (p*/q)={lhs[q]} but splitting gives {-lhs[q]}" for q in qs
    ]


def test_euler_formulation_catches_a_wrong_symbol(monkeypatch):
    passing = verify.euler_formulation_suite(max_disc=20, prime_bound=200)
    assert passing.passed
    kronecker = classfield.kronecker
    monkeypatch.setattr(
        classfield, "kronecker", lambda a, n: -kronecker(a, n) if (a, n) == (5, 31) else kronecker(a, n)
    )
    failing = verify.euler_formulation_suite(max_disc=20, prime_bound=200)
    assert failing.checks == passing.checks
    assert failing.failures == ["d=5: symbol not constant, counterexample (31, -1)"]


def test_takagi_catches_a_wrong_witness_fraction(monkeypatch):
    def suite():
        return verify.takagi_suite(max_disc=20, witness_max_disc=12, witness_max_a=40)

    passing = suite()
    assert passing.passed and passing.checks == 34
    fraction = classfield.witness_fraction

    def doubled_at_11(a, witness):
        num, den = fraction(a, witness)
        return (2 * num, den) if a == 11 else (num, den)

    monkeypatch.setattr(classfield, "witness_fraction", doubled_at_11)
    failing = suite()
    assert failing.checks == passing.checks
    assert failing.failures == [
        f"a=11, d={d}: witness for a=11, d={d} fails s = 1 mod {abs(d)}" for d in (5, -7, -8, 12)
    ]


def test_indices_catches_a_wrong_ramification_index(monkeypatch):
    passing = verify.indices_suite(max_m=12, prime_bound=40)
    assert passing.passed
    cyclotomic = splitting.splitting_cyclotomic

    def e_off_by_one(q, m):
        st = cyclotomic(q, m)
        return replace(st, e=st.e + 1) if (q, m) == (3, 9) else st

    monkeypatch.setattr(splitting, "splitting_cyclotomic", e_off_by_one)
    failing = verify.indices_suite(max_m=12, prime_bound=40)
    assert failing.checks == passing.checks
    assert failing.failures == ["(q=3, m=9): e*f*g = 7 != phi(m) = 6"]


# transfer-props counts one check per group that passes and one per failure
# otherwise, so a failing run's count differs from the passing run's.
def test_transfer_props_catches_a_skipped_last_coset(monkeypatch):
    passing = verify.transfer_props_suite(max_order=8)
    assert passing.passed and passing.checks == 48
    products = groups._transfer_products

    def skip_last_coset(G, decomposition, gs, record=None):
        return products(G, replace(decomposition, reps=decomposition.reps[:-1]), gs, record)

    monkeypatch.setattr(groups, "_transfer_products", skip_last_coset)
    failing = verify.transfer_props_suite(max_order=8)
    # (Z/3)^x and (Z/4)^x come first, then (Z/5)^x; U = G has the one coset that is skipped.
    assert failing.failures[:3] == [
        "|G|=2, U=(0, 1): V(1) != 1^1",
        "|G|=2, U=(0, 1): V(1) != 1^1",
        "|G|=4, U=(0, 3): V(1) != 1^2",
    ]


def test_transfer_props_catches_a_rep_dependent_value(monkeypatch):
    passing = verify.transfer_props_suite(max_order=8)
    assert passing.passed
    values = groups.transfer_values

    def canonical_inverse_reps(U, gs, decomposition=None):
        # u_j = r_c^-1 * g*r_i with r_c the canonical rep, not the caller's r_j.  The
        # homomorphism's own call passes no decomposition, and its canonical reps stay right.
        if decomposition is not None:
            decomposition = replace(decomposition, inverse_reps=U.cosets.inverse_reps)
        return values(U, gs, decomposition)

    monkeypatch.setattr(groups, "transfer_values", canonical_inverse_reps)
    failing = verify.transfer_props_suite(max_order=8)
    # For U = G = (Z/3)^x the one rep is a random member of U, so the identity's value moves.
    # Each rep-dependent subgroup fails once: (Z/3)^x, (Z/4)^x, (Z/5)^x, (Z/6)^x, (Z/7)^x, (Z/8)^x.
    assert failing.failures == [
        "|G|=2, U=(0, 1): transfer(0) depends on reps",
        "|G|=2, U=(0, 1): transfer(0) depends on reps",
        "|G|=4, U=(0, 3): transfer(0) depends on reps",
        "|G|=4, U=(0, 1, 2, 3): transfer(0) depends on reps",
        "|G|=2, U=(0, 1): transfer(0) depends on reps",
        "|G|=6, U=(0, 5): transfer(0) depends on reps",
        "|G|=6, U=(0, 1, 3): transfer(0) depends on reps",
        "|G|=6, U=(0, 1, 2, 3, 4, 5): transfer(0) depends on reps",
        "|G|=4, U=(0, 1): transfer(0) depends on reps",
        "|G|=4, U=(0, 2): transfer(0) depends on reps",
    ]
    assert failing.checks == 98  # one per failing subgroup, not one per draw
