"""The verify suites' failure path: counts, failure order and thread and worker invariance.

A fault planted in the layer a suite checks must make it fail with the passing
run's check count and the expected first failures, in order.
"""

import json
import os
import random
import time
import weakref
from dataclasses import replace
from math import prod
from types import SimpleNamespace

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
        value, rows = traced(a, p, system)
        if p != 7:
            return value, rows
        return value, tuple(replace(row, sign=-row.sign) for row in rows)

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


def test_gauss_lemma_suite_matches_each_bridge_row_to_the_step_of_its_rep(monkeypatch):
    passing = gauss_lemma_suite()
    assert passing.passed
    transfer = splitting.transfer

    def reversed_steps(U, g, decomposition=None):
        result = transfer(U, g, decomposition)
        return replace(result, contributions=result.contributions[::-1])

    monkeypatch.setattr(splitting, "transfer", reversed_steps)
    failing = gauss_lemma_suite()
    assert failing.checks == passing.checks
    # The signs in reverse are the same multiset; only the row-by-row match catches the fault.
    # At p = 3 there is one coset, so its single step reversed is itself.
    assert failing.failures[0] == "bridge mismatch at p=5, a=1, A=(1, 2)"
    assert failing.summary() == (
        "[FAIL] gauss-lemma: 630 checks, first failure: bridge mismatch at p=5, a=1, A=(1, 2)"
    )


def test_qr_splitting_catches_non_squares_at_7(monkeypatch):
    passing = verify.qr_splitting_suite(max_prime=31)
    assert passing.passed
    squares = classfield.squares_group

    def non_squares_at_7(p):
        H = squares(p)
        if p != 7:
            return H
        return replace(H, members=tuple(i for i in H.parent.elements if i not in H))

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


def plant_skipped_last_coset(monkeypatch):
    """The product loop skips the last coset."""
    products = groups._transfer_products

    def skip_last_coset(G, decomposition, gs, record=None):
        return products(G, replace(decomposition, reps=decomposition.reps[:-1]), gs, record)

    monkeypatch.setattr(groups, "_transfer_products", skip_last_coset)


def plant_rep_dependent_value(monkeypatch):
    """u_j = r_c^-1 * g*r_i with r_c the canonical rep, not the caller's r_j.

    The homomorphism reads U.cosets, whose canonical reps stay right.
    """
    decompose = groups.decomposition_from_reps

    def canonical_inverse_reps(U, reps):
        return replace(decompose(U, reps), inverse_reps=U.cosets.inverse_reps)

    monkeypatch.setattr(groups, "decomposition_from_reps", canonical_inverse_reps)


# transfer-props counts one check per group that passes and one per failure
# otherwise, so a failing run's count differs from the passing run's.
def test_transfer_props_catches_a_skipped_last_coset(monkeypatch):
    passing = verify.transfer_props_suite(max_order=8)
    assert passing.passed and passing.checks == 48
    plant_skipped_last_coset(monkeypatch)
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
    plant_rep_dependent_value(monkeypatch)
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


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_transfer_props_gives_the_same_result_on_forked_workers():
    serial = verify.transfer_props_suite(max_order=64, threads=1)
    forked = verify.transfer_props_suite(max_order=64, threads=2)
    assert_no_child_left()
    assert serial.passed and forked == serial


@pytest.mark.parametrize("plant", [plant_skipped_last_coset, plant_rep_dependent_value])
def test_forked_workers_see_a_planted_fault(monkeypatch, plant):
    # The fault is patched into the parent after import; the children get it through the fork.
    plant(monkeypatch)
    serial = verify.transfer_props_suite(max_order=8, threads=1)
    forked = verify.transfer_props_suite(max_order=8, threads=2)
    assert_no_child_left()
    assert not serial.passed
    assert (forked.checks, forked.failures) == (serial.checks, serial.failures)


class PlantedError(ArithmeticError):
    pass


def test_forked_workers_raise_a_serial_runs_error(monkeypatch):
    tabulate = groups.transfer_homomorphism

    def fails_at_order_6(U):
        if U.parent.order == 6:
            raise PlantedError(f"planted at U={U.members}")
        return tabulate(U)

    monkeypatch.setattr(groups, "transfer_homomorphism", fails_at_order_6)
    with pytest.raises(PlantedError) as serial:
        verify.transfer_props_suite(max_order=8, threads=1)
    with pytest.raises(PlantedError) as forked:
        verify.transfer_props_suite(max_order=8, threads=2)
    assert_no_child_left()
    assert str(forked.value) == str(serial.value)


def square(x):
    return x * x


def test_fork_map_caps_its_workers(monkeypatch):
    # The fork is stubbed: each "child" gets a pid that cannot exist and is reported as
    # exited 1, so every forked map falls back to the serial loop and nothing is forked.
    forks = []

    def fork():
        forks.append(len(forks))
        return 2**22 + len(forks)  # above Linux's largest pid_max

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", lambda pid, options: (pid, 1 << 8))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    for workers, n, forked in [(1000, 10, 3), (1000, 2, 2), (2, 10, 2), (1, 10, 0), (0, 10, 0)]:
        forks.clear()
        assert verify._fork_map(square, range(n), workers) == [x * x for x in range(n)]
        assert len(forks) == forked, (workers, n)
    monkeypatch.delattr(os, "sched_getaffinity")
    forks.clear()
    assert verify._fork_map(square, range(5), 1000) == [x * x for x in range(5)]
    assert len(forks) == 5
    monkeypatch.delattr(os, "fork")
    assert verify._fork_map(square, range(5), 1000) == [x * x for x in range(5)]


def test_fork_map_runs_serially_when_it_cannot_fork(monkeypatch):
    def fork():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    assert verify._fork_map(square, range(5), 2) == [x * x for x in range(5)]


class Interrupted(Exception):
    pass


def test_fork_map_kills_and_waits_for_its_children_when_it_unwinds(monkeypatch):
    # Child 0 answers at once; child 1 would sleep for a minute.  Reading child 0's answer
    # raises, so the parent unwinds while child 1 runs, and must kill it and wait for it.
    def loads(data):
        raise Interrupted

    monkeypatch.setattr(verify, "json", SimpleNamespace(dumps=json.dumps, loads=loads))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    start = time.monotonic()
    with pytest.raises(Interrupted):
        verify._fork_map(time.sleep, [0, 60], 2)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def replayed_transversals(seed, max_order):
    """(U.members, reps) for each distinct transversal transfer-props draws, in order, by
    rng.choice, and the number of draws.

    Rebuilds the corpus and each group's stream as the suite does, skipping the subgroups
    without a cyclic quotient, which draw nothing.
    """
    builds = [build for order, build in verify._corpus(seed) if order <= max_order]
    out, draws = [], 0
    for i, build in enumerate(builds):
        G = build()
        rng = random.Random(seed + 7919 * i)
        for U in verify._all_subgroups(G):
            if not any(groups.coset_order(U, x) == U.index for x in G.elements):
                continue
            if G.order > 12:
                rng.sample(range(G.order), 6)
            seen = set()
            for _ in range(50):
                draws += 1
                reps = tuple(G.op(r, rng.choice(U.members)) for r in U.cosets.reps)
                if reps not in seen:
                    seen.add(reps)
                    out.append((U.members, reps))
    return out, draws


def test_transfer_props_evaluates_each_distinct_choice_transversal_once(monkeypatch):
    # The suite replays rng.choice through getrandbits and skips repeats; it must evaluate
    # exactly the distinct transversals that rng.choice itself draws, in the same order.
    decompose = groups.decomposition_from_reps
    seen = []

    def recorded(U, reps):
        seen.append((U.members, reps))
        return decompose(U, reps)

    monkeypatch.setattr(groups, "decomposition_from_reps", recorded)
    assert verify.transfer_props_suite(max_order=16).passed
    expected, draws = replayed_transversals(20260824, 16)
    assert draws > len(expected)  # some draws repeat, so the skip is exercised
    assert seen == expected


@pytest.mark.parametrize("seed", [0, 1, 20260824, 2**40 + 3])
def test_choice_replay_matches_random_choice(seed):
    # If a Python release changes how Random.choice draws, this fails instead of the
    # suite silently testing other transversals.
    for n in range(1, 41):
        replay, reference = random.Random(seed + n), random.Random(seed + n)
        for count in (1, 7):
            picks = verify._choice_indices(replay, n, count)
            assert picks == [reference.choice(range(n)) for _ in range(count)], (n, count)
            assert replay.getstate() == reference.getstate(), (n, count)


def eager_corpus(seed, max_order):
    """The corpus as transfer-props once built it: every table up front, then the order filter."""
    rng = random.Random(seed)
    corpus = [groups.group_from_unit_residues(m) for m in range(3, 121)]
    corpus += [groups.cyclic_group(n) for n in range(1, 65)]
    while len(corpus) < 118 + 64 + 50:
        orders = [rng.randint(2, 16) for _ in range(rng.randint(2, 3))]
        if prod(orders) > 256:
            continue
        G = groups.cyclic_group(orders[0])
        for n in orders[1:]:
            G = groups.direct_product(G, groups.cyclic_group(n))
        corpus.append(G)
    return [G for G in corpus if G.order <= max_order]


def test_corpus_orders_are_the_built_orders():
    corpus = verify._corpus(SEED)
    assert len(corpus) == 232
    assert all(order == build().order for order, build in corpus)


@pytest.mark.parametrize("max_order", [8, 16, 256])
def test_corpus_recipes_build_the_eager_tables(max_order):
    built = [build() for order, build in verify._corpus(SEED) if order <= max_order]
    eager = eager_corpus(SEED, max_order)
    assert [(G.table, G.identity, G.labels) for G in built] == [
        (G.table, G.identity, G.labels) for G in eager
    ]


@pytest.mark.parametrize("threads", [1, 3])
def test_transfer_props_holds_one_corpus_table_at_a_time(monkeypatch, tmp_path, threads):
    # Each sweep item builds its own group and drops it on return, so each process holds one
    # corpus table at a time.  At threads > 1 the groups are shared out over forked workers,
    # and each is built once, in a child.  A child's memory never reaches the parent, so each
    # build appends (pid, corpus index, tables alive in that process) to a file.
    corpus = verify._corpus
    builds = tmp_path / "builds"
    alive = weakref.WeakSet()

    def tracked(i, build):
        def built():
            G = build()
            alive.add(G)
            with open(builds, "a") as fh:
                fh.write(f"{os.getpid()} {i} {len(alive)}\n")
            return G

        return built

    monkeypatch.setattr(
        verify, "_corpus", lambda seed: [(o, tracked(i, b)) for i, (o, b) in enumerate(corpus(seed))]
    )
    assert verify.transfer_props_suite(max_order=16, threads=threads).passed
    assert_no_child_left()
    records = [tuple(map(int, line.split())) for line in builds.read_text().splitlines()]
    assert sorted(i for _, i, _ in records) == [i for i, (o, _) in enumerate(corpus(SEED)) if o <= 16]
    assert max(k for _, _, k in records) == 1
    pids = {pid for pid, _, _ in records}
    assert len(pids) == min(threads, len(os.sched_getaffinity(0)))
    assert (os.getpid() in pids) == (len(pids) == 1)  # forked workers leave the parent no group


def test_surjectivity_tail_frees_each_cyclic_table_before_the_next(monkeypatch):
    cyclic = groups.cyclic_group
    alive, counts = weakref.WeakSet(), []

    def tracked(n):
        G = cyclic(n)
        alive.add(G)
        counts.append((n, len(alive)))
        return G

    monkeypatch.setattr(groups, "cyclic_group", tracked)
    assert verify.transfer_props_suite(max_order=16).passed
    # The tail builds Z/1 .. Z/16; Klein's four group then builds Z/2 twice.
    tail = counts[-18:-2]
    assert [n for n, _ in tail] == list(range(1, 17))
    assert all(k == 1 for _, k in tail), tail


def test_transfer_props_checks_the_cyclic_quotient_subgroups(monkeypatch):
    # transfer-props counts one check per passing group, so its check count would not
    # notice a scan that skipped other subgroups; the tabulated ones are pinned instead,
    # against a scan over every element.
    tabulate = groups.transfer_homomorphism
    seen = []

    def recorded(U):
        seen.append((U.parent.order, U.members))
        return tabulate(U)

    monkeypatch.setattr(groups, "transfer_homomorphism", recorded)
    assert verify.transfer_props_suite(max_order=32).passed
    expected = []
    for order, build in verify._corpus(SEED):
        if order <= 32:
            G = build()
            expected += [
                (G.order, U.members)
                for U in verify._all_subgroups(G)
                if any(groups.coset_order(U, x) == U.index for x in G.elements)
            ]
    assert len(expected) == 704  # of 1,061 corpus subgroups at max_order 32
    assert seen[: len(expected)] == expected
    # Then the surjectivity tail (119 subgroups of Z/n, n <= 32) and Klein's three.
    assert len(seen) == 826
