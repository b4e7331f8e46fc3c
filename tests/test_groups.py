import gc
import random
import re
import weakref
from dataclasses import replace
from itertools import combinations, permutations, product
from math import log2

import pytest

from rayclass import groups, verify
from rayclass.errors import InvalidArgumentError, InvalidHomomorphismError, TooLargeError
from rayclass.groups import (
    FiniteGroup,
    Subgroup,
    coset_decomposition,
    coset_order,
    cyclic_group,
    decomposition_from_reps,
    derived_subgroup,
    direct_product,
    group_from_unit_residues,
    kernel_of,
    klein_four_group,
    require_subgroup,
    subgroup_generated,
    transfer,
    transfer_homomorphism,
    transfer_values,
    TabulatedHom,
    unit_group,
)


def element_order(G, a):
    """Least k >= 1 with a^k the identity; InvalidArgumentError if no k <= |G| works."""
    x = a
    for k in range(1, G.order + 1):
        if x == G.identity:
            return k
        x = G.table[x][a]
    raise InvalidArgumentError(f"element {a} has no power equal to the identity")


def is_cyclic(G):
    return any(element_order(G, a) == G.order for a in G.elements)


def is_associative(G):
    """Exhaustive associativity check, cubic in the order."""
    t = G.table
    return all(t[t[a][b]][c] == t[a][t[b][c]] for a in G.elements for b in G.elements for c in G.elements)


def symmetric_group_3():
    """S3 as a table group over the 6 permutations of (0,1,2)."""
    elems = sorted(permutations(range(3)))
    index = {e: i for i, e in enumerate(elems)}
    table = tuple(
        tuple(index[tuple(a[b[k]] for k in range(3))] for b in elems) for a in elems
    )
    return FiniteGroup(table=table, identity=index[(0, 1, 2)])


def symmetric_group_4():
    """S4 with ids 0, 1, 2 for the identity, (0 1) and (0 1 2 3): one walk takes those two as generators.

    Their one commutator generates a subgroup of order 3 that is not normal, so S4' = A4 needs
    the conjugation step of the normal closure.
    """
    first = [(0, 1, 2, 3), (1, 0, 2, 3), (1, 2, 3, 0)]
    elems = first + [e for e in sorted(permutations(range(4))) if e not in first]
    index = {e: i for i, e in enumerate(elems)}
    table = tuple(
        tuple(index[tuple(a[b[k]] for k in range(4))] for b in elems) for a in elems
    )
    return FiniteGroup(table=table, identity=0)


def brute_inverses(G):
    return tuple(next(b for b in G.elements if G.op(a, b) == G.identity) for a in G.elements)


def reference_closure(G, gens):
    """Two-sided products with every member, plus inverses, until nothing is new."""
    inv = brute_inverses(G)
    members = {G.identity} | set(gens)
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for g in list(members):
            for y in (G.op(x, g), G.op(g, x), inv[x]):
                if y not in members:
                    members.add(y)
                    frontier.append(y)
    return tuple(sorted(members))


def closure_corpus():
    """Unit groups mod m <= 40, Z/n for n <= 24, Z/2 x Z/4 x Z/3, S3 and S3 x Z/2."""
    yield from (group_from_unit_residues(m) for m in range(2, 41))
    yield from (cyclic_group(n) for n in range(1, 25))
    yield direct_product(direct_product(cyclic_group(2), cyclic_group(4)), cyclic_group(3))
    yield symmetric_group_3()
    yield direct_product(symmetric_group_3(), cyclic_group(2))


def all_subgroups(G):
    """Every subgroup of G: the cyclic ones, closed under joins."""
    subs = {subgroup_generated(G, {g}).members for g in G.elements}
    frontier = list(subs)
    while frontier:
        a = frontier.pop()
        for b in list(subs):
            joined = subgroup_generated(G, set(a) | set(b)).members
            if joined not in subs:
                subs.add(joined)
                frontier.append(joined)
    return [Subgroup(parent=G, members=m) for m in sorted(subs)]


def product_of_cyclic(*orders):
    G = cyclic_group(orders[0])
    for n in orders[1:]:
        G = direct_product(G, cyclic_group(n))
    return G


# Non-cyclic p-groups, where joins of cyclic p-power subgroups reach subgroups no two of them span.
P_GROUP_SUBGROUP_COUNTS = {(2, 2, 2, 2): 67, (4, 4): 15, (2, 2, 8): 38, (3, 9): 10, (2, 4, 8): 81}


def test_transfer_props_lattice_is_every_subgroup():
    # The suite's own lattice joins cyclic subgroups of prime-power order by whole cosets;
    # it must list every subgroup, ordered by size.
    corpus = [
        G for G in closure_corpus()
        if all(G.table[a][b] == G.table[b][a] for a in G.elements for b in G.elements)
    ]
    corpus += [product_of_cyclic(*orders) for orders in P_GROUP_SUBGROUP_COUNTS]
    for G in corpus:
        expected = sorted((U.members for U in all_subgroups(G)), key=lambda m: (len(m), m))
        assert [U.members for U in verify._all_subgroups(G)] == expected, G.order
    for orders, count in P_GROUP_SUBGROUP_COUNTS.items():
        assert len(verify._all_subgroups(product_of_cyclic(*orders))) == count, orders


def shuffled_transversals():
    """(U, reps, decomposition) for shuffled random transversals of each cyclic subgroup."""
    rng = random.Random(8)
    corpus = [group_from_unit_residues(m) for m in range(2, 41)]
    corpus += [symmetric_group_3(), direct_product(symmetric_group_3(), cyclic_group(2))]
    for G in corpus:
        for members in sorted({subgroup_generated(G, {g}).members for g in G.elements}):
            U = Subgroup(parent=G, members=members)
            for _ in range(3):
                reps = [G.op(r, rng.choice(members)) for r in U.cosets.reps]
                rng.shuffle(reps)
                yield U, tuple(reps), decomposition_from_reps(U, tuple(reps))


def test_closure_matches_two_sided_reference():
    for G in closure_corpus():
        gen_sets = [{g} for g in G.elements] + [set(pair) for pair in combinations(G.elements, 2)]
        for gens in gen_sets:
            assert subgroup_generated(G, gens).members == reference_closure(G, gens), (G.order, gens)


def test_inverses_and_commutators_match_brute_force():
    derived_orders = []
    for G in closure_corpus():
        inv = brute_inverses(G)
        assert G.inverses == inv
        commutators = {
            G.op(G.op(a, b), G.op(inv[a], inv[b])) for a in G.elements for b in G.elements
        }
        full = Subgroup(parent=G, members=tuple(G.elements))
        derived = derived_subgroup(full)
        assert derived.members == reference_closure(G, commutators)
        derived_orders.append(derived.order)
    assert derived_orders[-2:] == [3, 3]
    assert set(derived_orders[:-2]) == {1}


def test_derived_subgroup_matches_all_commutators_on_every_subgroup():
    nonabelian = []
    for G in [*closure_corpus(), symmetric_group_4()]:
        inv = brute_inverses(G)
        for U in all_subgroups(G):
            commutators = {
                G.op(G.op(a, b), G.op(inv[a], inv[b])) for a in U.members for b in U.members
            }
            derived = derived_subgroup(U)
            assert derived.members == reference_closure(G, commutators), (G.order, U.members)
            if derived.order > 1:
                nonabelian.append((G.order, U.order, derived.order))
    # S3; S3 x 1, the diagonal S3 and S3 x Z/2; in S4 the four S3, the four D4, A4 and S4.
    assert sorted(nonabelian) == [(6, 6, 3), (12, 6, 3), (12, 6, 3), (12, 12, 3)] + [
        (24, 6, 3)
    ] * 4 + [(24, 8, 2)] * 3 + [(24, 12, 4), (24, 24, 12)]


def test_cyclic_group_table_is_addition_mod_n():
    for n in range(1, 65):
        assert cyclic_group(n).table == tuple(
            tuple((a + b) % n for b in range(n)) for a in range(n)
        )


def test_unit_residue_groups():
    G = group_from_unit_residues(3)
    assert G.order == 2 and G.labels == (1, 2)
    G = group_from_unit_residues(7)
    assert is_cyclic(G) and G.order == 6
    powers = []
    x = G.id_of(3)
    y = x
    for _ in range(6):
        powers.append(G.label_of(y))
        y = G.op(y, x)
    assert powers == [3, 2, 6, 4, 5, 1]
    assert [G.id_of(G.label_of(i)) for i in G.elements] == list(G.elements)
    for label in (0, 7, -1):
        with pytest.raises(InvalidArgumentError):
            G.id_of(label)
    G = group_from_unit_residues(8)
    assert G.labels == (1, 3, 5, 7)
    assert all(G.op(a, a) == G.identity for a in G.elements)


def test_group_table_is_valid():
    for G in (group_from_unit_residues(12), cyclic_group(9), symmetric_group_3()):
        assert is_associative(G)
        assert all(G.op(G.identity, a) == a == G.op(a, G.identity) for a in G.elements)
        assert all(G.op(a, G.inv(a)) == G.identity for a in G.elements)


def test_too_large_rejected():
    with pytest.raises(TooLargeError):
        cyclic_group(5000)
    for build in (group_from_unit_residues, unit_group):
        with pytest.raises(TooLargeError, match="^group of order 65536 exceeds table bound 4096$"):
            build(65537)
        with pytest.raises(InvalidArgumentError, match="^modulus must be >= 2, got 1$"):
            build(1)


def test_cyclic_group_subgroup_structure():
    G = cyclic_group(6)
    orders = {subgroup_generated(G, {g}).order for g in G.elements}
    assert orders == {1, 2, 3, 6}


def test_direct_product():
    V4 = klein_four_group()
    assert V4.order == 4
    assert all(V4.op(a, a) == V4.identity for a in V4.elements)
    G = direct_product(cyclic_group(2), cyclic_group(3))
    assert is_cyclic(G) and G.order == 6
    G1 = direct_product(cyclic_group(5), cyclic_group(1))
    assert is_cyclic(G1) and G1.order == 5


def test_direct_product_is_componentwise():
    S3 = symmetric_group_3()
    for G1, G2 in [
        (cyclic_group(4), cyclic_group(6)),
        (S3, cyclic_group(2)),
        (cyclic_group(3), S3),
        (unit_group(15), group_from_unit_residues(8)),
        (cyclic_group(1), cyclic_group(5)),
    ]:
        n2 = G2.order
        G = direct_product(G1, G2)
        assert G.order == G1.order * n2 and G.identity == G1.identity * n2 + G2.identity
        for (a1, a2), (b1, b2) in product(product(G1.elements, G2.elements), repeat=2):
            assert G.op(a1 * n2 + a2, b1 * n2 + b2) == G1.op(a1, b1) * n2 + G2.op(a2, b2)


def test_subgroup_generated():
    G = group_from_unit_residues(7)
    assert subgroup_generated(G, set()).order == 1
    assert subgroup_generated(G, {G.identity}).order == 1
    U = subgroup_generated(G, {G.id_of(6)})
    assert sorted(G.label_of(i) for i in U.members) == [1, 6]
    U.validate()


def test_derived_subgroup():
    G = group_from_unit_residues(15)
    assert derived_subgroup(subgroup_generated(G, set(G.elements))).order == 1
    S3 = symmetric_group_3()
    full = Subgroup(parent=S3, members=tuple(S3.elements))
    D = derived_subgroup(full)
    assert D.order == 3
    assert derived_subgroup(subgroup_generated(S3, set())).order == 1


def test_coset_decomposition():
    G = group_from_unit_residues(7)
    full = Subgroup(parent=G, members=tuple(G.elements))
    assert coset_decomposition(full).reps == (G.identity,)
    trivial = subgroup_generated(G, set())
    assert coset_decomposition(trivial).reps == tuple(G.elements)
    U = subgroup_generated(G, {G.id_of(6)})
    dec = coset_decomposition(U)
    assert [G.label_of(r) for r in dec.reps] == [1, 2, 3]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cyclic_group(0), "cyclic group order must be >= 1, got 0"),
        (lambda: subgroup_generated(cyclic_group(4), {4}), "generators {4} are not all elements of the group"),
        # {1} holds no identity: its "cosets" {1} and {3} miss 0 and 2.
        (lambda: coset_decomposition(Subgroup(cyclic_group(4), (1,))), "cosets do not cover the group"),
    ],
    ids=["cyclic_group", "subgroup_generated", "coset_decomposition"],
)
def test_group_builders_raise_typed_errors(call, message):
    with pytest.raises(InvalidArgumentError) as excinfo:
        call()
    assert type(excinfo.value) is InvalidArgumentError
    assert str(excinfo.value) == message


def test_decomposition_from_reps_validates():
    G = group_from_unit_residues(7)
    U = subgroup_generated(G, {G.id_of(6)})
    with pytest.raises(InvalidArgumentError, match="not disjoint"):
        decomposition_from_reps(U, (0, 0, 1))
    with pytest.raises(InvalidArgumentError, match="do not cover"):
        decomposition_from_reps(U, (0, 1))
    # A repeat outranks a missing coset, and a fourth rep must repeat a coset.
    with pytest.raises(InvalidArgumentError, match="not disjoint"):
        decomposition_from_reps(U, (0, 1, 2, 3))
    with pytest.raises(InvalidArgumentError, match="not disjoint"):
        decomposition_from_reps(U, (0, 5))
    # {1, 2} is not a subgroup: the cosets of 1 and 4 share 1 = 4 * 2.
    not_closed = Subgroup(parent=G, members=(G.id_of(1), G.id_of(2)))
    with pytest.raises(InvalidArgumentError, match="not disjoint"):
        coset_decomposition(not_closed)


@pytest.mark.parametrize(
    "pick, message",
    [
        (lambda G, U, r: (r[0], 6, r[2]), "6 is not an element of the group of order 6"),
        (lambda G, U, r: (r[0], G.op(r[0], U.members[1]), r[2]), "coset representatives are not disjoint"),
        (lambda G, U, r: (r[2], r[0]), "cosets do not cover the group"),
        # A repeat outranks a missing coset, and an id outside G outranks both.
        (lambda G, U, r: (r[1], G.op(r[1], U.members[1])), "coset representatives are not disjoint"),
        (lambda G, U, r: (r[1], G.op(r[1], U.members[1]), -1), "-1 is not an element of the group of order 6"),
    ],
    ids=["outside", "repeat", "missing", "repeat-and-missing", "outside-after-repeat"],
)
def test_decomposition_from_reps_errors_and_their_order(pick, message):
    G = symmetric_group_3()
    U = next(U for U in all_subgroups(G) if U.order == 2)  # not normal: three left cosets
    reps = U.cosets.reps
    assert len(reps) == 3
    with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
        decomposition_from_reps(U, pick(G, U, reps))


@pytest.mark.parametrize(
    "build",
    [symmetric_group_3, lambda: group_from_unit_residues(15), lambda: unit_group(15)],
    ids=["S3", "stored (Z/15)^x", "computed (Z/15)^x"],
)
def test_canonical_cosets_tabulate_the_coset_equation(build):
    # solutions[x] = u with x = r*u, r the canonical rep of x's coset: every subgroup,
    # the non-normal ones of S3 included.
    G = build()
    for U in all_subgroups(G):
        cosets = U.cosets
        assert cosets.solutions is not None and len(cosets.solutions) == G.order
        for x in G.elements:
            u = cosets.solutions[x]
            assert u in U and G.op(cosets.reps[cosets.canonical[x]], u) == x


@pytest.mark.parametrize("bad", [-1, 6], ids=["negative", "order"])
@pytest.mark.parametrize(
    "call",
    [
        lambda U, x: decomposition_from_reps(U, (x, 1, 2)),
        lambda U, x: transfer(U, x),
        lambda U, x: transfer_values(U, (1, x, 7)),
        lambda U, x: coset_order(U, x),
        lambda U, x: Subgroup(parent=U.parent, members=(0, x)),
    ],
    ids=["decomposition_from_reps", "transfer", "transfer_values", "coset_order", "Subgroup"],
)
def test_element_ids_outside_the_group_are_rejected(call, bad):
    # In (Z/7)^x a negative id would index from the end: -1 aliases id 5, the class of 6.
    G = group_from_unit_residues(7)
    U = subgroup_generated(G, {G.id_of(6)})
    with pytest.raises(InvalidArgumentError, match=f"^{bad} is not an element of the group of order 6$"):
        call(U, bad)


def test_caller_transversal_relabels_the_canonical_lookup():
    # Every in-repo caller passes reps in canonical coset order, and in an abelian
    # group a mis-permuted lookup leaves the transfer value unchanged; shuffled
    # reps and the exact lookup are what show a missing relabel.
    rng = random.Random(8)
    corpus = [group_from_unit_residues(m) for m in range(2, 41)]
    corpus += [symmetric_group_3(), direct_product(symmetric_group_3(), cyclic_group(2))]
    for G in corpus:
        for members in sorted({subgroup_generated(G, {g}).members for g in G.elements}):
            U = Subgroup(parent=G, members=members)
            expected = transfer_homomorphism(U).values
            for _ in range(3):
                reps = [G.op(r, rng.choice(members)) for r in U.cosets.reps]
                rng.shuffle(reps)
                dec = decomposition_from_reps(U, tuple(reps))
                cosets = [{G.op(r, u) for u in members} for r in reps]
                assert tuple(dec.position[dec.canonical[x]] for x in G.elements) == tuple(
                    next(i for i, coset in enumerate(cosets) if x in coset) for x in G.elements
                )
                for g in G.elements:
                    result = transfer(U, g, dec.reps)
                    assert result.value == expected[g]
                    for i, (j, u) in enumerate(result.contributions):
                        assert u in U and G.op(g, reps[i]) == G.op(reps[j], u)


def test_transfer_values_are_the_traced_transfer_values():
    for U, reps, _ in shuffled_transversals():
        elements = U.parent.elements
        assert transfer_values(U, elements, reps) == tuple(transfer(U, g, reps).value for g in elements)
        assert transfer_values(U, elements) == tuple(transfer(U, g).value for g in elements)


def test_a_built_transversal_stands_for_its_reps():
    # A decomposition built once by decomposition_from_reps gives what its reps give, call after call.
    for U, reps, dec in shuffled_transversals():
        elements = U.parent.elements
        assert [transfer(U, g, dec) for g in elements] == [transfer(U, g, reps) for g in elements]
        assert transfer_values(U, elements, dec) == transfer_values(U, elements, reps)


@pytest.mark.parametrize(
    "call",
    [lambda U, dec: transfer(U, 1, dec), lambda U, dec: transfer_values(U, (1, 2), dec)],
    ids=["transfer", "transfer_values"],
)
def test_a_transversal_built_over_another_subgroup_is_rejected(call):
    G = group_from_unit_residues(7)
    U = subgroup_generated(G, {G.id_of(6)})
    V = subgroup_generated(G, {G.id_of(2)})
    dec = decomposition_from_reps(V, V.cosets.reps)
    with pytest.raises(InvalidArgumentError, match="^the decomposition is not over this subgroup's cosets$"):
        call(U, dec)


def test_transfer_values_match_transfer_on_every_subgroup():
    # Every subgroup, not only the cyclic ones: U = S3 has U' = A3, so the batch is reduced mod U'.
    rng = random.Random(15)
    S3 = symmetric_group_3()
    assert derived_subgroup(Subgroup(parent=S3, members=tuple(S3.elements))).order == 3
    for G in (S3, direct_product(S3, cyclic_group(2))):
        elements = tuple(G.elements)
        for U in all_subgroups(G):
            for _ in range(3):
                reps = tuple(G.op(r, rng.choice(U.members)) for r in U.cosets.reps)
                for chosen in (None, reps):
                    expected = tuple(transfer(U, g, chosen).value for g in elements)
                    assert transfer_values(U, elements, chosen) == expected
                    assert transfer_values(U, (g for g in elements), chosen) == expected
                    assert transfer_values(U, elements[::-1], chosen) == expected[::-1]


def test_one_loop_serves_every_transfer_path(monkeypatch):
    # A fault in the product loop must reach the traced value, the batch and the table alike;
    # a second loop that multiplies the u_j would leave one of them unchanged.
    products = groups._transfer_products

    def skip_last_coset(G, decomposition, gs, record=None):
        return products(G, replace(decomposition, reps=decomposition.reps[:-1]), gs, record)

    S3 = symmetric_group_3()
    units = group_from_unit_residues(7)
    cases = [subgroup_generated(units, {units.id_of(6)}), Subgroup(parent=S3, members=tuple(S3.elements))]
    cases += [U for U in all_subgroups(S3) if U.order == 2]
    for U in cases:
        G = U.parent
        right = transfer_homomorphism(U).values
        for g in G.elements:
            result = transfer(U, g)
            prod = G.identity
            for _, u in result.contributions:
                prod = G.op(prod, u)
            assert result.value == min(G.op(prod, d) for d in U.derived.members)
        with monkeypatch.context() as m:
            m.setattr(groups, "_transfer_products", skip_last_coset)
            wrong = transfer_homomorphism(U).values
            assert wrong != right
            assert transfer_values(U, G.elements) == wrong
            assert tuple(transfer(U, g).value for g in G.elements) == wrong


def test_caller_transversal_shares_the_canonical_lookup():
    for U, reps, dec in shuffled_transversals():
        G = U.parent
        assert dec.canonical is U.cosets.canonical
        assert dec.reps == reps
        for c, i in enumerate(dec.position):
            assert G.op(dec.inverse_reps[c], reps[i]) == G.identity
        # O(index) per transversal: every field but the shared lookup has one entry per coset.
        assert dec.solutions is None
        sizes = {k: len(v) for k, v in vars(dec).items() if k not in ("canonical", "solutions")}
        assert sizes == dict.fromkeys(("reps", "position", "inverse_reps"), U.index)


def test_subgroup_and_its_cached_cosets_form_no_cycle():
    G = group_from_unit_residues(13)
    U = subgroup_generated(G, {G.id_of(12)})
    assert (U.cosets.reps, U.derived.order) == ((0, 1, 2, 3, 4, 5), 1)
    gc.disable()
    try:
        ref = weakref.ref(U)
        del U
        assert ref() is None  # freed by reference counting, with no collector pass
    finally:
        gc.enable()


def test_transfer_examples():
    G = group_from_unit_residues(7)
    U = subgroup_generated(G, {G.id_of(6)})
    dec = coset_decomposition(U)
    assert transfer(U, G.identity, dec.reps).value == G.identity
    result = transfer(U, G.id_of(3), dec.reps)
    assert G.label_of(result.value) == 6
    # each contribution solves g*r_i = r_j*u in the table
    for i, (j, u) in enumerate(result.contributions):
        assert G.op(G.id_of(3), dec.reps[i]) == G.op(dec.reps[j], u)
        assert u in U


def test_transfer_klein_four_trivial():
    V4 = klein_four_group()
    for g in V4.elements:
        if g == V4.identity:
            continue
        U = subgroup_generated(V4, {g})
        hom = transfer_homomorphism(U)
        assert all(v == V4.identity for v in hom.values)


def test_transfer_kernel_is_squares():
    G = group_from_unit_residues(7)
    U = subgroup_generated(G, {G.id_of(6)})
    hom = transfer_homomorphism(U)
    ker = kernel_of(hom)
    assert sorted(G.label_of(i) for i in ker.members) == [1, 2, 4]


def test_transfer_power_law_abelian():
    # abelian G with cyclic quotient of order f: V(x) = x^f
    for m in (5, 8, 9, 12, 16, 21):
        G = group_from_unit_residues(m)
        for g in G.elements:
            U = subgroup_generated(G, {g})
            f = G.order // U.order
            # quotient of an abelian group by a subgroup need not be cyclic; check
            orders = set()
            for x in G.elements:
                k = coset_order(U, x)
                assert k == min(j for j in range(1, G.order + 1) if G.power(x, j) in U)
                orders.add(k)
            if max(orders) != f:
                continue
            hom = transfer_homomorphism(U)
            for x in G.elements:
                assert hom.values[x] == G.power(x, f)


def test_transfer_surjective_on_cyclic():
    for n in (6, 12, 30):
        G = cyclic_group(n)
        for d in range(1, n + 1):
            if n % d:
                continue
            U = subgroup_generated(G, {d % n})
            hom = transfer_homomorphism(U)
            assert set(hom.values) == U.member_set


@pytest.mark.parametrize(
    "call",
    [
        lambda U, reps, g: transfer(U, g, reps),
        lambda U, reps, g: transfer_values(U, (0, g), reps),
    ],
    ids=["transfer", "transfer_values"],
)
def test_transfer_rejects_reps_that_are_not_a_transversal_of_its_subgroup(call):
    # U1 = <-1> has six cosets in (Z/13)^x.  The four canonical reps of U2 = <3>, and the
    # five ids of Z/5, each meet fewer of them.  Read through U2's own coset lookup, U2's
    # reps would give V(2) = 3, outside U1; through Z/5's, an IndexError.
    G = group_from_unit_residues(13)
    U1 = subgroup_generated(G, {G.id_of(12)})
    U2 = subgroup_generated(G, {G.id_of(3)})
    for reps in (U2.cosets.reps, tuple(cyclic_group(5).elements)):
        # The transversal is checked before the element, so a bad id does not outrank it.
        for g in (G.id_of(2), G.order):
            with pytest.raises(InvalidArgumentError, match="^cosets do not cover the group$"):
                call(U1, reps, g)


def test_transfer_rep_independence():
    rng = random.Random(5)
    G = group_from_unit_residues(13)
    U = subgroup_generated(G, {G.id_of(12)})
    canonical = coset_decomposition(U)
    expected = transfer_homomorphism(U).values
    for _ in range(50):
        reps = tuple(G.op(r, U.members[rng.randrange(U.order)]) for r in canonical.reps)
        for g in G.elements:
            assert transfer(U, g, reps).value == expected[g]


def test_transfer_nonabelian_reduces_mod_derived():
    # transfer S3 -> S3 is the identity composed with reduction mod the commutator subgroup
    S3 = symmetric_group_3()
    full = Subgroup(parent=S3, members=tuple(S3.elements))
    hom = transfer_homomorphism(full)
    derived = derived_subgroup(full)
    for g in S3.elements:
        assert hom.values[g] == min(S3.op(g, d) for d in derived.members)


def test_power_with_a_negative_exponent_is_a_power_of_the_inverse():
    for G in [*closure_corpus(), unit_group(15)]:
        inv = G.inverses
        for a in G.elements:
            for k in range(1, G.order + 2):
                assert G.power(a, -k) == G.power(inv[a], k), (G.order, a, k)
                assert G.op(G.power(a, k), G.power(a, -k)) == G.identity
    U = unit_group(15)
    assert [U.label_of(U.power(U.id_of(r), -3)) for r in (2, 7)] == [pow(2, -3, 15), pow(7, -3, 15)]


def test_power_loops_stop_on_malformed_table():
    # 1*1 = 1, so no power of 1 reaches the identity 0 or the subgroup {0}.
    G = FiniteGroup(table=((0, 1), (1, 1)), identity=0)
    assert element_order(G, 0) == 1
    with pytest.raises(InvalidArgumentError):
        element_order(G, 1)
    U = Subgroup(parent=G, members=(0,))
    assert coset_order(U, 0) == 1
    with pytest.raises(InvalidArgumentError):
        coset_order(U, 1)
    # Row 1 holds no identity at all.
    with pytest.raises(InvalidArgumentError, match="element 1 has no two-sided inverse"):
        G.inverses
    # 1*2 = 0 but 2*1 = 2: the identity in row 1 is only a right inverse.
    G = FiniteGroup(table=((0, 1, 2), (1, 2, 0), (2, 2, 1)), identity=0)
    with pytest.raises(InvalidArgumentError, match="element 1 has no two-sided inverse"):
        G.inverses


def test_kernel_of_rejects_non_homomorphism():
    G = cyclic_group(4)
    trivial = subgroup_generated(G, set())
    bad = TabulatedHom(values=(0, 1, 1, 0), modulo=trivial)
    with pytest.raises(InvalidHomomorphismError):
        kernel_of(bad)


@pytest.mark.parametrize(
    "values, message",
    [
        ((0, 5, 2, 3), "^5 is not an element of the group of order 4$"),
        ((0, 1, 2), "^map has 3 values for a group of order 4$"),
    ],
    ids=["out-of-range", "short"],
)
def test_kernel_of_rejects_values_outside_the_group(values, message):
    G = cyclic_group(4)
    hom = TabulatedHom(values=values, modulo=subgroup_generated(G, set()))
    with pytest.raises(InvalidArgumentError, match=message):
        kernel_of(hom)


def test_kernel_of_walks_each_group_once(monkeypatch):
    G = group_from_unit_residues(21)
    walk = groups.require_subgroup
    whole_group_walks = []

    def counted(members, identity, op):
        whole_group_walks.append(members is G.elements)
        return walk(members, identity, op)

    monkeypatch.setattr(groups, "require_subgroup", counted)
    for r in (2, 5, 20):
        kernel_of(transfer_homomorphism(subgroup_generated(G, {G.id_of(r)})))
    assert sum(whole_group_walks) == 1
    assert G.generators == tuple(walk(G.elements, G.identity, G.op))


def test_kernel_of_identity_and_constant_maps():
    G = cyclic_group(6)
    trivial = subgroup_generated(G, set())
    ident = TabulatedHom(values=tuple(G.elements), modulo=trivial)
    assert kernel_of(ident).members == (G.identity,)
    const = TabulatedHom(values=(G.identity,) * 6, modulo=trivial)
    assert kernel_of(const).members == tuple(G.elements)


def test_lagrange_on_generated_subgroups():
    for m in (8, 15, 20, 24):
        G = group_from_unit_residues(m)
        for g in G.elements:
            U = subgroup_generated(G, {g})
            U.validate()
            assert G.order % U.order == 0


def test_validate_agrees_with_the_all_pairs_rule():
    """Every subset holding 1 of Z/8, (Z/24)^x, (Z/15)^x, Z/2 x Z/4 and S3."""
    corpus = [
        cyclic_group(8),
        group_from_unit_residues(24),
        group_from_unit_residues(15),
        direct_product(cyclic_group(2), cyclic_group(4)),
        symmetric_group_3(),
    ]
    accepted = 0
    for G in corpus:
        others = [x for x in G.elements if x != G.identity]
        for k in range(len(others) + 1):
            for rest in combinations(others, k):
                U = Subgroup(parent=G, members=(G.identity, *rest))
                s = U.member_set
                if (
                    all(G.op(a, b) in s for a in s for b in s)
                    and all(G.inv(a) in s for a in s)
                    and G.order % len(s) == 0
                ):
                    gens = require_subgroup(U.members, G.identity, G.op)
                    assert subgroup_generated(G, gens).members == U.members
                    assert 2 ** len(gens) <= len(s)
                    U.validate()
                    accepted += 1
                    continue
                with pytest.raises(InvalidArgumentError) as err:
                    U.validate()
                found = re.fullmatch(r"subgroup not closed at (\d+)\*(\d+)", str(err.value))
                x, y = map(int, found.groups())
                assert x in s and y in s and G.op(x, y) not in s, (U.members, x, y)
    assert accepted == 4 + 16 + 8 + 8 + 6  # how many subgroups each group has
    with pytest.raises(InvalidArgumentError, match="^subgroup is missing the identity$"):
        Subgroup(parent=corpus[0], members=(1, 2)).validate()


def test_kernel_of_agrees_with_the_all_pairs_rule():
    """Every map Z/4 -> Z/4, and every map S3 -> S3 mod A3 into the two canonical reps."""
    Z4 = cyclic_group(4)
    S3 = symmetric_group_3()
    A3 = derived_subgroup(Subgroup(parent=S3, members=tuple(S3.elements)))
    odd = min(g for g in S3.elements if g not in A3)
    cases = [(Z4, subgroup_generated(Z4, set()), v) for v in product(Z4.elements, repeat=4)]
    cases += [(S3, A3, v) for v in product((S3.identity, odd), repeat=6)]
    homs = 0
    for G, modulo, values in cases:
        hom = TabulatedHom(values=values, modulo=modulo)
        if all(
            min(G.op(G.op(values[a], values[b]), d) for d in modulo.members) == values[G.op(a, b)]
            for a in G.elements
            for b in G.elements
        ):
            kernel = tuple(g for g in G.elements if values[g] in modulo)
            assert kernel_of(hom).members == kernel
            homs += 1
        else:
            with pytest.raises(InvalidHomomorphismError):
                kernel_of(hom)
    assert homs == 4 + 2  # x -> kx for k in Z/4; the trivial map and the sign


def test_validate_walks_with_quasilinear_op_calls(monkeypatch):
    """|S|*(1 + log2|S|)^2 calls of op at most; the all-pairs rule made |S|^2."""
    G = unit_group(4093)
    calls = 0
    op = FiniteGroup.op

    def counted(group, a, b):
        nonlocal calls
        calls += 1
        return op(group, a, b)

    monkeypatch.setattr(FiniteGroup, "op", counted)
    Subgroup(parent=G, members=tuple(G.elements)).validate()
    n = G.order
    assert 0 < calls <= n * (1 + log2(n)) ** 2


def test_unit_group_agrees_with_the_table_group():
    # Same ids by construction, so every derived structure must match exactly.
    for m in range(2, 151):
        G, T = unit_group(m), group_from_unit_residues(m)
        assert (G.labels, G.identity, G.order) == (T.labels, T.identity, T.order), m
        assert all(G.table[a][b] == T.table[a][b] for a in T.elements for b in T.elements), m
        # Both run UnitGroup's pow; the row scan over T's stored table is the independent reference.
        assert G.inverses == T.inverses == FiniteGroup.inverses.func(T), m
        assert G.modulus == T.modulus == m
        seen = set()
        for gen in T.elements:
            U, V = subgroup_generated(G, {gen}), subgroup_generated(T, {gen})
            assert U.members == V.members, (m, gen)
            if V.members in seen:
                continue
            seen.add(V.members)
            assert U.cosets == V.cosets, (m, gen)
            assert U.derived.members == V.derived.members, (m, gen)
            for g in T.elements:
                assert transfer(U, g) == transfer(V, g), (m, gen, g)
                assert coset_order(U, g) == coset_order(V, g), (m, gen, g)
