import re
from itertools import combinations
from math import log2

import pytest

from rayclass.arith import euler_phi, mult_order, primes_up_to
from rayclass.classfield import (
    ConstancyReport,
    FundamentalDiscriminant,
    IdealGroupH,
    Modulus,
    artin_class_constancy_check,
    conductor_quadratic,
    first_inequality_check,
    fundamental_discriminants,
    ideal_class,
    is_fundamental_discriminant,
    ray_class_group,
    squares_group,
    takagi_group_cyclotomic,
    takagi_group_quadratic,
    takagi_witness,
    witness_fraction,
)
from rayclass.errors import (
    InvalidArgumentError,
    InvalidDiscriminantError,
    NotCoprimeError,
    NotInTakagiGroupError,
    TooLargeError,
)
from rayclass.groups import (
    FiniteGroup,
    UnitGroup,
    coset_order,
    group_from_unit_residues,
    subgroup_generated,
    unit_group,
)
from rayclass.splitting import qr_via_splitting, splits_completely_in_class_field
from rayclass.symbols import kronecker, legendre_brute


def class_order(G, c):
    """Order of the class labeled c in G: multiply by c until the class of 1 comes back."""
    k, x = 1, c
    while x != 1:
        k, x = k + 1, G.class_of(x * c)
    return k


def residues(H):
    """The residues mod m0 that make up the ideal group H, ascending."""
    return [H.parent.label_of(i) for i in H.members]


def test_modulus():
    assert str(Modulus(3, True)) == "(3)oo"
    assert str(Modulus(5)) == "(5)"
    with pytest.raises(InvalidArgumentError):
        Modulus(0)


def test_fundamental_discriminants():
    for d in (-4, -3, -7, -8, 5, 8, 12, 13, -20, 21):
        assert is_fundamental_discriminant(d)
    for d in (0, 1, 2, 3, 4, -5, 9, 25, -12):
        assert not is_fundamental_discriminant(d)
    with pytest.raises(InvalidDiscriminantError):
        FundamentalDiscriminant(9)
    ds = [f.d for f in fundamental_discriminants(12)]
    assert ds == [-3, -4, 5, -7, 8, -8, -11, 12]


def test_ray_class_group_orders():
    G = ray_class_group(Modulus(3, True))
    assert G.labels == (1, 2)
    G = ray_class_group(Modulus(5, False))
    assert len(G.labels) == 2
    G = ray_class_group(Modulus(8, True))
    assert len(G.labels) == 4
    assert all(G.class_of(c * c) == 1 for c in G.labels)
    for m0 in (3, 4, 5, 7, 8, 9, 12):
        assert len(ray_class_group(Modulus(m0, True)).labels) == euler_phi(m0)


def test_ray_class_group_no_infinity_quotients_by_sign():
    G = ray_class_group(Modulus(7, False))
    assert len(G.labels) == 3
    assert G.class_of(2) == G.class_of(5)  # (2) = (-2), and -2 = 5 mod 7
    assert G.class_of(1) == G.class_of(6)


def test_ideal_class():
    G = ray_class_group(Modulus(5, True))
    assert ideal_class(G, 1, 1) == 1
    assert ideal_class(G, 7, 1) == 2
    assert ideal_class(G, 1, 2) == 3
    assert ideal_class(G, -3, 1) == 3  # ideals forget the sign
    assert ideal_class(ray_class_group(Modulus(7)), 1, 2) == 3  # 2^-1 = 4 = -3 mod 7
    assert ideal_class(ray_class_group(Modulus(1)), 3, 7) == 1
    with pytest.raises(NotCoprimeError):
        ideal_class(G, 10, 1)
    with pytest.raises(InvalidArgumentError):
        ideal_class(G, 0, 1)


def test_takagi_group_quadratic_examples():
    H = takagi_group_quadratic(-4)
    assert H.modulus == Modulus(4, True)
    assert residues(H) == [1]
    H = takagi_group_quadratic(5)
    assert H.modulus == Modulus(5, False)
    assert residues(H) == [1, 4]  # -1 lies in every ideal group mod a modulus without oo
    assert H.index == 2
    H = takagi_group_quadratic(-3)
    assert H.index == 2 and H.order == 1


def test_takagi_group_quadratic_index_two_sweep():
    for d in fundamental_discriminants(101):
        H = takagi_group_quadratic(d)
        assert H.index == 2, d.d
        chk = first_inequality_check(H, 2)
        assert chk.holds and chk.divides


def test_takagi_group_cyclotomic():
    for m, idx in ((3, 2), (5, 4), (12, 4)):
        H = takagi_group_cyclotomic(m)
        assert residues(H) == [1]
        assert H.index == idx == euler_phi(m)
        chk = first_inequality_check(H, euler_phi(m))
        assert chk.holds and chk.divides


def test_first_inequality_failure_case():
    H = takagi_group_cyclotomic(7)  # index 6
    chk = first_inequality_check(H, 2)
    assert (chk.index, chk.holds, chk.divides) == (6, False, False)


def test_squares_group():
    for p, sq in ((3, [1]), (7, [1, 2, 4]), (11, [1, 3, 4, 5, 9])):
        H = squares_group(p)
        assert residues(H) == sq
        assert H.index == 2


def test_artin_symbol_cyclotomic():
    # Frobenius of an unramified p in Q(zeta_m) is p's ray class mod m*oo; its order is ord(p mod m).
    assert ray_class_group(Modulus(12, True)).class_of(13) == 1
    assert ray_class_group(Modulus(7, True)).class_of(2) == 2
    assert class_order(ray_class_group(Modulus(7, True)), 2) == 3
    for p, m in ((3, 7), (5, 12), (11, 35)):
        G = ray_class_group(Modulus(m, True))
        assert class_order(G, G.class_of(p)) == mult_order(p, m)


def test_artin_class_constancy():
    report = artin_class_constancy_check(5, 100)
    assert isinstance(report, ConstancyReport)
    assert report.constant_on_classes
    assert len(report.class_values) == 2
    report = artin_class_constancy_check(-4, 100)
    assert report.constant_on_classes
    assert dict(report.class_values) == {1: 1, 3: -1}
    report = artin_class_constancy_check(-4, 2)
    assert report.constant_on_classes  # vacuous below the first usable prime


def test_conductor_quadratic():
    assert conductor_quadratic(-4) == Modulus(4, True)
    assert conductor_quadratic(5) == Modulus(5, False)
    assert conductor_quadratic(12) == Modulus(12, False)
    for d in fundamental_discriminants(40):
        assert conductor_quadratic(d) == Modulus(abs(d.d), d.d < 0)


def test_takagi_witness_examples():
    assert takagi_witness(6, 5) == ()
    assert takagi_witness(4, 5, 100) == ((19, 1),)
    with pytest.raises(NotInTakagiGroupError):
        takagi_witness(2, 5)
    with pytest.raises(NotCoprimeError):
        takagi_witness(5, 5)


def test_takagi_witness_falls_back_to_the_split_prime_search():
    # Below 20 no split prime lies in a's class mod |d|, so the breadth-first walk finds the witness.
    witness = takagi_witness(4, -11, 20)
    assert witness == ((3, -1),)
    assert witness_fraction(4, witness) == (12, 1)
    assert takagi_witness(12, 13, 20) == ((3, 1), (17, 1))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: takagi_group_cyclotomic(2),
            InvalidArgumentError,
            "cyclotomic construction needs m >= 3, got 2",
        ),
        (lambda: first_inequality_check(squares_group(5), 0), InvalidArgumentError, "degree must be positive, got 0"),
        (lambda: takagi_witness(0, 5), InvalidArgumentError, "need a positive integer, got 0"),
        (lambda: ray_class_group(Modulus(8191)), TooLargeError, "phi(8191) exceeds the table bound 4096"),
    ],
    ids=["takagi_group_cyclotomic", "first_inequality_check", "takagi_witness", "ray_class_group"],
)
def test_classfield_api_raises_typed_errors(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def test_takagi_witness_reverifies():
    from math import gcd

    for d in fundamental_discriminants(24):
        for a in range(1, 100):
            if gcd(a, d.d) != 1 or kronecker(d.d, a) != 1:
                continue
            witness = takagi_witness(a, d)
            num, den = a, 1
            for p, e in witness:
                assert kronecker(d.d, p) == 1
                if e > 0:
                    den *= p**e
                else:
                    num *= p ** (-e)
            assert num % abs(d.d) == den % abs(d.d)


def test_squares_group_matches_legendre():
    for p in (5, 7, 11, 13):
        H = squares_group(p)
        for q in range(1, p):
            assert (H.parent.id_of(q) in H) == (legendre_brute(q, p) == 1)


@pytest.mark.parametrize("infinite", [True, False], ids=["oo", "finite"])
def test_ray_classes_agree_with_the_table_route(infinite):
    # The table route: (Z/n)^x, n = max(m0, 2) (trivial for m0 <= 2), whose ray classes
    # are the cosets of <1> (with oo) or of <-1> (without).
    for m0 in range(1, 61):
        m = Modulus(m0, infinite)
        G = ray_class_group(m)
        n = max(m0, 2)
        T = group_from_unit_residues(n)
        U = subgroup_generated(T, {T.id_of(1 if infinite else n - 1)})
        reps, canonical, position = U.cosets.reps, U.cosets.canonical, U.cosets.position
        if infinite:
            assert G.labels == T.labels, m
        assert G.labels == tuple(T.label_of(r) for r in reps), m

        def label(i):
            return T.label_of(reps[position[canonical[i]]])

        for a in reps:
            x = T.label_of(a)
            assert G.class_of(pow(x, -1, n)) == label(T.inv(a)), (m, a)
            assert class_order(G, G.class_of(x)) == coset_order(U, a), (m, a)
            for b in reps:
                assert G.class_of(x * T.label_of(b)) == label(T.op(a, b)), (m, a, b)


def test_squares_group_agrees_with_the_table_squares():
    for p in primes_up_to(97)[1:]:
        T = group_from_unit_residues(p)
        assert squares_group(p).members == tuple(sorted({T.op(i, i) for i in T.elements})), p


def test_takagi_group_quadratic_is_the_kernel_of_the_character():
    for d in fundamental_discriminants(101):
        expected = [r for r in range(1, abs(d.d)) if kronecker(d.d, r) == 1]
        assert residues(takagi_group_quadratic(d)) == expected, d.d


@pytest.mark.parametrize(
    "m, members, message",
    [
        # Member ids of unit_group(7): id i is the residue i + 1.
        (Modulus(7, True), (1, 3), "subgroup is missing the identity"),
        (Modulus(7, True), (0, 2), "subgroup not closed at 2*2"),
        (Modulus(7, True), (0, 1), "subgroup not closed at 1*1"),
        (Modulus(7), (0, 6), "6 is not an element of the group of order 6"),
        (Modulus(7), (0,), "ideal group mod (7) does not hold -1"),
    ],
    ids=["identity", "closure", "closure-at-2", "outside", "minus-one"],
)
def test_ideal_group_validate_rejects(m, members, message):
    with pytest.raises(InvalidArgumentError) as err:
        IdealGroupH(parent=unit_group(m.m0), members=members, modulus=m).validate()
    assert str(err.value) == message


def test_class_field_builders_build_no_table(monkeypatch):
    built = []
    init = FiniteGroup.__init__

    def counted(group, *args, **kwargs):
        init(group, *args, **kwargs)
        built.append(group.order)

    monkeypatch.setattr(FiniteGroup, "__init__", counted)
    for m0 in (1, 2, 7, 12, 60):
        for infinite in (True, False):
            G = ray_class_group(Modulus(m0, infinite))
            assert ideal_class(G, 1, 1) == 1
    squares_group(541)
    takagi_group_quadratic(-87)
    takagi_group_cyclotomic(60)
    G = ray_class_group(Modulus(60, True))
    assert class_order(G, G.class_of(7)) == mult_order(7, 60)
    artin_class_constancy_check(13, 200)
    conductor_quadratic(-84)
    takagi_witness(4, 5)
    splits_completely_in_class_field(3, squares_group(7))
    qr_via_splitting(11, 13)
    assert built == []


@pytest.mark.parametrize("infinite", [True, False], ids=["oo", "finite"])
def test_modulus_1_labels_every_residue_1(infinite):
    m = Modulus(1, infinite)
    assert [m.label(r) for r in (-1, 0, 1, 2)] == [1, 1, 1, 1]
    assert ray_class_group(m).labels == (1,)


@pytest.mark.parametrize("infinite", [True, False], ids=["oo", "finite"])
def test_ideal_group_validate_agrees_with_the_all_pairs_rule(infinite):
    """Every member-id set holding the identity, mod 2 <= m0 <= 30 with phi(m0) <= 8."""
    accepted = 0
    for m0 in (m0 for m0 in range(2, 31) if euler_phi(m0) <= 8):
        m = Modulus(m0, infinite)
        G = unit_group(m0)
        others = [i for i in G.elements if i != G.identity]
        for k in range(len(others) + 1):
            for rest in combinations(others, k):
                s = (G.identity, *rest)
                H = IdealGroupH(parent=G, members=s, modulus=m)
                closed = all(G.op(a, b) in s for a in s for b in s)
                if closed and (infinite or G.id_of(m0 - 1) in s):
                    H.validate()
                    accepted += 1
                    continue
                with pytest.raises(InvalidArgumentError) as err:
                    H.validate()
                if closed:
                    assert str(err.value) == f"ideal group mod {m} does not hold -1", (m0, s)
                    continue
                found = re.fullmatch(r"subgroup not closed at (\d+)\*(\d+)", str(err.value))
                x, y = map(int, found.groups())
                assert x in s and y in s and G.op(x, y) not in s, (m0, s, x, y)
    # The subgroups of (Z/m0)^x, or those holding -1, counted by brute force over residues.
    assert accepted == (87 if infinite else 37)


def test_squares_group_validates_with_quasilinear_op_calls(monkeypatch):
    """|S|*(1 + log2|S|)^2 group-operation reads at most; the all-pairs rule made |S|^2."""
    calls = 0
    op = UnitGroup.op

    def counted(group, a, b):
        nonlocal calls
        calls += 1
        return op(group, a, b)

    monkeypatch.setattr(UnitGroup, "op", counted)
    n = squares_group(4093).order
    assert n == 2046
    assert 0 < calls <= n * (1 + log2(n)) ** 2
