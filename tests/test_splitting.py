import random
from dataclasses import replace

import pytest

from rayclass import splitting
from rayclass.arith import euler_phi, primes_up_to
from rayclass.classfield import (
    FundamentalDiscriminant,
    fundamental_discriminants,
    squares_group,
    takagi_group_cyclotomic,
    takagi_group_quadratic,
)
from rayclass.errors import (
    InternalInconsistencyError,
    InvalidArgumentError,
    NotCoprimeError,
    RamifiedError,
)
from rayclass.groups import (
    cyclic_group,
    group_from_unit_residues,
    subgroup_generated,
    transfer,
)
from rayclass.splitting import (
    Cyclotomic,
    Quadratic,
    gauss_lemma_is_transfer,
    qr_via_splitting,
    qr_via_transfer,
    spl_set,
    splits_completely_in_class_field,
    splitting_cyclotomic,
    splitting_in_subfield,
    splitting_quadratic,
    transfer_kernel_classfield,
    transfer_sign,
)
from rayclass.symbols import (
    default_half_system,
    gauss_lemma,
    kronecker,
    legendre_brute,
    pstar,
    random_half_system,
)


def test_splitting_quadratic():
    assert splitting_quadratic(19, 5).word == "split"
    assert splitting_quadratic(3, -4).word == "inert"
    assert splitting_quadratic(2, -4).word == "ramified"
    for q in (2, 3, 5, 19):
        assert splitting_quadratic(q, 5).degree == 2


def test_splitting_cyclotomic():
    assert splitting_cyclotomic(13, 12) == splitting_cyclotomic(13, 12)
    st = splitting_cyclotomic(13, 12)
    assert (st.e, st.f, st.g) == (1, 1, 4)
    st = splitting_cyclotomic(5, 12)
    assert (st.e, st.f, st.g) == (1, 2, 2)
    st = splitting_cyclotomic(2, 12)
    assert (st.e, st.f, st.g) == (2, 2, 1)


def test_splitting_cyclotomic_degree_sweep():
    for m in range(3, 40):
        for q in primes_up_to(60):
            assert splitting_cyclotomic(q, m).degree == euler_phi(m)


def test_splitting_in_subfield():
    G = group_from_unit_residues(7)
    full = subgroup_generated(G, set(G.elements))
    st = splitting_in_subfield(5, full)
    assert (st.e, st.f, st.g) == (1, 1, 1)  # fixed field is Q
    squares = subgroup_generated(G, {G.id_of(2)})
    st = splitting_in_subfield(2, squares)
    assert st.f == 1 and st.g == 2  # 2 splits in Q(sqrt(-7))
    assert kronecker(-7, 2) == 1
    with pytest.raises(RamifiedError):
        splitting_in_subfield(7, squares)


def test_subfield_compatibility_with_cyclotomic():
    for m in (5, 7, 12, 15):
        G = group_from_unit_residues(m)
        trivial = subgroup_generated(G, set())
        full = subgroup_generated(G, set(G.elements))
        for q in primes_up_to(40):
            if m % q == 0:
                continue
            assert splitting_in_subfield(q, trivial) == splitting_cyclotomic(q, m)
            assert splitting_in_subfield(q, full).degree == 1


def test_maximal_real_subfield():
    # U = {+-1} fixes the maximal real subfield: q has f = 1 iff q = +-1 mod p
    p = 11
    G = group_from_unit_residues(p)
    U = subgroup_generated(G, {G.id_of(p - 1)})
    for q in primes_up_to(100):
        if q == p:
            continue
        st = splitting_in_subfield(q, U)
        assert (st.f == 1) == (q % p in (1, p - 1))


def test_quadratic_subfield_compatibility():
    for p in (5, 7, 11, 13):
        G = group_from_unit_residues(p)
        squares = subgroup_generated(G, {G.id_of(x * x % p) for x in range(1, p)})
        d = pstar(p)
        for q in primes_up_to(200):
            if q == 2 or q == p:
                continue
            assert splitting_in_subfield(q, squares) == splitting_quadratic(q, d)


def test_splits_completely_in_class_field():
    sq5 = squares_group(5)
    for q in primes_up_to(60):
        if q == 5:
            continue
        assert splits_completely_in_class_field(q, sq5) == (legendre_brute(q, 5) == 1)
    H = takagi_group_quadratic(5)
    assert splits_completely_in_class_field(11, H)
    with pytest.raises(NotCoprimeError, match="^5 is not coprime to 5$"):
        splits_completely_in_class_field(5, sq5)


def test_class_field_of_an_ideal_group_is_its_fixed_field():
    # The class field of H is Q(zeta_m0)^H: q splits completely in it iff f = 1 there,
    # and its degree is the index (D_m : H).
    ideal_groups = [squares_group(p) for p in primes_up_to(31)[1:]]
    ideal_groups += [takagi_group_quadratic(d) for d in fundamental_discriminants(60)]
    ideal_groups += [takagi_group_cyclotomic(m) for m in range(3, 31)]
    for H in ideal_groups:
        m0 = H.modulus.m0
        for q in primes_up_to(200):
            if m0 % q == 0:
                continue
            st = splitting_in_subfield(q, H)
            assert splits_completely_in_class_field(q, H) == (st.f == 1), (H.modulus, q)
            assert st.degree == H.index, (H.modulus, q)


def test_spl_sets():
    assert spl_set(Quadratic(FundamentalDiscriminant(5)), 50) == [11, 19, 29, 31, 41]
    assert spl_set(Cyclotomic(5), 50) == [11, 31, 41]
    G = group_from_unit_residues(7)
    squares = subgroup_generated(G, {G.id_of(2)})
    assert spl_set(squares, 60) == [q for q in primes_up_to(60) if q != 7 and kronecker(-7, q) == 1]


def test_a_subgroup_of_another_group_fixes_no_subfield():
    # Z/6 is no (Z/m)^x, so no m says which cyclotomic field its subgroups act on.
    U = subgroup_generated(cyclic_group(6), {2})
    for call in (lambda: splitting_in_subfield(5, U), lambda: spl_set(U, 50)):
        with pytest.raises(InvalidArgumentError) as excinfo:
            call()
        assert type(excinfo.value) is InvalidArgumentError
        assert str(excinfo.value) == "the group of order 6 is not a unit group (Z/m)^x"


def _squares_mod_7():
    G = group_from_unit_residues(7)
    return subgroup_generated(G, {G.id_of(2)})


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: splitting_quadratic(4, 5), InvalidArgumentError, "4 is not prime"),
        (lambda: splitting_cyclotomic(4, 12), InvalidArgumentError, "4 is not prime"),
        (
            lambda: splitting_in_subfield(4, _squares_mod_7()),
            InvalidArgumentError,
            "4 is not prime",
        ),
        (
            lambda: splits_completely_in_class_field(4, squares_group(5)),
            InvalidArgumentError,
            "4 is not prime",
        ),
        (lambda: splitting_cyclotomic(5, 2), InvalidArgumentError, "need m >= 3, got 2"),
        (lambda: qr_via_transfer(7, 7), InvalidArgumentError, "primes must be distinct"),
        (lambda: qr_via_splitting(7, 7), InvalidArgumentError, "primes must be distinct"),
        (lambda: transfer_sign(7, 14), NotCoprimeError, "14 is not coprime to 7"),
        (
            lambda: spl_set(Quadratic(FundamentalDiscriminant(5)), 1),
            InvalidArgumentError,
            "bound must be >= 2, got 1",
        ),
    ],
)
def test_splitting_api_raises_typed_errors(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def test_transfer_kernel_classfield():
    H, fld = transfer_kernel_classfield(3)
    assert H.order == 1 and fld.d.d == -3
    H, fld = transfer_kernel_classfield(7)
    assert [H.parent.label_of(i) for i in H.members] == [1, 2, 4]
    assert fld.d.d == -7
    H, fld = transfer_kernel_classfield(5)
    assert [H.parent.label_of(i) for i in H.members] == [1, 4]
    assert fld.d.d == 5


def test_transfer_kernel_classfield_rejects_a_kernel_that_is_not_the_squares(monkeypatch):
    squares = splitting.squares_group

    def non_squares(p):
        H = squares(p)
        return replace(H, members=tuple(i for i in H.parent.elements if i not in H))

    monkeypatch.setattr(splitting, "squares_group", non_squares)
    with pytest.raises(InternalInconsistencyError) as excinfo:
        transfer_kernel_classfield(7)
    assert str(excinfo.value) == "transfer kernel mod 7 differs from the square classes"


def test_gauss_lemma_is_transfer():
    # The half-system {1, 2, 3} as the transversal of U = {+-1} in (Z/7)^x.
    system = default_half_system(7)
    G = group_from_unit_residues(7)
    U = subgroup_generated(G, {G.id_of(6)})
    reps = tuple(G.id_of(aj) for aj in system.elements)
    for a, value, signs in ((1, 1, (1, 1, 1)), (3, -1, (1, -1, 1)), (2, 1, (1, -1, -1))):
        assert gauss_lemma_is_transfer(7, a, system) is True
        symbol, rows = gauss_lemma(a, 7, system)
        assert (symbol, tuple(r.sign for r in rows)) == (value, signs)
        result = transfer(U, G.id_of(a), reps)
        assert G.label_of(result.value) == value % 7
        assert tuple(1 if u == G.identity else -1 for _, u in result.contributions) == signs


def test_gauss_lemma_is_transfer_random_systems():
    rng = random.Random(17)
    for p in (5, 11, 23):
        for a in range(1, p):
            for _ in range(5):
                assert gauss_lemma_is_transfer(p, a, random_half_system(p, rng)) is True


def test_gauss_lemma_is_transfer_keeps_its_transversal_past_a_setup_rebuild():
    # Each half-system's transversal is built once and kept with the G and U it was built
    # over, so the transfer group rebuilt after _transfer_setup forgets p is never mixed in.
    system = random_half_system(13, random.Random(4))
    splitting._half_system_transversal.cache_clear()
    assert all(gauss_lemma_is_transfer(13, a, system) for a in range(1, 13))
    splitting._transfer_setup.cache_clear()
    assert all(gauss_lemma_is_transfer(13, a, system) for a in range(1, 13))
    assert splitting._half_system_transversal.cache_info().misses == 1


def test_qr_via_splitting_examples():
    chk = qr_via_splitting(5, 11)
    assert (chk.lhs, chk.rhs, chk.equal) == (1, 1, True)
    chk = qr_via_splitting(3, 5)
    assert (chk.lhs, chk.rhs, chk.equal) == (-1, -1, True)
    chk = qr_via_splitting(7, 3)
    assert (chk.lhs, chk.rhs, chk.equal) == (-1, -1, True)


def test_qr_via_transfer_examples():
    chk = qr_via_transfer(7, 3)
    assert (chk.lhs, chk.rhs, chk.equal) == (-1, -1, True)
    chk = qr_via_transfer(5, 11)
    assert (chk.lhs, chk.rhs, chk.equal) == (1, 1, True)
    chk = qr_via_transfer(7, 29)  # 29 = 1 mod 7
    assert chk.rhs == 1 and chk.equal


def test_qr_pairs_small_sweep():
    odd = [p for p in primes_up_to(60) if p > 2]
    for p in odd:
        for q in odd:
            if p == q:
                continue
            assert qr_via_splitting(p, q).equal
            assert qr_via_transfer(p, q).equal


def test_spl_three_ways_agree():
    for p in (3, 5, 7, 11, 13):
        H, fld = transfer_kernel_classfield(p)
        in_spl = set(spl_set(fld, 300))
        for q in primes_up_to(300):
            if q == p:
                continue
            assert (q in in_spl) == (transfer_sign(p, q) == 1) == (legendre_brute(q, p) == 1)
