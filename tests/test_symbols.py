import random
from math import gcd

import pytest

from rayclass import symbols, verify
from rayclass.arith import primes_up_to
from rayclass.errors import (
    InvalidArgumentError,
    InvalidHalfSystemError,
    NotCoprimeError,
)
from rayclass.splitting import gauss_lemma_is_transfer
from rayclass.symbols import (
    HalfSystem,
    default_half_system,
    gauss_lemma,
    gauss_lemma_sign,
    jacobi,
    kronecker,
    legendre_brute,
    legendre_euler,
    pstar,
    random_half_system,
)


def test_legendre_brute_examples():
    assert legendre_brute(1, 11) == 1
    assert legendre_brute(3, 7) == -1
    assert legendre_brute(2, 7) == 1
    assert legendre_brute(14, 7) == 0


def test_legendre_brute_rejects_composite():
    with pytest.raises(InvalidArgumentError):
        legendre_brute(3, 15)
    with pytest.raises(InvalidArgumentError):
        legendre_brute(3, 2)


def test_legendre_euler_examples():
    assert legendre_euler(3, 7) == -1
    assert legendre_euler(4, 7) == 1
    assert legendre_euler(14, 7) == 0


def test_gauss_lemma_examples():
    A = default_half_system(7)
    assert A.elements == (1, 2, 3)
    value, rows = gauss_lemma(3, 7, A)
    assert value == -1
    assert tuple(r.sign for r in rows) == (1, -1, 1)
    value, rows = gauss_lemma(2, 7, A)
    assert value == 1
    assert tuple(r.sign for r in rows) == (1, -1, -1)
    value, rows = gauss_lemma(1, 7, A)
    assert value == 1
    assert all(r.sign == 1 for r in rows)


def test_gauss_lemma_trace_invariants():
    rng = random.Random(7)
    for p in (5, 7, 11, 13, 31):
        for system in (default_half_system(p), random_half_system(p, rng)):
            for a in range(1, p):
                value, rows = gauss_lemma(a, p, system)
                targets = [r.target for r in rows]
                assert sorted(targets) == list(range(len(system.elements)))
                for aj, r in zip(system.elements, rows, strict=True):
                    lhs = a * aj % p
                    assert lhs == r.sign * system.elements[r.target] % p
                prod = 1
                for r in rows:
                    prod *= r.sign
                assert prod == value


def test_gauss_lemma_not_coprime():
    with pytest.raises(NotCoprimeError):
        gauss_lemma(7, 7, default_half_system(7))


def test_gauss_lemma_sign_matches_trace_and_brute():
    rng = random.Random(11)
    # 191, 311 and 409 have least primitive roots 19, 17 and 21, so the log
    # table's generator search passes over many non-generators first.
    for p in (*primes_up_to(61)[1:], 191, 311, 409):
        systems = [default_half_system(p)] + [random_half_system(p, rng) for _ in range(5)]
        for a in range(-2 * p, 2 * p + 1):
            if a % p == 0:
                continue
            expected = legendre_brute(a, p)
            for system in systems:
                assert gauss_lemma_sign(a, p, system) == gauss_lemma(a, p, system)[0] == expected


@pytest.mark.parametrize("p, g", [(3, 2), (7, 3), (191, 19), (311, 17), (409, 21)])
def test_half_system_logs_are_to_the_least_primitive_root(p, g):
    log, mask = default_half_system(p).log_mask
    assert sorted(log) == list(range(1, p))
    assert all(log[pow(g, k, p)] == k for k in range(p - 1))
    assert all((mask >> log[x] & 1) == (x <= (p - 1) // 2) for x in range(1, p))


def test_half_system_log_mask_is_the_sum_of_its_bits(monkeypatch):
    # The mask is built from a byte array; the reference is the sum of 1 << log x over A,
    # on every half-system the gauss-lemma suite draws and on two at p = 99991.
    drawn = []

    def recorded(make):
        def made(*args):
            drawn.append(make(*args))
            return drawn[-1]

        return made

    monkeypatch.setattr(symbols, "default_half_system", recorded(default_half_system))
    monkeypatch.setattr(symbols, "random_half_system", recorded(random_half_system))
    assert verify.gauss_lemma_suite().passed
    assert {system.p for system in drawn} == {p for p in primes_up_to(211) if p > 2}
    drawn += [default_half_system(99991), random_half_system(99991, random.Random(5))]
    for system in drawn:
        log, mask = system.log_mask
        assert mask == sum(1 << log[x] for x in system.elements), system.p


def _unchecked_subset(p, elements):
    """A HalfSystem holding any subset of (Z/p)^x, built past the half-system check."""
    subset = object.__new__(HalfSystem)
    object.__setattr__(subset, "p", p)
    object.__setattr__(subset, "elements", tuple(elements))
    return subset


def test_gauss_lemma_sign_is_gauss_count_on_any_subset():
    # On a subset A that is not a half-system the count #{x in A : a*x not in A}
    # no longer agrees with the Legendre symbol, so a sign read off the
    # Legendre symbol (such as the parity of log a) fails here.
    rng = random.Random(13)
    disagreements = 0
    for p in (3, 5, 7, 11, 13, 31, 61, 191):
        for _ in range(8):
            members = rng.sample(range(1, p), rng.randint(0, p - 1))
            subset = _unchecked_subset(p, members)
            for a in range(-p, 2 * p):
                if a % p == 0:
                    continue
                outside = sum(a * x % p not in members for x in members)
                assert gauss_lemma_sign(a, p, subset) == (-1) ** outside
                disagreements += (-1) ** outside != legendre_brute(a, p)
    assert disagreements > 0


@pytest.mark.parametrize(
    "route",
    [
        gauss_lemma,
        gauss_lemma_sign,
        pytest.param(
            lambda a, p, system: gauss_lemma_is_transfer(p, a, system), id="gauss_lemma_is_transfer"
        ),
    ],
)
def test_gauss_lemma_routes_reject_bad_arguments(route):
    with pytest.raises(InvalidArgumentError):
        route(2, 11, default_half_system(7))
    with pytest.raises(NotCoprimeError):
        route(14, 7, default_half_system(7))
    with pytest.raises(NotCoprimeError):
        route(0, 7, default_half_system(7))


def test_gauss_lemma_sign_calls_no_other_route(monkeypatch):
    ps = (3, 7, 13, 31)
    expected = {(a, p): legendre_brute(a, p) for p in ps for a in range(1, p)}
    rng = random.Random(5)
    systems = {p: (default_half_system(p), random_half_system(p, rng)) for p in ps}

    def forbidden(*args):
        raise AssertionError("the sign-only Gauss Lemma must not call another route")

    for name in ("legendre_euler", "legendre_brute", "kronecker", "jacobi"):
        monkeypatch.setattr(symbols, name, forbidden)
    for (a, p), value in expected.items():
        for system in systems[p]:
            assert gauss_lemma_sign(a, p, system) == value


def test_half_system_validation():
    with pytest.raises(InvalidHalfSystemError):
        HalfSystem(p=7, elements=(1, 2))
    with pytest.raises(InvalidHalfSystemError):
        HalfSystem(p=7, elements=(1, 2, 5))  # 2 and 5 represent the same pair


def test_three_route_agreement_small():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        A = default_half_system(p)
        for a in range(1, p):
            expected = legendre_brute(a, p)
            assert legendre_euler(a, p) == expected
            assert gauss_lemma(a, p, A)[0] == expected


def test_jacobi_examples():
    assert jacobi(5, 1) == 1
    assert jacobi(-2, 1) == 1
    assert jacobi(2, 15) == 1
    assert jacobi(3, 7) == -1


def test_jacobi_matches_legendre_and_is_multiplicative():
    for n in (3, 5, 7, 11, 13, 17):
        for a in range(-10, 30):
            assert jacobi(a, n) == legendre_brute(a, n)
    for a in range(1, 20):
        for n1 in (3, 5, 9, 15):
            for n2 in (3, 7, 11):
                assert jacobi(a, n1 * n2) == jacobi(a, n1) * jacobi(a, n2)


def test_jacobi_rejects_even_or_nonpositive():
    with pytest.raises(InvalidArgumentError):
        jacobi(2, 6)
    with pytest.raises(InvalidArgumentError):
        jacobi(2, -3)


def test_kronecker_examples():
    assert kronecker(7, 1) == 1
    assert kronecker(5, 19) == 1
    assert kronecker(-4, 3) == -1


def test_kronecker_edge_conventions():
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(5, 0) == 0
    for d in (-11, -4, 5, 13):
        assert kronecker(d, -1) == (1 if d > 0 else -1)
    # (d/2): 0 for even d, +1 for d = +-1 mod 8, -1 for d = +-3 mod 8
    assert kronecker(8, 2) == 0
    assert kronecker(17, 2) == 1
    assert kronecker(7, 2) == 1
    assert kronecker(5, 2) == -1
    assert kronecker(-3, 2) == -1


def test_kronecker_completely_multiplicative():
    rng = random.Random(11)
    for d in (-8, -4, -3, 5, 12, 13, 21):
        for _ in range(200):
            a = rng.randint(-50, 50)
            b = rng.randint(-50, 50)
            assert kronecker(d, a * b) == kronecker(d, a) * kronecker(d, b)


def test_kronecker_periodicity_for_fundamental_d():
    for d in (-20, -8, -7, -4, -3, 5, 8, 12, 13):
        for a in range(1, 3 * abs(d)):
            assert kronecker(d, a) == kronecker(d, a + abs(d))


def test_pstar():
    assert pstar(5) == 5
    assert pstar(3) == -3
    assert pstar(7) == -7
    for p in (3, 5, 7, 11, 13, 17, 19):
        assert pstar(p) % 4 == 1
    with pytest.raises(InvalidArgumentError):
        pstar(2)
    with pytest.raises(InvalidArgumentError):
        pstar(9)


def test_half_system_independence():
    rng = random.Random(3)
    for p in (5, 13, 29):
        A0 = default_half_system(p)
        for a in range(1, p):
            if gcd(a, p) != 1:
                continue
            expected = gauss_lemma(a, p, A0)[0]
            for _ in range(10):
                assert gauss_lemma(a, p, random_half_system(p, rng))[0] == expected
