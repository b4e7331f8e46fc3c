from math import prod

import pytest

from rayclass.arith import (
    PSI_13,
    euler_phi,
    factorize,
    is_prime,
    mult_order,
    primes_up_to,
)
from rayclass.errors import InvalidArgumentError, NotCoprimeError, TooLargeError

# psi_12, the least strong pseudoprime to the first 12 prime bases.
PSI_12 = 318665857834031151167461


def sieve_oracle(n):
    """Independent sieve of Eratosthenes, kept separate from the library's."""
    flags = [True] * (n + 1)
    flags[0] = flags[1] = False
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            for k in range(p * p, n + 1, p):
                flags[k] = False
    return flags


def test_is_prime_examples():
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael number
    assert is_prime(7919)


def test_is_prime_around_the_trial_division_bound():
    # Below 43^2 the 13 witness primes decide by division alone.
    assert not is_prime(1681)  # 41^2
    assert is_prime(1847)
    assert not is_prime(1849)  # 43^2, the first composite with no factor <= 41
    assert not is_prime(1853)  # 17 * 109


def test_is_prime_against_sieve():
    flags = sieve_oracle(10**5)
    for n in range(10**5 + 1):
        assert is_prime(n) == flags[n], n


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**31 - 11))


def test_is_prime_rejects_psi_12():
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    assert is_prime(PSI_13 - 168)  # the largest prime below psi_13


def test_is_prime_raises_from_psi_13():
    for n in (PSI_13, PSI_13 + 2, 2**89 - 1):
        with pytest.raises(TooLargeError):
            is_prime(n)


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(1000003 * 1000033) == ((1000003, 1), (1000033, 1))


def test_factorize_reconstructs():
    for n in range(2, 10**4 + 1):
        pairs = factorize(n)
        assert prod(p**e for p, e in pairs) == n
        primes = [p for p, _ in pairs]
        assert primes == sorted(set(primes)) and all(is_prime(p) for p in primes), n
        assert all(e >= 1 for _, e in pairs), n


def test_factorize_rejects_zero():
    with pytest.raises(InvalidArgumentError):
        factorize(0)


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    for p in (2, 3, 5, 101, 7919):
        assert euler_phi(p) == p - 1


def test_euler_theorem_sanity():
    from math import gcd

    for m in range(2, 2001):
        phi = euler_phi(m)
        for a in range(1, m):
            if gcd(a, m) == 1:
                assert pow(a, phi, m) == 1


def test_mult_order_examples():
    assert mult_order(1, 5) == 1
    assert mult_order(2, 7) == 3
    assert mult_order(5, 12) == 2


def test_mult_order_divides_phi():
    from math import gcd

    for m in range(2, 200):
        phi = euler_phi(m)
        for a in range(1, m):
            if gcd(a, m) == 1:
                k = mult_order(a, m)
                assert phi % k == 0
                assert pow(a, k, m) == 1
                if k > 1:
                    assert all(pow(a, j, m) != 1 for j in range(1, min(k, 12)))


def test_mult_order_not_coprime():
    with pytest.raises(NotCoprimeError):
        mult_order(6, 9)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: euler_phi(0), "euler_phi requires n >= 1, got 0"),
        (lambda: mult_order(3, 1), "modulus must be >= 2, got 1"),
    ],
    ids=["euler_phi", "mult_order"],
)
def test_arith_raises_typed_errors(call, message):
    with pytest.raises(InvalidArgumentError) as excinfo:
        call()
    assert type(excinfo.value) is InvalidArgumentError
    assert str(excinfo.value) == message


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
