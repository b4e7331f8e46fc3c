"""Differential tests of arith and symbols against sympy, skipped without hypothesis or sympy."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

import random  # noqa: E402
from math import gcd  # noqa: E402

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rayclass.arith import (  # noqa: E402
    PSI_13,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    mult_order,
    primes_up_to,
)
from rayclass.symbols import gauss_lemma_sign, jacobi, random_half_system  # noqa: E402

moduli = st.one_of(st.integers(1, 10**4), st.integers(1, 10**12))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(2, 10**6), st.integers(2, 2**64), st.integers(2, PSI_13 - 1)))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)
    # Uniform draws are mostly composite; check the next prime too.
    q = sympy.nextprime(n)
    if q < PSI_13:
        assert is_prime(q)


@settings(max_examples=200, deadline=None)
@given(st.integers(-(10**12), 10**12), st.integers(0, 10**9))
def test_jacobi_matches_sympy(a, k):
    n = 2 * k + 1
    assert jacobi(a, n) == sympy.jacobi_symbol(a, n)


@settings(max_examples=200, deadline=None)
@given(moduli)
def test_factorize_matches_sympy(n):
    assert dict(factorize(n)) == sympy.factorint(n)


def test_divisors_match_sympy():
    for n in range(1, 2001):
        assert divisors(n) == sympy.divisors(n), n


@settings(max_examples=200, deadline=None)
@given(moduli)
def test_euler_phi_matches_sympy(n):
    assert euler_phi(n) == sympy.totient(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(-(10**6), 10**6), moduli)
def test_mult_order_matches_sympy(a, m):
    assume(m >= 2 and gcd(a, m) == 1)
    assert mult_order(a, m) == sympy.n_order(a, m)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(primes_up_to(2000)[1:]), st.integers(-(10**6), 10**6), st.integers(0, 2**32))
def test_gauss_lemma_sign_matches_sympy(p, a, seed):
    assume(a % p != 0)
    system = random_half_system(p, random.Random(seed))
    assert gauss_lemma_sign(a, p, system) == sympy.legendre_symbol(a, p)
