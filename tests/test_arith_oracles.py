"""Differential tests of `is_prime` against sympy, skipped without hypothesis or sympy."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rayclass.arith import PSI_13, is_prime  # noqa: E402


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(2, 10**6), st.integers(2, 2**64), st.integers(2, PSI_13 - 1)))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)
    # Uniform draws are mostly composite; check the next prime too.
    q = sympy.nextprime(n)
    if q < PSI_13:
        assert is_prime(q)
