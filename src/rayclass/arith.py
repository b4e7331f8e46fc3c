"""Exact integer arithmetic substrate: primality, factorization, totients, orders.

Everything here is deterministic and exact.  Primality is decided by trial
division by the first 13 primes, which settles every n below 43^2, and above
that by Miller-Rabin on the same 13 prime bases, which is exact below
psi_13 ~ 3.3e24; larger inputs raise TooLargeError rather than get a probable
answer.
"""

from __future__ import annotations

from math import gcd, isqrt

from .errors import InvalidArgumentError, NotCoprimeError, TooLargeError

# The first 13 prime bases decide primality exactly for all n < psi_13
# (Sorenson & Webster 2015, arXiv:1509.00864); psi_13 itself is composite.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981

_TRIAL_BOUND = 10**6


def is_prime(n: int) -> bool:
    """Exact primality test (trial division, then deterministic Miller-Rabin) for n < PSI_13.

    Raises TooLargeError for n >= PSI_13, where the witness set is not proven.
    """
    if n < 2:
        return False
    if n >= PSI_13:
        raise TooLargeError(f"{n} is at least psi_13 = {PSI_13}, beyond exact primality")
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        # A composite below 43^2 has a prime factor at most 41, which the loop found.
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p: int) -> None:
    """InvalidArgumentError unless p is an odd prime."""
    if p == 2 or not is_prime(p):
        raise InvalidArgumentError(f"{p} is not an odd prime")


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle-finding variant)."""
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Complete prime factorization of n >= 1: (prime, exponent) pairs by ascending prime; () for 1."""
    if n < 1:
        raise InvalidArgumentError(f"can only factor positive integers, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    # 30-wheel trial division; Pollard rho mops up anything past the bound.
    d = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d <= _TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            n //= d
            out[d] = out.get(d, 0) + 1
        d += increments[i]
        i = (i + 1) % 8
    _factor_into(n, out)
    return tuple(sorted(out.items()))


def euler_phi(n: int) -> int:
    """Count of residues in [1, n] coprime to n."""
    if n < 1:
        raise InvalidArgumentError(f"euler_phi requires n >= 1, got {n}")
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def mult_order(a: int, m: int) -> int:
    """Least k >= 1 with a**k == 1 mod m; requires gcd(a, m) = 1."""
    if m < 2:
        raise InvalidArgumentError(f"modulus must be >= 2, got {m}")
    if gcd(a, m) != 1:
        raise NotCoprimeError(f"{a} is not coprime to {m}")
    # Start at phi(m) and strip prime factors while the power stays 1.
    order = euler_phi(m)
    for p, _ in factorize(order):
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, n + 1) if sieve[i]]
