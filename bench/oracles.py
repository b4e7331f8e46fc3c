"""Independent number-theory oracles for the point-queries workload.

Nothing here imports rayclass.  Every answer is recomputed from definitions
small enough to trust at a glance: trial division, Euler's criterion with the
builtin pow, multiplicative closure of residues, and so on.  The symbol
oracles take n's factorization as an argument; the generator's moduli are at
most 4096, so it factors them by trial division.
"""

from __future__ import annotations

from math import isqrt


def primes_up_to(n: int) -> list[int]:
    """Primes <= n, by trial division against the primes found so far."""
    out: list[int] = []
    for k in range(2, n + 1):
        r = isqrt(k)
        if all(k % p for p in out if p <= r):
            out.append(k)
    return out


def is_prime(n: int) -> bool:
    """Trial division; only used on n below 10**8."""
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def factor(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi(n: int) -> int:
    out = n
    for p in factor(n):
        out = out // p * (p - 1)
    return out


def squarefree(n: int) -> bool:
    return all(e == 1 for e in factor(abs(n)).values())


def is_fundamental(d: int) -> bool:
    if d in (0, 1):
        return False
    if d % 4 == 1:
        return squarefree(d)
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree(d // 4)


def legendre(a: int, p: int) -> int:
    """Euler's criterion for an odd prime p the caller vouches for."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def kronecker_two(a: int) -> int:
    """(a/2): 0 for even a, +1 for a = +-1 mod 8, -1 for a = +-3 mod 8."""
    if a % 2 == 0:
        return 0
    return 1 if a % 8 in (1, 7) else -1


def kronecker(a: int, sign: int, factors: dict[int, int]) -> int:
    """(a/n) for n = sign * prod p**e, multiplied out over the known factors."""
    value = -1 if sign < 0 and a < 0 else 1
    for p, e in factors.items():
        s = kronecker_two(a) if p == 2 else legendre(a, p)
        value *= s**e
    return value


def subgroup(m: int, gens: list[int]) -> set[int]:
    """Residues mod m generated multiplicatively by gens (all coprime to m)."""
    members = {1 % m}
    frontier = [1 % m]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % m
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


def transfer_value(m: int, gens: list[int], g: int) -> int:
    """(Z/m)^x is abelian, so the transfer to U is g**[G:U] and U' is trivial."""
    return pow(g, phi(m) // len(subgroup(m, gens)), m)


def order_mod(q: int, m: int) -> int:
    k, x = 1, q % m
    while x != 1 % m:
        x = x * q % m
        k += 1
    return k


def splitting_quadratic(d: int, q: int) -> tuple[int, int, int]:
    chi = kronecker(d, 1, {q: 1})
    return {1: (1, 1, 2), -1: (1, 2, 1), 0: (2, 1, 1)}[chi]


def splitting_cyclotomic(m: int, q: int) -> tuple[int, int, int]:
    qk, m1 = 1, m
    while m1 % q == 0:
        m1 //= q
        qk *= q
    e = phi(qk)
    f = order_mod(q, m1) if m1 > 2 else 1
    return e, f, phi(m) // (e * f)


def splitting_subfield(m: int, gens: list[int], q: int) -> tuple[int, int, int]:
    """Unramified q in the fixed field of U: f is the order of q modulo U."""
    U = subgroup(m, gens)
    f, x = 1, q % m
    while x not in U:
        x = x * q % m
        f += 1
    return 1, f, phi(m) // len(U) // f


def word(efg: tuple[int, int, int]) -> str:
    e, f, g = efg
    if e > 1:
        return "ramified"
    return "split" if f == 1 else "inert"


def witness_ok(a: int, d: int, witness: list[dict], num: int, den: int) -> bool:
    """Re-verify a Takagi witness: split primes only, num/den = a/prod p**e, num = den mod |d|."""
    expect_num, expect_den = a, 1
    for item in witness:
        p, e = item["prime"], item["exponent"]
        if e == 0 or not is_prime(p) or kronecker(d, 1, {p: 1}) != 1:
            return False
        if e > 0:
            expect_den *= p**e
        else:
            expect_num *= p ** (-e)
    return (num, den) == (expect_num, expect_den) and (num - den) % abs(d) == 0
