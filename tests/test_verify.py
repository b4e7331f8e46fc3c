"""The verify suites' failure path: counts, failure order and thread invariance."""

import pytest

from rayclass import classfield, splitting, symbols, verify
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
