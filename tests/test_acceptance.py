"""Acceptance sweeps at full bounds; one pass/fail line is printed per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
The heavy corpus suite is shared by the three criteria it covers.  Each suite's
check count at its default bounds is pinned, so a change that keeps PASS but
checks less fails here.
"""

import time

import pytest

from rayclass import verify


def _report(name: str, result: verify.SuiteResult, seconds: float) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {name} ({result.checks} checks, {seconds:.1f}s)")
    for msg in result.failures[:3]:
        print(f"       {msg}")


def _run(name, fn, **kwargs):
    t0 = time.time()
    result = fn(**kwargs)
    _report(name, result, time.time() - t0)
    return result


@pytest.fixture(scope="module")
def transfer_props_result():
    return _run(
        "criteria 4-6: transfer properties over the abelian corpus",
        verify.transfer_props_suite,
    )


def test_criterion_01_qr_via_splitting():
    result = _run(
        "criterion 1: quadratic reciprocity via splitting, odd primes <= 541",
        verify.qr_splitting_suite,
        max_prime=541,
    )
    assert result.passed, result.failures
    assert result.checks == 9702


def test_criterion_02_qr_via_transfer():
    result = _run(
        "criterion 2: quadratic reciprocity via transfer, p <= 101, q <= 541",
        verify.qr_transfer_suite,
        max_p=101,
        max_q=541,
    )
    assert result.passed, result.failures
    assert result.checks == 7584


def test_criterion_03_three_route_symbols():
    result = _run(
        "criterion 3: three-route symbol agreement, p <= 211, 20 half-systems",
        verify.gauss_lemma_suite,
        max_prime=211,
        n_systems=20,
    )
    assert result.passed, result.failures
    assert result.checks == 94118


def test_criterion_04_cyclic_quotient_power_law(transfer_props_result):
    assert transfer_props_result.passed, [
        f for f in transfer_props_result.failures if "V(" in f or "!=" in f
    ]


def test_criterion_05_rep_independence_and_homomorphism(transfer_props_result):
    assert transfer_props_result.passed, transfer_props_result.failures
    # One check per passing corpus group, then the surjectivity tail and Klein's three.
    assert transfer_props_result.checks == 1701


def test_criterion_06_surjectivity_and_klein_four(transfer_props_result):
    assert transfer_props_result.passed, transfer_props_result.failures


def test_criterion_07_spl_three_characterizations():
    result = _run(
        "criterion 7: Spl(Q(sqrt(p*))) three ways, p <= 61, q <= 2000",
        verify.spl_sweep,
        result=verify.SuiteResult("spl-three-ways"),
        max_p=61,
        spl_bound=2000,
    )
    assert result.passed, result.failures[:5]


def test_criterion_08_euler_formulation():
    result = _run(
        "criterion 8: symbol constant on ray classes, |d| <= 101, primes <= 5000",
        verify.euler_formulation_suite,
        max_disc=101,
        prime_bound=5000,
    )
    assert result.passed, result.failures
    assert result.checks == 62


def test_criterion_09_takagi_index_and_witnesses():
    result = _run(
        "criterion 9: index-2 norm groups (|d| <= 101) and witnesses (a <= 300, |d| <= 60)",
        verify.takagi_suite,
        max_disc=101,
        witness_max_disc=60,
        witness_max_a=300,
        prime_bound=10**4,
    )
    assert result.passed, result.failures
    assert result.checks == 163


def test_criterion_10_conductors():
    result = _run(
        "criterion 10: conductors by exhaustive divisor search, |d| <= 100",
        verify.conductor_suite,
        max_disc=100,
    )
    assert result.passed, result.failures
    assert result.checks == 61


def test_criterion_11_cyclotomic_bookkeeping():
    result = _run(
        "criterion 11: e*f*g = phi(m) for q <= 500, m <= 100, and cyclotomic indices",
        verify.indices_suite,
        max_m=100,
        prime_bound=500,
    )
    assert result.passed, result.failures
    assert result.checks == 9426
