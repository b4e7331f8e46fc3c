import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from rayclass import groups
from rayclass.cli import EXIT_CLOSED_PIPE, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_symbol_legendre(capsys):
    code, out, _ = run(capsys, "symbol", "--kind", "legendre", "--a", "3", "--n", "7")
    assert code == 0
    assert "-1" in out


def test_symbol_kronecker_edge(capsys):
    code, out, _ = run(capsys, "symbol", "--kind", "kronecker", "--a", "1", "--n", "0")
    assert code == 0
    assert "+1" in out


def test_symbol_bad_modulus_exits_1(capsys):
    code, _, err = run(capsys, "symbol", "--kind", "legendre", "--a", "3", "--n", "8")
    assert code == 1
    assert "odd prime" in err


@pytest.mark.parametrize("n", ["318665857834031151167461", "3317044064679887385961981"])
def test_symbol_pseudoprime_modulus_exits_1(capsys, n):
    code, out, err = run(capsys, "symbol", "--kind", "legendre", "--a", "3", "--n", n)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_symbol_gauss_lemma_trace(capsys):
    code, out, _ = run(
        capsys, "symbol", "--kind", "legendre", "--a", "3", "--n", "7",
        "--method", "gauss-lemma", "--json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["schema_version"] == "1"
    assert record["command"] == "symbol"
    assert record["result"]["value"] == -1
    assert [r["sign"] for r in record["trace"]["rows"]] == [1, -1, 1]


@pytest.mark.parametrize("a, p, value", [(3, 7, -1), (2, 7, 1), (5, 11, 1), (2, 13, -1), (45, 31, 1)])
def test_symbol_legendre_methods_agree(capsys, a, p, value):
    for method in ("brute", "euler", "gauss-lemma"):
        code, out, _ = run(
            capsys, "symbol", "--kind", "legendre", "--a", str(a), "--n", str(p),
            "--method", method, "--json",
        )
        assert code == 0
        assert json.loads(out)["result"]["value"] == value, method


def test_symbol_json_deterministic(capsys):
    args = ("symbol", "--kind", "jacobi", "--a", "2", "--n", "15", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert json.loads(out1)["result"]["value"] == 1


def test_transfer_command(capsys):
    code, out, _ = run(
        capsys, "transfer", "--mod", "7", "--subgroup", "6", "--element", "3", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["result"]["value"] == 6
    assert len(record["trace"]["contributions"]) == 3
    for c in record["trace"]["contributions"]:
        assert set(c) == {"r_i", "r_j", "u"}


def test_transfer_identity(capsys):
    code, out, _ = run(
        capsys, "transfer", "--mod", "7", "--subgroup", "6", "--element", "1", "--json"
    )
    assert code == 0
    assert json.loads(out)["result"]["value"] == 1


def test_transfer_klein_four(capsys):
    code, out, _ = run(
        capsys, "transfer", "--mod", "8", "--subgroup", "3", "--element", "5", "--json"
    )
    assert code == 0
    assert json.loads(out)["result"]["value"] == 1


def test_transfer_not_coprime_exits_1(capsys):
    code, _, err = run(capsys, "transfer", "--mod", "8", "--subgroup", "3", "--element", "4")
    assert code == 1
    assert "element 4 is not coprime to 8" in err
    code, _, err = run(capsys, "splitting", "--field", "subfield", "8", "3,6", "--prime", "5")
    assert code == 1
    assert "generator 6 is not coprime to 8" in err


def test_splitting_quadratic(capsys):
    code, out, _ = run(
        capsys, "splitting", "--field", "quadratic", "5", "--prime", "19", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["result"]["word"] == "split"


def test_splitting_cyclotomic(capsys):
    code, out, _ = run(
        capsys, "splitting", "--field", "cyclotomic", "12", "--prime", "13", "--json"
    )
    assert code == 0
    assert json.loads(out)["result"] == {"e": 1, "f": 1, "g": 4}
    code, out, _ = run(
        capsys, "splitting", "--field", "cyclotomic", "12", "--prime", "2", "--json"
    )
    assert json.loads(out)["result"] == {"e": 2, "f": 2, "g": 1}


def test_splitting_subfield(capsys):
    code, out, _ = run(
        capsys, "splitting", "--field", "subfield", "7", "2", "--prime", "2", "--json"
    )
    assert code == 0
    assert json.loads(out)["result"] == {"e": 1, "f": 1, "g": 2, "word": "split"}


def test_splitting_non_fundamental_exits_1(capsys):
    code, _, err = run(capsys, "splitting", "--field", "quadratic", "9", "--prime", "5")
    assert code == 1


def test_takagi_witness(capsys):
    code, out, _ = run(capsys, "takagi-witness", "--a", "4", "--d", "5", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["result"]["witness"] == [{"prime": 19, "exponent": 1}]
    assert record["result"]["s_numerator"] == 4
    assert record["result"]["s_denominator"] == 19

    code, out, _ = run(capsys, "takagi-witness", "--a", "6", "--d", "5", "--json")
    assert json.loads(out)["result"]["witness"] == []


def test_takagi_witness_not_in_group_exits_1(capsys):
    code, _, err = run(capsys, "takagi-witness", "--a", "2", "--d", "5")
    assert code == 1


def test_takagi_witness_no_witness_exits_3(capsys):
    code, _, err = run(capsys, "takagi-witness", "--a", "4", "--d", "5", "--prime-bound", "2")
    assert code == 3


def test_verify_small_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "qr-splitting", "--max-prime", "30")
    assert code == 0
    assert "PASS" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "conductor", "--max-prime", "20", "--json",
        "--threads", "2",
    )
    assert code == 0
    record = json.loads(out)
    assert record["result"]["passed"] is True
    assert record["result"]["suites"][0]["name"] == "conductor"


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "conductor", "--max-prime", "20", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "suite,passed,checks,first_failure"


def test_verify_thread_count_invariance(capsys):
    outs = []
    for threads in ("1", "3"):
        _, out, _ = run(
            capsys, "verify", "--suite", "indices", "--max-prime", "50", "--json",
            "--threads", threads,
        )
        record = json.loads(out)
        del record["inputs"]["threads"]
        outs.append(record)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "flag, value",
    [("--max-prime", "4"), ("--max-prime", "0"), ("--max-prime", "-5"),
     ("--threads", "0"), ("--threads", "-3")],
)
def test_verify_bound_below_its_least_exits_2(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "qr-splitting", flag, value, "--json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"usage error: {flag} must be at least" in err


# Check counts at --max-prime 5 and 31; transfer-props ignores --max-prime.
LEAST_BOUND_CHECKS = {
    "qr-splitting": (2, 90),
    "qr-transfer": (606, 3110),
    "gauss-lemma": (150, 3700),
    "euler-formulation": (3, 20),
    "takagi": (45, 79),
    "indices": (410, 1194),
    "conductor": (3, 20),
}


def test_verify_least_bounds_make_checks_in_every_suite(capsys):
    for suite, counts in LEAST_BOUND_CHECKS.items():
        for max_prime, checks in zip((5, 31), counts):
            code, out, _ = run(capsys, "verify", "--suite", suite, "--max-prime", str(max_prime),
                               "--threads", "1", "--json")
            assert code == 0, (suite, max_prime)
            record = json.loads(out)
            assert record["inputs"] == {"suite": suite, "max_prime": max_prime, "threads": 1}
            assert record["result"]["suites"][0]["checks"] == checks, (suite, max_prime)


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nosuch"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["symbol", "--kind", "legendre"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["splitting", "--field", "quadratic", "abc", "--prime", "5"],
        ["splitting", "--field", "cyclotomic", "7.5", "--prime", "5"],
        ["splitting", "--field", "subfield", "13", "2,x", "--prime", "5"],
        ["transfer", "--mod", "7", "--subgroup", "x", "--element", "3"],
    ],
)
def test_non_integer_token_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, message",
    [
        (["quadratic", "5", "8"], "--field quadratic needs exactly one discriminant"),
        (["cyclotomic"], "--field cyclotomic needs exactly one m"),
        (["subfield", "7"], "--field subfield needs m and comma-separated generators"),
        (["cubic", "5"], "unknown field variant 'cubic'"),
    ],
    ids=["quadratic", "cyclotomic", "subfield", "unknown"],
)
def test_splitting_field_usage_errors_exit_2(capsys, field, message):
    with pytest.raises(SystemExit) as exc:
        main(["splitting", "--field", *field, "--prime", "5"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize("kind", ["jacobi", "kronecker"])
@pytest.mark.parametrize("method", ["brute", "euler", "gauss-lemma"])
def test_method_without_legendre_exits_2(capsys, kind, method):
    with pytest.raises(SystemExit) as exc:
        main(["symbol", "--kind", kind, "--a", "2", "--n", "15", "--method", method, "--json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage error: --method applies only to --kind legendre" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["transfer", "--mod", "7", "--subgroup", "6", "--element", "3"],
        ["verify", "--suite", "conductor", "--max-prime", "20"],
    ],
    ids=["transfer", "verify"],
)
def test_closed_pipe_exits_quietly(argv):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first write
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rayclass.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (EXIT_CLOSED_PIPE, b"")
    assert EXIT_CLOSED_PIPE == 141


@pytest.mark.parametrize(
    "argv",
    [
        ["transfer", "--mod", "4093", "--subgroup", "4092", "--element", "2", "--json"],
        ["transfer", "--mod", "40", "--subgroup", "3,7", "--element", "11", "--json"],
        ["transfer", "--mod", "1155", "--subgroup", "2,4,8", "--element", "13"],
        ["transfer", "--mod", "2", "--subgroup", "1", "--element", "1", "--json"],
        ["splitting", "--field", "subfield", "13", "12", "--prime", "3", "--json"],
        ["splitting", "--field", "subfield", "20", "3", "--prime", "7"],
        ["transfer", "--mod", "8", "--subgroup", "3", "--element", "4"],  # not coprime: exit 1
        ["transfer", "--mod", "4099", "--subgroup", "2", "--element", "3"],  # phi(m) > 4096: exit 1
        ["splitting", "--field", "subfield", "4099", "2", "--prime", "3"],
    ],
)
def test_unit_group_output_matches_the_table_group(capsys, monkeypatch, argv):
    computed = run(capsys, *argv)
    monkeypatch.setattr(groups, "unit_group", groups.group_from_unit_residues)
    assert computed == run(capsys, *argv)


def test_transfer_at_the_table_bound_stays_small(capsys):
    argv = ["transfer", "--mod", "4093", "--subgroup", "4092", "--element", "2", "--json"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 10 * 2**20  # the phi(m)^2 table allocated over 100 MB here
