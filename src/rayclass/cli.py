"""Command-line front end with machine-readable output.

Exit codes: 0 success, 1 domain or verification failure, 2 usage error,
3 retryable (witness search exhausted its prime bound), 141 the reader closed
standard output early (128 + SIGPIPE, as a shell reports a process ended by
that signal; nothing is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import classfield, groups, splitting, symbols, verify
from .errors import InvalidArgumentError, RayclassError, WitnessNotFoundError

SCHEMA_VERSION = "1"
EXIT_CLOSED_PIPE = 141


def _record(command: str, inputs: dict, result, trace=None) -> dict:
    rec = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
    }
    if trace is not None:
        rec["trace"] = trace
    return rec


def _emit(record: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(record, separators=(", ", ": ")))
    else:
        print(human)


def cmd_symbol(args) -> int:
    a, n = args.a, args.n
    trace = None
    if args.method and args.kind != "legendre":
        raise _usage(f"--method applies only to --kind legendre, not {args.kind}")
    if args.kind == "legendre":
        method = args.method or "euler"
        if method == "brute":
            value = symbols.legendre_brute(a, n)
        elif method == "euler":
            value = symbols.legendre_euler(a, n)
        else:
            system = symbols.default_half_system(n)
            value, rows = symbols.gauss_lemma(a, n, system)
            trace = {
                "half_system": list(system.elements),
                "rows": [
                    {"j": j, "product": r.product, "sign": r.sign, "target": r.target}
                    for j, r in enumerate(rows)
                ],
            }
    elif args.kind == "jacobi":
        value = symbols.jacobi(a, n)
    else:
        value = symbols.kronecker(a, n)

    inputs = {"kind": args.kind, "a": a, "n": n}
    if args.method:
        inputs["method"] = args.method
    record = _record("symbol", inputs, {"value": value}, trace)
    lines = [f"({a}/{n}) = {value:+d}" if value else f"({a}/{n}) = 0"]
    if trace is not None:
        lines.append(" j  a*a_j  sign  pi(j)")
        for row in trace["rows"]:
            lines.append(f"{row['j']:2d}  {row['product']:5d}  {row['sign']:+4d}  {row['target']:5d}")
    _emit(record, args.json, "\n".join(lines))
    return 0


def cmd_transfer(args) -> int:
    G = groups.unit_group(args.mod)
    gens = {_unit_id(G, args.mod, tok, "residue") for tok in args.subgroup.split(",")}
    g = _unit_id(G, args.mod, args.element, "element")
    U = groups.subgroup_generated(G, gens)
    dec = U.cosets
    result = groups.transfer(U, g)
    contributions = [
        {
            "r_i": G.label_of(dec.reps[i]),
            "r_j": G.label_of(dec.reps[j]),
            "u": G.label_of(u),
        }
        for i, (j, u) in enumerate(result.contributions)
    ]
    record = _record(
        "transfer",
        {"mod": args.mod, "subgroup": args.subgroup, "element": args.element},
        {"value": G.label_of(result.value)},
        {"contributions": contributions},
    )
    lines = [f"V({args.element}) = {G.label_of(result.value)} (mod {args.mod})"]
    lines.append("  r_i  r_j    u")
    for c in contributions:
        lines.append(f"{c['r_i']:5d} {c['r_j']:4d} {c['u']:4d}")
    _emit(record, args.json, "\n".join(lines))
    return 0


def cmd_splitting(args) -> int:
    variant = args.field[0]
    if variant == "quadratic":
        if len(args.field) != 2:
            raise _usage("--field quadratic needs exactly one discriminant")
        d = classfield.FundamentalDiscriminant(_int(args.field[1]))
        st = splitting.splitting_quadratic(args.prime, d)
        field_desc = {"variant": "quadratic", "d": d.d}
    elif variant == "cyclotomic":
        if len(args.field) != 2:
            raise _usage("--field cyclotomic needs exactly one m")
        m = _int(args.field[1])
        st = splitting.splitting_cyclotomic(args.prime, m)
        field_desc = {"variant": "cyclotomic", "m": m}
    elif variant == "subfield":
        if len(args.field) != 3:
            raise _usage("--field subfield needs m and comma-separated generators")
        m = _int(args.field[1])
        G = groups.unit_group(m)
        gens = {_unit_id(G, m, tok, "generator") for tok in args.field[2].split(",")}
        U = groups.subgroup_generated(G, gens)
        st = splitting.splitting_in_subfield(args.prime, m, U)
        field_desc = {"variant": "subfield", "m": m, "generators": args.field[2]}
    else:
        raise _usage(f"unknown field variant {variant!r}")

    result = {"e": st.e, "f": st.f, "g": st.g}
    human = f"(e, f, g) = ({st.e}, {st.f}, {st.g})"
    if st.degree == 2:
        result["word"] = st.word
        human += f"  [{st.word}]"
    record = _record("splitting", {"field": field_desc, "prime": args.prime}, result)
    _emit(record, args.json, human)
    return 0


def cmd_takagi_witness(args) -> int:
    witness = classfield.takagi_witness(args.a, args.d, args.prime_bound)
    num, den = classfield.witness_fraction(args.a, witness)
    record = _record(
        "takagi-witness",
        {"a": args.a, "d": args.d, "prime_bound": args.prime_bound},
        {
            "witness": [{"prime": p, "exponent": e} for p, e in witness],
            "s_numerator": num,
            "s_denominator": den,
        },
    )
    human = (
        f"witness: {list(witness)}\n"
        f"s = {num}/{den} = 1 mod {abs(args.d)}, s > 0: verified"
    )
    _emit(record, args.json, human)
    return 0


def cmd_verify(args) -> int:
    # Below 5 some suite makes no check at all (qr-splitting needs the primes 3 and 5).
    if args.max_prime is not None and args.max_prime < 5:
        raise _usage(f"--max-prime must be at least 5, got {args.max_prime}")
    if args.threads is not None and args.threads < 1:
        raise _usage(f"--threads must be at least 1, got {args.threads}")
    threads = args.threads or os.cpu_count() or 1
    results = verify.run_suite(args.suite, max_prime=args.max_prime, threads=threads)
    all_passed = all(r.passed for r in results)
    if args.json:
        record = _record(
            "verify",
            {"suite": args.suite, "max_prime": args.max_prime, "threads": threads},
            {
                "passed": all_passed,
                "suites": [
                    {
                        "name": r.name,
                        "passed": r.passed,
                        "checks": r.checks,
                        "failures": r.failures,
                        "params": r.params,
                    }
                    for r in results
                ],
            },
        )
        print(json.dumps(record, separators=(", ", ": ")))
    elif args.csv:
        print("suite,passed,checks,first_failure")
        for r in results:
            first = r.failures[0].replace(",", ";") if r.failures else ""
            print(f"{r.name},{int(r.passed)},{r.checks},{first}")
    else:
        for r in results:
            print(r.summary())
    return 0 if all_passed else 1


def _usage(message: str) -> SystemExit:
    print(f"usage error: {message}", file=sys.stderr)
    return SystemExit(2)


def _int(token: str) -> int:
    """An integer command-line token; anything else is a usage error."""
    try:
        return int(token)
    except ValueError:
        raise _usage(f"{token!r} is not an integer") from None


def _unit_id(G: groups.FiniteGroup, m: int, token: str | int, what: str) -> int:
    """Element id of the residue `token` in G = (Z/m)^x."""
    try:
        return G.id_of(_int(token) % m)
    except InvalidArgumentError:
        raise RayclassError(f"{what} {token} is not coprime to {m}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rayclass",
        description="Exact quadratic residue symbols, transfer maps, ray class groups, and splitting laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("symbol", help="evaluate a quadratic residue symbol")
    p.add_argument("--kind", required=True, choices=["legendre", "jacobi", "kronecker"])
    p.add_argument("--a", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--method", choices=["brute", "euler", "gauss-lemma"], help="--kind legendre only")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_symbol)

    p = sub.add_parser("transfer", help="transfer of a unit residue to a subgroup")
    p.add_argument("--mod", required=True, type=int)
    p.add_argument("--subgroup", required=True, help="comma-separated generator residues")
    p.add_argument("--element", required=True, type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("splitting", help="prime decomposition type in a field")
    p.add_argument(
        "--field",
        required=True,
        nargs="+",
        help="quadratic <d> | cyclotomic <m> | subfield <m> <gens>",
    )
    p.add_argument("--prime", required=True, type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_splitting)

    p = sub.add_parser("takagi-witness", help="factor a class into split primes times the principal ray")
    p.add_argument("--a", required=True, type=int)
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--prime-bound", type=int, default=10**4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_takagi_witness)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=list(verify.SUITES) + ["all"])
    p.add_argument(
        "--max-prime",
        type=int,
        help="bound the sweeps, at least 5: qr-splitting p, q <= MAX_PRIME; "
        "qr-transfer p <= min(101, MAX_PRIME), q <= MAX_PRIME; gauss-lemma p <= min(211, MAX_PRIME); "
        "euler-formulation, takagi, conductor |d| <= min(101, MAX_PRIME); indices q <= MAX_PRIME; "
        "transfer-props ignores it",
    )
    p.add_argument(
        "--threads",
        type=int,
        help="worker threads, at least 1 (default: the CPU count); transfer-props forks up to this "
        "many worker processes instead",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        # Later writes, the interpreter's final flush among them, go to devnull instead of raising again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
    except WitnessNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RayclassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
