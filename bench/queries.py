"""Seeded query mix for the point-queries workload, and the checks on its answers.

The mix is synthetic coverage traffic, not measured traffic: rayclass has no
users' query logs to draw weights from.  A block is one batch of `rayclass`
CLI calls, run in a fresh interpreter, with PER_VARIANT queries of each of the
CLI's 19 variants (VARIANTS) plus one of each malformed or out-of-domain probe.
Equal counts keep every variant visible in the latency percentiles, and every
block has the same composition, so the seed changes the arguments but not the
shape of the work; that keeps the percentiles comparable from seed to seed.

Sizes are log-uniform up to TABLE_BOUND, one draw per stratum.  The
table-building queries (`transfer` and `splitting --field subfield`) sit on a
fixed ladder of group orders, 2 to 4092, spaced evenly in log order; the seed
picks the modulus on each rung (any m <= 4096 whose phi(m) is within 3% of the
rung) and every other argument.  The top rung is the largest order the bound
admits, so every block builds one table at the bound.  Subgroups are kept small
({+-1}, or one element of prime order r <= 13): with a large U the O(|U|^2)
closure, not the table, would dominate, and at the bound one such query takes
longer than a run.

Expected answers come from `oracles`, which does not import rayclass.
"""

from __future__ import annotations

import functools
import json
import math
import random
from math import gcd

import oracles

TABLE_BOUND = 4096
RUNG_TOLERANCE = 1.03
PER_VARIANT = 6
LADDER = [2 * (2046 ** (k / (2 * PER_VARIANT - 1))) for k in range(2 * PER_VARIANT)]
TRANSFER_RUNGS = LADDER[1::2]  # ends on the top rung, 4092
SUBFIELD_RUNGS = LADDER[0::2]
VERIFY_SUITES = [
    "qr-splitting", "qr-transfer", "gauss-lemma", "euler-formulation", "takagi", "indices",
    "conductor",
]
# ROADMAP's two strong pseudoprimes to every base in arith's witness set.
PSEUDOPRIMES = [318665857834031151167461, 3317044064679887385961981]
SPL_BOUND = 2000
SMALL_ORDER = 13
PRIME_BOUNDS = [10**4, 2 * 10**4, 3 * 10**4]

_PRIMES = oracles.primes_up_to(TABLE_BOUND)
_ODD_PRIMES = [p for p in _PRIMES if p > 2]
_PHI = {m: oracles.phi(m) for m in range(3, TABLE_BOUND + 1)}


def _log_uniform(lo: float, hi: float, u: float) -> float:
    """The point a fraction u of the way from lo to hi on a log scale."""
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _strata(rng: random.Random, n: int) -> list[float]:
    """n uniforms in [0, 1), one in each of n equal strata, in random order.

    Sizes drawn this way are still log-uniform, but every block gets the same
    spread of small and large arguments, so its latency percentiles do not
    hinge on how many large draws one seed happens to make.
    """
    order = list(range(n))
    rng.shuffle(order)
    return [(i + rng.random()) / n for i in order]


def _prime(u: float, odd: bool = False) -> int:
    """The prime nearest a log-uniform point in [2, TABLE_BOUND]."""
    pool = _ODD_PRIMES if odd else _PRIMES
    x = _log_uniform(pool[0], pool[-1], u)
    return min(pool, key=lambda p: (abs(p - x), p))


def _modulus_on_rung(rng: random.Random, order: float) -> int:
    near = [m for m, f in _PHI.items() if order / RUNG_TOLERANCE <= f <= order * RUNG_TOLERANCE]
    if not near:
        near = [min(_PHI, key=lambda m: abs(math.log(_PHI[m] / order)))]
    return rng.choice(near)


def _unit(rng: random.Random, m: int) -> int:
    while True:
        x = rng.randrange(1, m)
        if gcd(x, m) == 1:
            return x


def _small_subgroup(rng: random.Random, m: int) -> list[int]:
    """Generators of {+-1}, or of a random subgroup of small prime order r | phi(m)."""
    if rng.random() < 0.5:
        return [m - 1]
    r = rng.choice([p for p in oracles.factor(_PHI[m]) if p <= SMALL_ORDER])
    while True:
        y = _unit(rng, m)
        o = oracles.order_mod(y, m)
        if o % r == 0:
            return [pow(y, o // r, m)]


def _discriminant(rng: random.Random, u: float) -> int:
    """The fundamental discriminant of random sign nearest a log-uniform |d| <= TABLE_BOUND."""
    sign = rng.choice((1, -1))
    n0 = round(_log_uniform(3, TABLE_BOUND, u))
    for k in range(TABLE_BOUND):
        for n in (n0 + k, n0 - k):
            if 3 <= n <= TABLE_BOUND and oracles.is_fundamental(sign * n):
                return sign * n
    raise RuntimeError("no fundamental discriminant in range")


def _query(kind: str, argv: list, expect: dict) -> dict:
    return {"kind": kind, "argv": [str(a) for a in argv] + ["--json"], "expect": expect}


def _legendre(rng, u, method=None):
    p = _prime(u, odd=True)
    while True:
        a = rng.randint(-100, 100)
        if a and (method != "gauss-lemma" or a % p):
            break
    argv = ["symbol", "--kind", "legendre", "--a", a, "--n", p]
    if method:
        argv += ["--method", method]
    kind = "symbol-legendre" + (f"-{method}" if method else "")
    return _query(kind, argv, {"rc": 0, "value": oracles.legendre(a, p), "p": p})


def _jacobi(rng, u):
    n = round(_log_uniform(1, TABLE_BOUND, u)) | 1
    a = rng.randint(-5000, 5000)
    value = oracles.kronecker(a, 1, oracles.factor(n))
    return _query("symbol-jacobi", ["symbol", "--kind", "jacobi", "--a", a, "--n", n],
                  {"rc": 0, "value": value})


def _kronecker(rng, u):
    n = round(_log_uniform(1, TABLE_BOUND, u))
    sign = rng.choice((1, -1))
    a = rng.randint(-5000, 5000)
    value = oracles.kronecker(a, sign, oracles.factor(n))
    return _query("symbol-kronecker", ["symbol", "--kind", "kronecker", "--a", a, "--n", sign * n],
                  {"rc": 0, "value": value})


def _transfer(rng, order):
    m = _modulus_on_rung(rng, order)
    gens = _small_subgroup(rng, m)
    g = _unit(rng, m)
    U = oracles.subgroup(m, gens)
    return _query(
        "transfer",
        ["transfer", "--mod", m, "--subgroup", ",".join(map(str, gens)), "--element", g],
        {"rc": 0, "value": oracles.transfer_value(m, gens, g), "index": _PHI[m] // len(U), "m": m},
    )


def _splitting_quadratic(rng, u):
    d, q = _discriminant(rng, u), _prime(rng.random())
    efg = oracles.splitting_quadratic(d, q)
    return _query("splitting-quadratic", ["splitting", "--field", "quadratic", d, "--prime", q],
                  {"rc": 0, "efg": efg, "word": oracles.word(efg)})


def _splitting_cyclotomic(rng, u):
    m = round(_log_uniform(3, TABLE_BOUND, u))
    q = _prime(rng.random())
    efg = oracles.splitting_cyclotomic(m, q)
    word = oracles.word(efg) if _PHI[m] == 2 else None
    return _query("splitting-cyclotomic", ["splitting", "--field", "cyclotomic", m, "--prime", q],
                  {"rc": 0, "efg": efg, "word": word})


def _splitting_subfield(rng, order):
    m = _modulus_on_rung(rng, order)
    gens = _small_subgroup(rng, m)
    q = _prime(rng.random())
    while m % q == 0:
        q = _prime(rng.random())
    efg = oracles.splitting_subfield(m, gens, q)
    degree = efg[1] * efg[2]
    return _query(
        "splitting-subfield",
        ["splitting", "--field", "subfield", m, ",".join(map(str, gens)), "--prime", q],
        {"rc": 0, "efg": efg, "word": oracles.word(efg) if degree == 2 else None},
    )


def _takagi_pair(rng, symbol: int, u: float):
    d = _discriminant(rng, u)
    while True:
        a = rng.randint(1, 2000)
        if gcd(a, d) == 1 and oracles.kronecker(d, 1, oracles.factor(a)) == symbol:
            return a, d


def _takagi(rng, u, prime_bound=None):
    a, d = _takagi_pair(rng, 1, u)
    argv = ["takagi-witness", "--a", a, "--d", d]
    if prime_bound:
        argv += ["--prime-bound", prime_bound]
    return _query("takagi-witness", argv, {"rc": 0, "a": a, "d": d})


def _takagi_bounded(rng, u):
    return _takagi(rng, u, rng.choice(PRIME_BOUNDS))


def _discs(limit: int) -> int:
    return sum(oracles.is_fundamental(s * n) for n in range(2, limit + 1) for s in (1, -1))


def verify_expectation(suite: str, mp: int) -> dict:
    """Check count and params of `verify --suite <suite> --max-prime <mp>`, from formulas."""
    odd = [p for p in _ODD_PRIMES if p <= mp]
    n = len(odd)
    md = min(101, mp)
    if suite == "qr-splitting":
        return {"checks": n * (n - 1), "params": {"max_prime": mp}}
    if suite == "qr-transfer":
        n_p = len([p for p in odd if p <= min(101, mp)])
        n_spl = len([p for p in odd if p <= min(61, mp)])
        spl_primes = len(oracles.primes_up_to(SPL_BOUND))
        return {
            "checks": n_p * (n - 1) + n_spl * (spl_primes - 1),
            "params": {"max_p": min(101, mp), "max_q": mp, "spl_bound": SPL_BOUND},
        }
    if suite == "gauss-lemma":
        mx = min(211, mp)
        main = sum((p - 1) * 21 for p in odd if p <= mx)
        bridge = sum((p - 1) * 4 for p in odd if p <= min(61, mx))
        return {"checks": main + bridge, "params": {"max_prime": mx, "n_systems": 20}}
    if suite == "euler-formulation":
        return {"checks": _discs(md), "params": {"max_disc": md, "prime_bound": 5000}}
    if suite == "takagi":
        return {
            "checks": 2 * _discs(md) + _discs(60),
            "params": {"max_disc": md, "witness_max_disc": 60, "witness_max_a": 300,
                       "prime_bound": 10**4},
        }
    if suite == "indices":
        pi = len([p for p in _PRIMES if p <= mp])
        return {"checks": 98 * pi + 2 * 58, "params": {"max_m": 100, "prime_bound": mp}}
    return {"checks": _discs(md), "params": {"max_disc": md}}


def _verify(suite, rng, u):
    mp = round(_log_uniform(5, 31, u))
    expect = {"rc": 0, "suite": suite, **verify_expectation(suite, mp)}
    return _query(f"verify-{suite}",
                  ["verify", "--suite", suite, "--max-prime", mp, "--threads", 1], expect)


def _probes(rng) -> list[dict]:
    """Malformed and out-of-domain queries, with their documented exit codes."""
    out = []
    p, q = rng.sample(_ODD_PRIMES[:18], 2)
    out.append(_query("probe-composite-n",
                      ["symbol", "--kind", "legendre", "--a", rng.randint(1, 100), "--n", p * q],
                      {"rc": 1}))
    out.append(_query("probe-even-n",
                      ["symbol", "--kind", "legendre", "--a", rng.randint(1, 100), "--n",
                       2 * rng.randint(1, 2000)],
                      {"rc": 1}))
    m = rng.randint(4, 100)
    while oracles.is_prime(m):
        m += 1
    g = min(oracles.factor(m)) * rng.randint(1, 10)
    out.append(_query("probe-not-coprime",
                      ["transfer", "--mod", m, "--subgroup", m - 1, "--element", g], {"rc": 1}))
    a, d = _takagi_pair(rng, -1, rng.random())
    out.append(_query("probe-takagi-outside", ["takagi-witness", "--a", a, "--d", d], {"rc": 1}))
    out.append(_query("probe-composite-prime",
                      ["splitting", "--field", "quadratic", _discriminant(rng, rng.random()),
                       "--prime", p * q],
                      {"rc": 1}))
    out.append(_query("probe-nonint-a",
                      ["symbol", "--kind", "jacobi", "--a", f"{rng.randint(1, 99)}x", "--n", p],
                      {"rc": 2}))
    bad = rng.choice([["quadratic", "abc"], ["cyclotomic", f"{rng.randint(3, 99)}.5"],
                      ["subfield", str(p), "2,x"]])
    out.append(_query("probe-nonint-field", ["splitting", "--field", *bad, "--prime", q], {"rc": 2}))
    for n in PSEUDOPRIMES:
        out.append(_query("probe-pseudoprime",
                          ["symbol", "--kind", "legendre", "--a", rng.choice(
                              [x for x in range(-100, 101) if x]), "--n", n],
                          {"rc": 1}))
    return out


# The CLI's variants: each --kind (and Legendre --method) of `symbol`, each
# --field of `splitting` (subfield on the ladder below), `takagi-witness` with
# and without --prime-bound, `transfer` (on the ladder), and each `verify`
# suite except transfer-props, which ignores --max-prime and takes ~35 s.
VARIANTS = [
    *(functools.partial(_legendre, method=m) for m in (None, "euler", "brute", "gauss-lemma")),
    _jacobi,
    _kronecker,
    _splitting_quadratic,
    _splitting_cyclotomic,
    _takagi,
    _takagi_bounded,
    *(functools.partial(_verify, suite) for suite in VERIFY_SUITES),
]


def block(seed: int, index: int) -> list[dict]:
    """Block `index` of the query stream for `seed`: PER_VARIANT of each variant, then probes."""
    rng = random.Random(f"point-queries:{seed}:{index}")
    qs: list[dict] = []
    for variant in VARIANTS:
        qs += [variant(rng, u) for u in _strata(rng, PER_VARIANT)]
    qs += [_transfer(rng, order) for order in TRANSFER_RUNGS]
    qs += [_splitting_subfield(rng, order) for order in SUBFIELD_RUNGS]
    qs += _probes(rng)
    rng.shuffle(qs)
    return qs


# -- checking --------------------------------------------------------------


def _check_result(q: dict, result: dict, trace: dict) -> str | None:
    kind, e = q["kind"], q["expect"]
    if kind.startswith("symbol"):
        if result.get("value") != e["value"]:
            return f"value {result.get('value')} != {e['value']}"
        if kind == "symbol-legendre-gauss-lemma":
            rows = trace.get("rows", [])
            signs = math.prod(r["sign"] for r in rows)
            if len(rows) != (e["p"] - 1) // 2 or signs != e["value"]:
                return "gauss-lemma trace does not multiply out to the value"
        return None
    if kind == "transfer":
        m = e["m"]
        if result.get("value") != e["value"]:
            return f"V = {result.get('value')} != {e['value']}"
        us = [c["u"] for c in trace.get("contributions", [])]
        if len(us) != e["index"] or math.prod(us) % m != e["value"]:
            return "transfer trace does not multiply out to the value"
        return None
    if kind.startswith("splitting"):
        got = (result.get("e"), result.get("f"), result.get("g"))
        if list(got) != list(e["efg"]) or result.get("word") != e["word"]:
            return f"{got} {result.get('word')} != {e['efg']} {e['word']}"
        return None
    if kind == "takagi-witness":
        ok = oracles.witness_ok(e["a"], e["d"], result.get("witness", []),
                                result.get("s_numerator"), result.get("s_denominator"))
        return None if ok else f"witness {result} does not verify"
    if kind.startswith("verify"):
        suites = result.get("suites", [])
        want = [{"name": e["suite"], "passed": True, "checks": e["checks"], "failures": [],
                 "params": e["params"]}]
        return None if result.get("passed") is True and suites == want else f"{suites} != {want}"
    return f"unexpected result for {kind}"


def check(q: dict, outcome: dict) -> str | None:
    """None if the outcome matches the expectation, else a one-line reason."""
    if outcome.get("error"):
        return f"uncaught {outcome['error']}"
    rc = outcome["rc"]
    if rc != q["expect"]["rc"]:
        return f"exit code {rc}, expected {q['expect']['rc']}"
    if rc != 0:
        return None
    try:
        record = json.loads(outcome["stdout"])
    except ValueError:
        return "stdout is not one JSON record"
    return _check_result(q, record.get("result", {}), record.get("trace", {}))


def known_defect(q: dict, outcome: dict) -> bool:
    """True if a failed outcome is exactly one of the two defects ROADMAP lists.

    At the commit that introduced this benchmark, a non-integer `--field`
    argument escapes as a ValueError instead of exiting 2, and `is_prime`
    accepts ROADMAP's strong pseudoprimes, so a Legendre symbol modulo one of
    them can come back as +-1 with exit 0.  Those outcomes are counted apart
    from `failed` (see README); any other failure of these probes is not.
    """
    if q["kind"] == "probe-nonint-field":
        return outcome.get("error") == "ValueError"
    if q["kind"] == "probe-pseudoprime" and outcome.get("rc") == 0 and not outcome.get("error"):
        try:
            value = json.loads(outcome["stdout"])["result"]["value"]
        except (ValueError, KeyError, TypeError):
            return False
        return value in (1, -1)
    return False
