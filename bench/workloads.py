"""Seeded request sets of the four benchmark workloads and their
correctness gate.

A workload is a list of ``Request``s, built from the seed alone; the
program only ever sees the generated CLI arguments.  ``gate`` re-checks
one pass of outputs against facts the benchmark knows independently of
the code under test (exact counts of complete enumerations, the parts a
product was built from, F + G == Q) and returns the error messages.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass, field

from schinzelpoly import (MultiPoly, SearchConstraints, VarSet, format_poly,
                          is_irreducible, parse_poly, parse_ring)
from schinzelpoly.schinzel import iter_candidates, support_monomials

EXIT_OK, EXIT_NONE, EXIT_BUDGET = 0, 2, 3


@dataclass
class Request:
    label: str
    argv: list
    ok_codes: tuple = (EXIT_OK,)
    verify: bool = False         # follow the request with `verify` on its envelope
    may_fail: bool = False       # a cap or budget hit here is a failure, not a wrong answer
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# search-ff and search-z: fixed exhaustive boxes whose counts are exact facts
# of complete enumeration (and one seeded density probe).
# ---------------------------------------------------------------------------

def _search(label, argv, **expect):
    codes = (EXIT_NONE,) if expect.get("witnesses") == 0 else (EXIT_OK,)
    return Request(label, argv, ok_codes=codes, expect=expect)


def search_ff(rng):
    reqs = [
        _search("dirichlet-gf2", ["schinzel", "--ring", "GF(2)", "--P", "x1 + x2*y",
                                  "--P", "y", "--deg", "2,2", "--threads", "2"],
                tested=512, witnesses=233),
        _search("dirichlet-gf3", ["schinzel", "--ring", "GF(3)", "--P", "x1 + x2*y",
                                  "--P", "y", "--deg", "1,2", "--threads", "2"],
                tested=729, witnesses=364),
        _search("pair-gf2u", ["schinzel", "--ring", "GF(2)[u]", "--P", "y", "--P", "y+x1",
                              "--deg", "2", "--deg-u", "2", "--threads", "2"],
                tested=512, witnesses=176),
        _search("swan-gf2", ["swan-scan", "--ring", "GF(2)", "--P", "y^8 + x^3",
                             "--max-deg", "10"], tested=2048, witnesses=0),
        _search("swan-gf3", ["swan-scan", "--ring", "GF(3)", "--P", "y^3 + x^2 + 1",
                             "--max-deg", "6"], tested=2187, witnesses=141),
    ]
    return _seeded_order(rng, reqs)


def search_z(rng):
    probe_seed = rng.randrange(1 << 30)
    reqs = [
        _search("twin-z", ["schinzel", "--ring", "Z", "--P", "y", "--P", "y+2", "--deg", "2",
                           "--coeff-bound", "5"], tested=1331, witnesses=705),
        _search("square-z", ["schinzel", "--ring", "Z", "--P", "y^2+x1", "--deg", "1,1",
                             "--coeff-bound", "2"], tested=625, witnesses=565),
        _search("twin-q", ["schinzel", "--ring", "Q", "--P", "y", "--P", "y+2", "--deg", "3",
                           "--coeff-bound", "2"], tested=625, witnesses=223),
        Request("density-twin-z",
                ["density", "--ring", "Z", "--P", "y", "--P", "y+2", "--deg", "2",
                 "--coeff-bound", "5", "--samples", "2000", "--seed", str(probe_seed)],
                expect={"samples": 2000, "seed": probe_seed}),
    ]
    return _seeded_order(rng, reqs)


def _seeded_order(rng, reqs):
    for r in reqs:
        if r.argv[0] in ("schinzel", "swan-scan"):
            r.argv += ["--seed", str(rng.randrange(1 << 30))]
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# factor: seeded products of random irreducible parts, plus the
# Swinnerton-Dyer polynomials for sqrt(2)..sqrt(7) and sqrt(2)..sqrt(11).
# ---------------------------------------------------------------------------

# (ring, variables, largest partial degree of a product).  With three
# folded variables (trivariate, or bivariate over GF(2)[u] with u as the
# third), larger shapes have a heavy tail: single products that take
# seconds to minutes, so the run length would depend on the seed.  Over
# GF(2)[u] even products of two bilinear factors reach seconds, so that
# ring has no random class.  The tail is measured by the fixed inputs
# TAILS instead, the same in every run.
FACTOR_CLASSES = [("GF(2)", 2, 3), ("GF(3)", 2, 3), ("GF(2^2)", 2, 3), ("Z", 2, 3),
                  ("GF(2)", 3, 2), ("GF(3)", 3, 2), ("Z", 3, 2)]
# Products from the slow end of their shape's latencies: a GF(2)
# (3,3) x (3,3) product, and two linear factors over GF(2)[u].
TAILS = [
    ("tail-gf2", "GF(2)",
     ["x1^3*x2^3 + x1^2*x2^3 + x1^3*x2 + x1^2*x2^2 + x1*x2^3 + x1^2*x2 + x2^3 + x1*x2"
      " + x2 + 1", "x1^3*x2^2 + x1*x2^3 + x1^3 + x1^2 + x1*x2 + x1 + x2 + 1"]),
    ("tail-gf2u", "GF(2)[u]", ["x2 + (u)", "x1 + (u)"]),
]


def swinnerton_dyer(primes):
    """Dense integer coefficients (low to high) of prod (x +- sqrt(p1) +- ...),
    built by the doubling step S(x) -> S(x + sqrt p) * S(x - sqrt p)."""
    f = [0, 1]
    for p in primes:
        # f(x + sqrt p) = E(x) + sqrt(p) * O(x), by Horner over Z[sqrt p].
        acc = [(0, 0)]
        for c in reversed(f):
            nxt = [(0, 0)] + acc                    # acc * x
            for i, (a, b) in enumerate(acc):        # + acc * sqrt(p)
                x, y = nxt[i]
                nxt[i] = (x + p * b, y + a)
            nxt[0] = (nxt[0][0] + c, nxt[0][1])
            acc = nxt
        even = [a for a, _ in acc]
        odd = [b for _, b in acc]
        f = [e - p * o for e, o in zip(_int_square(even), _int_square(odd))]
        while f and f[-1] == 0:
            f.pop()
    return f


def _int_square(c):
    out = [0] * (2 * len(c) - 1)
    for i, a in enumerate(c):
        for j, b in enumerate(c):
            out[i + j] += a * b
    return out


def dense_text(coeffs, var="x"):
    return _signed_sum([(coeffs[i], f"{var}^{i}" if i else "")
                        for i in range(len(coeffs) - 1, -1, -1)])


def _split(rng, total, k):
    out = [0] * k
    for _ in range(total):
        out[rng.randrange(k)] += 1
    return out


def _random_part(rng, ring, vars, degs, box):
    """A random normalized irreducible with exactly the partial degrees degs."""
    n = len(degs)
    for _ in range(1000):
        terms = {}
        for e in itertools.product(*[range(d + 1) for d in degs]):
            if rng.random() < 0.5:
                terms[e] = rng.choice(box)
        terms[(0,) * n] = rng.choice(box)
        for i, d in enumerate(degs):
            if d and not any(e[i] == d for e in terms):
                e = [0] * n
                e[i] = d
                terms[tuple(e)] = rng.choice(box)
        f = MultiPoly.from_terms(ring, vars, terms)
        if not ring.is_field:
            f = f.primitive_part()
        f = f.monic_normalize()[1]
        if is_irreducible(f):
            return f
    raise RuntimeError(f"no irreducible of shape {degs} over {ring}")


def _product_shapes(n, max_deg):
    """Every (number of parts, product partial degrees) of a class, twice over,
    so that every seed draws the same mix of shapes."""
    shapes = [(k, degs) for k in (2, 3)
              for degs in itertools.product(range(1, max_deg + 1), repeat=n) if k <= sum(degs)]
    return shapes * 2


def _random_product(rng, spec, n, k, degs):
    """k random irreducible parts whose product has partial degrees degs."""
    ring = parse_ring(spec)
    vars = VarSet(tuple(f"x{i}" for i in range(1, n + 1)))
    box = [v for v in ring.element_box(coeff_bound=3) if not ring.is_zero(v)]
    while True:
        cols = [_split(rng, d, k) for d in degs]
        shapes = [[cols[v][p] for v in range(n)] for p in range(k)]
        if all(any(s) for s in shapes):
            break
    parts = [_random_part(rng, ring, vars, s, box) for s in shapes]
    prod = parts[0]
    for p in parts[1:]:
        prod = prod * p
    return prod, parts


def factor(rng):
    reqs = []
    for spec, n, max_deg in FACTOR_CLASSES:
        for i, (k, degs) in enumerate(_product_shapes(n, max_deg)):
            prod, parts = _random_product(rng, spec, n, k, degs)
            reqs.append(Request(
                f"product-{spec}-{n}v-{i}",
                ["factor", format_poly(prod), "--ring", spec, "--seed",
                 str(rng.randrange(1 << 30))],
                may_fail=True,
                expect={"parts": Counter(format_poly(p) for p in parts)}))
    for label, spec, texts in TAILS:
        ring = parse_ring(spec)
        parts = [parse_poly(t, ring, VarSet(("x1", "x2"))) for t in texts]
        reqs.append(Request(label, ["factor", format_poly(parts[0] * parts[1]), "--ring", spec],
                            expect={"parts": Counter(format_poly(p) for p in parts)}))
    for label, primes in (("sd16", (2, 3, 5, 7)), ("sd32", (2, 3, 5, 7, 11))):
        text = dense_text(swinnerton_dyer(primes))
        # sd32 is the known Zassenhaus subset-cap limit: it counts as a
        # failure until the factorizer can certify it.
        reqs.append(Request(label, ["factor", text, "--ring", "Z"],
                            may_fail=label == "sd32", expect={"irreducible": True}))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# certify: small constructions, each followed by `verify` on its envelope.
# ---------------------------------------------------------------------------

CERTIFY_MIX = [("goldbach-z", 36), ("goldbach-q", 28), ("goldbach-ff", 36),
               ("goldbach-relaxed", 28), ("spectrum-q", 32), ("spectrum-gfp", 32),
               ("irred", 48)]


def _lin(var, c):
    return var if c == 0 else f"{var} {'-' if c < 0 else '+'} {abs(c)}"


def _signed_sum(terms):
    text = ""
    for c, mono in terms:
        if c == 0:
            continue
        body = mono if abs(c) == 1 and mono else (f"{abs(c)}*{mono}" if mono else str(abs(c)))
        text += (" - " if c < 0 else " + ") + body
    return ("-" + text[3:]) if text.startswith(" - ") else text[3:]


def _certify_request(rng, kind):
    if kind == "goldbach-z":
        d = rng.randint(2, 4)
        cs = [rng.randint(-9, 9) for _ in range(d)] + [rng.choice((1, 2, 3, -1, -2))]
        q = _signed_sum([(c, f"x^{e}" if e else "") for e, c in reversed(list(enumerate(cs)))])
        return Request(kind, ["goldbach", "--ring", "Z", f"--Q={q}"], verify=True)
    if kind == "goldbach-q":
        q = (f"{rng.randint(1, 7)}/{rng.randint(1, 5)}*x1^2 + {rng.randint(1, 9)}*x1*x2"
             f" + {rng.randint(1, 9)}/{rng.randint(1, 4)}*x2 + {rng.randint(1, 9)}")
        return Request(kind, ["goldbach", "--ring", "Q", f"--Q={q}"], verify=True)
    if kind == "goldbach-ff":
        p = rng.choice((2, 3))
        d = rng.randint(2, 3)
        low = _signed_sum([(rng.randrange(p), f"x^{e}" if e else "") for e in range(d - 1, -1, -1)])
        q = f"x^{d}" + (f" + {low}" if low else "")
        return Request(kind, ["goldbach", "--ring", f"GF({p})", f"--Q={q}"],
                       ok_codes=(EXIT_OK, EXIT_NONE), verify=True)
    if kind == "goldbach-relaxed":
        p = rng.choice((2, 3))
        q = _signed_sum([(1, f"x1^{rng.randint(2, 3)}"), (rng.randrange(1, p), "x1*x2"),
                         (rng.randrange(p), "x2"), (rng.randrange(p), "")])
        return Request(kind, ["goldbach", "--ring", f"GF({p})", f"--Q={q}", "--vars", "2",
                              "--relaxed-degx"], verify=True)
    if kind.startswith("spectrum"):
        if kind == "spectrum-q":
            field_spec, pool = "Q", list(range(-4, 5))
        else:
            p = rng.choice((5, 7))
            field_spec, pool = f"GF({p})", list(range(p))
        S = rng.sample(pool, 2)
        a0 = rng.choice([v for v in pool if v not in S])
        w = rng.sample(pool, 2)
        deg = rng.choice(("3,2", "4,3", "4,4"))
        return Request(kind, ["spectrum", "--field", field_spec, f"--S={S[0]},{S[1]}",
                              f"--a0={a0}", "--V", "1", "--w", _lin("x1", w[0]),
                              "--w", _lin("x1", w[1]), "--deg", deg,
                              "--seed", str(rng.randrange(1 << 30))], verify=True)
    spec = rng.choice(("Z", "Q", "GF(2)", "GF(3)"))
    q = _signed_sum([(1, f"x1^{rng.randint(2, 4)}"),
                     (rng.randint(1, 3), f"x1*x2^{rng.randint(1, 3)}"),
                     (rng.randint(-3, 3), "x2"), (rng.randint(-3, 3), "")])
    return Request(kind, ["irred", q, "--ring", spec, "--vars", "2"], verify=True)


def certify(rng):
    reqs = []
    for kind, count in CERTIFY_MIX:
        for i in range(count):
            reqs.append(_certify_request(rng, kind))
            reqs[-1].label = f"{kind}-{i}"
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {"search-ff": search_ff, "search-z": search_z, "factor": factor,
             "certify": certify}


def build(workload, seed):
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))


# ---------------------------------------------------------------------------
# The correctness gate.
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    request: Request
    code: int | None             # None: the call raised
    stdout: str
    verify_code: int | None = None
    verify_stdout: str = ""

    @property
    def envelope(self):
        return json.loads(self.stdout) if self.stdout else None


def failed(outcome):
    """A request fails on a raised exception, a cap or budget hit, exit 1,
    or a failed verify; exit 2 from an exhaustive finite box is a proof."""
    if outcome.code not in outcome.request.ok_codes:
        return True
    return outcome.request.verify and outcome.verify_code != EXIT_OK


def gate(outcomes):
    """Error messages for the outputs of one pass (empty when all hold)."""
    errors = []
    by_label = {o.request.label: o for o in outcomes}
    for o in outcomes:
        r = o.request
        if r.may_fail and o.code == EXIT_BUDGET:
            continue          # a reported cap hit: counted as failed, not wrong
        try:
            problem = _check(o, by_label)
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"unreadable output ({type(exc).__name__}: {exc})"
        if problem:
            errors.append(f"{r.label}: {problem}")
    return errors


def _check(o, by_label):
    r = o.request
    if o.code not in r.ok_codes:
        return f"exit code {o.code}, expected one of {list(r.ok_codes)}"
    env = o.envelope
    res = env["result"]
    command = r.argv[0]
    if command == "schinzel":
        if res["tested"] != r.expect["tested"] or res["box_size"] != r.expect["tested"]:
            return f"tested {res['tested']} of box {res['box_size']}"
        if len(res["witnesses"]) != r.expect["witnesses"] or not res["complete"]:
            return f"{len(res['witnesses'])} witnesses, expected {r.expect['witnesses']}"
        if len(res["witnesses"]) + sum(res["rejected"].values()) != res["tested"]:
            return "rejection accounting does not add up"
    elif command == "swan-scan":
        if (res["candidates"], res["irreducible"]) != (r.expect["tested"], r.expect["witnesses"]):
            return f"{res['irreducible']} of {res['candidates']} candidates"
    elif command == "density":
        return _check_density(res, r, by_label)
    elif command == "factor":
        return _check_factor(env, r)
    elif command == "goldbach" and res["status"] == "found":
        ring = parse_ring(env["ring"])
        vars = VarSet(tuple(env["inputs"]["vars"]))
        F, G, Q = (parse_poly(env[k1][k2], ring, vars)
                   for k1, k2 in (("result", "F"), ("result", "G"), ("inputs", "Q")))
        if F + G != Q:
            return "F + G != Q"
    if r.verify:
        if o.verify_code != EXIT_OK or not json.loads(o.verify_stdout)["result"]["passed"]:
            return f"verify failed (exit {o.verify_code})"
    return None


def _check_density(res, r, by_label):
    """Recount the probe's samples against the exhaustive twin-z witness set."""
    if res["samples"] != r.expect["samples"]:
        return f"{res['samples']} samples"
    twin = by_label.get("twin-z")
    if twin is None or twin.code != EXIT_OK:
        return "no exhaustive twin-z result to recount against"
    witnesses = {w["M"] for w in twin.envelope["result"]["witnesses"]}
    ring = parse_ring("Z")
    cons = SearchConstraints(strategy="random", seed=r.expect["seed"],
                             budget=r.expect["samples"], coeff_bound=5)
    hits = sum(format_poly(M) in witnesses
               for M, _ in iter_candidates(ring, VarSet(("x1",)), support_monomials((2,)), cons))
    if hits != res["witnesses"]:
        return f"{res['witnesses']} witnesses, recount gives {hits}"
    return None


def _check_factor(env, r):
    res = env["result"]
    ring = parse_ring(env["ring"])
    vars = VarSet(tuple(env["inputs"]["vars"]))
    got = Counter()
    acc = parse_poly(res["unit"], ring, vars)
    for item in res["factors"]:
        got[item["poly"]] += item["multiplicity"]
        acc = acc * parse_poly(item["poly"], ring, vars) ** item["multiplicity"]
    if acc != parse_poly(env["inputs"]["poly"], ring, vars):
        return "factors do not recompose to the input"
    parts = (Counter({env["inputs"]["poly"]: 1}) if r.expect.get("irreducible")
             else r.expect["parts"])
    if res["unit"] != "1" or got != parts:
        return f"factors {dict(got)} differ from the generated parts {dict(parts)}"
    return None
