"""Command-line front end.

Commands: factor, irred, schinzel, goldbach, spectrum, swan-scan, density,
verify.  Machine-readable JSON goes to stdout (or --out FILE); a short
human summary goes to stderr.  Exit codes: 0 success-with-result,
2 exhaustively-none, 3 budget-exhausted, 1 usage or parse error.

Every command but verify parses its inputs and hands a computation to
_run, the one runner: it times the computation, builds the envelope, emits
it and writes the summary.  goldbach's ExhaustiveNoneError and
BudgetExceededError, and spectrum's BudgetExceededError, still get an
envelope from it, {"status", "tested"} with exit 2 or 3; any other error
reaches main, which writes one stderr line and no envelope.

Envelopes are byte-deterministic given flags and seed: keys are sorted and
timing is emitted as null unless --timings is passed.  timing_ms covers
the computation, its self-check and the building of the result, not the
parsing of the inputs or the writing of the envelope.  `verify` re-checks
any envelope this tool emits and reports pass/fail per invariant.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
import time
import warnings

from . import __version__
from .errors import (
    AlgebraError,
    BudgetExceededError,
    ExhaustiveNoneError,
    ParseError,
)
from .factor import factor_multivariate, is_irreducible
from .multipoly import MultiPoly, VarSet, format_poly
from .rings import parse_ring
from .schinzel import (
    SchinzelProblem,
    SearchBox,
    SearchConstraints,
    _search,
    density_probe,
    schinzel_search,
)
from .constructions import (
    SpectrumSpec,
    check_goldbach_inputs,
    goldbach_decompose,
    spectrum_construct,
)
from .textform import infer_vars, parse_poly

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONE = 2
EXIT_BUDGET = 3

_RING_ENV = "SCHINZELPOLY_RING"

# the most candidates a swan-scan enumerates
SWAN_SCAN_CAP = 1 << 22


# ---------------------------------------------------------------------------
# Envelope plumbing.
# ---------------------------------------------------------------------------

def make_envelope(command, ring, inputs, result, verification="passed",
                  timing_ms=None):
    return {
        "tool": "schinzelpoly",
        "version": __version__,
        "command": command,
        "ring": ring.spec_string() if ring is not None else None,
        "inputs": inputs,
        "result": result,
        "timing_ms": timing_ms,
        "verification": verification,
    }


def emit(envelope, out_path=None):
    text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def note(msg):
    print(msg, file=sys.stderr)


def _run(args, ring, inputs, compute, failures=()):
    """Time compute(), which returns (result, verification, exit code,
    summary), emit its envelope and write the summary to stderr.  An error
    of a type in failures still gets an envelope: status exhausted-none
    (exit 2) or budget-exhausted (exit 3) with the candidates tested."""
    t0 = time.perf_counter()
    try:
        result, verification, code, summary = compute()
    except failures as e:
        none = isinstance(e, ExhaustiveNoneError)
        result = {"status": "exhausted-none" if none else "budget-exhausted",
                  "tested": e.tested}
        verification, code = "passed", EXIT_NONE if none else EXIT_BUDGET
        summary = f"{args.command}: {'exhaustively none' if none else 'budget exhausted'} ({e})"
    dt = (time.perf_counter() - t0) * 1000
    emit(make_envelope(args.command, ring, inputs, result, verification,
                       timing_ms=dt if args.timings else None), args.out)
    note(summary)
    return code


def _one_poly(args, text):
    """The ring, variables and polynomial of factor, irred and goldbach:
    --vars n names x1..xn, and without it the variables are read off text."""
    ring = parse_ring(args.ring)
    if args.vars is not None:
        vars = VarSet(tuple(f"x{i}" for i in range(1, args.vars + 1)))
    else:
        vars = infer_vars(text)
    return ring, vars, parse_poly(text, ring, vars, aliases=_aliases(vars))


def _aliases(vars: VarSet):
    """Accept bare x/y for x1/y1 when unambiguous."""
    aliases = {}
    if "x1" in vars and "x" not in vars:
        aliases["x"] = "x1"
    if "y1" in vars and "y" not in vars:
        aliases["y"] = "y1"
    return aliases


def _parse_value(text, ring):
    """A coefficient literal, parsed as a constant polynomial."""
    poly = parse_poly(text, ring, VarSet(()))
    return poly.constant_value()


# ---------------------------------------------------------------------------
# factor / irred
# ---------------------------------------------------------------------------

def cmd_factor(args):
    ring, vars, f = _one_poly(args, args.poly)

    def compute():
        fac = factor_multivariate(f)
        ok = fac.recompose_over(vars) == f
        result = {
            "unit": str(fac.unit),
            "factors": [{"poly": format_poly(g), "multiplicity": m} for g, m in fac.factors],
            "method": fac.method,
        }
        parts = [f"({format_poly(g)})^{m}" if m > 1 else f"({format_poly(g)})"
                 for g, m in fac.factors]
        summary = f"factor: {format_poly(f)} = " + " * ".join([str(fac.unit)] + parts)
        return result, "passed" if ok else "failed", EXIT_OK if ok else EXIT_USAGE, summary
    return _run(args, ring, {"poly": format_poly(f), "vars": list(vars.names)}, compute)


def cmd_irred(args):
    ring, vars, f = _one_poly(args, args.poly)

    def compute():
        cert = is_irreducible(f, need_witness=True)
        result = {
            "irreducible": bool(cert),
            "reason": cert.reason,
            "witness_factor": format_poly(cert.witness) if cert.witness is not None else None,
            "method": cert.method,
        }
        summary = f"irred: {format_poly(f)} -> {bool(cert)} ({cert.reason})"
        return result, "passed", EXIT_OK, summary
    return _run(args, ring, {"poly": format_poly(f), "vars": list(vars.names)}, compute)


# ---------------------------------------------------------------------------
# schinzel / density
# ---------------------------------------------------------------------------

# (command-line dest and envelope input key, SearchConstraints field) of
# every constraint an envelope records; verify rebuilds the constraints
# from the same list
_CONSTRAINT_INPUTS = (
    ("strategy", "strategy"),
    ("coeff_bound", "coeff_bound"),
    ("deg_u", "deg_u_bound"),
    ("deg_u_target", "deg_u_target"),
    ("exact_degrees", "exact_degrees"),
    ("paper_mode", "paper_mode"),
    ("max_witnesses", "max_witnesses"),
    ("budget", "budget"),
    ("seed", "seed"),
)


def _build_problem(args):
    """The ring, the SchinzelProblem and the envelope inputs of a schinzel
    or density command."""
    ring = parse_ring(args.ring)
    d = tuple(int(t) for t in args.deg.split(","))
    n = len(d)
    if args.vars is not None and args.vars != n:
        raise ValueError(f"--vars {args.vars} conflicts with --deg of length {n}")
    xnames = tuple(f"x{i}" for i in range(1, n + 1))
    yset = set()
    for ptext in args.P:
        for name in infer_vars(ptext).names:
            if name.startswith("y") or name == "y":
                yset.add("y1" if name == "y" else name)
    ynames = tuple(sorted(yset, key=lambda s: int(s[1:] or 1))) or ("y1",)
    vars = VarSet(xnames + ynames)
    aliases = _aliases(vars)
    P = [parse_poly(t, ring, vars, aliases=aliases) for t in args.P]
    # density has no --max-witnesses
    cons = SearchConstraints(**{field: getattr(args, key, None)
                                for key, field in _CONSTRAINT_INPUTS})
    problem = SchinzelProblem(ring, VarSet(xnames), VarSet(ynames), P, d, cons)
    inputs = {"P": [format_poly(g) for g in P], "deg": list(d),
              "xvars": list(xnames), "yvars": list(ynames)}
    for key, field in _CONSTRAINT_INPUTS:
        inputs[key] = getattr(cons, field)
    return ring, problem, inputs


def _witness_payload(w):
    if isinstance(w.M, tuple):
        return {"M": [format_poly(m) for m in w.M]}
    return {"M": format_poly(w.M), "certificates": w.certificates}


def cmd_schinzel(args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ring, problem, inputs = _build_problem(args)

        def compute():
            report = schinzel_search(problem)
            result = {
                "status": report.status(),
                "witnesses": [_witness_payload(w) for w in report.witnesses],
                "tested": report.tested,
                "rejected": report.rejected,
                "budget": report.budget,
                "budget_consumed": report.budget_consumed,
                "seed": report.seed,
                "strategy": report.strategy,
                "complete": report.complete,
                "box_size": report.box_size,
                "degree_bound_warning": report.degree_bound_warning,
            }
            code = EXIT_OK if report.found else EXIT_NONE if report.complete else EXIT_BUDGET
            summary = "\n".join([f"warning: {w.message}" for w in caught] + [
                f"schinzel: {report.status()}, {len(report.witnesses)} witness(es), "
                f"{report.tested} tested"])
            return result, "passed", code, summary
        return _run(args, ring, inputs, compute)


def cmd_density(args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ring, problem, inputs = _build_problem(args)

        def compute():
            report = density_probe(problem, args.samples)
            result = {
                "fraction": report.fraction,
                "ci95_low": report.ci_low,
                "ci95_high": report.ci_high,
                "samples": report.samples,
                "witnesses": report.witnesses,
                "seed": report.seed,
            }
            summary = (f"density: {report.fraction:.4f} in [{report.ci_low:.4f}, "
                       f"{report.ci_high:.4f}] ({report.witnesses}/{report.samples})")
            return result, "passed", EXIT_OK, summary
        return _run(args, ring, inputs, compute)


# ---------------------------------------------------------------------------
# goldbach
# ---------------------------------------------------------------------------

def cmd_goldbach(args):
    ring, vars, Q = _one_poly(args, args.Q)
    relaxed_var = vars.names[0] if args.relaxed_degx and vars.names else None
    inputs = {"Q": format_poly(Q), "vars": list(vars.names),
              "relaxed_degx": bool(args.relaxed_degx), "budget": args.budget}

    def compute():
        dec = goldbach_decompose(Q, relaxed_var=relaxed_var, budget=args.budget)
        ok = dec.verify()
        result = {
            "status": "found",
            "F": format_poly(dec.F),
            "G": format_poly(dec.G),
            "case": dec.case,
            "binomial": dec.binomial,
            "F_exponents": list(dec.F_exponents) if dec.F_exponents else None,
            "tested": dec.tested,
        }
        summary = f"goldbach: {format_poly(Q)} = ({format_poly(dec.F)}) + ({format_poly(dec.G)})"
        return result, "passed" if ok else "failed", EXIT_OK if ok else EXIT_USAGE, summary
    return _run(args, ring, inputs, compute,
                failures=(ExhaustiveNoneError, BudgetExceededError))


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args):
    ring = parse_ring(args.field)
    a0_ring = parse_ring(args.a0_field) if args.a0_field else ring
    n = len(args.deg.split(","))
    vars = VarSet(tuple(f"x{i}" for i in range(1, n + 1)))
    aliases = _aliases(vars)
    V = parse_poly(args.V, ring, vars, aliases=aliases)
    w = [parse_poly(t, ring, vars, aliases=aliases) for t in args.w]
    S = [_parse_value(t, ring) for t in args.S.split(",")] if args.S else []
    a0 = _parse_value(args.a0, a0_ring)
    d = tuple(int(t) for t in args.deg.split(","))
    spec = SpectrumSpec(ring, vars, S, a0, V, w, d, a0_field=a0_ring)
    inputs = {
        "S": [ring.format(a) for a in S],
        "a0": a0_ring.format(a0),
        "a0_field": a0_ring.spec_string(),
        "V": format_poly(V),
        "w": [format_poly(x) for x in w],
        "deg": list(d),
        "budget": args.budget,
        "seed": args.seed,
        "coeff_bound": args.coeff_bound,
    }

    def compute():
        res = spectrum_construct(spec, budget=args.budget, seed=args.seed,
                                 coeff_bound=args.coeff_bound)
        result = {
            "status": "found",
            "U": format_poly(res.U),
            "U0": format_poly(res.U0),
            "M": format_poly(res.M),
            "H": [format_poly(h) for h in res.H],
            "cofactors": [format_poly(p) for p in res.cofactors],
            "tested": res.tested,
        }
        summary = f"spectrum: found U with partial degrees {list(d)} after {res.tested} samples"
        return result, "passed", EXIT_OK, summary
    return _run(args, ring, inputs, compute, failures=(BudgetExceededError,))


# ---------------------------------------------------------------------------
# swan-scan
# ---------------------------------------------------------------------------

def swan_scan(P: MultiPoly, xname: str, yname: str, max_deg: int):
    """Exhaustive scan of all M with deg(M) <= max_deg over a finite field:
    counts how many make P(x, M(x)) irreducible, by a witness search over
    a SearchBox, which checks no hypothesis on P, keeping 5 witnesses."""
    ring = P.ring
    if not ring.is_finite:
        raise AlgebraError("swan-scan needs a finite field")
    q = ring.order
    total = 1
    for _ in range(max_deg + 1):
        total *= q  # q^(max_deg + 1) itself can have millions of digits
        if total > SWAN_SCAN_CAP:
            raise BudgetExceededError(f"enumeration of {q}^{max_deg + 1} candidates "
                                      f"exceeds the cap of {SWAN_SCAN_CAP}")
    cons = SearchConstraints(budget=total, support=[(i,) for i in range(max_deg + 1)])
    box = SearchBox(ring, VarSet((xname,)), VarSet((yname,)), [P], (max_deg,), cons)
    irreducible, report = _search(box, cons, keep=5)
    return {"candidates": report.tested, "irreducible": irreducible,
            "reducible": report.tested - irreducible, "max_deg": max_deg,
            "witness_examples": [format_poly(w.M) for w in report.witnesses]}


def cmd_swan_scan(args):
    ring = parse_ring(args.ring)
    P = parse_poly(args.P, ring, VarSet(("x1", "y1")), aliases={"x": "x1", "y": "y1"})

    def compute():
        scan = swan_scan(P, "x1", "y1", args.max_deg)
        summary = (f"swan-scan: {scan['irreducible']} of {scan['candidates']} candidates "
                   f"give an irreducible specialization")
        return scan, "passed", EXIT_OK if scan["irreducible"] > 0 else EXIT_NONE, summary
    return _run(args, ring, {"P": format_poly(P), "max_deg": args.max_deg}, compute)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _reader(env, names):
    """The envelope's ring, the VarSet of names and a parser of polynomial
    text over both."""
    ring = parse_ring(env["ring"])
    vars = VarSet(tuple(names))
    return ring, vars, lambda text: parse_poly(text, ring, vars)


def _verify_factor(env):
    ring, _, read = _reader(env, env["inputs"]["vars"])
    f = read(env["inputs"]["poly"])
    unit = read(env["result"]["unit"])
    # Divide the factors out of the input instead of multiplying them up,
    # so that the work stays bounded by the input, whatever the multiplicity.
    if f.is_zero():
        return False, "the input is zero"
    rest = f
    for item in env["result"]["factors"]:
        g = read(item["poly"])
        if (item["multiplicity"] < 1 or g.is_zero()
                or (g.is_constant() and ring.is_unit(g.constant_value()))):
            return False, f"factor {item['poly']} is zero, a unit or not raised to a power >= 1"
        if not g.is_constant() and not is_irreducible(g):
            return False, f"factor {item['poly']} is not irreducible"
        for _ in range(item["multiplicity"]):
            rest = rest.try_divexact(g)
            if rest is None:
                return False, "recomposition does not match the input"
    if rest != unit:
        return False, "recomposition does not match the input"
    return True, "ok"


def _verify_irred(env):
    _, _, read = _reader(env, env["inputs"]["vars"])
    f = read(env["inputs"]["poly"])
    cert = is_irreducible(f)
    if bool(cert) != env["result"]["irreducible"]:
        return False, "verdict mismatch"
    w = env["result"].get("witness_factor")
    if w:
        if f.try_divexact(read(w)) is None:
            return False, "witness factor does not divide"
    return True, "ok"


def _rebuilt(construct):
    """construct() and None, or None and why verify fails: the inputs break a
    hypothesis that the command checks.  The degree cap still raises."""
    try:
        return construct(), None
    except BudgetExceededError:
        raise
    except (ValueError, AlgebraError) as e:
        return None, f"inputs break a hypothesis: {e}"


def _rebuilt_problem(env):
    """_rebuilt of a schinzel or density envelope's SchinzelProblem."""
    ins = env["inputs"]
    ring, _, read = _reader(env, tuple(ins["xvars"]) + tuple(ins["yvars"]))
    P = [read(t) for t in ins["P"]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return _rebuilt(lambda: SchinzelProblem(
            ring, VarSet(tuple(ins["xvars"])), VarSet(tuple(ins["yvars"])), P, tuple(ins["deg"]),
            SearchConstraints(**{field: ins[key] for key, field in _CONSTRAINT_INPUTS})))


def _verify_schinzel(env):
    problem, broken = _rebuilt_problem(env)
    if broken:
        return False, broken
    for item in env["result"]["witnesses"]:
        Ms = item["M"] if isinstance(item["M"], list) else [item["M"]]
        final = problem.P
        for yname, M in zip(problem.yvars.names,
                            [parse_poly(t, problem.ring, problem.xvars) for t in Ms]):
            final = [Pi.substitute(yname, M) for Pi in final]
        for Fi in final:
            if Fi.is_zero() or not is_irreducible(Fi):
                return False, f"witness {item['M']} does not re-verify"
    res = env["result"]
    if res["strategy"] == "exhaustive" and res["complete"]:
        accounted = len(res["witnesses"]) + sum(res["rejected"].values())
        if res["box_size"] is not None and accounted != res["box_size"]:
            return False, "completeness accounting mismatch"
    return True, "ok"


def _verify_goldbach(env):
    ins = env["inputs"]
    _, vars, read = _reader(env, ins["vars"])
    Q = read(ins["Q"])
    relaxed = vars.names[0] if ins["relaxed_degx"] and vars.names else None
    _, broken = _rebuilt(lambda: check_goldbach_inputs(Q, relaxed))
    if broken:
        return False, broken
    res = env["result"]
    if res["status"] != "found":
        try:
            goldbach_decompose(Q, relaxed_var=relaxed, budget=ins["budget"])
        except ExhaustiveNoneError:
            return (res["status"] == "exhausted-none"), "re-ran search"
        except BudgetExceededError:
            return (res["status"] == "budget-exhausted"), "re-ran search"
        return False, "a decomposition exists after all"
    F, G = read(res["F"]), read(res["G"])
    if F + G != Q:
        return False, "F + G != Q"
    if not (is_irreducible(F) and is_irreducible(G)):
        return False, "parts not both irreducible"
    if relaxed is not None:
        if F.degree_in(relaxed) > Q.degree_in(relaxed):
            return False, "relaxed degree clause violated"
    elif F.total_degree() > Q.total_degree():
        return False, "degree clause violated"
    return True, "ok"


def _verify_spectrum(env):
    ins = env["inputs"]
    ring, vars, read = _reader(env, [f"x{i}" for i in range(1, len(ins["deg"]) + 1)])
    a0_ring = parse_ring(ins["a0_field"])
    V = read(ins["V"])
    w = [read(t) for t in ins["w"]]
    S = [_parse_value(t, ring) for t in ins["S"]]
    a0 = _parse_value(ins["a0"], a0_ring)
    spec, broken = _rebuilt(lambda: SpectrumSpec(ring, vars, S, a0, V, w, tuple(ins["deg"]),
                                                 a0_field=a0_ring))
    if broken:
        return False, broken
    res = env["result"]
    if res["status"] != "found":
        return True, "nothing to re-verify"
    from .constructions import _embed_poly, _embedding

    kp = _embedding(spec)
    U = read(res["U"])
    H = [parse_poly(t, kp, vars) for t in res["H"]]
    Up, Vp = _embed_poly(U, kp), _embed_poly(V, kp)
    # (a): U - a_i V = w_i H_i with H_i irreducible, H_i not dividing w_i
    for a, wi, Hi in zip(S, w, H[1:]):
        lhs = _embed_poly(U - V.scale(a), kp)
        if lhs != _embed_poly(wi, kp) * Hi:
            return False, "division identity (a) fails"
        if not is_irreducible(Hi):
            return False, "H_i not irreducible"
        if _embed_poly(wi, kp).try_divexact(Hi) is not None:
            return False, "H_i divides w_i"
    # (b): U - a0 V irreducible of degree max(deg U, deg V)
    H0 = Up - Vp.scale(a0)
    if H0 != H[0]:
        return False, "H_0 mismatch"
    if not is_irreducible(H0):
        return False, "U - a0*V not irreducible"
    if H0.total_degree() != max(Up.total_degree(), Vp.total_degree()):
        return False, "degree condition (b) fails"
    # (c): exact partial degrees
    for name, dj in zip(vars.names, ins["deg"]):
        if U.degree_in(name) != dj:
            return False, "partial degree condition (c) fails"
    return True, "ok"


def _verify_swan(env):
    _, _, read = _reader(env, ("x1", "y1"))
    scan = swan_scan(read(env["inputs"]["P"]), "x1", "y1", env["inputs"]["max_deg"])
    res = env["result"]
    same = (scan["candidates"] == res["candidates"]
            and scan["irreducible"] == res["irreducible"])
    return same, "re-ran scan"


def _verify_density(env):
    # Deterministic given seed: re-run and compare.
    problem, broken = _rebuilt_problem(env)
    if broken:
        return False, broken
    rep = density_probe(problem, env["result"]["samples"])
    same = (rep.witnesses == env["result"]["witnesses"]
            and abs(rep.fraction - env["result"]["fraction"]) < 1e-12)
    return same, "re-ran probe"


def _refused_input(env):
    """Why an envelope's inputs could not have come from the parser, or None:
    a bound below its floor describes an empty or meaningless box, and
    nothing proved over it holds.  density records its --samples only in
    its result, which _verify_density re-runs with."""
    inputs = env["inputs"]
    if env["command"] == "density":
        inputs = {**inputs, "samples": env["result"]["samples"]}
    for key, low in _FLOORS.items():
        if key == "vars":
            continue  # envelopes record the variable names, not the count
        value = inputs.get(key)
        for v in value if isinstance(value, list) else [value]:
            if v is not None and v < low:
                return f"input {key} = {value} is below {low}"
    return None


_VERIFIERS = {
    "factor": _verify_factor,
    "irred": _verify_irred,
    "schinzel": _verify_schinzel,
    "goldbach": _verify_goldbach,
    "spectrum": _verify_spectrum,
    "swan-scan": _verify_swan,
    "density": _verify_density,
}


def cmd_verify(args):
    try:
        with open(args.envelope, "r", encoding="utf-8") as fh:
            env = json.load(fh)
    except OSError as e:
        note(f"error: cannot read envelope {args.envelope}: {e.strerror or e}")
        return EXIT_USAGE
    except ValueError as e:
        note(f"error: envelope {args.envelope} is not JSON: {e}")
        return EXIT_USAGE
    if not isinstance(env, dict):
        note(f"error: malformed envelope {args.envelope}: not a JSON object")
        return EXIT_USAGE
    command = env.get("command")
    checker = _VERIFIERS.get(command) if isinstance(command, str) else None
    if checker is None:
        note(f"verify: no checker for command {command!r}")
        return EXIT_USAGE
    try:
        refused = _refused_input(env)
        ok, detail = (False, refused) if refused else checker(env)
    except (KeyError, IndexError, TypeError, AttributeError) as e:
        what = f"missing field {e}" if isinstance(e, KeyError) else f"a field of the wrong shape ({e})"
        note(f"error: malformed envelope {args.envelope}: {what}")
        return EXIT_USAGE
    out = make_envelope("verify", None,
                        {"envelope": os.path.basename(args.envelope),
                         "verified_command": command},
                        {"passed": bool(ok), "detail": detail})
    emit(out, args.out)
    note(f"verify: {command} -> {'PASS' if ok else 'FAIL'} ({detail})")
    return EXIT_OK if ok else EXIT_USAGE


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

# the least value of each integer option: anything lower is refused with
# exit 1 (by the parser, and for the list --deg by the command), and verify
# fails an envelope whose inputs record it
_FLOORS = {"budget": 1, "coeff_bound": 0, "deg": 0, "deg_u": 0, "deg_u_target": 0,
           "max_deg": 0, "max_witnesses": 1, "samples": 1, "threads": 1, "vars": 1}


def _at_least_floor(key):
    """The argparse type of the option for key: an int >= _FLOORS[key]."""
    low, name = _FLOORS[key], key.replace("_", "-")

    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}")
        return n
    return parse


def _add_common(sp, ring=True, budget=False, seed=True):
    if ring:
        sp.add_argument("--ring", default=os.environ.get(_RING_ENV, "Z"),
                        help="coefficient ring: Z, Q, GF(p), GF(p^k), GF(p)[u], Q[u]")
    if seed:
        sp.add_argument("--seed", type=int, default=0)
    if budget:
        sp.add_argument("--budget", type=_at_least_floor("budget"), default=100_000)
    sp.add_argument("--threads", type=_at_least_floor("threads"), default=1,
                    help="accepted for compatibility; every command runs on one thread")
    sp.add_argument("--out", default=None, help="write the JSON envelope to this path")
    sp.add_argument("--timings", action="store_true",
                    help="include wall-clock timing in the envelope "
                         "(off by default so reruns are byte-identical)")


def _add_vars(sp, help=None):
    sp.add_argument("--vars", type=_at_least_floor("vars"), default=None, help=help)


def _add_box(sp, option, **spec):
    """The options schinzel and density share: the polynomials P, the degree
    box and its bounds, with the command's own option given by option and
    spec between --vars and the bounds."""
    sp.add_argument("--P", action="append", required=True,
                    help="a polynomial in x1..xn and y (repeatable)")
    sp.add_argument("--deg", required=True, help="d1,...,dn")
    _add_vars(sp, help="n; must match the length of --deg")
    sp.add_argument(option, **spec)
    sp.add_argument("--coeff-bound", type=_at_least_floor("coeff_bound"), default=None)
    sp.add_argument("--deg-u", type=_at_least_floor("deg_u"), default=None,
                    help="degree-in-u bound for k[u] coefficient boxes")
    sp.add_argument("--deg-u-target", type=_at_least_floor("deg_u_target"), default=None)
    sp.add_argument("--exact-degrees", action="store_true")
    sp.add_argument("--paper-mode", action="store_true")


def build_parser():
    # argparse asks the terminal for its width in every formatter it makes,
    # about once per option; asking once gives the same help text
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="schinzelpoly", formatter_class=formatter,
        description="Irreducibility witnesses, Goldbach decompositions and "
                    "prescribed spectra over polynomial rings.")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, formatter_class=formatter)

    sp = add_parser("factor", help="factor a polynomial")
    sp.add_argument("poly")
    _add_vars(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_factor)

    sp = add_parser("irred", help="test irreducibility")
    sp.add_argument("poly")
    _add_vars(sp)
    _add_common(sp, seed=False)
    sp.set_defaults(func=cmd_irred)

    sp = add_parser("schinzel", help="search for witnesses M")
    _add_box(sp, "--strategy", choices=("exhaustive", "random"), default="exhaustive")
    sp.add_argument("--max-witnesses", type=_at_least_floor("max_witnesses"), default=None)
    _add_common(sp, budget=True)
    sp.set_defaults(func=cmd_schinzel)

    sp = add_parser("density", help="witness-fraction probe")
    _add_box(sp, "--samples", type=_at_least_floor("samples"), default=1000)
    sp.add_argument("--strategy", default="random", choices=("random",))
    _add_common(sp, budget=True)
    sp.set_defaults(func=cmd_density)

    sp = add_parser("goldbach", help="decompose Q into two irreducibles")
    sp.add_argument("--Q", required=True)
    _add_vars(sp)
    sp.add_argument("--relaxed-degx", action="store_true",
                    help="per-variable degree clause deg_x1(F) <= deg_x1(Q) "
                         "(finite fields, n >= 2)")
    _add_common(sp, budget=True, seed=False)
    sp.set_defaults(func=cmd_goldbach)

    sp = add_parser("spectrum", help="rational function with a prescribed spectrum")
    sp.add_argument("--field", default=os.environ.get(_RING_ENV, "Q"))
    sp.add_argument("--S", default="", help="a1,a2,... in the base field")
    sp.add_argument("--a0", required=True)
    sp.add_argument("--a0-field", default=None,
                    help="GF(p^m) when a0 lives in an extension")
    sp.add_argument("--V", default="1")
    sp.add_argument("--w", action="append", required=True)
    sp.add_argument("--deg", required=True)
    sp.add_argument("--coeff-bound", type=_at_least_floor("coeff_bound"), default=2)
    _add_common(sp, ring=False, budget=True)
    sp.set_defaults(func=cmd_spectrum)

    sp = add_parser("swan-scan", help="exhaustive P(x, M) scan over all M")
    sp.add_argument("--P", required=True, help="a polynomial in x and y")
    sp.add_argument("--max-deg", type=_at_least_floor("max_deg"), required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_swan_scan)

    sp = add_parser("verify", help="re-check a previously emitted envelope")
    sp.add_argument("envelope")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (ParseError, ValueError) as e:
        note(f"error: {e}")
        return EXIT_USAGE
    except BudgetExceededError as e:
        note(f"budget exhausted: {e}")
        return EXIT_BUDGET
    except AlgebraError as e:
        note(f"error: {e}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
