"""Benchmark of the schinzelpoly engine, driven in-process through the CLI.

    python3 bench/run.py --workload search-ff --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and NOTES.md): search-ff, search-z, factor,
certify.  Each is a closed loop with one client: the fixed, seeded request
set is run pass after pass, sequentially, until --seconds is used up.

Times are in reference seconds: measured seconds divided by the
interpreter's slowdown, which speed.py samples while the workload runs, so
that the shared machine's swings in speed do not show as changes of the
program.

--trace 0 prints the end-to-end metrics, measured untraced.  --trace 1
runs the same untraced passes, then one pass under the outside-in tracer,
and prints the per-layer metrics; its envelopes must be byte-identical to the
untraced ones.  Either way the correctness gate runs outside the timed
region, a readable report goes to stdout, and the last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit code
is 0 when the gate passes, 1 when it fails, 2 when the package cannot be
imported from this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import PROBE_REF_S, Sampler

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
SETUP_ROUNDS = 9

LAYER_TARGETS = [
    "cli.main", "cli.swan_scan",
    "textform.parse_poly",
    "schinzel.schinzel_search", "schinzel.density_probe", "schinzel.verify_candidate",
    "constructions.goldbach_decompose", "constructions.spectrum_construct",
    "constructions.poly_crt",
    "factor.is_irreducible", "factor.factor_multivariate", "factor.gf2_is_irreducible",
    "multipoly.MultiPoly.__mul__", "multipoly.MultiPoly.substitute",
    "multipoly.MultiPoly.try_divexact", "multipoly.poly_gcd",
    "rings.u_divmod", "rings.u_rem", "rings.u_mul", "rings.u_gcd", "rings.u_xgcd",
    "rings.u_powmod", "rings.u_is_irreducible",
]
ROUTE_METHODS = ["degree", "content", "linear-variable", "univariate-ff",
                 "specialization", "kronecker", "other"]
END_TO_END = {"setup_s": "s", "wall_s": "s", "request_ms.p50": "ms", "peak_rss_mb": "MB"}


def per_layer_units():
    units = {}
    for name in LAYER_TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({"schinzel.reverify_calls": "count", "schinzel.witness_yield": "ratio",
                  "constructions.tested_per_result": "count"})
    for method in ROUTE_METHODS:
        for arity in ("uni", "multi"):
            units[f"factor.route.{method}.{arity}"] = "count"
    units.update({"factor.cap_hits": "count", "trace.overhead_frac": "ratio"})
    return units


def import_package():
    """Import schinzelpoly from this checkout's src/, or exit 2."""
    if (SRC / "schinzelpoly" / "__init__.py").is_file():
        sys.path.insert(0, str(SRC))
        import schinzelpoly.cli

        if Path(schinzelpoly.__file__).resolve().parent.parent == SRC:
            return schinzelpoly.cli
    print(f"bench: no schinzelpoly package under {SRC}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Running requests.
# ---------------------------------------------------------------------------

def call_cli(cli, argv):
    """(exit code or None when it raised, stdout, (start, end) in perf_counter time)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        code = None
        print(f"bench: {argv[0]} raised:\n{traceback.format_exc()}", file=sys.stderr)
    return code, out.getvalue(), (t0, time.perf_counter())


def run_pass(cli, workloads, requests, tracer=None):
    """One sequential pass; returns (its (start, end), outcomes, the requests'
    (start, end), the verify calls' (start, end))."""
    outcomes, intervals, verify_intervals = [], [], []
    envelope_path = WORK / "envelope.json"
    t0 = time.perf_counter()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request_id = i
        code, stdout, span = call_cli(cli, req.argv)
        intervals.append(span)
        outcome = workloads.Outcome(req, code, stdout)
        if req.verify and stdout:
            envelope_path.write_text(stdout, encoding="utf-8")
            outcome.verify_code, outcome.verify_stdout, vspan = call_cli(
                cli, ["verify", str(envelope_path)])
            verify_intervals.append(vspan)
        outcomes.append(outcome)
    return (t0, time.perf_counter()), outcomes, intervals, verify_intervals


def measure(cli, workloads, requests, seconds):
    """Passes of the request set until the next one would overrun `seconds`
    (at least one); returns per-pass intervals, outcomes, request intervals
    and verify intervals."""
    walls, passes, intervals, verify_intervals = [], [], [], []
    start = time.perf_counter()
    while True:
        wall, outcomes, spans, vspans = run_pass(cli, workloads, requests)
        walls.append(wall)
        passes.append(outcomes)
        intervals.append(spans)
        verify_intervals.append(vspans)
        if time.perf_counter() - start + (wall[1] - wall[0]) > seconds:
            return walls, passes, intervals, verify_intervals


def warm_up(cli, requests):
    """One tiny request per coefficient ring the workload uses."""
    specs = sorted({req.argv[i + 1] for req in requests
                    for i, a in enumerate(req.argv[:-1]) if a in ("--ring", "--field")})
    for spec in specs:
        call_cli(cli, ["irred", "x1^2 + x1 + 1", "--ring", spec])


def import_seconds():
    """Import time of the package in a fresh interpreter, as each CLI call pays
    it, in reference seconds: the child times the speed probe around it."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:3]; from speed import probe_seconds; "
            "before = probe_seconds(); t = time.perf_counter(); import schinzelpoly.cli; "
            "t = time.perf_counter() - t; print(t, (before + probe_seconds()) / 2)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC), str(BENCH)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, probe_s = map(float, done.stdout.split())
    return seconds, seconds * PROBE_REF_S / probe_s


def set_up(cli, workloads, name, seed):
    """SETUP_ROUNDS of import + seeded generation + warm-up; returns, per round,
    (import seconds, import reference seconds, the rest's (start, end))."""
    rounds = []
    for _ in range(SETUP_ROUNDS):
        t_import, ref_import = import_seconds()
        t0 = time.perf_counter()
        requests = workloads.build(name, seed)
        warm_up(cli, requests)
        rounds.append((t_import, ref_import, (t0, time.perf_counter())))
    return rounds, requests


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def per_request(pass_intervals, seconds):
    """Each request's median time over the passes."""
    return [statistics.median(seconds(*span) for span in col) for col in zip(*pass_intervals)]


def p50_p90(values):
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[8]


def envelope_counts(outcomes):
    """(candidates tested, witnesses found, construction tested, construction
    requests, schinzel tested + density samples) over the outcomes' envelopes."""
    tested = witnesses = built = builds = searched = 0
    for o in outcomes:
        env = o.envelope
        if env is None:
            continue
        res = env["result"]
        command = env["command"]
        if command == "schinzel":
            tested += res["tested"]
            searched += res["tested"]
            witnesses += len(res["witnesses"])
        elif command == "density":
            tested += res["samples"]
            searched += res["samples"]
            witnesses += res["witnesses"]
        elif command == "swan-scan":
            tested += res["candidates"]
            witnesses += res["irreducible"]
        elif command in ("goldbach", "spectrum"):
            built += res.get("tested") or 0
            builds += 1
    return tested, witnesses, built, builds, searched


def search_seconds(outcomes, latencies):
    return sum(dt for o, dt in zip(outcomes, latencies)
               if o.request.argv[0] in ("schinzel", "density", "swan-scan"))


def layer_metrics(tracer, outcomes, traced_wall, base_wall):
    from tracer import self_times

    spans = tracer.spans()
    calls, self_s = self_times(spans)
    metrics = {}
    for name in LAYER_TARGETS:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    tested, witnesses, built, builds, searched = envelope_counts(outcomes)
    metrics["schinzel.reverify_calls"] = calls.get("schinzel.verify_candidate", 0) - searched
    metrics["schinzel.witness_yield"] = witnesses / tested if tested else 0.0
    metrics["constructions.tested_per_result"] = built / builds if builds else 0.0
    routes = tracer.counters()
    for method in ROUTE_METHODS:
        for arity in ("uni", "multi"):
            key = f"factor.route.{method}.{arity}"
            metrics[key] = routes.get(key, 0)
    metrics["factor.cap_hits"] = cap_hits(spans, tracer.errors())
    metrics["trace.overhead_frac"] = traced_wall / base_wall - 1.0
    return metrics


def cap_hits(spans, errors):
    """BudgetExceededError leaving the factor layer: counted at the outermost
    factor span it passes through."""
    hit = {sid for sid, name in errors.items() if name == "BudgetExceededError"}
    parent = {s[3]: s[4] for s in spans if s[3] in hit}
    wanted = hit | set(parent.values())
    name = {s[3]: s[0] for s in spans if s[3] in wanted}
    return sum(1 for sid in hit
               if name[sid].startswith("factor.")
               and not name.get(parent[sid], "").startswith("factor."))


def route_observer(counters, args, kwargs, cert):
    f = args[0] if args else kwargs["f"]
    arity = "multi" if sum(1 for n in f.vars.names if f.degree_in(n) > 0) > 1 else "uni"
    method = cert.method if cert.method in ROUTE_METHODS else "other"
    counters[f"factor.route.{method}.{arity}"] += 1


# ---------------------------------------------------------------------------
# Fingerprint and report.
# ---------------------------------------------------------------------------

def fingerprint(workloads, name, seed):
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(), "src_sha256": digest.hexdigest(), "seed": seed,
            "workload": name, "workloads": sorted(workloads.WORKLOADS)}


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["search-ff", "search-z", "factor", "certify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_package()
    import workloads

    WORK.mkdir(exist_ok=True)
    with Sampler() as sampler:
        rounds, requests = set_up(cli, workloads, args.workload, args.seed)
        walls, passes, pass_intervals, pass_verify_intervals = measure(
            cli, workloads, requests, args.seconds)
    first_pass = passes[0]
    errors = [f"{o.request.label}: output differs between passes"
              for later in passes[1:] for o, first in zip(later, first_pass)
              if (o.stdout, o.verify_stdout) != (first.stdout, first.verify_stdout)]
    errors += workloads.gate(first_pass)
    attempted = sum(len(p) for p in passes)
    failed = sum(workloads.failed(o) for p in passes for o in p)

    # Every time below is in reference seconds (speed.py): the machine's
    # speed swings by half within seconds and drifts over minutes.  Every
    # pass runs the identical request set: a request's latency is its
    # median over the passes, and the set's time is the median pass.
    ref, raw = sampler.reference_seconds, (lambda t0, t1: t1 - t0)
    latencies, raw_latencies = per_request(pass_intervals, ref), per_request(pass_intervals, raw)
    verify_latencies = per_request(pass_verify_intervals, ref)
    pass_s = [sum(ref(*span) for span in spans + vspans)
              for spans, vspans in zip(pass_intervals, pass_verify_intervals)]
    setup = [ref_import + ref(*rest) for _, ref_import, rest in rounds]
    p50, p90 = p50_p90([dt * 1000 for dt in latencies])
    metrics = {"setup_s": statistics.median(setup), "wall_s": statistics.median(pass_s),
               "request_ms.p50": p50,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    units = dict(END_TO_END)
    raw_p50, raw_p90 = p50_p90([dt * 1000 for dt in raw_latencies])
    # p90 is printed but not bounded: on factor it falls among the slowest
    # random products, so it moves with the seed by more than a bound allows.
    extra = {"request_ms.p90": (p90, "ms"),
             "failed_frac": (failed / attempted, "ratio"), "passes": (len(walls), "count"),
             "requests": (attempted, "count"),
             "slowdown.median": (statistics.median(sampler.durations) / PROBE_REF_S, "ratio"),
             "raw.setup_s": (statistics.median(t_import + raw(*rest)
                                               for t_import, _, rest in rounds), "s"),
             "raw.pass_s.median": (statistics.median(raw(*w) for w in walls), "s"),
             "raw.pass_s.min": (min(raw(*w) for w in walls), "s"),
             "raw.request_ms.p50": (raw_p50, "ms"), "raw.request_ms.p90": (raw_p90, "ms")}
    tested = envelope_counts(first_pass)[0]
    if tested:
        extra["candidates_per_s"] = (tested / search_seconds(first_pass, latencies), "1/s")
    if verify_latencies:
        v50, v90 = p50_p90([dt * 1000 for dt in verify_latencies])
        extra["verify_ms.p50"], extra["verify_ms.p90"] = (v50, "ms"), (v90, "ms")

    if args.trace:
        from tracer import Tracer

        tracer = Tracer(LAYER_TARGETS, observers={"factor.is_irreducible": route_observer})
        with tracer:
            traced_wall, traced, _, _ = run_pass(cli, workloads, requests, tracer)
        errors += [f"{o.request.label}: traced envelope differs from untraced"
                   for o, first in zip(traced, first_pass)
                   if (o.stdout, o.verify_stdout) != (first.stdout, first.verify_stdout)]
        metrics = layer_metrics(tracer, traced, raw(*traced_wall),
                                min(raw(*w) for w in walls))
        units = per_layer_units()
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.tsv")

    report = {"fingerprint": fingerprint(workloads, args.workload, args.seed),
              "errors": errors,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "untraced": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
              "request_s": {r.label: dt for r, dt in zip(requests, latencies)}}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"fingerprint {json.dumps(report['fingerprint'], sort_keys=True)}")
    for k, v in metrics.items():
        print(f"  {k:44s} {v:14.6g} {units[k]}")
    for k, (v, u) in extra.items():
        print(f"  {k:44s} {v:14.6g} {u}")
    for e in errors:
        print(f"GATE FAIL {e}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
