"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py -q"""

import itertools
import signal
import sys
import types
from collections import Counter

import pytest

import run
import speed
from tracer import NO_PARENT, Tracer, self_times

cli = run.import_package()
import workloads  # noqa: E402  (needs the package on sys.path)


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        ("outer", 0.0, 10.0, 1, NO_PARENT),
        ("inner", 1.0, 3.0, 2, 1),      # overlaps the next child, as pool
        ("inner", 2.0, 5.0, 3, 1),      # threads do: covered once, [1, 5]
        ("leaf", 2.5, 3.5, 4, 3),
        ("inner", 7.0, 8.0, 5, 1),
        ("inner", 9.5, 12.0, 6, 1),     # clipped to the parent's end
    ]
    calls, self_s = self_times(spans)
    assert calls == {"outer": 1, "inner": 4, "leaf": 1}
    assert self_s["outer"] == pytest.approx(10 - (4 + 1 + 0.5))
    assert self_s["inner"] == pytest.approx(2 + (3 - 1) + 1 + 2.5)
    assert self_s["leaf"] == pytest.approx(1.0)


def _fake_package():
    """fakepkg.core.outer -> inner, with inner also bound by name in fakepkg.user."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) + inner(x)\n", core.__dict__)
    user.inner = core.inner
    pkg.core, pkg.user = core, user
    return {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}


def test_tracer_records_nested_spans_at_every_binding(monkeypatch):
    for name, module in _fake_package().items():
        monkeypatch.setitem(sys.modules, name, module)
    core, user = sys.modules["fakepkg.core"], sys.modules["fakepkg.user"]
    ticks = itertools.count()
    tracer = Tracer(["core.outer", "core.inner"], package="fakepkg",
                    clock=lambda: float(next(ticks)))
    with tracer:
        assert core.outer(1) == 4        # clock: outer 0..5, inner 1..2 and 3..4
        assert user.inner(1) == 2        # the by-name binding is traced too: 6..7
    calls, self_s = self_times(tracer.spans())
    assert calls == {"core.outer": 1, "core.inner": 3}
    assert self_s == {"core.outer": 3.0, "core.inner": 3.0}
    assert user.inner is core.inner and not hasattr(core.inner, "__wrapped__")


def _bindings():
    out = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("schinzelpoly"):
            for key, value in vars(module).items():
                out[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def test_wrappers_are_restored():
    from schinzelpoly import cli as cli_mod, factor, multipoly

    before = _bindings()
    originals = (factor.is_irreducible, multipoly.MultiPoly.__dict__["__mul__"])
    with Tracer(run.LAYER_TARGETS):
        assert cli_mod.is_irreducible is factor.is_irreducible is not originals[0]
        assert multipoly.MultiPoly.__dict__["__mul__"] is not originals[1]
    assert _bindings() == before


def test_restored_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer(run.LAYER_TARGETS):
            raise RuntimeError("boom")
    assert _bindings() == before


SMALL = [
    ["factor", "x1^2*x2 + x1*x2^2 + x1 + x2", "--ring", "GF(3)"],
    ["irred", "x1^3 + x1*x2 + 1", "--ring", "Z"],
    ["goldbach", "--ring", "Z", "--Q", "x^2 + 3*x + 5"],
    ["goldbach", "--ring", "GF(2)", "--Q", "x1^2+x1", "--vars", "2", "--relaxed-degx"],
    ["spectrum", "--field", "Q", "--S", "0,1", "--a0", "2", "--V", "1", "--w", "x1",
     "--w", "x1+1", "--deg", "3,2"],
    ["schinzel", "--ring", "GF(2)", "--P", "x1 + x2*y", "--P", "y", "--deg", "1,1",
     "--threads", "2"],
    ["swan-scan", "--ring", "GF(2)", "--P", "y^2 + x^3", "--max-deg", "3"],
    ["density", "--ring", "Z", "--P", "y", "--P", "y+2", "--deg", "1", "--coeff-bound", "3",
     "--samples", "50"],
]


def test_traced_and_untraced_envelopes_are_byte_identical():
    requests = [workloads.Request(f"r{i}", argv, ok_codes=(0, 2), verify=True)
                for i, argv in enumerate(SMALL)]
    run.WORK.mkdir(exist_ok=True)
    _, plain, _, _ = run.run_pass(cli, workloads, requests)
    tracer = Tracer(run.LAYER_TARGETS, observers={"factor.is_irreducible": run.route_observer})
    with tracer:
        _, traced, _, _ = run.run_pass(cli, workloads, requests, tracer)
    assert all(o.code in (0, 2) and o.verify_code == 0 for o in plain)
    assert [(o.stdout, o.verify_stdout) for o in traced] == \
           [(o.stdout, o.verify_stdout) for o in plain]
    metrics = run.layer_metrics(tracer, traced, 2.0, 1.0)
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["schinzel.verify_candidate.calls"] > 0
    assert metrics["trace.overhead_frac"] == pytest.approx(1.0)


def test_gate_rejects_a_wrong_factorization():
    req = workloads.Request("p", ["factor", "x1^2 + x1", "--ring", "GF(2)"],
                            expect={"parts": Counter({"x1": 1, "x1 + 1": 1})})
    code, stdout, _ = run.call_cli(cli, req.argv)
    good = workloads.Outcome(req, code, stdout)
    assert workloads.gate([good]) == []
    bad = workloads.Outcome(req, code, stdout.replace('"x1 + 1"', '"x1"'))
    assert workloads.gate([bad])


def test_reference_seconds_divide_by_the_local_slowdown():
    sampler = speed.Sampler()
    ref = speed.PROBE_REF_S
    sampler.times = [0.0, 0.05, 0.1, 0.15, 0.2, 1.0, 1.05, 1.1]
    sampler.durations = [ref, ref, 3 * ref, 3 * ref, 3 * ref, 2 * ref, 2 * ref, 2 * ref]
    assert sampler.slowdown(0.1, 0.2) == pytest.approx(3.0)
    assert sampler.reference_seconds(0.1, 0.2) == pytest.approx(0.1 / 3)
    # No sample inside a short interval: the window widens to its neighbours.
    assert sampler.slowdown(1.02, 1.03) == pytest.approx(2.0)


def test_sampler_samples_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        t0 = run.time.perf_counter()
        while run.time.perf_counter() - t0 < 5 * speed.SAMPLE_EVERY:
            speed.probe()
    assert len(sampler.times) > 5 and sampler.times == sorted(sampler.times)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
