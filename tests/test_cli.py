"""CLI surface: grammar, envelopes, exit codes, verify self-consistency."""

import itertools
import json
import pathlib
import random
import re
import shlex
import time

import pytest

from schinzelpoly import cli
from schinzelpoly.cli import main, swan_scan
from schinzelpoly.errors import BudgetExceededError, ParseError
from schinzelpoly.factor import factor_multivariate
from schinzelpoly.multipoly import DEGREE_CAP, MultiPoly, Specializer, VarSet, format_poly
from schinzelpoly.rings import GF, QQ, ZZ, PolyRing
from schinzelpoly.schinzel import (SearchConstraints, image_irreducibility, iter_candidates,
                                   root_sieve)
from schinzelpoly.textform import infer_vars, parse_poly

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
F5 = GF(5)


def run_cli(args, capsys, tmp_path=None):
    """Run the CLI in-process; returns (exit code, parsed envelope)."""
    if tmp_path is not None:
        out = tmp_path / "env.json"
        rc = main(args + ["--out", str(out)])
        capsys.readouterr()
        return rc, json.loads(out.read_text())
    rc = main(args)
    captured = capsys.readouterr()
    env = json.loads(captured.out) if captured.out.strip() else None
    return rc, env


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------

def test_parse_swan_polynomial():
    V = VarSet(("x1", "y"))
    f = parse_poly("y^8 + x1^3", F2, V)
    assert f.terms == {(0, 8): 1, (3, 0): 1}


def test_parse_zero():
    f = parse_poly("0", ZZ, VarSet(("x1",)))
    assert f.is_zero()


def test_parse_ku_coefficients():
    R = PolyRing(F2)
    f = parse_poly("(u+1)*x1 + u", R, VarSet(("x1",)))
    assert f.terms == {(1,): (1, 1), (0,): (0, 1)}


def test_parse_whitespace_insensitive():
    V = VarSet(("x1", "x2"))
    a = parse_poly("x1^2*x2 - 3*x1 + 1", ZZ, V)
    b = parse_poly("  x1^2 * x2-3*x1   +1 ", ZZ, V)
    assert a == b


def test_parse_implicit_multiplication():
    V = VarSet(("x1",))
    assert parse_poly("2x1", ZZ, V) == parse_poly("2*x1", ZZ, V)


def test_parse_error_position():
    with pytest.raises(ParseError) as ei:
        parse_poly("x1 + $", ZZ, VarSet(("x1",)))
    assert ei.value.position is not None


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        parse_poly("x9 + 1", ZZ, VarSet(("x1",)))


def test_parse_coefficient_not_in_ring():
    with pytest.raises(ParseError):
        parse_poly("1/2*x1", ZZ, VarSet(("x1",)))
    with pytest.raises(ParseError):
        parse_poly("u*x1", ZZ, VarSet(("x1",)))


def test_infer_vars():
    assert infer_vars("y^8 + x^3").names == ("x", "y")
    assert infer_vars("x1*x2 + y1").names == ("x1", "x2", "y1")


def _random_poly(ring, vars, rng, conv):
    terms = {}
    for e in itertools.product(range(3), repeat=len(vars)):
        c = conv(rng)
        if not ring.is_zero(c):
            terms[e] = c
    return MultiPoly(ring, vars, terms)


def test_print_parse_roundtrip_1000_per_ring():
    from fractions import Fraction

    rng = random.Random(0)
    V = VarSet(("x1", "x2"))
    Qu = PolyRing(QQ)
    F2u = PolyRing(F2)
    f2u_box = F2u.element_box(deg_bound=2)

    def qu_value(r):
        coeffs = [Fraction(r.randrange(-2, 3)) for _ in range(r.randrange(1, 3))]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)

    rings = [
        (ZZ, lambda r: r.randrange(-9, 10)),
        (QQ, lambda r: Fraction(r.randrange(-6, 7), r.randrange(1, 5))),
        (F5, lambda r: r.randrange(5)),
        (F4, lambda r: F4.element_box()[r.randrange(4)]),
        (F2u, lambda r: f2u_box[r.randrange(8)]),
        (Qu, qu_value),
    ]
    for ring, conv in rings:
        for _ in range(1000):
            f = _random_poly(ring, V, rng, conv)
            text = format_poly(f)
            back = parse_poly(text, ring, V)
            assert back == f, (ring, text)


# ---------------------------------------------------------------------------
# swan-scan
# ---------------------------------------------------------------------------

def test_swan_scan_linear_has_witnesses():
    V = VarSet(("x1", "y1"))
    P = parse_poly("y + x", F2, V, aliases={"x": "x1", "y": "y1"})
    scan = swan_scan(P, "x1", "y1", 1)
    assert scan["candidates"] == 4
    assert scan["irreducible"] > 0


def test_swan_scan_f3_quadratic():
    V = VarSet(("x1", "y1"))
    P = parse_poly("y^2 + x", F3, V, aliases={"x": "x1", "y": "y1"})
    scan = swan_scan(P, "x1", "y1", 2)
    assert scan["candidates"] == 27
    assert scan["irreducible"] > 0


@pytest.mark.parametrize("ring, text, max_deg", [
    (F2, "y^8 + x^3", 8),                  # one term on top for every deg M
    (F2, "y^2 + x*y + x^2 + x + 1", 7),    # the three top terms tie at deg M = 1
    (F2, "y^2 + x^2 + x", 4),              # a tie that cancels: x + c^2 for M = x + c
    (F3, "y^3 + x^2 + 1", 5),
    (F3, "y^2 + x^2*y + x^4 + 2", 5),      # all three terms tie at deg M = 2
    (F3, "y + x", 2),                      # images of degree 1 have a root
    (F3, "y^3 + x^2*y + y", 4),            # P(x, 0) = 0
    (F4, "y^3 + x*y + t*x^2", 3),
    (F4, "y^2 + x^3*y + t*y", 3),          # P(x, 0) = 0
], ids=lambda v: str(v).replace(" ", ""))
def test_swan_scan_root_sieve_changes_no_count(monkeypatch, ring, text, max_deg):
    # every image the sieve certifies is reducible, and the whole box scans
    # the same with the sieve patched off
    P = parse_poly(text, ring, VarSet(("x1", "y1")), aliases={"x": "x1", "y": "y1"})
    sieve, spec = root_sieve(P, "x1", "y1"), Specializer(P, "y1")
    support = [(i,) for i in range(max_deg + 1)]
    sieved = 0
    for M, _ in iter_candidates(ring, VarSet(("x1",)), support, SearchConstraints()):
        if sieve(M):
            sieved += 1
            assert not image_irreducibility(spec, M)[0], format_poly(M)
    assert sieved > 0
    scan = swan_scan(P, "x1", "y1", max_deg)
    monkeypatch.setattr(cli, "root_sieve", lambda *args: lambda M: False)
    assert swan_scan(P, "x1", "y1", max_deg) == scan


@pytest.mark.parametrize("text", ["0", "1"])
def test_swan_scan_of_a_constant_counts_every_image_reducible(text):
    P = parse_poly(text, F3, VarSet(("x1", "y1")))
    scan = swan_scan(P, "x1", "y1", 2)
    assert (scan["candidates"], scan["irreducible"]) == (27, 0)


def test_swan_scan_over_an_infinite_ring_is_refused(capsys):
    assert main(["swan-scan", "--ring", "Z", "--P", "y + x", "--max-deg", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: swan-scan needs a finite field\n"


# ---------------------------------------------------------------------------
# Exit codes and envelopes
# ---------------------------------------------------------------------------

def test_exit_code_usage_error(capsys):
    assert main(["factor", "x1 + $", "--ring", "Z"]) == 1
    assert main(["factor", "x1", "--ring", "GF(6)"]) == 1
    capsys.readouterr()


def test_exit_code_found(capsys, tmp_path):
    rc, env = run_cli(["schinzel", "--ring", "Z", "--P", "y", "--deg", "1",
                       "--coeff-bound", "2"], capsys, tmp_path)
    assert rc == 0
    assert env["result"]["status"] == "found"


def test_exit_code_exhausted_none(capsys, tmp_path):
    rc, env = run_cli(["goldbach", "--ring", "GF(2)", "--Q", "x^2+x"],
                      capsys, tmp_path)
    assert rc == 2
    assert env["result"]["status"] == "exhausted-none"


def test_exit_code_budget(capsys, tmp_path):
    # the first three candidates are constants, rejected by the exact-degree
    # flag, and the budget stops the search right there
    rc, env = run_cli(["schinzel", "--ring", "Z", "--P", "y^2 + x1",
                       "--deg", "1", "--coeff-bound", "2", "--budget", "3",
                       "--exact-degrees"], capsys, tmp_path)
    assert rc == 3
    assert env["result"]["status"] == "budget-exhausted"
    assert env["result"]["tested"] == 3


def test_envelope_poly_roundtrip(capsys, tmp_path):
    rc, env = run_cli(["factor", "2*x^2 - 2", "--ring", "Z"], capsys, tmp_path)
    assert rc == 0
    V = VarSet(tuple(env["inputs"]["vars"]))
    f = parse_poly(env["inputs"]["poly"], ZZ, V)
    assert format_poly(f) == env["inputs"]["poly"]


# one emitted envelope of every command kind that verify checks
VERIFY_CASES = [
    ["factor", "x^8 + x^3", "--ring", "GF(2)"],
    ["factor", "(u+1)*x1^2 + u", "--ring", "GF(2)[u]"],
    ["irred", "x^2 + x + 1", "--ring", "GF(2)"],
    ["irred", "2*x + 4", "--ring", "Z"],
    ["goldbach", "--ring", "Z", "--Q", "3*x + 5"],
    ["goldbach", "--ring", "GF(2)", "--Q", "x^2+x"],
    ["goldbach", "--ring", "GF(2)", "--Q", "x1^2+x1", "--vars", "2",
     "--relaxed-degx"],
    ["schinzel", "--ring", "Z", "--P", "y", "--P", "y+2", "--deg", "2",
     "--coeff-bound", "3"],
    ["schinzel", "--ring", "GF(2)", "--P", "y^8 + x1^3", "--deg", "4"],
    ["schinzel", "--ring", "GF(2)", "--P", "y1*y2 + x1", "--deg", "1"],
    ["swan-scan", "--ring", "GF(2)", "--P", "y^8 + x^3", "--max-deg", "5"],
    ["spectrum", "--field", "Q", "--S", "0,1", "--a0", "2", "--V", "1",
     "--w", "x1", "--w", "x1+1", "--deg", "4,4"],
    ["density", "--ring", "Z", "--P", "y", "--deg", "1",
     "--coeff-bound", "3", "--samples", "100"],
    # every constraint the envelope records goes back into the re-run probe;
    # leading with --deg-u gives this case its own test id next to the Z one
    ["density", "--deg-u", "2", "--deg-u-target", "0", "--ring", "GF(2)[u]",
     "--P", "y", "--P", "y+x1", "--deg", "2", "--samples", "200", "--seed", "5"],
]


def test_verify_accepts_every_emitted_envelope(capsys, tmp_path):
    for i, args in enumerate(VERIFY_CASES):
        out = tmp_path / f"case{i}.json"
        rc = main(args + ["--out", str(out)])
        assert rc in (0, 2, 3), (args, rc)
        rc2 = main(["verify", str(out), "--out", str(tmp_path / f"v{i}.json")])
        verdict = json.loads((tmp_path / f"v{i}.json").read_text())
        assert rc2 == 0, (args, verdict)
        assert verdict["result"]["passed"] is True
    capsys.readouterr()


def test_verify_rejects_tampered_envelope(capsys, tmp_path):
    out = tmp_path / "good.json"
    assert main(["factor", "x^2 - 1", "--ring", "Z", "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    env["result"]["factors"][0]["poly"] = "x + 7"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(env))
    assert main(["verify", str(bad), "--out", str(tmp_path / "v.json")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("args, rejected", [
    (["schinzel", "--ring", "Z", "--P", "y", "--P", "y+2", "--deg", "2",
      "--coeff-bound", "2"], "x1^2"),
    (["schinzel", "--ring", "GF(2)", "--P", "y1*y2 + x1", "--deg", "1"], ["1", "x1"]),
], ids=["single-y", "multi-y"])
def test_verify_rejects_a_witness_the_box_rejected(capsys, tmp_path, args, rejected):
    env = json.loads(emitted_envelope(tmp_path, args))
    res = env["result"]
    # the whole box was searched, so a value missing from the witnesses
    # is one the search rejected
    assert res["complete"] and rejected not in [w["M"] for w in res["witnesses"]]
    res["witnesses"][0]["M"] = rejected
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(env))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 1
    assert "does not re-verify" in capsys.readouterr().err


@pytest.mark.parametrize("poly, tampered", [("x^2 - 1", "x - 1"), ("6*x + 6", "2")],
                         ids=["polynomial-factor", "constant-factor"])
def test_verify_rejects_a_huge_multiplicity_quickly(capsys, tmp_path, poly, tampered):
    out = tmp_path / "good.json"
    assert main(["factor", poly, "--ring", "Z", "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    item = next(it for it in env["result"]["factors"] if it["poly"] == tampered)
    item["multiplicity"] = 10 ** 9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(env))
    t0 = time.perf_counter()
    assert main(["verify", str(bad)]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert "recomposition does not match the input" in capsys.readouterr().err


@pytest.mark.parametrize("tampered, multiplicity",
                         [("1", 10 ** 9), ("-1", 10 ** 9), ("0", 10 ** 9), ("x + 7", 0)])
def test_verify_refuses_unit_and_zero_factors(capsys, tmp_path, tampered, multiplicity):
    out = tmp_path / "good.json"
    assert main(["factor", "6*x + 6", "--ring", "Z", "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    env["result"]["factors"].append({"poly": tampered, "multiplicity": multiplicity})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(env))
    assert main(["verify", str(bad)]) == 1
    assert "is zero, a unit or not raised" in capsys.readouterr().err


def test_verify_missing_envelope_file(capsys, tmp_path):
    missing = tmp_path / "absent.json"
    assert main(["verify", str(missing)]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot read envelope {missing}: " in err
    assert "Traceback" not in err


def test_verify_truncated_envelope(capsys, tmp_path):
    out = tmp_path / "good.json"
    assert main(["factor", "x^2 - 1", "--ring", "Z", "--out", str(out)]) == 0
    cut = tmp_path / "cut.json"
    cut.write_text(out.read_text()[:40])
    capsys.readouterr()
    assert main(["verify", str(cut)]) == 1
    assert "error:" in capsys.readouterr().err


def emitted_envelope(tmp_path, args):
    out = tmp_path / "good.json"
    assert main(args + ["--out", str(out)]) in (0, 2, 3), args
    return out.read_text()


@pytest.mark.parametrize("args", VERIFY_CASES, ids=lambda a: "-".join(a[:2]))
def test_verify_reports_truncated_envelope_of_every_kind(capsys, tmp_path, args):
    text = emitted_envelope(tmp_path, args)
    cut = tmp_path / "cut.json"
    cut.write_text(text[:len(text) // 2])
    capsys.readouterr()
    assert main(["verify", str(cut)]) == 1
    err = capsys.readouterr().err
    assert f"error: envelope {cut} is not JSON: " in err
    assert "Traceback" not in err


def _drop(key):
    def tamper(env):
        del env[key]
    return tamper


def _replace(key, value):
    def tamper(env):
        env[key] = value
    return tamper


def _drop_first_input(env):
    del env["inputs"][next(iter(env["inputs"]))]


@pytest.mark.parametrize("tamper", [_drop("ring"), _drop("inputs"), _replace("result", []),
                                    _replace("inputs", "x"), _drop_first_input],
                         ids=["no-ring", "no-inputs", "result-list", "inputs-string",
                              "input-missing"])
@pytest.mark.parametrize("args", VERIFY_CASES, ids=lambda a: "-".join(a[:2]))
def test_verify_reports_tampered_envelope_of_every_kind(capsys, tmp_path, args, tamper):
    env = json.loads(emitted_envelope(tmp_path, args))
    tamper(env)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(env))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 1
    captured = capsys.readouterr()
    assert f"error: malformed envelope {bad}: " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text", ['{"command": "factor"}', '{"command": "schinzel", "ring": "Z"}',
                                  "[1]", '"x"', "null", '{"command": ["factor"]}'])
def test_verify_reports_malformed_envelope(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["verify", str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"error: malformed envelope {bad}: " in err or "verify: no checker" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_density_names_the_samples_flag(capsys, samples):
    assert main(["density", "--ring", "Z", "--P", "y", "--deg", "1",
                 "--coeff-bound", "3", "--samples", samples]) == 1
    captured = capsys.readouterr()
    # the usage line, then the one error line, which names the flag
    assert captured.err.startswith("usage: schinzelpoly density")
    assert captured.err.endswith("error: argument --samples: samples must be >= 1\n")
    assert captured.out == ""


def test_density_has_no_max_witnesses_flag(capsys, tmp_path):
    args = ["density", "--ring", "Z", "--P", "y", "--deg", "1",
            "--coeff-bound", "3", "--samples", "10"]
    assert main(args + ["--max-witnesses", "2"]) == 1
    assert "--max-witnesses" in capsys.readouterr().err
    rc, env = run_cli(args, capsys, tmp_path)
    assert rc == 0 and env["inputs"]["max_witnesses"] is None


def test_goldbach_relaxed_needs_second_variable(capsys):
    assert main(["goldbach", "--Q", "x^3+x+1", "--ring", "GF(2)", "--relaxed-degx"]) == 1
    captured = capsys.readouterr()
    assert "needs a second variable" in captured.err
    assert captured.out == ""          # no envelope, in particular no exhausted-none


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_rejected(capsys, threads):
    assert main(["schinzel", "--ring", "Z", "--P", "y", "--deg", "1",
                 "--coeff-bound", "2", "--threads", threads]) == 1
    assert "threads must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["factor", "x^2+1", "--ring", "Z"],
    ["swan-scan", "--P", "y^2+x", "--max-deg", "2", "--ring", "GF(2)"],
], ids=["factor", "swan-scan"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_rejected_on_every_subcommand(capsys, args, threads):
    assert main(args + ["--threads", threads]) == 1
    captured = capsys.readouterr()
    assert "threads must be >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("args", [
    ["factor", "x^2+1", "--ring", "Z"],
    ["swan-scan", "--P", "y^2+x", "--max-deg", "2", "--ring", "GF(2)"],
], ids=["factor", "swan-scan"])
def test_threads_accepted_without_changing_the_result(capsys, args):
    assert main(args) == 0
    one = capsys.readouterr().out
    assert main(args + ["--threads", "3"]) == 0
    assert capsys.readouterr().out == one


IRRED_REDUCIBLE_ENVELOPE = """{
  "command": "irred",
  "inputs": {
    "poly": "%s",
    "vars": [
      "x1"
    ]
  },
  "result": {
    "irreducible": false,
    "method": "kronecker",
    "reason": "reducible",
    "witness_factor": "%s"
  },
  "ring": "%s",
  "timing_ms": null,
  "tool": "schinzelpoly",
  "verification": "passed",
  "version": "0.1.0"
}
"""


@pytest.mark.parametrize("poly, ring, witness", [
    ("x1^2 - 1", "Z", "x1 - 1"),
    ("4*x1^2 - 9", "Q", "x1 - 3/2"),
    ("x1^4 + 2*x1^2 + 1", "Z", "x1^2 + 1"),        # (x1^2 + 1)^2
])
def test_irred_reducible_univariate_envelope_is_pinned(capsys, poly, ring, witness):
    # decided on the dense image; the witness is the first factor of the
    # full factorization, and the method name stays "kronecker"
    assert main(["irred", poly, "--ring", ring]) == 0
    assert capsys.readouterr().out == IRRED_REDUCIBLE_ENVELOPE % (poly, witness, ring)


@pytest.mark.parametrize("ring", ["GF(3)", "Z"])
def test_irred_of_a_sparse_bivariate_input_costs_its_terms_not_its_box(capsys, ring):
    # both degrees are 10^6, a box of 10^12 slots: the columns are built from
    # the nonzero entries of the rows, and the Newton polygon decides
    rc, env = run_cli(["irred", "x1^1000000*x2 + x2^1000000 + x1", "--ring", ring], capsys)
    assert rc == 0
    assert (env["result"]["irreducible"], env["result"]["method"]) == (True, "newton-polytope")


@pytest.mark.parametrize("poly, ring, method, summary", [
    # the u-content is split off first, and the lifted x1 is univariate
    ("(u^3+u)*x1", "GF(3)[u]", "u-fold + univariate cantor-zassenhaus",
     "(u^3 + u)*x1 = 1 * ((u)) * ((u^2 + 1)) * (x1)"),
    # pure monomial content: nothing is folded
    ("x1*x2", "Z", "monomial", "x1*x2 = 1 * (x2) * (x1)"),
    # x1*x2 is split off, and the fold of x1^2 + x2^2 has D = 3
    ("x1^3*x2 + x1*x2^3", "Z", "monomial + kronecker-fold D=3",
     "x1^3*x2 + x1*x2^3 = 1 * (x2) * (x1) * (x1^2 + x2^2)"),
    ("1", "Z", "content", "1 = 1"),
])
def test_factor_method_names_the_route_that_ran(capsys, poly, ring, method, summary):
    assert main(["factor", poly, "--ring", ring]) == 0
    captured = capsys.readouterr()
    env = json.loads(captured.out)
    assert (env["result"]["method"], env["verification"]) == (method, "passed")
    assert captured.err == f"factor: {summary}\n"


def test_ring_env_variable(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SCHINZELPOLY_RING", "GF(2)")
    rc, env = run_cli(["irred", "x^2+x+1"], capsys, tmp_path)
    assert env["ring"] == "GF(2)"
    assert env["result"]["irreducible"] is True


@pytest.mark.parametrize("args", [["factor", "x"], ["irred", "x"],
                                  ["swan-scan", "--ring", "GF(2)", "--P", "y + x",
                                   "--max-deg", "1"]], ids=lambda a: a[0])
def test_budget_only_on_commands_that_read_it(capsys, args):
    assert main(args + ["--budget", "5"]) == 1
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["irred", "x"], ["goldbach", "--Q", "x"]],
                         ids=lambda a: a[0])
def test_seed_only_on_commands_that_read_it(capsys, args):
    assert main(args + ["--seed", "7"]) == 1
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("max_deg", [10_000, 10 ** 8])
def test_swan_scan_cap_is_checked_without_the_full_count(capsys, tmp_path, max_deg):
    args = ["swan-scan", "--ring", "GF(3)", "--P", "y^3 + x^2 + 1"]
    t0 = time.perf_counter()
    assert main(args + ["--max-deg", str(max_deg)]) == 3
    err = capsys.readouterr().err
    assert f"3^{max_deg + 1} candidates exceeds the cap of {1 << 22}" in err
    assert "Traceback" not in err and "digits" not in err
    # verify re-runs the scan with the envelope's max_deg
    env = json.loads(emitted_envelope(tmp_path, args + ["--max-deg", "1"]))
    env["inputs"]["max_deg"] = max_deg
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(env))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "exceeds the cap" in err and "Traceback" not in err
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# Bounds below their floor, and exponents above the degree cap
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args, option", [
    (["swan-scan", "--ring", "GF(2)", "--P", "y+x", "--max-deg", "-1"], "max-deg"),
    (["schinzel", "--ring", "Z", "--P", "y", "--deg", "2", "--coeff-bound", "-1"], "coeff-bound"),
    (["schinzel", "--ring", "GF(2)[u]", "--P", "y", "--deg", "1", "--deg-u", "-1"], "deg-u"),
    (["schinzel", "--ring", "GF(2)[u]", "--P", "y", "--deg", "1", "--deg-u", "1",
      "--deg-u-target", "-1"], "deg-u-target"),
    (["schinzel", "--ring", "GF(2)", "--P", "y+x", "--deg", "1", "--max-witnesses", "0"],
     "max-witnesses"),
    (["schinzel", "--ring", "GF(2)", "--P", "y+x", "--deg", "1", "--budget", "0"], "budget"),
    (["density", "--ring", "Z", "--P", "y", "--deg", "1", "--coeff-bound", "-3"], "coeff-bound"),
    (["density", "--ring", "Z", "--P", "y", "--deg", "1", "--samples", "0"], "samples"),
    (["spectrum", "--field", "Q", "--S", "0,1", "--a0", "2", "--w", "x1", "--w", "x1+1",
      "--deg", "4,4", "--coeff-bound", "-1"], "coeff-bound"),
    (["goldbach", "--Q", "x^2+1", "--budget", "-1"], "budget"),
], ids=lambda a: a if isinstance(a, str) else a[0])
def test_bounds_below_their_floor_are_refused_by_the_parser(capsys, args, option):
    # an empty or negative box used to come back as a proof (exit 2) or a
    # scan of one candidate (exit 0)
    assert main(args) == 1
    captured = capsys.readouterr()
    assert f"argument --{option}: {option} must be >= " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("args", [
    ["swan-scan", "--ring", "GF(2)", "--P", "y+x", "--max-deg", "0"],
    ["schinzel", "--ring", "Z", "--P", "y", "--deg", "1", "--coeff-bound", "0"],
    ["schinzel", "--ring", "GF(2)", "--P", "y+x", "--deg", "1", "--max-witnesses", "1",
     "--budget", "1"],
], ids=["max-deg", "coeff-bound", "max-witnesses-and-budget"])
def test_bounds_at_their_floor_are_accepted(capsys, tmp_path, args):
    rc, env = run_cli(args, capsys, tmp_path)
    assert rc in (0, 2, 3) and env["result"]
    assert main(["verify", str(tmp_path / "env.json")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("args, key, value", [
    (["swan-scan", "--ring", "GF(2)", "--P", "y+x", "--max-deg", "1"], "max_deg", -1),
    (["schinzel", "--ring", "Z", "--P", "y", "--P", "y+2", "--deg", "2",
      "--coeff-bound", "3"], "coeff_bound", -1),
    (["schinzel", "--ring", "Z", "--P", "y", "--P", "y+2", "--deg", "2",
      "--coeff-bound", "3"], "deg", [-1]),
    (["schinzel", "--ring", "GF(2)", "--P", "y^8 + x1^3", "--deg", "4"], "max_witnesses", 0),
    (["goldbach", "--ring", "GF(2)", "--Q", "x^2+x"], "budget", 0),
    (["density", "--deg-u", "2", "--ring", "GF(2)[u]", "--P", "y", "--deg", "1",
      "--samples", "20"], "deg_u", -1),
], ids=["swan-scan-max_deg", "schinzel-coeff_bound", "schinzel-deg", "schinzel-max_witnesses",
        "goldbach-budget", "density-deg_u"])
def test_verify_refuses_an_envelope_with_a_bound_below_its_floor(capsys, tmp_path, args,
                                                                 key, value):
    env = json.loads(emitted_envelope(tmp_path, args))
    env["inputs"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(env))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 1
    assert f"input {key} = {value} is below" in capsys.readouterr().err


def test_verify_refuses_a_density_envelope_with_samples_below_one(capsys, tmp_path):
    # density records --samples only in its result, which verify re-runs with
    env = json.loads(emitted_envelope(tmp_path, ["density", "--ring", "Z", "--P", "y",
                                                 "--deg", "1", "--coeff-bound", "2",
                                                 "--samples", "10"]))
    env["result"]["samples"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(env))
    capsys.readouterr()
    assert main(["verify", str(bad), "--out", str(tmp_path / "verdict.json")]) == 1
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["result"] == {"passed": False, "detail": "input samples = 0 is below 1"}
    assert "Traceback" not in capsys.readouterr().err


VARS_COMMANDS = [
    ["factor", "x1+1"],
    ["irred", "x1+1"],
    ["goldbach", "--Q", "x1^2+1"],
    ["schinzel", "--ring", "Z", "--P", "y", "--deg", "2", "--coeff-bound", "1"],
    ["density", "--ring", "Z", "--P", "y", "--deg", "2", "--coeff-bound", "1"],
]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("args", VARS_COMMANDS, ids=lambda a: a[0])
def test_vars_below_one_is_refused_by_the_parser(capsys, args, value):
    # 0 used to run as if --vars were absent, -1 to fail on "unknown variable"
    assert main(args + ["--vars", value]) == 1
    captured = capsys.readouterr()
    assert "argument --vars: vars must be >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("args", [
    ["factor", "x1^2+x1", "--ring", "GF(2)", "--vars", "2"],
    ["irred", "x1+1", "--vars", "1"],
    ["goldbach", "--ring", "GF(2)", "--Q", "x1^2+x1", "--vars", "2"],
    ["schinzel", "--ring", "Z", "--P", "y", "--deg", "2", "--coeff-bound", "1", "--vars", "1"],
], ids=lambda a: a[0])
def test_vars_at_its_floor_runs_and_verifies(capsys, tmp_path, args):
    # the envelopes record the variable names, which the floor check skips
    rc, env = run_cli(args, capsys, tmp_path)
    assert rc == 0
    assert main(["verify", str(tmp_path / "env.json")]) == 0
    capsys.readouterr()


HUGE = "99999999999"  # above the cap, and too large for a dense list to be tried


@pytest.mark.parametrize("args", [
    ["factor", f"x^{HUGE}", "--ring", "GF(2)"],
    ["irred", f"x^{HUGE}+1", "--ring", "Z"],
    ["schinzel", "--ring", "GF(2)", "--P", f"y^{HUGE}+x", "--deg", "1"],
    ["factor", f"(2)^{HUGE}*x", "--ring", "Z"],
    ["irred", f"x^2 + t^{HUGE}", "--ring", "GF(2^2)"],
], ids=["factor", "irred", "schinzel", "coefficient", "symbol"])
def test_huge_exponents_are_refused_with_the_cap(capsys, args):
    t0 = time.perf_counter()
    assert main(args) == 3
    captured = capsys.readouterr()
    assert f"exponent {HUGE} exceeds the degree cap of {DEGREE_CAP}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("command", ["factor", "irred"])
def test_kronecker_image_past_the_cap_names_the_first_variable(capsys, command):
    # every exponent is below the cap; the fold's D = 41 puts x1^40*...*x4^40
    # at 40 * (1 + 41 + 41^2 + 41^3) = 2825760
    assert main([command, "x1^40*x2^40*x3^40*x4^40 + x1 + 1", "--ring", "GF(3)"]) == 3
    captured = capsys.readouterr()
    assert f"degree in x1 2825760 exceeds the degree cap of {DEGREE_CAP}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_verify_refuses_a_huge_exponent_with_the_cap(capsys, tmp_path):
    env = json.loads(emitted_envelope(tmp_path, ["factor", "x^2 + x", "--ring", "GF(2)"]))
    env["inputs"]["poly"] = f"x^{HUGE}"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(env))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 3
    assert f"degree cap of {DEGREE_CAP}" in capsys.readouterr().err


def test_dense_conversions_refuse_a_degree_above_the_cap():
    # built without the parser, so only the dense conversions can refuse
    big = int(HUGE)
    f = MultiPoly(F2, VarSet(("x",)), {(big,): 1, (0,): 1})
    with pytest.raises(BudgetExceededError, match=f"degree in x {big} exceeds the degree cap"):
        factor_multivariate(f)
    P = MultiPoly(F2, VarSet(("x", "y")), {(0, big): 1, (1, 0): 1})
    with pytest.raises(BudgetExceededError, match=f"degree in y {big} exceeds the degree cap"):
        P.substitute("y", MultiPoly(F2, VarSet(("x",)), {(1,): 1}))


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """(argv, exit code) of each `schinzelpoly ...` line in README's code
    blocks, in order: exit 0 unless its comment says `exit <n>`."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    for line in "".join(blocks).splitlines():
        if line.startswith("schinzelpoly "):
            code = re.search(r"#.*\bexit (\d)", line)
            yield shlex.split(line, comments=True)[1:], int(code.group(1)) if code else 0


def test_readme_commands_run_with_their_stated_exit_codes(capsys, tmp_path, monkeypatch):
    # in order and in one directory: verify reads the envelope written before it
    monkeypatch.chdir(tmp_path)
    commands = list(readme_commands())
    assert len(commands) >= 10
    for argv, code in commands:
        assert main(argv) == code, argv
        assert "Traceback" not in capsys.readouterr().err
