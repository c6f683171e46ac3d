"""Every rejection branch of `verify`, each reached by tampering one field
of a real envelope (inputs that the command itself refuses included); and
the Goldbach routes that only a direct input reaches."""

import json

import pytest

from schinzelpoly.cli import main


def envelope(tmp_path, args, code=0):
    out = tmp_path / "good.json"
    assert main(args + ["--out", str(out)]) == code, args
    return json.loads(out.read_text())


def verify(tmp_path, env):
    """(exit code, passed, detail) of verify on env."""
    path, out = tmp_path / "env.json", tmp_path / "verdict.json"
    path.write_text(json.dumps(env))
    code = main(["verify", str(path), "--out", str(out)])
    verdict = json.loads(out.read_text())["result"]
    return code, verdict["passed"], verdict["detail"]


def rejected(tmp_path, env, detail):
    assert verify(tmp_path, env) == (1, False, detail)


# ---------------------------------------------------------------------------
# factor, irred, schinzel
# ---------------------------------------------------------------------------

FACTOR = ["factor", "x^2 - 1", "--ring", "Z"]


def test_factor_of_zero_input(tmp_path, capsys):
    env = envelope(tmp_path, FACTOR)
    env["inputs"]["poly"] = "0"
    rejected(tmp_path, env, "the input is zero")


def test_factor_not_irreducible(tmp_path, capsys):
    env = envelope(tmp_path, FACTOR)
    env["result"]["factors"] = [{"poly": "x^2 - 1", "multiplicity": 1}]
    rejected(tmp_path, env, "factor x^2 - 1 is not irreducible")


def test_factor_unit_mismatch(tmp_path, capsys):
    # every factor divides, and what is left is 1, not the recorded unit
    env = envelope(tmp_path, FACTOR)
    assert env["result"]["unit"] == "1"
    env["result"]["unit"] = "-1"
    rejected(tmp_path, env, "recomposition does not match the input")


def test_irred_verdict_mismatch(tmp_path, capsys):
    env = envelope(tmp_path, ["irred", "x^2 + x + 1", "--ring", "GF(2)"])
    env["result"]["irreducible"] = False
    rejected(tmp_path, env, "verdict mismatch")


def test_irred_witness_that_does_not_divide(tmp_path, capsys):
    env = envelope(tmp_path, ["irred", "2*x + 4", "--ring", "Z"])
    assert env["result"]["witness_factor"] == "2"
    env["result"]["witness_factor"] = "3"
    rejected(tmp_path, env, "witness factor does not divide")


def test_schinzel_accounting_mismatch(tmp_path, capsys):
    env = envelope(tmp_path, ["schinzel", "--ring", "Z", "--P", "y", "--P", "y+2",
                              "--deg", "2", "--coeff-bound", "3"])
    assert env["result"]["complete"]
    env["result"]["box_size"] += 1
    rejected(tmp_path, env, "completeness accounting mismatch")


def test_schinzel_inputs_that_the_command_refuses(tmp_path, capsys):
    # x1*y1 is reducible, so `schinzel --P x1*y` exits 1; the tampered
    # envelope's witness and accounting are consistent with it all the same
    env = envelope(tmp_path, ["schinzel", "--ring", "Z", "--P", "y", "--deg", "0",
                              "--coeff-bound", "1"], code=2)
    env["inputs"]["P"] = ["x1*y1"]
    env["result"].update(witnesses=[{"M": "1", "certificates": []}],
                         rejected={"unit_or_constant": 2}, status="found")
    rejected(tmp_path, env, "inputs break a hypothesis: P = x1*y1 is not irreducible "
                            "over Z[x,y] (reducible)")


def test_density_inputs_that_the_command_refuses(tmp_path, capsys):
    env = envelope(tmp_path, ["density", "--ring", "Z", "--P", "y", "--deg", "1",
                              "--coeff-bound", "2", "--samples", "5"])
    env["inputs"]["P"] = ["x1*y1"]
    rejected(tmp_path, env, "inputs break a hypothesis: P = x1*y1 is not irreducible "
                            "over Z[x,y] (reducible)")


# ---------------------------------------------------------------------------
# goldbach
# ---------------------------------------------------------------------------

def test_goldbach_budget_exhausted_rerun(tmp_path, capsys):
    env = envelope(tmp_path, ["goldbach", "--ring", "GF(2)", "--Q", "x^2 + x",
                              "--budget", "1"], code=3)
    assert env["result"]["status"] == "budget-exhausted"
    assert verify(tmp_path, env) == (0, True, "re-ran search")
    # the same re-run refutes a claim that the box held no decomposition
    env["result"]["status"] = "exhausted-none"
    rejected(tmp_path, env, "re-ran search")


@pytest.mark.parametrize("args, F, G, detail", [
    # F + G = Q in each case; only the named clause fails
    (["--ring", "Z", "--Q", "3*x + 5"], "x^2 - 1", "-x^2 + 3*x + 6",
     "parts not both irreducible"),
    (["--ring", "Z", "--Q", "3*x + 5"], "x^2 + 3", "-x^2 + 3*x + 2",
     "degree clause violated"),
    (["--ring", "GF(2)", "--Q", "x1^2+x1", "--vars", "2", "--relaxed-degx"],
     "x1^3 + x1 + 1", "x1^3 + x1^2 + 1", "relaxed degree clause violated"),
], ids=["reducible-part", "strict-degree", "relaxed-degree"])
def test_goldbach_clauses(tmp_path, capsys, args, F, G, detail):
    env = envelope(tmp_path, ["goldbach"] + args)
    env["result"]["F"], env["result"]["G"] = F, G
    rejected(tmp_path, env, detail)


def test_goldbach_char2_table_over_a_finite_field(tmp_path, capsys):
    env = envelope(tmp_path, ["goldbach", "--ring", "GF(2^2)", "--Q", "x + t"])
    assert env["result"]["case"] == "table-char2"
    assert (env["result"]["F"], env["result"]["G"]) == ("(t)*x + (t)", "(t + 1)*x")
    assert verify(tmp_path, env) == (0, True, "ok")


def test_goldbach_table_without_r_falls_to_the_search(tmp_path, capsys):
    # over GF(2) no r outside {0, 1} exists, so x is decided by the
    # exhaustive search, which proves that no decomposition exists
    env = envelope(tmp_path, ["goldbach", "--ring", "GF(2)", "--Q", "x"], code=2)
    assert env["result"] == {"status": "exhausted-none", "tested": 3}
    assert verify(tmp_path, env) == (0, True, "re-ran search")


def test_goldbach_strict_search_past_the_binomials(tmp_path, capsys):
    # no binomial a + b*x^e splits x^3 + x^2 over GF(2); the full box does
    env = envelope(tmp_path, ["goldbach", "--ring", "GF(2)", "--Q", "x^3 + x^2"])
    res = env["result"]
    assert (res["case"], res["binomial"], res["F_exponents"]) == ("exhaustive-search", False, None)
    assert (res["F"], res["G"]) == ("x^3 + x + 1", "x^2 + x + 1")
    assert verify(tmp_path, env) == (0, True, "ok")


# ---------------------------------------------------------------------------
# spectrum: one variable over Q, S = [0], w = [x1], so U = x1 * H_1
# ---------------------------------------------------------------------------

SPECTRUM = ["spectrum", "--field", "Q", "--S", "0", "--a0", "1", "--V", "1",
            "--w", "x1", "--deg", "2"]


@pytest.mark.parametrize("inputs, U, H, detail", [
    ({}, "x1^3 - x1", ["x1^3 - x1 - 1", "x1^2 - 1"], "H_i not irreducible"),
    ({}, "x1^2", ["x1^2 - 1", "x1"], "H_i divides w_i"),
    ({}, "x1^2 + x1", ["x1^2 + x1 + 7", "x1 + 1"], "H_0 mismatch"),
    ({"a0": "2"}, "x1^2 + x1", ["x1^2 + x1 - 2", "x1 + 1"], "U - a0*V not irreducible"),
    ({"V": "x1^2 + 1"}, "x1^2 + x1", ["x1 - 1", "x1 + 1"], "degree condition (b) fails"),
    ({"deg": [3]}, "x1^2 + x1", ["x1^2 + x1 - 1", "x1 + 1"],
     "partial degree condition (c) fails"),
], ids=["H_i-reducible", "H_i-divides-w_i", "H_0-mismatch", "H_0-reducible", "condition-b",
        "condition-c"])
def test_spectrum_conditions(tmp_path, capsys, inputs, U, H, detail):
    env = envelope(tmp_path, SPECTRUM)
    env["inputs"].update(inputs)
    env["result"]["U"], env["result"]["H"] = U, H
    rejected(tmp_path, env, detail)


def test_spectrum_without_a_construction_has_nothing_to_verify(tmp_path, capsys):
    env = envelope(tmp_path, SPECTRUM)
    env["result"] = {"status": "budget-exhausted", "tested": 1}
    assert verify(tmp_path, env) == (0, True, "nothing to re-verify")


@pytest.mark.parametrize("inputs, detail", [
    ({"w": ["1"]}, "w_1 must be nonconstant"),
    ({"a0": "0"}, "a0 must avoid the prescribed spectrum S"),
], ids=["constant-w", "a0-in-S"])
def test_spectrum_inputs_that_the_command_refuses(tmp_path, capsys, inputs, detail):
    # the command refuses these inputs with exit 1 and no envelope
    env = envelope(tmp_path, SPECTRUM)
    env["inputs"].update(inputs)
    rejected(tmp_path, env, f"inputs break a hypothesis: {detail}")
