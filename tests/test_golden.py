"""Golden corpus: stored (command, expected envelope) pairs rerun exactly."""

import json
import pathlib

import pytest

from schinzelpoly.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
CASES = sorted(GOLDEN_DIR.glob("*.json"))


@pytest.mark.parametrize("path", CASES, ids=[p.stem for p in CASES])
def test_golden_case(path, tmp_path, capsys):
    case = json.loads(path.read_text())
    out = tmp_path / "env.json"
    rc = main(case["args"] + ["--out", str(out)])
    capsys.readouterr()
    assert rc == case["exit_code"]
    got = json.loads(out.read_text())
    want = case["envelope"]
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_golden_corpus_nonempty():
    assert len(CASES) >= 8


def verify_envelope(env, tmp_path, capsys):
    """(exit code, verify's result) of verify run on the envelope env."""
    path, out = tmp_path / "golden.json", tmp_path / "verdict.json"
    path.write_text(json.dumps(env))
    rc = main(["verify", str(path), "--out", str(out)])
    capsys.readouterr()
    return rc, json.loads(out.read_text())["result"]


@pytest.mark.parametrize("path", CASES, ids=[p.stem for p in CASES])
def test_golden_envelope_passes_verify(path, tmp_path, capsys):
    env = json.loads(path.read_text())["envelope"]
    rc, result = verify_envelope(env, tmp_path, capsys)
    assert (rc, result["passed"]) == (0, True), result["detail"]


def _set(section, key, value):
    def tamper(env):
        env[section][key] = value
    return tamper


@pytest.mark.parametrize("stem, tamper, detail", [
    # x + 3 + (2*x + 1) is not 3*x + 5
    ("goldbach_table_z", _set("result", "F", "x + 3"), "F + G != Q"),
    # x^2 = (x^2 + x + 1) + (x + 1) over GF(2), both parts irreducible
    ("goldbach_none_gf2", _set("inputs", "Q", "x^2"), "a decomposition exists after all"),
    # U - 0*V = x1 * H_1 fails once U changes
    ("spectrum_q", _set("result", "U", "x1^4*x2^4"), "division identity (a) fails"),
], ids=["goldbach-F", "goldbach-none-Q", "spectrum-U"])
def test_verify_rejects_a_tampered_golden_envelope(stem, tamper, detail, tmp_path, capsys):
    env = json.loads((GOLDEN_DIR / f"{stem}.json").read_text())["envelope"]
    tamper(env)
    rc, result = verify_envelope(env, tmp_path, capsys)
    assert (rc, result) == (1, {"passed": False, "detail": detail})
