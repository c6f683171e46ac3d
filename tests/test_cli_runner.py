"""The envelope runner's contract, command by command: the same bytes reach
stdout and --out FILE, the stderr lines are pinned, --timings changes
nothing but timing_ms, and the process entry passes the exit code to the
shell."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from schinzelpoly.cli import main

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCHINZEL_Z = ["schinzel", "--ring", "Z", "--P", "y^2 + x1", "--deg", "1", "--coeff-bound", "2"]
GOLDBACH_GF2 = ["goldbach", "--ring", "GF(2)", "--Q", "x^2+x"]
SPECTRUM_Q = ["spectrum", "--field", "Q", "--S", "1", "--a0", "0", "--w", "x1", "--deg", "2"]

# (argv, exit code, stderr) of every command on success and on each failure
# kind that gets an envelope
CONTRACT = {
    "factor": (["factor", "x^4 - 1", "--ring", "Z"], 0,
               "factor: x^4 - 1 = 1 * (x - 1) * (x + 1) * (x^2 + 1)\n"),
    "irred": (["irred", "x^2 + x + 1", "--ring", "GF(2)"], 0,
              "irred: x^2 + x + 1 -> True (irreducible)\n"),
    "schinzel-found": (["schinzel", "--ring", "Z", "--P", "y", "--P", "y+2", "--deg", "2",
                        "--coeff-bound", "1"], 0,
                       "schinzel: found, 15 witness(es), 27 tested\n"),
    # the warnings caught while the problem is built and searched come first
    "schinzel-none": (["schinzel", "--ring", "GF(2)", "--P", "y^8 + x1^3", "--deg", "4"], 2,
                      "warning: sum of degrees 4 is below the guaranteed bound "
                      "max deg_x(P_i) + 2 = 5; witnesses may not exist\n"
                      "schinzel: exhausted-none, 0 witness(es), 32 tested\n"),
    "schinzel-budget": (SCHINZEL_Z + ["--budget", "3", "--exact-degrees"], 3,
                        "warning: sum of degrees 1 is below the guaranteed bound "
                        "max deg_x(P_i) + 2 = 3; witnesses may not exist\n"
                        "schinzel: budget-exhausted, 0 witness(es), 3 tested\n"),
    "density": (["density", "--ring", "Z", "--P", "y", "--deg", "1", "--coeff-bound", "3",
                 "--samples", "100"], 0,
                "density: 0.6300 in [0.5322, 0.7182] (63/100)\n"),
    "goldbach-found": (["goldbach", "--ring", "Z", "--Q", "3*x + 5"], 0,
                       "goldbach: 3*x + 5 = (x + 4) + (2*x + 1)\n"),
    "goldbach-none": (GOLDBACH_GF2, 2,
                      "goldbach: exhaustively none (no Goldbach decomposition of x^2 + x "
                      "with deg(F) <= 2 exists)\n"),
    "goldbach-budget": (GOLDBACH_GF2 + ["--budget", "1"], 3,
                        "goldbach: budget exhausted (Goldbach budget exhausted)\n"),
    "spectrum-found": (["spectrum", "--field", "Q", "--S", "0,1", "--a0", "2", "--w", "x1",
                        "--w", "x1+1", "--deg", "4,4"], 0,
                       "spectrum: found U with partial degrees [4, 4] after 1 samples\n"),
    "spectrum-budget": (SPECTRUM_Q + ["--budget", "1"], 3,
                        "spectrum: budget exhausted (no spectrum witness within 1 samples)\n"),
    "swan-scan-found": (["swan-scan", "--ring", "GF(2)", "--P", "y + x", "--max-deg", "1"], 0,
                        "swan-scan: 2 of 4 candidates give an irreducible specialization\n"),
    "swan-scan-none": (["swan-scan", "--ring", "GF(2)", "--P", "y^2 + x^2", "--max-deg", "2"], 2,
                       "swan-scan: 0 of 8 candidates give an irreducible specialization\n"),
}


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("name", list(CONTRACT))
def test_runner_contract(capsys, tmp_path, name):
    argv, code, err = CONTRACT[name]
    rc, stdout, stderr = run(argv, capsys)
    assert (rc, stderr) == (code, err)
    env = json.loads(stdout)
    assert (env["command"], env["timing_ms"]) == (argv[0], None)
    out = tmp_path / "env.json"
    assert run(argv + ["--out", str(out)], capsys) == (code, "", err)
    assert out.read_text(encoding="utf-8") == stdout
    rc, timed, timed_err = run(argv + ["--timings"], capsys)
    timed = json.loads(timed)
    assert (rc, timed_err) == (code, err)
    assert isinstance(timed.pop("timing_ms"), float)
    env.pop("timing_ms")
    assert timed == env


def test_an_error_the_command_does_not_record_gets_no_envelope(capsys, tmp_path):
    # swan-scan's cap is not one of its recorded failures: main reports it
    out = tmp_path / "env.json"
    argv = ["swan-scan", "--ring", "GF(3)", "--P", "y^3 + x^2 + 1", "--max-deg", "20"]
    assert run(argv + ["--out", str(out)], capsys) == (
        3, "", f"budget exhausted: enumeration of 3^21 candidates exceeds the cap of {1 << 22}\n")
    assert not out.exists()


@pytest.mark.parametrize("name", ["irred", "schinzel-none", "spectrum-budget"])
def test_process_entry_passes_the_exit_code_to_the_shell(capsys, name):
    argv, code, err = CONTRACT[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "schinzelpoly.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, run(argv, capsys)[1], err)
