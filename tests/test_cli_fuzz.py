"""Seeded fuzz of the command line: every command, valid and malformed ring
and polynomial text, options at and past their floors and caps, and
envelopes mutated at one leaf before `verify`.

The contract: `main` returns 0, 1, 2 or 3, and stderr holds neither a
traceback nor the name of a raw exception.  Boxes and budgets stay small,
so the whole run takes a few seconds.
"""

import json
import random
import re

import pytest

from schinzelpoly.cli import main

RINGS = (["Z", "Q", "GF(2)", "GF(3)", "GF(2^2)", "GF(3^2)", "GF(3)[u]", "Q[u]", "GF(2)[u]",
          "GF(2^2)[u]"],
         ["GF(1)", "GF(6)", "Z[u]", "GF(2^", "R", ""])

# text that one ring or another refuses is among the good values too
POLYS = (["x", "x^2 + 1", "x^3 + x + 1", "2*x + 4", "x1^2 + x1*x2 + 1", "x^2 + x", "3*x + 5",
          "t*x + 1", "u*x + 1", "1/2*x + 1", "x1*y1 + 1", "y^8 + x^3", "0", "1", "-3"],
         ["", "x^", "(x + 1", "x + + 1", "1/0", "x/0", "x^-1", "y^x", "x^40 + x + 1",
          "123456789012345678901234567890*x^7 + 1"])

BOX_POLYS = (["y", "y + 2", "y^2 + x", "y^8 + x^3", "x1*y + 1", "y1*y2 + x1",
              "y^2 + x1*y + 1", "y + x1^2", "x1*x2 + y", "u*y + x", "t*y + x"],
             POLYS[1] + ["x", "x1*y", "0"])

INTS = ["1", "2", "3"], ["-1", "0", "x", ""]


class Draw:
    """Values for one command line: good ones, and at most one bad one
    (malformed text or an option below its floor or past its cap) in
    half of the lines."""

    def __init__(self, rng):
        self.rng = rng
        self.bad = rng.random() < 0.5

    def __call__(self, values):
        good, bad = values if isinstance(values, tuple) else (values, [])
        if self.bad and bad and self.rng.random() < 0.25:
            self.bad = False
            return self.rng.choice(bad)
        return self.rng.choice(good)

    def opt(self, name, values, p=0.4):
        return [name, self(values)] if self.rng.random() < p else []

    def flag(self, name, p=0.2):
        return [name] if self.rng.random() < p else []


def _common(draw, ring=True, seed=True):
    args = ["--ring", draw(RINGS)] if ring else []
    if seed:
        args += draw.opt("--seed", (["0", "1", "-3"], ["x"]))
    return args + draw.opt("--threads", (["1", "2"], ["0", "-3"]), p=0.2)


def _budget(draw):
    # always given and small: an absent --budget means 100000 candidates
    return ["--budget", draw((["1", "5", "40"], ["-1", "0", "x"]))]


def _box(draw):
    args = []
    for _ in range(draw.rng.randint(1, 2)):
        args += ["--P", draw(BOX_POLYS)]
    args += ["--deg", draw((["0", "1", "2", "1,1"], ["-1", "", "a", "1,", "1,-1"]))]
    args += draw.opt("--vars", INTS, p=0.3)
    args += draw.opt("--coeff-bound", (["0", "1", "2"], ["-1"]), p=0.7)
    args += draw.opt("--deg-u", (["0", "1"], ["-1"]))
    args += draw.opt("--deg-u-target", (["0", "1"], ["-1"]), p=0.2)
    return args + draw.flag("--exact-degrees") + draw.flag("--paper-mode")


def _argv(rng):
    draw = Draw(rng)
    command = rng.choice(["factor", "irred", "schinzel", "density", "goldbach",
                          "spectrum", "swan-scan"])
    if command in ("factor", "irred"):
        return ([command, draw(POLYS)] + draw.opt("--vars", INTS, p=0.3)
                + _common(draw, seed=command == "factor"))
    if command == "schinzel":
        return ([command] + _box(draw) + _budget(draw) + _common(draw)
                + draw.opt("--strategy", (["exhaustive", "random"], ["bogus"]))
                + draw.opt("--max-witnesses", (["1", "2"], ["0", "-1"])))
    if command == "density":
        return ([command] + _box(draw) + _budget(draw) + _common(draw)
                + ["--samples", draw((["1", "7", "20"], ["0", "-5"]))])
    if command == "goldbach":
        return ([command, "--Q", draw(POLYS)] + draw.opt("--vars", INTS, p=0.3)
                + draw.flag("--relaxed-degx", p=0.4) + _budget(draw)
                + _common(draw, seed=False))
    if command == "spectrum":
        args = [command, "--field", draw((["Q", "GF(5)", "GF(7)"], ["Z", "GF(2^2)", "x"])),
                "--S", draw((["0,1", "1,2"], ["", "0,0", "a", "1/0"])),
                "--a0", draw((["3", "4"], ["0", "1/2", "", "x"])),
                "--deg", draw((["3,2", "4,3", "4,4"], ["1,1", "0", "-1,2", "a"]))]
        for w in draw.rng.sample(["x1", "x1 + 1", "x1 - 3", "x1 + 4"], 2):
            args += ["--w", draw(([w], ["0", "", "y"]))]
        args += draw.opt("--V", (["1", "2"], ["0", "x1", ""]))
        args += draw.opt("--a0-field", (["GF(5^2)"], ["GF(5)", "Q", "GF("]), p=0.1)
        args += draw.opt("--coeff-bound", (["1", "2"], ["-1", "0"]), p=0.2)
        return args + _budget(draw) + _common(draw, ring=False)
    # a max-deg past the scan's cap is refused before any candidate
    return ([command, "--P", draw(BOX_POLYS),
             "--max-deg", draw((["0", "1", "2", "3"], ["-1", "40", "x"]))] + _common(draw))


MUTANTS = [None, 0, -1, 1, 2, "", "x", "1", "0", "y^2 + 1", "GF(2)", [], {}, [1], True, 0.5]


def _leaves(node, path=()):
    if isinstance(node, dict) and node:
        for k, v in node.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(node, list) and node:
        for i, v in enumerate(node):
            yield from _leaves(v, path + (i,))
    else:
        yield path


def _mutate(rng, env):
    path = rng.choice(list(_leaves(env)))
    node = env
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = rng.choice(MUTANTS)


RAW = re.compile(r"Traceback|\b[A-Z]\w*(Error|Exception)\b")


def _run(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, code)
    assert not RAW.search(err), (argv, err)
    return code


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_raw_exception_escapes_the_cli(seed, tmp_path, capsys):
    rng = random.Random(seed)
    out, env_path = tmp_path / "out.json", tmp_path / "env.json"
    for _ in range(200):
        argv = _argv(rng)
        if out.exists():
            out.unlink()
        code = _run(argv + ["--out", str(out)], capsys)
        if code == 1 or not out.exists():
            continue
        env = json.loads(out.read_text())
        for _ in range(3):
            mutated = json.loads(json.dumps(env))
            _mutate(rng, mutated)
            env_path.write_text(json.dumps(mutated))
            _run(["verify", str(env_path), "--out", str(out)], capsys)
