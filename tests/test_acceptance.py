"""Acceptance criteria, one test per criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Every expected value here is either stated input data or was
computed by an independent oracle (brute-force enumeration, the closed
forms, or direct division), never copied from the code under test.
"""

import itertools
import json
import random
import time

from schinzelpoly.cli import main
from schinzelpoly.factor import (
    brute_force_irreducible,
    factor_multivariate,
    factor_univariate_integers,
    is_irreducible,
)
from schinzelpoly.multipoly import MultiPoly, VarSet
from schinzelpoly.rings import GF, ZZ, PolyRing
from schinzelpoly.textform import parse_poly

F2 = GF(2)
F4 = GF(2, 2)
F5 = GF(5)
R2u = PolyRing(F2)

V1 = VarSet(("x1",))
V2 = VarSet(("x1", "x2"))


def report(n, ok, text):
    line = f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'} - {text}"
    print(line)
    assert ok, line


def cli(tmp_path, name, args):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    return rc, json.loads(out.read_text()), out.read_bytes()


def test_criterion_01_swan_obstruction(tmp_path, capsys):
    t0 = time.monotonic()
    rc8, env8, _ = cli(tmp_path, "swan8.json",
                       ["swan-scan", "--ring", "GF(2)", "--P", "y^8 + x^3",
                        "--max-deg", "8"])
    rc10, env10, _ = cli(tmp_path, "swan10.json",
                         ["swan-scan", "--ring", "GF(2)", "--P", "y^8 + x^3",
                          "--max-deg", "10"])
    dt = time.monotonic() - t0
    capsys.readouterr()
    ok = (env8["result"]["candidates"] == 512
          and env8["result"]["irreducible"] == 0
          and env10["result"]["candidates"] == 2048
          and env10["result"]["irreducible"] == 0
          and rc8 == rc10 == 2
          and dt < 10.0)
    with capsys.disabled():
        report(1, ok, f"swan-scan y^8+x^3 over GF(2): 0/512 and 0/2048 "
                      f"witnesses in {dt:.2f}s (< 10s)")


def test_criterion_02_f2_degree2_census(capsys):
    irreducibles = []
    for c1 in (0, 1):
        for c0 in (0, 1):
            f = MultiPoly.from_terms(F2, V1, {(2,): 1, (1,): c1, (0,): c0})
            fac = factor_multivariate(f)
            if len(fac.factors) == 1 and fac.factors[0][1] == 1:
                irreducibles.append(str(f))
    ok = irreducibles == ["x1^2 + x1 + 1"]
    with capsys.disabled():
        report(2, ok, "exactly one irreducible quadratic over GF(2): x^2+x+1")


def test_criterion_03_goldbach_failure(tmp_path, capsys):
    t0 = time.monotonic()
    rc, env, _ = cli(tmp_path, "gb_none.json",
                     ["goldbach", "--ring", "GF(2)", "--Q", "x^2+x"])
    dt = time.monotonic() - t0
    capsys.readouterr()
    ok = rc == 2 and env["result"]["status"] == "exhausted-none" and dt < 1.0
    with capsys.disabled():
        report(3, ok, f"goldbach x^2+x over GF(2): exhaustively none, "
                      f"exit 2, {dt:.3f}s (< 1s)")


def test_criterion_04_goldbach_relaxed_success(tmp_path, capsys):
    rc, env, _ = cli(tmp_path, "gb_relaxed.json",
                     ["goldbach", "--ring", "GF(2)", "--Q", "x1^2+x1",
                      "--vars", "2", "--relaxed-degx"])
    capsys.readouterr()
    ok = rc == 0 and env["result"]["status"] == "found"
    if ok:
        Q = parse_poly(env["inputs"]["Q"], F2, V2)
        F = parse_poly(env["result"]["F"], F2, V2)
        G = parse_poly(env["result"]["G"], F2, V2)
        ok = (F + G == Q
              and brute_force_irreducible(F)
              and brute_force_irreducible(G)
              and F.degree_in("x1") <= Q.degree_in("x1"))
    with capsys.disabled():
        report(4, ok, "relaxed Goldbach of x^2+x over GF(2)[x,y]: "
                      "found and re-verified against the brute-force oracle")


def test_criterion_05_table_closed_forms(capsys):
    from schinzelpoly.constructions import goldbach_decompose

    t0 = time.monotonic()
    rng = random.Random(20240809)
    ok = True
    detail = ""
    count = 0
    while count < 100:
        q1 = rng.randrange(-50, 51)
        q0 = rng.randrange(-50, 51)
        if q1 == 0:
            continue
        count += 1
        Q = MultiPoly.from_terms(ZZ, V1, {(1,): q1, (0,): q0})
        d = goldbach_decompose(Q)
        expected_case = "table-q1-ne-1" if q1 != 1 else "table-q1-ne-minus1"
        this_ok = (d.case == expected_case
                   and d.F + d.G == Q
                   and d.F.total_degree() == 1 and d.G.total_degree() == 1
                   and ZZ.is_unit(d.F.content_value())
                   and ZZ.is_unit(d.G.content_value())
                   and bool(is_irreducible(d.F)) and bool(is_irreducible(d.G)))
        if not this_ok:
            ok = False
            detail = f" (failed at Q = {Q})"
            break
    dt = time.monotonic() - t0
    ok = ok and dt < 5.0
    with capsys.disabled():
        report(5, ok, f"100 random degree-1 Z Goldbach table decompositions, "
                      f"case-exact, {dt:.2f}s (< 5s){detail}")


def _z_single_irreducible(f):
    fac = factor_univariate_integers(f)
    return len(fac.factors) == 1 and fac.factors[0][1] == 1


def test_criterion_06_twin_prime_analog(tmp_path, capsys):
    rc, env, _ = cli(tmp_path, "twin.json",
                     ["schinzel", "--ring", "Z", "--P", "y", "--P", "y+2",
                      "--deg", "2", "--coeff-bound", "5"])
    capsys.readouterr()
    witnesses = [w["M"] for w in env["result"]["witnesses"]]
    ok = rc == 0 and len(witnesses) >= 1 and "x1^2 + x1 + 1" in witnesses
    if ok:
        # the named witness re-verifies via the independent Z factorization
        M = parse_poly("x1^2 + x1 + 1", ZZ, V1)
        two = MultiPoly.constant(ZZ, V1, 2)
        ok = _z_single_irreducible(M) and _z_single_irreducible(M + two)
    if ok:
        # and every reported witness re-verifies
        for text in witnesses:
            M = parse_poly(text, ZZ, V1)
            if not (_z_single_irreducible(M) and _z_single_irreducible(M + two)):
                ok = False
                break
    with capsys.disabled():
        report(6, ok, f"twin analog over Z: {len(witnesses)} witnesses, "
                      "x1^2+x1+1 among them, all re-verified by the Z oracle")


def test_criterion_07_dirichlet_degree_one(tmp_path, capsys):
    rc, env, _ = cli(tmp_path, "dirichlet.json",
                     ["schinzel", "--ring", "GF(2)", "--P", "x1 + x2*y",
                      "--P", "y", "--deg", "2,2"])
    capsys.readouterr()
    witnesses = [w["M"] for w in env["result"]["witnesses"]]
    ok = rc == 0 and len(witnesses) >= 1 and env["result"]["complete"]
    if ok:
        A = parse_poly("x1", F2, V2)
        B = parse_poly("x2", F2, V2)
        for text in witnesses:
            M = parse_poly(text, F2, V2)
            if not brute_force_irreducible(M):
                ok = False
                break
            if not brute_force_irreducible(A + B * M):
                ok = False
                break
    with capsys.disabled():
        report(7, ok, f"degree-1 Dirichlet over GF(2): {len(witnesses)} witnesses "
                      "in the (2,2) box, exact brute-force agreement")


def test_criterion_08_oracle_equivalence_sweep(capsys):
    t0 = time.monotonic()
    monos = sorted(itertools.product(range(3), repeat=2))
    agree = 0
    total = 0
    for bits in range(1, 1 << 9):
        terms = {e: 1 for i, e in enumerate(monos) if (bits >> i) & 1}
        f = MultiPoly(F2, V2, terms)
        total += 1
        if bool(is_irreducible(f, method="kronecker")) == brute_force_irreducible(f):
            agree += 1
    dt = time.monotonic() - t0
    ok = total == 511 and agree == 511 and dt < 60.0
    with capsys.disabled():
        report(8, ok, f"oracle equivalence on all 511 nonzero GF(2)[x1,x2] "
                      f"polys in the (2,2) box: {agree}/{total} agree, "
                      f"{dt:.1f}s (< 60s)")


def _random_irreducible(ring, vars, rng, max_deg, coeff_pick):
    while True:
        deg = rng.randrange(1, max_deg + 1)
        terms = {}
        for e in range(deg + 1):
            c = coeff_pick(rng, e == deg)
            if not ring.is_zero(c):
                terms[(e,)] = c
        f = MultiPoly(ring, vars, terms)
        if f.is_zero() or f.is_constant():
            continue
        f = f.primitive_part().monic_normalize()[1]
        if f.is_constant():
            continue
        if is_irreducible(f):
            return f


def test_criterion_09_factorization_roundtrip(capsys):
    t0 = time.monotonic()
    rng = random.Random(99)

    def int_pick(r, lead):
        c = r.randrange(-5, 6)
        return c if not lead else (c or 1)

    def field_pick(box):
        def pick(r, lead):
            c = box[r.randrange(len(box))]
            if lead and c == box[0]:
                c = box[1]
            return c
        return pick

    def f2u_pick(r, lead):
        vals = R2u.element_box(deg_bound=1)
        c = vals[r.randrange(len(vals))]
        if lead and not c:
            c = (1,)
        return c

    setups = [
        (ZZ, int_pick), (F2, field_pick(F2.element_box())),
        (F5, field_pick(F5.element_box())), (F4, field_pick(F4.element_box())),
        (R2u, f2u_pick),
    ]
    checked = 0
    ok = True
    detail = ""
    for ring, pick in setups:
        for _ in range(1000):
            parts = {}
            for _ in range(rng.randrange(1, 3)):
                g = _random_irreducible(ring, V1, rng, 3, pick)
                k = g.key()
                parts[k] = (g, parts.get(k, (g, 0))[1] + rng.randrange(1, 3))
            f = MultiPoly.one(ring, V1)
            for g, m in parts.values():
                f = f * g ** m
            fac = factor_multivariate(f)
            if fac.recompose_over(V1) != f:
                ok, detail = False, f" (recomposition failed over {ring}: {f})"
                break
            for g, _ in fac.factors:
                if g.is_constant() or not is_irreducible(g):
                    ok, detail = False, f" (bad factor {g} over {ring})"
                    break
            got = sorted((str(g), m) for g, m in fac.factors)
            want = sorted((str(g), m) for g, m in parts.values())
            if got != want:
                ok, detail = False, f" (multiset mismatch over {ring}: {f})"
            if not ok:
                break
            checked += 1
        if not ok:
            break
    dt = time.monotonic() - t0
    ok = ok and checked == 5000
    with capsys.disabled():
        report(9, ok, f"1000 random products over each of Z, GF(2), GF(5), GF(4), "
                      f"GF(2)[u] refactor exactly ({checked} total), {dt:.1f}s{detail}")


def test_criterion_10_spectrum_pipeline(tmp_path, capsys):
    rc, env, _ = cli(tmp_path, "spectrum.json",
                     ["spectrum", "--field", "Q", "--S", "0,1", "--a0", "2",
                      "--V", "1", "--w", "x1", "--w", "x1+1", "--deg", "4,4"])
    capsys.readouterr()
    ok = rc == 0 and env["result"]["status"] == "found"
    if ok:
        from schinzelpoly.rings import QQ

        U = parse_poly(env["result"]["U"], QQ, V2)
        V = parse_poly("1", QQ, V2)
        H = [parse_poly(t, QQ, V2) for t in env["result"]["H"]]
        w = [parse_poly("x1", QQ, V2), parse_poly("x1+1", QQ, V2)]
        S = [QQ.from_int(0), QQ.from_int(1)]
        # (a) independent division and factorization
        for a, wi, Hi in zip(S, w, H[1:]):
            lhs = U - V.scale(a)
            if lhs.try_divexact(wi) != Hi:
                ok = False
            fac = factor_multivariate(Hi)
            if not (len(fac.factors) == 1 and fac.factors[0][1] == 1):
                ok = False
            if wi.try_divexact(Hi) is not None:
                ok = False
        # (b)
        H0 = U - V.scale(QQ.from_int(2))
        fac0 = factor_multivariate(H0)
        if not (len(fac0.factors) == 1 and fac0.factors[0][1] == 1):
            ok = False
        if H0.total_degree() != max(U.total_degree(), V.total_degree()):
            ok = False
        # (c)
        if U.degree_in("x1") != 4 or U.degree_in("x2") != 4:
            ok = False
    with capsys.disabled():
        report(10, ok, "spectrum over Q with S={0,1}, a0=2, d=(4,4): "
                       "conclusions (a), (b), (c) re-verified independently")


def test_criterion_11_determinism(tmp_path, capsys):
    reruns = {
        "c1": ["swan-scan", "--ring", "GF(2)", "--P", "y^8 + x^3", "--max-deg", "8"],
        "c6": ["schinzel", "--ring", "Z", "--P", "y", "--P", "y+2",
               "--deg", "2", "--coeff-bound", "5"],
        "c7": ["schinzel", "--ring", "GF(2)", "--P", "x1 + x2*y", "--P", "y",
               "--deg", "2,2"],
        "c10": ["spectrum", "--field", "Q", "--S", "0,1", "--a0", "2",
                "--V", "1", "--w", "x1", "--w", "x1+1", "--deg", "4,4"],
    }
    ok = True
    detail = []
    for name, args in reruns.items():
        _, _, b1 = cli(tmp_path, f"{name}_t1.json", args + ["--threads", "1"])
        _, _, b4 = cli(tmp_path, f"{name}_t4.json", args + ["--threads", "4"])
        same = b1 == b4
        ok = ok and same
        detail.append(f"{name}:{'=' if same else '!='}")
    capsys.readouterr()
    with capsys.disabled():
        report(11, ok, "criteria 1, 6, 7, 10 rerun with threads 1 vs 4: "
                       f"byte-identical envelopes ({', '.join(detail)})")
