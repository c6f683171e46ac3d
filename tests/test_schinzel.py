"""Witness search: examples, completeness accounting, determinism."""

import functools
import itertools
import json
import operator
import pathlib
import random
import warnings

import pytest

import schinzelpoly.schinzel as schinzel_mod
from schinzelpoly.cli import main, swan_scan
from schinzelpoly.errors import ZeroInputError
from schinzelpoly.factor import brute_force_irreducible, factor_univariate_integers, is_irreducible
from schinzelpoly.multipoly import MultiPoly, Specializer, VarSet, poly_gcd
from schinzelpoly.rings import GF, QQ, ZZ, PolyRing
from schinzelpoly.schinzel import (
    SchinzelProblem,
    SearchConstraints,
    check_fixed_divisor,
    density_probe,
    iter_candidates,
    root_sieve,
    schinzel_search,
    support_monomials,
    verify_candidate,
)
from schinzelpoly.textform import parse_poly

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)

Vx = VarSet(("x1",))
Vy = VarSet(("y1",))
Vxy = VarSet(("x1", "y1"))
X2 = VarSet(("x1", "x2"))
X2y = VarSet(("x1", "x2", "y1"))


def problem(ring, xv, yv, ptexts, d, **kw):
    full = VarSet(xv.names + yv.names)
    P = [parse_poly(t, ring, full, aliases={"y": "y1", "x": "x1"}) for t in ptexts]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SchinzelProblem(ring, xv, yv, P, d, SearchConstraints(**kw))


def report_dump(rep):
    return json.dumps({
        "witnesses": [str(w.M) if not isinstance(w.M, tuple)
                      else [str(m) for m in w.M] for w in rep.witnesses],
        "tested": rep.tested,
        "rejected": rep.rejected,
        "complete": rep.complete,
        "box": rep.box_size,
    }, sort_keys=True)


def test_twin_analog_over_z():
    prob = problem(ZZ, Vx, Vy, ["y", "y+2"], (2,), coeff_bound=5, budget=10000)
    rep = schinzel_search(prob)
    names = [str(w.M) for w in rep.witnesses]
    assert "x1^2 + x1 + 1" in names
    # the named witness re-verifies against the integer factorization oracle
    M = parse_poly("x1^2 + x1 + 1", ZZ, Vx)
    for shift in (0, 2):
        f = M + MultiPoly.constant(ZZ, Vx, shift)
        fac = factor_univariate_integers(f)
        assert len(fac.factors) == 1 and fac.factors[0][1] == 1
    assert rep.complete
    assert rep.box_size == 11 ** 3


def test_swan_problem_has_no_witnesses():
    prob = problem(F2, Vx, Vy, ["y^8 + x1^3"], (8,), budget=1000)
    rep = schinzel_search(prob)
    assert rep.status() == "exhausted-none"
    assert rep.tested == rep.box_size == 2 ** 9
    assert len(rep.witnesses) == 0


def test_capelli_instance_y2_plus_x():
    prob = problem(ZZ, Vx, Vy, ["y^2 + x1"], (3,), coeff_bound=3,
                   budget=5000, max_witnesses=4)
    rep = schinzel_search(prob)
    assert rep.found
    for w in rep.witnesses:
        f = parse_poly("y^2 + x1", ZZ, Vxy, aliases={"y": "y1"}).substitute("y1", w.M)
        fac = factor_univariate_integers(f)
        assert len(fac.factors) == 1 and fac.factors[0][1] == 1


def test_exhaustive_completeness_accounting():
    prob = problem(F2, Vx, Vy, ["y^2 + y + x1"], (2,), budget=10**6)
    rep = schinzel_search(prob)
    assert rep.complete
    assert rep.tested == rep.box_size
    assert len(rep.witnesses) + sum(rep.rejected.values()) == rep.box_size


def test_rejection_reasons_split():
    # Over Z the content failure and K-reducibility are distinguished
    prob = problem(ZZ, Vx, Vy, ["y^2 + y + 2"], (1,), coeff_bound=2, budget=10**4)
    rep = schinzel_search(prob)
    assert "content_nonunit" in rep.rejected
    assert "reducible_over_K" in rep.rejected or rep.found


def test_determinism_same_seed():
    kw = dict(strategy="random", seed=11, coeff_bound=4, budget=300)
    r1 = schinzel_search(problem(ZZ, Vx, Vy, ["y", "y+2"], (2,), **kw))
    r2 = schinzel_search(problem(ZZ, Vx, Vy, ["y", "y+2"], (2,), **kw))
    assert report_dump(r1) == report_dump(r2)


def test_budget_exhaustion_flagged():
    prob = problem(ZZ, Vx, Vy, ["y^2 + x1"], (2,), coeff_bound=5, budget=7,
                   max_witnesses=10**9)
    rep = schinzel_search(prob)
    assert rep.tested == 7
    if not rep.found:
        assert rep.status() == "budget-exhausted"
    assert not rep.complete


def test_exact_degree_flags():
    prob = problem(ZZ, Vx, Vy, ["y"], (2,), coeff_bound=2, budget=10**4,
                   exact_degrees=True)
    rep = schinzel_search(prob)
    assert rep.found
    for w in rep.witnesses:
        assert w.M.degree_in("x1") == 2


def test_deg_u_target_theorem_adjustment():
    # over GF(2)[u] the requested degree is multiplied by the characteristic
    R = PolyRing(F2)
    prob = problem(R, Vx, Vy, ["y"], (1,), deg_u_bound=2, budget=10**5,
                   deg_u_target=1)
    rep = schinzel_search(prob)
    assert rep.found
    for w in rep.witnesses:
        assert max(R.deg_u(v) for v in w.M.terms.values()) == 2  # p * delta


def test_degree_one_shape_forces_irreducible_m():
    # Theorem-1.3 shape: adding P0 = y forces M itself irreducible
    prob = problem(F2, X2, Vy, ["x1 + x2*y", "y"], (2, 2), budget=10**4)
    rep = schinzel_search(prob)
    assert rep.found
    for w in rep.witnesses:
        assert brute_force_irreducible(w.M)
        F = parse_poly("x1 + x2*y", F2, X2y, aliases={"y": "y1"}).substitute("y1", w.M)
        assert brute_force_irreducible(F)


def test_multi_variable_search():
    prob = problem(ZZ, Vx, VarSet(("y1", "y2")), ["y1*y2 + 1"], (1,),
                   coeff_bound=1, budget=5000, max_witnesses=5)
    rep = schinzel_search(prob)
    assert rep.found
    full = VarSet(("x1", "y1", "y2"))
    P = parse_poly("y1*y2 + 1", ZZ, full)
    for w in rep.witnesses:
        M1, M2 = w.M
        final = P.substitute("y1", M1).substitute("y2", M2)
        assert is_irreducible(final)


def test_multi_over_f3_sum():
    prob = problem(F3, Vx, VarSet(("y1", "y2")), ["y1 + y2"], (1,),
                   budget=2000, max_witnesses=3)
    rep = schinzel_search(prob)
    assert rep.found
    M1, M2 = rep.witnesses[0].M
    s = M1 + M2
    assert is_irreducible(s)


def test_multi_two_y_gf2_box_accounting():
    # 16 tuples: 4 first-level candidates fail the standing hypotheses and
    # stand for 4 tuples each, 12 tuples reach the last y
    prob = problem(F2, Vx, VarSet(("y1", "y2")), ["y1*y2 + x1"], (1,))
    rep = schinzel_search(prob)
    assert rep.box_size == 16
    assert rep.tested == 12 and rep.complete
    assert [[str(M) for M in w.M] for w in rep.witnesses] == [
        ["1", "0"], ["1", "1"], ["x1 + 1", "0"], ["x1 + 1", "x1 + 1"]]
    assert rep.rejected == {"intermediate_reducible": 4, "intermediate_y_degree_zero": 4,
                            "reducible_over_K": 1, "unit_or_constant": 3}
    assert len(rep.witnesses) + sum(rep.rejected.values()) == rep.box_size


@pytest.mark.parametrize("max_witnesses, tested, complete", [(4, 12, True), (3, 9, False)])
def test_multi_complete_when_max_witnesses_hits_last_candidate(max_witnesses, tested,
                                                                complete):
    # the fourth witness is the last candidate of the box: nothing is left
    # untested, so the search is complete, as a single-y search would be
    prob = problem(F2, Vx, VarSet(("y1", "y2")), ["y1*y2 + x1"], (1,),
                   max_witnesses=max_witnesses)
    rep = schinzel_search(prob)
    assert len(rep.witnesses) == max_witnesses
    assert (rep.tested, rep.complete) == (tested, complete)


def test_verify_candidate_once_per_candidate(monkeypatch, capsys):
    # the twin golden tests 8 candidates; its 5 witnesses keep the
    # certificates of their one verification
    case = json.loads((pathlib.Path(__file__).parent / "golden"
                       / "schinzel_twin_small.json").read_text())
    calls = []
    original = schinzel_mod.verify_candidate

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(schinzel_mod, "verify_candidate", counted)
    assert main(case["args"]) == case["exit_code"]
    env = json.loads(capsys.readouterr().out)
    assert env["result"]["tested"] == 8 and len(env["result"]["witnesses"]) == 5
    assert len(calls) == 8


@pytest.mark.parametrize("ring, ptexts, yvars, d, kw", [
    (ZZ, ["y", "y+2"], ("y1",), (2,), dict(coeff_bound=2, max_witnesses=5)),
    (ZZ, ["y1*y2 + 1"], ("y1", "y2"), (1,), dict(coeff_bound=1, max_witnesses=5)),
    (F2, ["y1*y2 + x1"], ("y1", "y2"), (1,), dict(strategy="random", seed=3, budget=40)),
], ids=["twin-golden", "multi-y", "multi-y-random"])
def test_witness_certificates_match_a_fresh_verification(ring, ptexts, yvars, d, kw):
    prob = problem(ring, Vx, VarSet(yvars), ptexts, d, **kw)
    rep = schinzel_search(prob)
    assert rep.found
    for w in rep.witnesses:
        Ms = w.M if isinstance(w.M, tuple) else (w.M,)
        polys = prob.P
        for yname, M in zip(yvars, Ms[:-1]):
            polys = [P.substitute(yname, M) for P in polys]
        fresh = verify_candidate(prob, Ms[-1], (), [Specializer(P, yvars[-1]) for P in polys],
                                 [root_sieve(P, yvars[-1]) for P in polys])
        assert fresh == (True, "witness", w.certificates)
        assert len(w.certificates) == len(prob.P)


@pytest.mark.parametrize("ring, ptexts, yvars, d, kw", [
    (F2, ["y^2 + x*y + x^2 + x + 1"], ("y1",), (6,), {}),
    (F2, ["y^2 + x*y + x^2 + x + 1", "y^3 + x*y + 1"], ("y1",), (5,), {}),
    (F3, ["y^3 + x^2 + 1"], ("y1",), (5,), {}),
    (F3, ["y^3 + x^2 + 1"], ("y1",), (5,), dict(exact_degrees=True)),  # degree before root
    (F3, ["y^3 + x^2 + 1", "y^2 + x^3 + x*y + 1"], ("y1",), (4,), {}),
    (F4, ["y^3 + x*y + t*x^2"], ("y1",), (2,), {}),
    (F4, ["y^3 + x*y + t*x^2", "y^2 + x*y + t*x^3 + t"], ("y1",), (2,), {}),
    (F2, ["y1*y2 + x1"], ("y1", "y2"), (2,), {}),  # the sieve works at the last y
], ids=lambda v: str(v).replace(" ", ""))
def test_root_sieve_inside_the_search_changes_no_report(monkeypatch, ring, ptexts, yvars, d, kw):
    # the exhaustive one-x box reports the same with the sieve patched off,
    # and the sieve decided some of its candidates
    prob = problem(ring, Vx, VarSet(yvars), ptexts, d, **kw)
    original, hits = schinzel_mod.root_sieve, []

    def counting(P, yname):
        sieve = original(P, yname)
        return lambda M: hits.append(sieve(M)) or hits[-1]

    monkeypatch.setattr(schinzel_mod, "root_sieve", counting)
    rep = schinzel_search(prob)
    assert rep.complete and any(hits)
    monkeypatch.setattr(schinzel_mod, "root_sieve", lambda *args: lambda M: False)
    assert schinzel_search(prob) == rep


def test_swan_scan_and_a_one_x_search_count_the_same_box():
    prob = problem(F3, Vx, Vy, ["y^3 + x^2 + 1"], (6,))
    rep = schinzel_search(prob)
    scan = swan_scan(prob.P[0], "x1", "y1", 6)
    assert (rep.tested, len(rep.witnesses)) == (scan["candidates"], scan["irreducible"])
    assert (rep.tested, len(rep.witnesses)) == (2187, 141)


def test_problem_validation():
    full = Vxy
    # reducible P rejected
    bad = parse_poly("y^2 + 2*y + 1", ZZ, full, aliases={"y": "y1"})  # (y+1)^2
    with pytest.raises(ValueError):
        SchinzelProblem(ZZ, Vx, Vy, [bad], (2,), SearchConstraints(coeff_bound=1))
    # y-degree 0 rejected
    flat = parse_poly("x1 + 1", ZZ, full, aliases={"y": "y1"})
    with pytest.raises(ValueError):
        SchinzelProblem(ZZ, Vx, Vy, [flat], (2,), SearchConstraints(coeff_bound=1))


def test_degree_bound_warning():
    full = Vxy
    P = parse_poly("y + x1^3", ZZ, full, aliases={"y": "y1"})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        SchinzelProblem(ZZ, Vx, Vy, [P], (2,), SearchConstraints(coeff_bound=1))
    assert any("bound" in str(w.message) for w in caught)


def test_paper_mode_support_order():
    sup = support_monomials((2, 1), paper_mode=True)
    assert sup[0] == (0, 0)          # Q0 = 1
    assert sup[1] == (2, 1)          # degree d1+d2
    assert sum(sup[2]) == 2          # degree d1+d2-1
    assert len(sup) == 6


def test_paper_mode_coprimality_constraint():
    prob = problem(ZZ, Vx, Vy, ["y"], (2,), coeff_bound=2, budget=10**4,
                   paper_mode=True)
    rep = schinzel_search(prob)
    assert rep.found
    assert rep.rejected.get("coprimality", 0) > 0
    sup = prob.support
    for w in rep.witnesses:
        lam1 = w.M.terms.get(sup[1], 0)
        lam2 = w.M.terms.get(sup[2], 0)
        assert ZZ.is_unit(ZZ.gcd(lam1, lam2))


def test_support_restriction():
    # restrict M to lambda0 + lambda1 * x1^2
    prob = problem(ZZ, Vx, Vy, ["y"], (2,), coeff_bound=3, budget=10**4,
                   support=((0,), (2,)))
    rep = schinzel_search(prob)
    assert rep.found
    assert rep.box_size == 7 ** 2
    for w in rep.witnesses:
        assert set(w.M.terms) <= {(0,), (2,)}


def test_multi_exact_degrees_rejects_at_the_first_y():
    # the constants 0 and 1 fall short of degree 1 at depth 1, each standing
    # for the 4 tuples below it, and again at depth 2 below x1 + 1 (x1 makes
    # x1*y2 + x1 reducible at depth 1)
    prob = problem(F2, Vx, VarSet(("y1", "y2")), ["y1*y2 + x1"], (1,), exact_degrees=True)
    rep = schinzel_search(prob)
    assert rep.rejected["degree_shortfall"] == 2 * 4 + 2
    assert rep.rejected["intermediate_reducible"] == 4
    assert all(M.degree_in("x1") == 1 for w in rep.witnesses for M in w.M)
    assert [[str(M) for M in w.M] for w in rep.witnesses] == [["x1 + 1", "x1 + 1"]]
    assert len(rep.witnesses) + sum(rep.rejected.values()) == rep.box_size == 16


def test_support_must_contain_constant():
    with pytest.raises(ValueError):
        problem(ZZ, Vx, Vy, ["y"], (2,), coeff_bound=2, support=((1,), (2,)))


def fixed_divisor(ring, xnames, ynames, texts):
    xv, yv = VarSet(xnames), VarSet(ynames)
    full = VarSet(xnames + ynames)
    P = [parse_poly(t, ring, full, aliases={"y": ynames[0]}) for t in texts]
    return check_fixed_divisor(ring, xv, yv, P)


def test_fixed_divisor_f2():
    # every M of degree 0 gives the value 0, so a gcd scan over that box
    # formed no gcd at all; M = x1 gives x1(x1 + 1)
    rep = fixed_divisor(F2, ("x1",), ("y1",), ("y", "y+1"))
    assert rep.divisor == parse_poly("x1^2 + x1", F2, Vx)
    assert [(str(pi), k) for pi, k in rep.certificate] == [("x1", 1), ("x1 + 1", 1)]


def test_fixed_divisor_none_over_z():
    rep = fixed_divisor(ZZ, ("x1",), ("y1",), ("y",))
    assert rep.divisor is None and rep.certificate == []


def test_fixed_divisor_none_over_f3():
    rep = fixed_divisor(F3, ("x1",), ("y1",), ("y",))
    assert rep.divisor is None and rep.certificate == []


def test_fixed_divisor_substitutes_every_y():
    # y2 + y1^2 + y1 takes the value M2 at M1 = 0: no nonunit divides every
    # value, and the divisor never involves a y
    rep = fixed_divisor(F2, ("x1",), ("y1", "y2"), ("y2 + y1^2 + y1",))
    assert rep.divisor is None and rep.certificate == []
    rep = fixed_divisor(F2, ("x1",), ("y1", "y2"), ("y2^2 + y2 + x1*y1", "y1 + 1"))
    assert str(rep.divisor) == "x1^2 + x1"


def test_fixed_divisor_finds_prime_powers_and_content():
    # (y^2 + y)^2 * x1*(y + 1): the content x1 times x1^2 (x1 + 1)^2, and
    # y^4 + y vanishes on GF(4) = GF(2)[x1]/(x1^2 + x1 + 1)
    rep = fixed_divisor(F2, ("x1",), ("y1",), ("y^2 + y", "y^2 + y", "x1*y + x1"))
    assert str(rep.divisor) == "x1^5 + x1^3"
    assert [(str(pi), k) for pi, k in rep.certificate] == [("x1", 2), ("x1 + 1", 2)]
    rep = fixed_divisor(F2, ("x1",), ("y1",), ("y^4 + y + x1^2 + x1 + 1",))
    assert [(str(pi), k) for pi, k in rep.certificate] == [("x1^2 + x1 + 1", 1)]


@pytest.mark.parametrize("ring, xnames, texts, content", [
    (ZZ, ("x1",), ("2*y^2 + 2*y", "x1*y + x1"), "2*x1"),
    (QQ, ("x1",), ("2*y^2 + 2*y", "x1*y + x1"), "x1"),
    (PolyRing(F3), ("x1",), ("y^3 - y", "u*y + u"), "u"),
    (F2, ("x1", "x2"), ("y", "y + 1", "x2*y + x2"), "x2"),
], ids=["Z", "Q", "GF3[u]", "GF2-two-x"])
def test_fixed_divisor_is_the_content_without_values(monkeypatch, ring, xnames, texts, content):
    # no prime of these R[x] leaves a finite residue ring, so no value is
    # evaluated although y^3 - y and y(y + 1) vanish on every residue field
    # that is finite
    def no_values(*args):
        raise AssertionError("a value was evaluated")
    monkeypatch.setattr(schinzel_mod, "horner_substitute", no_values)
    rep = fixed_divisor(ring, xnames, ("y1",), texts)
    assert rep.divisor == parse_poly(content, ring, VarSet(xnames))
    assert rep.certificate == []


@pytest.mark.parametrize("xnames, ynames, texts, error", [
    (("x1",), ("y1",), (), ZeroInputError),
    (("x1",), ("y1",), ("y1", "0"), ZeroInputError),
    ((), ("x1", "y1"), ("y1 + x1",), ValueError),
    (("x1", "y1"), (), ("y1 + x1",), ValueError),
    (("y1",), ("x1",), ("y1 + x1",), ValueError),
], ids=["no-P", "zero-P", "no-x", "no-y", "y-before-x"])
def test_fixed_divisor_refuses_what_it_cannot_decide(xnames, ynames, texts, error):
    full = VarSet(("x1", "y1"))
    P = [parse_poly(t, F2, full) for t in texts]
    with pytest.raises(error):
        check_fixed_divisor(F2, VarSet(xnames), VarSet(ynames), P)


def _random_factor(rng, ring, full, pis):
    """An irreducible A(y) + x1*B(y), A and B random of degree <= 3 in y1
    and <= 1 in y2; or, one time in three, y1^Q - y1 + pi*(A + x1*B) for
    pi of degree e in pis and Q = q^e, which vanishes on every point of
    (GF(q)[x1]/(pi))^m."""
    box = ring.element_box()
    y1 = MultiPoly.variable(ring, full, "y1")
    while True:
        terms = {(i,) + tuple(rng.randint(0, 3 if j == 0 else 1) for j in range(len(full) - 1)):
                 box[rng.randrange(len(box))] for i in (0, 1) for _ in range(rng.randint(1, 3))}
        P = MultiPoly(ring, full, {e: c for e, c in terms.items() if not ring.is_zero(c)})
        if rng.random() < 1 / 3:
            pi = rng.choice(pis)
            P = y1 ** ring.order ** pi.total_degree() - y1 + pi.embed(full) * P
        if max(P.degree_in(y) for y in full.names[1:]) >= 1 and is_irreducible(P):
            return P


def _box_gcd(F, xv, ynames, deg):
    """gcd of the values F(x1, M) over every tuple M of polynomials of
    degree <= deg, by Specializer and poly_gcd."""
    box = [M for M, _ in iter_candidates(F.ring, xv, support_monomials((deg,)),
                                         SearchConstraints())]

    def values(G, names):
        if not names:
            yield G
            return
        # y1 first: the inner loop substitutes y2, of lower degree
        spec = Specializer(G, names[0])
        for M in box:
            yield from values(spec(M), names[1:])

    acc = None
    for value in values(F, ynames):
        if value.is_zero() or acc is not None and value.try_divexact(acc) is not None:
            continue
        acc = value if acc is None else poly_gcd(acc, value)
        if acc.is_constant():
            return None
    return acc.monic_normalize()[1]


def test_fixed_divisor_agrees_with_exhaustive_boxes():
    # The box of degree below top holds every residue mod pi^j when
    # j*deg(pi) <= top: mod pi^(k + 1) for each certified (pi, k), so the box
    # gcd would show a k that is too small or too large, and mod every pi
    # with q^deg(pi) <= deg_y F, so it would show a pi left out.  Each
    # factor is irreducible, so the content is 1.
    rng = random.Random(26)
    xv = VarSet(("x1",))
    nontrivial = 0
    for ring, m in [(ring, m) for ring in (F2, F3, F4) for m in (1, 2)] * 25:
        yv = VarSet(("y1", "y2")[:m])
        full = VarSet(xv.names + yv.names)
        pis = [pi for e in (1, 2) if ring.order ** e <= 4 and (e == 1 or m == 1)
               for pi in (MultiPoly.monomial(ring, xv, (e,)) + M
                          for M, _ in iter_candidates(ring, xv, support_monomials((e - 1,)),
                                                      SearchConstraints()))
               if is_irreducible(pi)]
        Ps = [_random_factor(rng, ring, full, pis) for _ in range(rng.randint(1, 3))]
        rep = check_fixed_divisor(ring, xv, yv, Ps)
        F = functools.reduce(operator.mul, Ps)
        dy = max(F.degree_in(y) for y in yv.names)
        top = max([e for e in range(1, dy + 1) if ring.order ** e <= dy]
                  + [(k + 1) * pi.total_degree() for pi, k in rep.certificate] + [1])
        assert _box_gcd(F, xv, yv.names, top - 1) == rep.divisor, [str(P) for P in Ps]
        if rep.divisor is not None:
            nontrivial += 1
            assert rep.divisor == functools.reduce(
                operator.mul, [pi ** k for pi, k in rep.certificate])
    assert nontrivial >= 20


def test_density_definitional():
    prob = problem(ZZ, Vx, Vy, ["y"], (2,), strategy="random", seed=3,
                   coeff_bound=5, budget=400)
    rep = density_probe(prob, 400)
    assert 0 < rep.fraction <= 1
    assert rep.ci_low <= rep.fraction <= rep.ci_high


def test_density_swan_is_zero():
    prob = problem(F2, Vx, Vy, ["y^8 + x1^3"], (8,), strategy="random", seed=1,
                   budget=200)
    rep = density_probe(prob, 200)
    assert rep.fraction == 0.0


def test_density_counts_the_random_search_witnesses():
    # the probe walks the same loop as a random search with budget = samples
    kw = dict(strategy="random", seed=9, coeff_bound=5, budget=300)
    rep = schinzel_search(problem(ZZ, Vx, Vy, ["y", "y+2"], (2,), **kw))
    dens = density_probe(problem(ZZ, Vx, Vy, ["y", "y+2"], (2,), max_witnesses=3, **kw), 300)
    assert dens.samples == rep.tested == 300
    assert dens.witnesses == len(rep.witnesses) > 3


def test_multi_y_random_samples_are_whole_tuples_from_one_stream(capsys):
    # each sample draws (M_1, M_2), N coefficients each, from one seeded
    # stream, and counts once whether or not it survives depth 1
    Y2 = VarSet(("y1", "y2"))
    prob = problem(F2, Vx, Y2, ["y1*y2 + x1"], (1,), strategy="random", seed=3, budget=50)
    rng = random.Random(3)
    box = F2.element_box()

    def draw():
        tup = tuple(box[rng.randrange(len(box))] for _ in prob.support)
        return MultiPoly(F2, Vx, {e: v for e, v in zip(prob.support, tup) if v}), tup

    hits = 0
    for _ in range(50):
        (M1, tup1), (M2, tup2) = draw(), draw()
        mid = [P.substitute("y1", M1) for P in prob.P]
        if (verify_candidate(prob, M1, tup1, [Specializer(P, "y1") for P in prob.P],
                             [root_sieve(P, "y1") for P in prob.P])[0]
                and all(F.degree_in("y2") >= 1 for F in mid)):
            hits += verify_candidate(prob, M2, tup2, [Specializer(P, "y2") for P in mid],
                                     [root_sieve(P, "y2") for P in mid])[0]
    assert main(["density", "--ring", "GF(2)", "--P", "y1*y2 + x1", "--deg", "1",
                 "--samples", "50", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["witnesses"] == hits
    rep = schinzel_search(prob)
    assert rep.tested == 50 and len(rep.witnesses) == hits
    assert sum(rep.rejected.values()) == 50 - hits


def test_density_twin_positive():
    prob = problem(ZZ, Vx, Vy, ["y", "y+2"], (2,), strategy="random", seed=5,
                   coeff_bound=5, budget=2000)
    rep = density_probe(prob, 2000)
    assert rep.fraction > 0
