"""Witness search: examples, completeness accounting, determinism."""

import json
import pathlib
import random
import warnings

import pytest

import schinzelpoly.schinzel as schinzel_mod
from schinzelpoly.cli import main
from schinzelpoly.factor import brute_force_irreducible, factor_univariate_integers, is_irreducible
from schinzelpoly.multipoly import MultiPoly, Specializer, VarSet
from schinzelpoly.rings import GF, ZZ, PolyRing
from schinzelpoly.schinzel import (
    SchinzelProblem,
    SearchConstraints,
    check_fixed_divisor,
    density_probe,
    schinzel_search,
    schinzel_search_multi,
    support_monomials,
    verify_candidate,
)
from schinzelpoly.textform import parse_poly

F2 = GF(2)
F3 = GF(3)

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
    rep = schinzel_search_multi(prob)
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
    rep = schinzel_search_multi(prob)
    assert rep.found
    M1, M2 = rep.witnesses[0].M
    s = M1 + M2
    assert is_irreducible(s)


def test_multi_two_y_gf2_box_accounting():
    # 16 tuples: 4 first-level candidates fail the standing hypotheses and
    # stand for 4 tuples each, 12 tuples reach the last y
    prob = problem(F2, Vx, VarSet(("y1", "y2")), ["y1*y2 + x1"], (1,))
    rep = schinzel_search_multi(prob)
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
    rep = schinzel_search_multi(prob)
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
    rep = schinzel_search_multi(prob)
    assert rep.found
    for w in rep.witnesses:
        Ms = w.M if isinstance(w.M, tuple) else (w.M,)
        polys = prob.P
        for yname, M in zip(yvars, Ms[:-1]):
            polys = [P.substitute(yname, M) for P in polys]
        fresh = verify_candidate(prob, Ms[-1], (), [Specializer(P, yvars[-1]) for P in polys])
        assert fresh == (True, "witness", w.certificates)
        assert len(w.certificates) == len(prob.P)


def test_multi_agrees_with_single_on_m1():
    p1 = problem(ZZ, Vx, Vy, ["y", "y+2"], (1,), coeff_bound=2, budget=10**4)
    r1 = schinzel_search(p1)
    p2 = problem(ZZ, Vx, Vy, ["y", "y+2"], (1,), coeff_bound=2, budget=10**4)
    r2 = schinzel_search_multi(p2)
    assert report_dump(r1) == report_dump(r2)


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


def test_support_must_contain_constant():
    with pytest.raises(ValueError):
        problem(ZZ, Vx, Vy, ["y"], (2,), coeff_bound=2, support=((1,), (2,)))


def test_fixed_divisor_f2():
    P = [parse_poly(t, F2, Vxy, aliases={"y": "y1"}) for t in ("y", "y+1")]
    rep = check_fixed_divisor(F2, Vx, Vy, P, (2,))
    assert rep.exhaustive
    assert rep.divisor is not None
    x = parse_poly("x1", F2, Vx)
    xp1 = parse_poly("x1 + 1", F2, Vx)
    assert rep.divisor.try_divexact(x) is not None
    assert rep.divisor.try_divexact(xp1) is not None


def test_fixed_divisor_none_over_z():
    P = [parse_poly("y", ZZ, Vxy, aliases={"y": "y1"})]
    rep = check_fixed_divisor(ZZ, Vx, Vy, P, (1,),
                              SearchConstraints(coeff_bound=2, budget=200))
    assert rep.divisor is None


def test_fixed_divisor_none_over_f3():
    P = [parse_poly("y", F3, Vxy, aliases={"y": "y1"})]
    rep = check_fixed_divisor(F3, Vx, Vy, P, (1,))
    assert rep.divisor is None


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
        if (verify_candidate(prob, M1, tup1, [Specializer(P, "y1") for P in prob.P])[0]
                and all(F.degree_in("y2") >= 1 for F in mid)):
            hits += verify_candidate(prob, M2, tup2, [Specializer(P, "y2") for P in mid])[0]
    assert main(["density", "--ring", "GF(2)", "--P", "y1*y2 + x1", "--deg", "1",
                 "--samples", "50", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["witnesses"] == hits
    rep = schinzel_search_multi(prob)
    assert rep.tested == 50 and len(rep.witnesses) == hits
    assert sum(rep.rejected.values()) == 50 - hits


def test_density_twin_positive():
    prob = problem(ZZ, Vx, Vy, ["y", "y+2"], (2,), strategy="random", seed=5,
                   coeff_bound=5, budget=2000)
    rep = density_probe(prob, 2000)
    assert rep.fraction > 0
