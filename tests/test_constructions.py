"""Polynomial CRT, Goldbach decompositions, spectrum construction."""

import random

import pytest

from schinzelpoly import constructions
from schinzelpoly.constructions import (
    SpectrumSpec,
    bezout_pair,
    goldbach_decompose,
    poly_crt,
    poly_mod,
    spectrum_construct,
)
from schinzelpoly.errors import (
    BudgetExceededError,
    ExhaustiveNoneError,
    NonCoprimeModuliError,
    UnsupportedRingError,
    ZeroInputError,
)
from schinzelpoly.factor import factor_multivariate, is_irreducible
from schinzelpoly.multipoly import MultiPoly, VarSet
from schinzelpoly.rings import GF, QQ, ZZ, PolyRing, parse_ring
from schinzelpoly.textform import parse_poly

F2 = GF(2)
F3 = GF(3)
V1 = VarSet(("x1",))
V2 = VarSet(("x1", "x2"))


# ---------------------------------------------------------------------------
# CRT
# ---------------------------------------------------------------------------

def test_crt_two_moduli():
    r = poly_crt([(parse_poly("1", QQ, V1), parse_poly("x1", QQ, V1)),
                  (parse_poly("2", QQ, V1), parse_poly("x1+1", QQ, V1))])
    assert str(r) == "-x1 + 1"
    assert poly_mod(r - parse_poly("1", QQ, V1), parse_poly("x1", QQ, V1)).is_zero()
    assert poly_mod(r - parse_poly("2", QQ, V1), parse_poly("x1+1", QQ, V1)).is_zero()


def test_crt_single_modulus_reduces():
    r = poly_crt([(parse_poly("x1^3 + x1 + 1", QQ, V1), parse_poly("x1^2", QQ, V1))])
    assert str(r) == "x1 + 1"


def test_crt_zero_targets():
    r = poly_crt([(MultiPoly.zero(QQ, V1), parse_poly("x1", QQ, V1)),
                  (MultiPoly.zero(QQ, V1), parse_poly("x1+1", QQ, V1))])
    assert r.is_zero()


def test_crt_noncoprime_reports_pair_and_gcd():
    with pytest.raises(NonCoprimeModuliError) as ei:
        poly_crt([(parse_poly("1", QQ, V1), parse_poly("x1^2-1", QQ, V1)),
                  (parse_poly("2", QQ, V1), parse_poly("x1-1", QQ, V1))])
    assert ei.value.pair == (0, 1)
    assert str(ei.value.gcd) == "x1 - 1"


def test_crt_residue_property_random():
    rng = random.Random(0)
    x = parse_poly("x1", QQ, V1)
    moduli = [x, x + MultiPoly.one(QQ, V1),
              parse_poly("x1^2 + 1", QQ, V1)]
    for _ in range(25):
        targets = [MultiPoly.constant(QQ, V1, QQ.from_int(rng.randrange(-5, 6)))
                   for _ in moduli]
        r = poly_crt(list(zip(targets, moduli)))
        for t, m in zip(targets, moduli):
            assert poly_mod(r - t, m).is_zero()


def test_bezout_mixed_multivariate():
    f = parse_poly("x1", QQ, V2)
    g = parse_poly("x1*x2 + 1", QQ, V2)
    st = bezout_pair(f, g)
    assert st is not None
    s, t = st
    assert s * f + t * g == MultiPoly.one(QQ, V2)


def test_crt_multivariate_comaximal():
    r = poly_crt([(parse_poly("1", QQ, V2), parse_poly("x1", QQ, V2)),
                  (parse_poly("x2", QQ, V2), parse_poly("x1*x2 + 1", QQ, V2))])
    assert poly_mod(r - parse_poly("1", QQ, V2), parse_poly("x1", QQ, V2)).is_zero()
    assert poly_mod(r - parse_poly("x2", QQ, V2),
                    parse_poly("x1*x2 + 1", QQ, V2)).is_zero()


# ---------------------------------------------------------------------------
# Goldbach: closed-form table
# ---------------------------------------------------------------------------

def test_goldbach_table_example():
    Q = parse_poly("3*x1 + 5", ZZ, V1)
    d = goldbach_decompose(Q)
    assert str(d.F) == "x1 + 4"
    assert str(d.G) == "2*x1 + 1"
    assert d.case == "table-q1-ne-1"
    assert d.verify()


def test_goldbach_table_case_two():
    Q = parse_poly("x1 + 7", ZZ, V1)  # q1 = 1: second row applies
    d = goldbach_decompose(Q)
    assert d.case == "table-q1-ne-minus1"
    assert str(d.F) == "-x1 + 6"
    assert str(d.G) == "2*x1 + 1"
    assert d.verify()


def test_goldbach_table_char2_row():
    # GF(2)[u] in one x variable with q1 = 1 = -1: the r-row with r = u
    R = PolyRing(F2)
    Q = parse_poly("x1 + u", R, V1)
    d = goldbach_decompose(Q)
    assert d.case == "table-char2"
    assert d.F + d.G == Q
    assert is_irreducible(d.F) and is_irreducible(d.G)


def test_goldbach_table_random_degree_one():
    rng = random.Random(1)
    for _ in range(25):
        q1 = rng.randrange(-9, 10)
        q0 = rng.randrange(-9, 10)
        if q1 == 0:
            continue
        Q = MultiPoly.from_terms(ZZ, V1, {(1,): q1, (0,): q0})
        d = goldbach_decompose(Q)
        assert d.case in ("table-q1-ne-1", "table-q1-ne-minus1")
        expected = "table-q1-ne-1" if q1 != 1 else "table-q1-ne-minus1"
        assert d.case == expected
        assert d.F + d.G == Q
        assert d.F.total_degree() == d.G.total_degree() == 1
        assert is_irreducible(d.F) and is_irreducible(d.G)


# ---------------------------------------------------------------------------
# Goldbach: finite fields
# ---------------------------------------------------------------------------

def test_goldbach_fails_for_f2_x2_plus_x():
    Q = parse_poly("x1^2 + x1", F2, V1)
    with pytest.raises(ExhaustiveNoneError):
        goldbach_decompose(Q)


def test_goldbach_relaxed_succeeds_over_f2_bivariate():
    Q = parse_poly("x1^2 + x1", F2, V2)
    d = goldbach_decompose(Q, relaxed_var="x1")
    assert d.F + d.G == Q
    assert is_irreducible(d.F) and is_irreducible(d.G)
    assert d.F.degree_in("x1") <= Q.degree_in("x1")


def test_goldbach_relaxed_needs_finite_field():
    Q = parse_poly("x1^2 + x1", ZZ, V2)
    with pytest.raises(UnsupportedRingError):
        goldbach_decompose(Q, relaxed_var="x1")


def test_goldbach_f3_strict_quadratic():
    Q = parse_poly("x1^2 + 1", F3, V1)
    d = goldbach_decompose(Q)
    assert d.F + d.G == Q
    assert is_irreducible(d.F) and is_irreducible(d.G)
    assert d.F.total_degree() <= 2


# ---------------------------------------------------------------------------
# Goldbach: congruence search over infinite rings
# ---------------------------------------------------------------------------

def test_goldbach_congruence_z_quadratic():
    Q = parse_poly("x1^2 + 1", ZZ, V1)
    d = goldbach_decompose(Q)
    assert d.case == "congruence-search"
    assert d.F + d.G == Q
    assert len(d.F.terms) == 2  # a binomial with exactly two terms
    assert is_irreducible(d.F) and is_irreducible(d.G)
    assert d.F.total_degree() <= Q.total_degree()


def test_goldbach_congruence_multivariate():
    Q = parse_poly("x1^2*x2 + 3*x2 + 7", ZZ, V2)
    d = goldbach_decompose(Q)
    assert d.F + d.G == Q
    assert is_irreducible(d.F) and is_irreducible(d.G)
    assert d.F.total_degree() <= Q.total_degree()
    assert len(d.F.terms) == 2


def test_goldbach_congruence_over_q():
    Q = parse_poly("x1^3 - x1 + 1", QQ, V1)
    d = goldbach_decompose(Q)
    assert d.F + d.G == Q
    assert is_irreducible(d.F) and is_irreducible(d.G)


FOUND_ROWS = {
    # ring, Q, variables, relaxed variable -> case, F, G, binomial, F_exponents, tested
    "table-Z-row1": (("Z", "3*x1 + 5", 1, None),
                     ("table-q1-ne-1", "x1 + 4", "2*x1 + 1", True, (1,), 0)),
    "table-Z-row2": (("Z", "x1 + 7", 1, None),
                     ("table-q1-ne-minus1", "-x1 + 6", "2*x1 + 1", True, (1,), 0)),
    "table-GF(4)": (("GF(2^2)", "x1 + t", 1, None),
                    ("table-char2", "(t)*x1 + (t)", "(t + 1)*x1", True, (1,), 0)),
    "table-GF(2)[u]": (("GF(2)[u]", "x1 + u", 1, None),
                       ("table-char2", "(u)*x1 + (u^2 + 1)", "(u + 1)*x1 + (u^2 + u + 1)",
                        True, (1,), 0)),
    "binomial-GF(3)": (("GF(3)", "x1^2 + 1", 1, None),
                       ("exhaustive-search", "x1 + 2", "x1^2 + 2*x1 + 2", True, (1,), 2)),
    "full-box-GF(2)": (("GF(2)", "x1^3 + x1^2", 1, None),
                       ("exhaustive-search", "x1^3 + x1 + 1", "x1^2 + x1 + 1", False, None, 9)),
    "relaxed-GF(2)": (("GF(2)", "x1^2 + x1", 2, "x1"),
                      ("relaxed-search", "x2 + 1", "x1^2 + x1 + x2 + 1", True, (0, 1), 3)),
    "congruence-Z": (("Z", "x1^2 + 1", 1, None),
                     ("congruence-search", "-x1 - 1", "x1^2 + x1 + 2", True, (1,), 1)),
    "congruence-Z-bivariate": (("Z", "x1^2*x2 + 3*x2 + 7", 2, None),
                               ("congruence-search", "-x1^3 + 6", "x1^3 + x1^2*x2 + 3*x2 + 1",
                                True, (3, 0), 1)),
    "congruence-Z-quartic": (("Z", "x1^4 + 5*x1^3 - 3*x1 + 9", 1, None),
                             ("congruence-search", "6*x1^3 + 7", "x1^4 - x1^3 - 3*x1 + 2",
                              True, (3,), 3)),
    "congruence-Q": (("Q", "x1^3 - x1 + 1", 1, None),
                     ("congruence-search", "-2*x1^2 - 1", "x1^3 + 2*x1^2 - x1 + 2",
                      True, (2,), 2)),
    # the parameters come from the ring's element_stream
    "Q[u]": (("Q[u]", "x1^2 + u", 1, None),
             ("congruence-search", "-x1 + (u - 1)", "x1^2 + x1 + 1", True, (1,), 1)),
    "GF(2)[u]": (("GF(2)[u]", "x1^2 + x1", 1, None),
                 ("congruence-search", "x1 + (u + 1)", "x1^2 + (u + 1)", True, (1,), 2)),
}


def goldbach_input(spec, text, n):
    ring = parse_ring(spec)
    return parse_poly(text, ring, VarSet(tuple(f"x{i}" for i in range(1, n + 1))))


@pytest.mark.parametrize("given, expected", FOUND_ROWS.values(), ids=FOUND_ROWS.keys())
def test_goldbach_accounting_on_every_route(given, expected):
    spec, text, n, relaxed = given
    d = goldbach_decompose(goldbach_input(spec, text, n), relaxed_var=relaxed)
    assert (d.case, str(d.F), str(d.G), d.binomial, d.F_exponents, d.tested) == expected
    assert d.relaxed_var == relaxed
    assert d.verify()


FAILED_ROWS = {
    # ring, Q, variables, relaxed variable, budget -> error, message, tested
    "table-GF(2)": (("GF(2)", "x1", 1, None, 100_000),
                    (ExhaustiveNoneError,
                     "no Goldbach decomposition of x1 with deg(F) <= 1 exists", 3)),
    "none-GF(2)": (("GF(2)", "x1^2 + x1", 1, None, 100_000),
                   (ExhaustiveNoneError,
                    "no Goldbach decomposition of x1^2 + x1 with deg(F) <= 2 exists", 6)),
    "congruence-budget": (("Z", "x1^4 + 5*x1^3 - 3*x1 + 9", 1, None, 2),
                          (BudgetExceededError,
                           "no Goldbach decomposition within 2 candidates", 2)),
    "binomial-budget": (("GF(3)", "x1^3 + x1 + 2", 1, None, 2),
                        (BudgetExceededError, "Goldbach budget exhausted", 2)),
    "box-budget": (("GF(2)", "x1^3 + x1^2", 1, None, 3),
                   (BudgetExceededError, "exhaustive box has 8 candidates, budget 3", 3)),
    "relaxed-budget": (("GF(2)", "x1^2 + x1", 2, "x1", 1),
                       (BudgetExceededError, "Goldbach budget exhausted", 1)),
}


@pytest.mark.parametrize("given, expected", FAILED_ROWS.values(), ids=FAILED_ROWS.keys())
def test_goldbach_accounting_of_every_failure(given, expected):
    spec, text, n, relaxed, budget = given
    error, message, tested = expected
    with pytest.raises(error) as e:
        goldbach_decompose(goldbach_input(spec, text, n), relaxed_var=relaxed, budget=budget)
    assert (str(e.value), e.value.tested) == (message, tested)


def test_goldbach_rejects_constant():
    with pytest.raises(ZeroInputError):
        goldbach_decompose(parse_poly("5", ZZ, V1))


# ---------------------------------------------------------------------------
# Spectrum construction
# ---------------------------------------------------------------------------

def spec_case():
    return SpectrumSpec(
        QQ, V2, [QQ.from_int(0), QQ.from_int(1)], QQ.from_int(2),
        parse_poly("1", QQ, V2),
        [parse_poly("x1", QQ, V2), parse_poly("x1+1", QQ, V2)],
        (4, 4))


def test_spectrum_pipeline():
    res = spectrum_construct(spec_case(), budget=20000, seed=0)
    U, V = res.U, parse_poly("1", QQ, V2)
    S = [QQ.from_int(0), QQ.from_int(1)]
    w = [parse_poly("x1", QQ, V2), parse_poly("x1+1", QQ, V2)]
    # (a) U - a_i V = w_i H_i, H_i irreducible, H_i does not divide w_i
    for a, wi, Hi in zip(S, w, res.H[1:]):
        lhs = U - V.scale(a)
        assert lhs == wi * Hi
        assert is_irreducible(Hi)
        assert wi.try_divexact(Hi) is None
    # (b) U - a0 V irreducible of degree max(deg U, deg V)
    H0 = U - V.scale(QQ.from_int(2))
    assert H0 == res.H[0]
    assert is_irreducible(H0)
    assert H0.total_degree() == max(U.total_degree(), V.total_degree())
    # (c) exact partial degrees
    assert U.degree_in("x1") == 4 and U.degree_in("x2") == 4


def test_spectrum_reducibility_of_prescribed_values():
    # d1 exceeds deg(V) and every deg(w_i), so U - aV is reducible for a in S
    res = spectrum_construct(spec_case(), budget=20000, seed=0)
    U, V = res.U, parse_poly("1", QQ, V2)
    for a in (QQ.from_int(0), QQ.from_int(1)):
        fac = factor_multivariate(U - V.scale(a))
        assert len(fac.factors) >= 2 or fac.factors[0][1] >= 2


def test_spectrum_degenerate_no_spectrum():
    spec = SpectrumSpec(QQ, V2, [], QQ.from_int(2), parse_poly("1", QQ, V2),
                        [], (2, 2))
    res = spectrum_construct(spec, budget=5000, seed=0)
    U = res.U
    H0 = U - parse_poly("1", QQ, V2).scale(QQ.from_int(2))
    assert is_irreducible(H0)
    assert U.degree_in("x1") == 2 and U.degree_in("x2") == 2


def test_spectrum_bumps_zero_cofactors():
    # S = {0}, V = 1, w = x1: CRT gives U0 = 0 with zero cofactor; the
    # pipeline must nudge U0 by the product of the w_i and still succeed
    spec = SpectrumSpec(QQ, V2, [QQ.from_int(0)], QQ.from_int(1),
                        parse_poly("1", QQ, V2), [parse_poly("x1", QQ, V2)],
                        (3, 3))
    res = spectrum_construct(spec, budget=10000, seed=0)
    assert not res.cofactors[1].is_zero()
    lhs = res.U
    assert lhs.try_divexact(parse_poly("x1", QQ, V2)) is not None
    H0 = res.U - parse_poly("1", QQ, V2)
    assert is_irreducible(H0)


def test_spectrum_validates_hypotheses():
    with pytest.raises(ValueError):
        SpectrumSpec(QQ, V2, [QQ.from_int(0)], QQ.from_int(0),
                     parse_poly("1", QQ, V2), [parse_poly("x1", QQ, V2)], (3, 3))
    with pytest.raises(NonCoprimeModuliError):
        SpectrumSpec(QQ, V2, [QQ.from_int(0), QQ.from_int(1)], QQ.from_int(2),
                     parse_poly("1", QQ, V2),
                     [parse_poly("x1", QQ, V2), parse_poly("x1^2", QQ, V2)], (5, 5))
    with pytest.raises(ValueError):
        # w shares a factor with V
        SpectrumSpec(QQ, V2, [QQ.from_int(0)], QQ.from_int(2),
                     parse_poly("x1", QQ, V2), [parse_poly("x1", QQ, V2)], (3, 3))
    with pytest.raises(ValueError):
        # degrees leave no room for the search component
        spectrum_construct(
            SpectrumSpec(QQ, V2, [QQ.from_int(0)], QQ.from_int(2),
                         parse_poly("1", QQ, V2), [parse_poly("x1", QQ, V2)],
                         (1, 1)), budget=10)


def test_spectrum_over_finite_field_with_extension_a0():
    # S = all of GF(2): a0 must live in an extension; GF(4) works
    F4 = GF(2, 2)
    t = F4.generator()
    spec = SpectrumSpec(F2, V2, [F2.zero, F2.one], t,
                        parse_poly("1", F2, V2),
                        [parse_poly("x1", F2, V2), parse_poly("x1+1", F2, V2)],
                        (3, 3), a0_field=F4)
    res = spectrum_construct(spec, budget=30000, seed=2)
    U = res.U
    for a, wi in zip([F2.zero, F2.one],
                     [parse_poly("x1", F2, V2), parse_poly("x1+1", F2, V2)]):
        lhs = U - parse_poly("1", F2, V2).scale(a)
        assert lhs.try_divexact(wi) is not None
    # U - t*V irreducible over GF(4)
    from schinzelpoly.constructions import _embed_poly, _embedding

    kp = _embedding(spec)
    H0 = _embed_poly(U, kp) - _embed_poly(parse_poly("1", F2, V2), kp).scale(t)
    assert is_irreducible(H0)


@pytest.mark.parametrize("f, g, vars", [("x1", "x1^2", V1), ("x1", "x2", V2)],
                         ids=["common-factor", "stuck"])
def test_bezout_pair_without_an_identity(f, g, vars):
    # x1 and x1^2 end at the nonunit x1; neither of x1 and x2 divides the other
    assert bezout_pair(parse_poly(f, QQ, vars), parse_poly(g, QQ, vars)) is None


def test_bezout_pair_stops_at_its_step_cap(monkeypatch):
    f, g = parse_poly("x1 + 1", QQ, V1), parse_poly("x1", QQ, V1)
    assert bezout_pair(f, g) is not None
    monkeypatch.setattr(constructions, "_BEZOUT_STEP_CAP", 0)
    assert bezout_pair(f, g) is None


def test_goldbach_decomposition_verify_needs_the_sum():
    d = goldbach_decompose(parse_poly("3*x1 + 5", ZZ, V1))
    assert d.verify()
    d.G = d.G + MultiPoly.one(ZZ, V1)
    assert not d.verify()


def test_goldbach_exhaustive_box_past_the_budget():
    # the 2 binomials fit a budget of 3; the full box of 4 does not
    with pytest.raises(BudgetExceededError, match="exhaustive box has 4 candidates, budget 3") as e:
        goldbach_decompose(parse_poly("x1^2 + x1", F2, V1), budget=3)
    assert e.value.tested == 2


def test_goldbach_congruence_search_past_a_reducible_m():
    # Q = x1*x2 + 2: Q1 = x1^2, and the first pair gives M = x1^2 - 1
    Q = parse_poly("x1*x2 + 2", ZZ, V2)
    d = goldbach_decompose(Q)
    assert d.case == "congruence-search" and d.tested >= 2
    assert d.verify()
    with pytest.raises(BudgetExceededError, match="within 1 candidates") as e:
        goldbach_decompose(Q, budget=1)
    assert e.value.tested == 1


@pytest.mark.parametrize("ring, S, a0, V, w, d", [
    # no S and a0 = 0: U0 = 0 makes U0 - a0 V zero, so U0 is nudged by W = 1
    (QQ, [], 0, "1", [], 2),
    # some M give an H_1 dividing w_1 = x1 + 2
    (F3, [0], 1, "1", ["x1 + 2"], 2),
    # some M give U - V of degree below max(deg U, deg V) = 2
    (F3, [0], 1, "x1^2 + 1", ["x1"], 2),
], ids=["zero-p0", "H_1-divides-w_1", "degree-drop"])
def test_spectrum_rejects_and_retries(ring, S, a0, V, w, d):
    V, w = parse_poly(V, ring, V1), [parse_poly(t, ring, V1) for t in w]
    S, a0 = [ring.from_int(a) for a in S], ring.from_int(a0)
    res = spectrum_construct(SpectrumSpec(ring, V1, S, a0, V, w, (d,)), budget=200, seed=0)
    U = res.U
    for a, wi, Hi in zip(S, w, res.H[1:]):
        assert U - V.scale(a) == wi * Hi and is_irreducible(Hi)
        assert wi.try_divexact(Hi) is None
    H0 = U - V.scale(a0)
    assert H0 == res.H[0] and is_irreducible(H0)
    assert H0.total_degree() == max(U.total_degree(), V.total_degree())
    assert U.degree_in("x1") == d
