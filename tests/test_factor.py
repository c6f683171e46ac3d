"""Factorization, Kronecker substitution, irreducibility, Capelli checks."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from schinzelpoly import factor as factor_mod
from schinzelpoly.cli import main
from schinzelpoly.errors import BudgetExceededError, ZeroInputError
from schinzelpoly.factor import (
    Factorization,
    _factor_dense,
    brute_force_factor,
    brute_force_irreducible,
    capelli_check,
    factor_multivariate,
    factor_poly_ring_value,
    factor_univariate_finite_field,
    factor_univariate_integers,
    gf2_is_irreducible,
    is_irreducible,
    kronecker_fold,
)
from schinzelpoly.multipoly import DEGREE_CAP, MultiPoly, VarSet, dense_decode, dense_encode, dense_in_var
from schinzelpoly.rings import GF, QQ, ZZ, PolyRing, u_trim
from schinzelpoly.textform import parse_poly

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
F5 = GF(5)
R2u = PolyRing(F2)

V1 = VarSet(("x",))
V2 = VarSet(("x1", "x2"))


def fstrs(fac):
    return [(str(g), m) for g, m in fac.factors]


# ---------------------------------------------------------------------------
# Kronecker substitution
# ---------------------------------------------------------------------------

def test_kronecker_fold_examples():
    f = parse_poly("x1 + x2", QQ, V2)
    assert str(kronecker_fold(f, 3)) == "x^3 + x"
    g = parse_poly("x1^2*x2 + 1", QQ, V2)
    assert str(kronecker_fold(g, 3)) == "x^5 + 1"


def unfold(g, D, vars):
    """The unfold the Kronecker route uses, on the dense image of g."""
    c, den = dense_encode(g.ring, g.terms, [1])
    return dense_decode(g.ring, vars, c, [D] * (len(vars) - 1), den)


def test_kronecker_unfold_examples():
    g = parse_poly("x^3 + x", QQ, V1)
    assert unfold(g, 3, V2) == parse_poly("x1 + x2", QQ, V2)
    h = parse_poly("x^5 + 1", QQ, V1)
    assert unfold(h, 3, V2) == parse_poly("x1^2*x2 + 1", QQ, V2)
    z = MultiPoly.zero(QQ, V1)
    assert unfold(z, 3, V2).is_zero()


def test_kronecker_roundtrip_random():
    rng = random.Random(0)
    D = 4
    for _ in range(200):
        terms = {}
        for e in itertools.product(range(D), repeat=2):
            c = rng.randrange(-2, 3)
            if c:
                terms[e] = c
        f = MultiPoly.from_terms(ZZ, V2, terms)
        assert unfold(kronecker_fold(f, D), D, V2) == f


def test_kronecker_multiplicative():
    rng = random.Random(1)
    for _ in range(60):
        def rnd():
            terms = {}
            for e in itertools.product(range(2), repeat=2):
                c = rng.randrange(-2, 3)
                if c:
                    terms[e] = c
            return MultiPoly.from_terms(ZZ, V2, terms)

        f, g = rnd(), rnd()
        prod = f * g
        D = 1 + max(prod.degree_vector() or (0,))
        D = max(D, 2)
        assert kronecker_fold(prod, D) == kronecker_fold(f, D) * kronecker_fold(g, D)


def test_kronecker_fold_of_a_sparse_input_past_the_cap():
    # D^4 slots would pass DEGREE_CAP; the fold maps the two terms alone
    V4 = VarSet(("x1", "x2", "x3", "x4"))
    f = MultiPoly(F3, V4, {(40, 40, 40, 40): 1, (1, 0, 0, 0): 2})
    D = 41
    top = 40 * (1 + D + D ** 2 + D ** 3)
    assert top > DEGREE_CAP
    assert kronecker_fold(f, D) == MultiPoly(F3, V1, {(top,): 1, (1,): 2})


def test_factorization_built_without_a_method():
    fac = factor_multivariate(parse_poly("x^2 + x", F2, V1))
    bare = Factorization(fac.unit, fac.factors)
    assert bare == fac and bare.method == ""


def test_kronecker_bound_errors():
    f = parse_poly("x1^3", QQ, V2)
    with pytest.raises(ValueError):
        kronecker_fold(f, 3)


# ---------------------------------------------------------------------------
# Univariate over finite fields
# ---------------------------------------------------------------------------

def test_ff_irreducible_quadratic():
    assert is_irreducible(parse_poly("x^2+x+1", F2, V1))


def test_ff_swan_polynomial():
    f = parse_poly("x^8 + x^3", F2, V1)
    fac = factor_univariate_finite_field(f)
    assert fstrs(fac) == [("x", 3), ("x + 1", 1), ("x^4 + x^3 + x^2 + x + 1", 1)]
    assert fac.recompose_over(V1) == f


def test_ff_square():
    fac = factor_univariate_finite_field(parse_poly("x^2", F3, V1))
    assert fstrs(fac) == [("x", 2)]


def test_ff_pth_power_descent():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 over GF(2): derivative vanishes
    f = parse_poly("x^4 + x^2 + 1", F2, V1)
    fac = factor_univariate_finite_field(f)
    assert fstrs(fac) == [("x^2 + x + 1", 2)]


def test_ff_f4_splits_frobenius_orbit():
    f = parse_poly("x^4 + x", F4, V1)
    fac = factor_univariate_finite_field(f)
    assert len(fac.factors) == 4
    assert all(m == 1 for _, m in fac.factors)
    assert fac.recompose_over(V1) == f


def test_gf2_bit_kernel_agrees():
    # bit-packed test vs generic dense test on every poly of degree <= 8
    from schinzelpoly.rings import u_is_irreducible

    for bits in range(2, 1 << 9):
        dense = [(bits >> i) & 1 for i in range(bits.bit_length())]
        assert gf2_is_irreducible(bits) == u_is_irreducible(dense, F2)


def test_ff_random_recomposition():
    rng = random.Random(2)
    for K in (F2, F3, F5, F4):
        box = K.element_box()
        for _ in range(40):
            coeffs = [box[rng.randrange(len(box))] for _ in range(rng.randrange(2, 7))]
            terms = {(i,): c for i, c in enumerate(coeffs) if not K.is_zero(c)}
            f = MultiPoly(K, V1, terms)
            if f.is_zero() or f.is_constant():
                continue
            fac = factor_univariate_finite_field(f)
            assert fac.recompose_over(V1) == f
            for g, _ in fac.factors:
                assert is_irreducible(g)


def _field_poly(K, vars, build):
    """build(x_1, ..., x_n, c) with the variables of vars over K and c
    turning an integer into a constant."""
    xs = [MultiPoly.variable(K, vars, name) for name in vars.names]
    return build(*xs, lambda k: MultiPoly.constant(K, vars, K.from_int(k)))


V3 = VarSet(("x1", "x2", "x3"))


# x^(q^k) - x is the product of the monic irreducibles of degree dividing
# k, each once; Artin-Schreier x^p - x - a (a != 0) is irreducible over GF(p);
# a cube over GF(9) with the generator t (index 3) among its coefficients
# makes the p-th root descent invert Frobenius off GF(3): x^2 + t*x + 1
# splits over GF(9), so its cube has two linear factors of multiplicity 3
@pytest.mark.parametrize("K, vars, build, shape", [
    (F3, V1, lambda x, c: x ** 9 - x, {(1, 1): 3, (2, 1): 3}),
    (F3, V1, lambda x, c: x ** 27 - x, {(1, 1): 3, (3, 1): 8}),
    (F2, V1, lambda x, c: x ** 64 - x, {(1, 1): 2, (2, 1): 1, (3, 1): 2, (6, 1): 9}),
    (GF(7), V1, lambda x, c: x ** 7 - x - c(1), {(7, 1): 1}),
    (F5, V1, lambda x, c: x ** 5 - x - c(2), {(5, 1): 1}),
    (GF(3, 2), V2, lambda x1, x2, c: (x1 + x2) ** 9, {(1, 9): 1}),
    (F2, V3, lambda x1, x2, x3, c: (x1 ** 2 + x2 * x3 + c(1)) ** 4, {(2, 4): 1}),
    (GF(3, 2), V1, lambda x, c: (x ** 2 + x.scale(3) + c(1)) ** 3,
     {(1, 3): 2}),
], ids=["x^9-x/GF(3)", "x^27-x/GF(3)", "x^64-x/GF(2)", "artin-schreier/GF(7)",
        "artin-schreier/GF(5)", "(x1+x2)^9/GF(9)", "(x1^2+x2*x3+1)^4/GF(2)",
        "(x^2+t*x+1)^3/GF(9)"])
def test_adversarial_finite_field_families(K, vars, build, shape):
    f = _field_poly(K, vars, build)
    fac = factor_multivariate(f)
    assert Counter((g.total_degree(), m) for g, m in fac.factors) == shape
    assert fac.recompose_over(vars) == f


# ---------------------------------------------------------------------------
# Univariate over Z and Q
# ---------------------------------------------------------------------------

def test_z_difference_of_squares():
    fac = factor_univariate_integers(parse_poly("x^2 - 1", ZZ, V1))
    assert fstrs(fac) == [("x - 1", 1), ("x + 1", 1)]


def test_z_irreducible_quadratic():
    assert is_irreducible(parse_poly("x^2 + 1", ZZ, V1))
    assert is_irreducible(parse_poly("x^2 + x + 3", ZZ, V1))


def test_z_content_split():
    fac = factor_univariate_integers(parse_poly("2*x + 4", ZZ, V1))
    assert fstrs(fac) == [("2", 1), ("x + 2", 1)]
    assert str(fac.unit) == "1"


def test_z_multiplicities():
    f = parse_poly("x^4 + 2*x^3 + x^2", ZZ, V1)  # x^2 (x+1)^2
    fac = factor_univariate_integers(f)
    assert fstrs(fac) == [("x", 2), ("x + 1", 2)]


def test_z_needs_recombination():
    # (x^2+x+1)(x^2+1) stays irreducible mod small primes in pieces
    f = parse_poly("x^4 + x^3 + 2*x^2 + x + 1", ZZ, V1)
    fac = factor_univariate_integers(f)
    assert fstrs(fac) == [("x^2 + 1", 1), ("x^2 + x + 1", 1)]


def test_q_monic_normalization():
    f = parse_poly("2*x^2 - 2", QQ, V1)
    fac = factor_univariate_integers(f)
    assert str(fac.unit) == "2"
    assert fstrs(fac) == [("x - 1", 1), ("x + 1", 1)]


def test_z_random_products_vs_construction():
    rng = random.Random(3)
    for _ in range(40):
        parts = []
        for _ in range(rng.randrange(1, 4)):
            deg = rng.randrange(1, 4)
            coeffs = [rng.randrange(-5, 6) for _ in range(deg)] + [rng.choice([1, 1, 2, -1])]
            g = MultiPoly.from_terms(ZZ, V1, {(i,): c for i, c in enumerate(coeffs) if c})
            if g.total_degree() >= 1:
                parts.append(g)
        if not parts:
            continue
        f = parts[0]
        for g in parts[1:]:
            f = f * g
        fac = factor_univariate_integers(f)
        assert fac.recompose_over(V1) == f
        for g, _ in fac.factors:
            if not g.is_constant():
                assert is_irreducible(g), (str(f), str(g))


# ---------------------------------------------------------------------------
# Multivariate
# ---------------------------------------------------------------------------

def test_multivariate_q():
    f = parse_poly("x1^2 - x2^2", QQ, V2)
    fac = factor_multivariate(f)
    assert fstrs(fac) == [("x1 - x2", 1), ("x1 + x2", 1)]


def test_multivariate_consistency_with_univariate():
    f = parse_poly("x^8 + x^3", F2, V1)
    assert fstrs(factor_multivariate(f)) == fstrs(factor_univariate_finite_field(f))


def test_sum_of_squares_by_characteristic():
    assert is_irreducible(parse_poly("x1^2 + x2^2", QQ, V2), method="kronecker")
    fac = factor_multivariate(parse_poly("x1^2 + x2^2", F2, V2))
    assert fstrs(fac) == [("x1 + x2", 2)]


def test_multivariate_z_content_and_factors():
    f = parse_poly("2*x1^2*x2 - 2*x2", ZZ, V2)
    fac = factor_multivariate(f)
    assert fstrs(fac) == [("2", 1), ("x2", 1), ("x1 - 1", 1), ("x1 + 1", 1)]
    assert fac.recompose_over(V2) == f


def test_multivariate_three_vars():
    V3 = VarSet(("x1", "x2", "x3"))
    f = parse_poly("x1*x2 + x1*x3 + x2^2 + x2*x3", QQ, V3)  # (x1+x2)(x2+x3)
    fac = factor_multivariate(f)
    assert sorted(fstrs(fac)) == [("x1 + x2", 1), ("x2 + x3", 1)]
    assert fac.recompose_over(V3) == f


def test_polyring_coefficients():
    Vx1 = VarSet(("x1",))
    f = parse_poly("(u^2+u)*x1^2 + (u)*x1 + u^2+u", R2u, Vx1)
    fac = factor_multivariate(f)
    assert fac.recompose_over(Vx1) == f
    # content u splits off, the rest is irreducible over GF(2)[u]
    assert fstrs(fac)[0] == ("(u)", 1)
    for g, _ in fac.factors:
        if not g.is_constant():
            assert is_irreducible(g)


def ku_units(base):
    box = base.element_box() if base.is_finite else [base.from_int(n) for n in (-3, -2, -1, 1, 2, 3)]
    return [v for v in box if not base.is_zero(v)]


def random_ku_value(base, rng, deg, lc_choices):
    """A k[u] value of u-degree deg whose leading coefficient is drawn from lc_choices."""
    elems = [base.zero] + ku_units(base)
    return tuple(u_trim([rng.choice(elems) for _ in range(deg)] + [rng.choice(lc_choices)], base))


def random_ku_poly(ring, rng, vars, dx):
    """A polynomial of x-degree dx over k[u] whose x-leading coefficient has
    u-degree <= 1 and a u-leading coefficient other than 1.  The other
    coefficients reach u-degree 3, so the graded-lex leading term of the
    lifted form in k[x, u] is often not the x-leading one."""
    base = ring.base
    others = [v for v in ku_units(base) if v != base.one]
    terms = {(dx,): random_ku_value(base, rng, rng.randint(0, 1), others)}
    for i in range(dx):
        value = random_ku_value(base, rng, rng.randint(0, 3), [base.zero] + ku_units(base))
        if value:
            terms[(i,)] = value
    return MultiPoly.from_terms(ring, vars, terms)


@pytest.mark.parametrize("base", [F3, F4, QQ], ids=str)
def test_ku_factoring_with_nontrivial_units(base):
    # every unit is 1 over GF(2)[u]; here the factors' u-leading coefficients
    # are not, so the canonical forms must come out of the lifted route
    ring = PolyRing(base)
    Vx = VarSet(("x",))
    rng = random.Random(9)
    for _ in range(12):
        f = MultiPoly.constant(ring, Vx, random_ku_value(base, rng, rng.randint(0, 2), ku_units(base)))
        for _ in range(rng.randint(2, 3)):
            f = f * random_ku_poly(ring, rng, Vx, rng.randint(1, 2))
        fac = factor_multivariate(f)
        assert fac.recompose_over(Vx) == f, f
        for g, _ in fac.factors:
            assert g.monic_normalize()[0] == ring.one, g


def test_factor_seed_changes_no_envelope(capsys, monkeypatch):
    # x^6 + x^4 + x^2 + 1 = (x^2 + 1)(x^2 + x + 2)(x^2 + 2x + 2) over GF(3):
    # the distinct-degree split leaves one degree-2 block that only random
    # equal-degree splitting separates, and the result is the same for any seed
    splits = []
    edf = factor_mod._ff_edf
    monkeypatch.setattr(factor_mod, "_ff_edf",
                        lambda g, d, K, rng: splits.append(d) or edf(g, d, K, rng))
    argv = ["factor", "x^6 + x^4 + x^2 + 1", "--ring", "GF(3)"]
    outputs = []
    for seed in ("0", "987654321"):
        assert main(argv + ["--seed", seed]) == 0
        outputs.append(capsys.readouterr())
    assert 2 in splits
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0].out)["result"]["factors"] == [
        {"multiplicity": 1, "poly": g} for g in ("x^2 + 1", "x^2 + x + 2", "x^2 + 2*x + 2")]


@pytest.mark.parametrize("base", [F3, F5, QQ], ids=str)
def test_factor_poly_ring_value_matches_sympy(base):
    sympy = pytest.importorskip("sympy")
    ring = PolyRing(base)
    u = sympy.Symbol("u")
    rng = random.Random(13)
    for _ in range(30):
        a = random_ku_value(base, rng, 0, ku_units(base))
        for _ in range(rng.randint(1, 4)):
            a = ring.mul(a, ring.pow(random_ku_value(base, rng, rng.randint(1, 3), ku_units(base)),
                                     rng.randint(1, 2)))
        unit, pairs = factor_poly_ring_value(ring, a)
        assert unit == (a[-1],)
        expr = sum(sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * u ** i
                   for i, c in enumerate(a))
        if base.is_finite:
            _, got = sympy.factor_list(expr, u, modulus=base.p)
            want = Counter({tuple(int(c) % base.p for c in
                                  reversed(sympy.Poly(q, u, modulus=base.p).monic().all_coeffs())): m
                            for q, m in got})
        else:
            _, got = sympy.factor_list(expr, u)
            want = Counter({tuple(Fraction(int(c.p), int(c.q)) for c in
                                  reversed(sympy.Poly(q, u, domain="QQ").monic().all_coeffs())): m
                            for q, m in got})
        assert Counter(dict(pairs)) == want, a


def test_factor_dense_drops_unit_and_content():
    # Z: primitive factors with lc > 0, by degree, then terms from the top
    assert _factor_dense([-6, 0, -6], ZZ) == [([1, 0, 1], 1)]
    assert _factor_dense([2, -3, -2], ZZ) == [([2, 1], 1), ([-1, 2], 1)]
    # Q: the monic factors of the primitive integer image
    assert _factor_dense([Fraction(1), Fraction(-3, 2), Fraction(-1)], QQ) == \
        [([Fraction(-1, 2), Fraction(1)], 1), ([Fraction(2), Fraction(1)], 1)]
    assert _factor_dense([2, 0, 2], F3) == [([1, 0, 1], 1)]
    assert _factor_dense([5], ZZ) == _factor_dense([2], F3) == []


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=str)
def test_kronecker_image_with_negative_leading_coefficient(ring):
    sympy = pytest.importorskip("sympy")
    f = parse_poly("x1^3 - x2^2", ring, V2) * parse_poly("x1 + x2 + 1", ring, V2)
    assert dense_in_var(kronecker_fold(f, 1 + max(f.degree_vector())), "x")[-1] < 0
    fac = factor_multivariate(f)
    assert fac.recompose_over(V2) == f and fac.unit.value == 1
    x1, x2 = sympy.symbols("x1 x2")
    _, want = sympy.factor_list((x1 ** 3 - x2 ** 2) * (x1 + x2 + 1), x1, x2)
    assert sorted((str(g).replace("^", "**"), m) for g, m in fac.factors) == \
        sorted((str(q), m) for q, m in want)


def test_factor_zero_raises():
    with pytest.raises(ZeroInputError):
        factor_multivariate(MultiPoly.zero(ZZ, V1))


# ---------------------------------------------------------------------------
# is_irreducible certificates
# ---------------------------------------------------------------------------

def test_irreducible_linear_primitive():
    assert is_irreducible(parse_poly("x1 + 2", ZZ, VarSet(("x1",))))


def test_reducible_by_content():
    cert = is_irreducible(parse_poly("2*x1 + 4", ZZ, VarSet(("x1",))), need_witness=True)
    assert not cert
    assert cert.reason == "content"
    assert str(cert.witness) == "2"


def test_unit_constant_reported():
    cert = is_irreducible(parse_poly("5", ZZ, V1))
    assert not cert and cert.reason == "unit/constant"
    with pytest.raises(ZeroInputError):
        is_irreducible(MultiPoly.zero(ZZ, V1))


@pytest.mark.parametrize("f", [
    MultiPoly.constant(ZZ, V1, 3),
    MultiPoly.zero(ZZ, V1),
    parse_poly("2*x + 4", ZZ, V1),
    parse_poly("x^2 + 1", ZZ, V1),
], ids=["constant", "zero", "content", "nonconstant"])
def test_unknown_method_is_refused_before_any_shortcut(f):
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        is_irreducible(f, method="bogus")


def test_irreducible_over_z_implies_unit_content():
    rng = random.Random(4)
    for _ in range(60):
        terms = {(i,): rng.randrange(-4, 5) for i in range(4)}
        f = MultiPoly.from_terms(ZZ, V1, {e: c for e, c in terms.items() if c})
        if f.is_zero() or f.is_constant():
            continue
        if is_irreducible(f):
            assert ZZ.is_unit(f.content_value())


def test_witness_factor_divides():
    f = parse_poly("x^4 + x^3 + x + 1", ZZ, V1)  # (x+1)^2 (x^2-x+1)
    cert = is_irreducible(f, need_witness=True)
    assert not cert
    assert f.try_divexact(cert.witness) is not None


# ---------------------------------------------------------------------------
# Brute force oracle
# ---------------------------------------------------------------------------

def test_brute_force_examples():
    assert brute_force_irreducible(parse_poly("x1*x2 + 1", F2, V2))
    assert not brute_force_irreducible(parse_poly("x1*x2 + x1", F2, V2))


def test_brute_force_budget():
    f = parse_poly("x1^2*x2^2 + x1 + 1", F5, V2)
    with pytest.raises(BudgetExceededError):
        brute_force_irreducible(f, budget=100)


def test_oracle_equivalence_f3_sample():
    rng = random.Random(5)
    monos = sorted(itertools.product(range(3), repeat=2))
    for _ in range(120):
        terms = {}
        for e in monos:
            c = rng.randrange(3)
            if c:
                terms[e] = c
        f = MultiPoly(F3, V2, terms)
        if f.is_zero():
            continue
        assert bool(is_irreducible(f, method="kronecker")) == brute_force_irreducible(f)


def test_factor_count_matches_brute_force():
    rng = random.Random(6)
    for _ in range(40):
        terms = {}
        for e in itertools.product(range(3), repeat=2):
            if rng.random() < 0.4:
                terms[e] = 1
        f = MultiPoly(F2, V2, terms)
        if f.is_zero() or f.is_constant():
            continue
        a = sorted((str(g), m) for g, m in factor_multivariate(f).factors)
        b = sorted((str(g), m) for g, m in brute_force_factor(f).factors)
        assert a == b, str(f)


# ---------------------------------------------------------------------------
# Capelli condition
# ---------------------------------------------------------------------------

def test_capelli_examples():
    Vx = VarSet(("x1",))
    a = parse_poly("x1", QQ, Vx)
    one = parse_poly("1", QQ, Vx)
    assert capelli_check(a, one, 2)          # x1 is not a square
    neg = parse_poly("-x1^2", QQ, Vx)
    assert not capelli_check(neg, one, 2)    # -a/b = x1^2 is a square
    assert capelli_check(a, one, 1)          # rho = 1: nothing to check


def test_capelli_matches_direct_irreducibility():
    # For small cases, b*y^rho + a irreducible over Q(x) iff the test passes.
    Vx = VarSet(("x1",))
    Vxy = VarSet(("x1", "y"))
    cases = [
        ("x1", "1", 2), ("x1", "1", 3), ("x1^2", "1", 2), ("-x1^2", "1", 2),
        ("x1^3", "1", 3), ("x1 + 1", "x1", 2), ("4*x1^2", "1", 2),
        ("x1^2 + 1", "1", 2),
    ]
    for at, bt, rho in cases:
        a = parse_poly(at, QQ, Vx)
        b = parse_poly(bt, QQ, Vx)
        P = parse_poly(bt, QQ, Vxy) * parse_poly("y", QQ, Vxy) ** rho + \
            parse_poly(at, QQ, Vxy)
        got = capelli_check(a, b, rho)
        # direct check over Q[x1, y]; a, b coprime makes P primitive in y
        want = bool(is_irreducible(P))
        assert got == want, (at, bt, rho)


def test_capelli_minus4_fourth_power_clause():
    # y^4 - 4 x1^4 = (y^2 - 2x1^2)(y^2 + 2x1^2): the -4 K^4 clause catches it
    Vx = VarSet(("x1",))
    a = parse_poly("-4*x1^4", QQ, Vx)
    one = parse_poly("1", QQ, Vx)
    assert not capelli_check(a, one, 4)


@pytest.mark.parametrize("ring, at, bt, irreducible", [
    # odd characteristic, 4 | rho: -1 is no square in GF(3), but a/(4b) is
    # a fourth power, so y^4 + 1 = (y^2 + y + 2)(y^2 + 2y + 2)
    (F3, "1", "1", False),
    (F3, "x1^4", "1", False),
    (F3, "x1", "1", True),
    (F5, "2", "1", True),
    # a k[u] denominator with factors: -a/b = u^2/(u + 1)^2 is a square,
    # -u/(u + 1) is not
    (PolyRing(F3), "-u^2", "(u + 1)^2", False),
    (PolyRing(F3), "u", "u + 1", True),
    (PolyRing(F3), "2*u*x1^4", "u^2 + 1", True),
], ids=["GF(3)-1", "GF(3)-x1^4", "GF(3)-x1", "GF(5)-2", "GF(3)[u]-square",
        "GF(3)[u]-nonsquare", "GF(3)[u]-x1^4"])
def test_capelli_fourth_power_clause_and_ku_denominators(ring, at, bt, irreducible):
    Vx, Vxy = VarSet(("x1",)), VarSet(("x1", "y"))
    rho = 4 if ring.is_finite else 2
    a, b = parse_poly(at, ring, Vx), parse_poly(bt, ring, Vx)
    P = parse_poly(bt, ring, Vxy) * parse_poly("y", ring, Vxy) ** rho + parse_poly(at, ring, Vxy)
    assert capelli_check(a, b, rho) == bool(is_irreducible(P)) == irreducible


def test_capelli_requires_coprime():
    Vx = VarSet(("x1",))
    with pytest.raises(ValueError):
        capelli_check(parse_poly("x1", QQ, Vx), parse_poly("x1", QQ, Vx), 2)


def test_capelli_over_gf5_constants():
    # y^2 + 2 over GF(5): -2 = 3 is not a square mod 5 -> irreducible
    # y^2 + 1: -1 = 4 = 2^2 is a square -> reducible
    Vx = VarSet(("x1",))
    two = parse_poly("2", F5, Vx)
    one = parse_poly("1", F5, Vx)
    assert capelli_check(two, one, 2)
    assert not capelli_check(one, one, 2)
    Vxy = VarSet(("x1", "y"))
    f = parse_poly("y^2 + 1", F5, Vxy)
    assert not is_irreducible(f.substitute("x1", MultiPoly.zero(F5, VarSet(("y",)))))


def test_capelli_over_rational_function_field():
    # y^2 + u over GF(2)(u): u is no square (odd exponent), so irreducible
    Vx = VarSet(("x1",))
    a = parse_poly("u", R2u, Vx)
    one = parse_poly("1", R2u, Vx)
    assert capelli_check(a, one, 2)
    # y^2 + u^2 = (y + u)^2 in characteristic 2: u^2 is a square -> False
    a2 = parse_poly("u^2", R2u, Vx)
    assert not capelli_check(a2, one, 2)


# ---------------------------------------------------------------------------
# Factorization container invariants
# ---------------------------------------------------------------------------

def test_factors_sorted_and_merged():
    f = parse_poly("x^2 - 2*x + 1", ZZ, V1)  # (x-1)^2
    fac = factor_univariate_integers(f)
    assert fstrs(fac) == [("x - 1", 2)]
    degs = [g.total_degree() for g, _ in factor_multivariate(
        parse_poly("x^8 + x^3", F2, V1)).factors]
    assert degs == sorted(degs)


def test_hensel_prime_past_the_screen_primes():
    # x^4 + M*x + 4*M with M = 3*5*7*11*13*17 is x^4 modulo every screen
    # prime, so the screen proves nothing; the Hensel prime is 19, where f
    # stays irreducible, so there is nothing to lift
    M = 3 * 5 * 7 * 11 * 13 * 17
    f = parse_poly(f"x^4 + {M}*x + {4 * M}", ZZ, V1)
    fac = factor_multivariate(f)
    assert fac.factors == [(f, 1)] and fac.method == "univariate zassenhaus"
    assert is_irreducible(f)


def test_factorization_build_merges_repeated_factors():
    g, h = parse_poly("x + 1", F3, V1), parse_poly("x^2 + 1", F3, V1)
    fac = Factorization.build(F3, 2, [(h, 1), (g, 1), (h, 2)], "test")
    assert fac.factors == [(g, 1), (h, 3)]
    assert fac.recompose_over(V1) == (g * h ** 3).scale(2)
