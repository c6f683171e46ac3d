"""Subset recombination: the trailing-coefficient test of the integer
(Zassenhaus) loop, the leading/trailing-exponent digit test of the
Kronecker loop, and the one subset-count cap both loops share.

A pruning test may only skip subsets that cannot be factors, so the
factorizations are checked against sympy `factor_list` over Z and Q (a
test-only dependency, skipped when it is not installed), and over GF(2)
and GF(3), where sympy has no multivariate factoring, against the same
recombination with the digit test switched off and against brute-force
irreducibility.
"""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from schinzelpoly import factor as factor_mod
from schinzelpoly import format_poly
from schinzelpoly.cli import EXIT_BUDGET, main
from schinzelpoly.errors import BudgetExceededError
from schinzelpoly.factor import brute_force_irreducible, factor_multivariate, kronecker_fold
from schinzelpoly.multipoly import MultiPoly, VarSet
from schinzelpoly.rings import GF, QQ, ZZ
from schinzelpoly.textform import parse_poly
from test_dense_gcd import single_irreducible, swinnerton_dyer

V1 = VarSet(("x",))
V2 = VarSet(("x1", "x2"))
V3 = VarSet(("x1", "x2", "x3"))

# irreducible over GF(2) with no constant term: its lex-trailing monomial
# x1*x2 folds to x^4 (D = 3), so the trailing digits prune the subsets that
# hold exactly two of its four factors x; its fold splits into 12 factors
GF2_TRIVARIATE = ("x1^2*x2^2*x3^2 + x1^2*x2^2*x3 + x1^2*x2*x3^2 + x1*x2^2*x3^2"
                  " + x1^2*x2*x3 + x1*x2*x3^2 + x1^2*x3 + x1*x2*x3 + x1*x2 + x1*x3"
                  " + x2*x3 + x3")


def random_part(rng, ring, vars, degs, coeffs):
    """A random nonconstant polynomial with a constant term: monomial
    factors enter only through random_products."""
    while True:
        terms = {e: rng.choice(coeffs)
                 for e in itertools.product(*[range(d + 1) for d in degs])
                 if rng.random() < 0.6}
        terms[(0,) * len(vars)] = rng.choice(coeffs)
        f = MultiPoly.from_terms(ring, vars, terms)
        if not f.is_constant():
            return f


def product(parts):
    acc = parts[0]
    for p in parts[1:]:
        acc = acc * p
    return acc


def random_products(rng, ring, vars, count, max_deg, coeffs):
    """Products of 2-3 random parts, some repeated and some times a monomial."""
    for _ in range(count):
        parts = []
        for _ in range(rng.randint(2, 3)):
            degs = [rng.randint(0, max_deg) for _ in vars.names]
            degs[rng.randrange(len(degs))] = max_deg
            parts.append(random_part(rng, ring, vars, degs, coeffs))
        if rng.random() < 0.3:
            parts.append(parts[0])
        if rng.random() < 0.3:
            names = rng.sample(vars.names, rng.randint(1, len(vars.names)))
            parts.append(product([MultiPoly.variable(ring, vars, n) for n in names]))
        yield product(parts)


def nonconstant_factors(fac):
    return [(g, m) for g, m in fac.factors if not g.is_constant()]


# ---------------------------------------------------------------------------
# Over Z: differential against sympy.
# ---------------------------------------------------------------------------

def sympy_factors(sympy, f):
    """Nonconstant irreducible factors of f by sympy, as {canonical terms: mult}."""
    gens = sympy.symbols(f.vars.names)
    expr = sum(c * math.prod(g ** k for g, k in zip(gens, e)) for e, c in f.terms.items())
    _, pairs = sympy.factor_list(expr, *gens)
    return Counter({canonical(sympy, q, gens): m for q, m in pairs
                    if sympy.Poly(q, *gens).total_degree() > 0})


def canonical(sympy, q, gens):
    p = sympy.Poly(q, *gens)
    if p.LC() < 0:
        p = -p
    return tuple(sorted((e, int(c)) for e, c in p.terms()))


def our_factors(sympy, f):
    fac = factor_multivariate(f)
    assert fac.recompose_over(f.vars) == f
    gens = sympy.symbols(f.vars.names)
    out = Counter()
    for g, m in nonconstant_factors(fac):
        expr = sum(c * math.prod(s ** k for s, k in zip(gens, e)) for e, c in g.terms.items())
        out[canonical(sympy, expr, gens)] += m
    return out


def zx(coeffs):
    return MultiPoly.from_terms(ZZ, V1, {(i,): c for i, c in enumerate(coeffs) if c})


def test_univariate_non_monic_products_match_sympy():
    # non-monic factors need lc(g) in the trailing-coefficient test; x * ...
    # has g(0) == 0, where the test is skipped until x is split off
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    for _ in range(60):
        parts = []
        for _ in range(rng.randint(2, 4)):
            deg = rng.randint(1, 4)
            parts.append([rng.randint(-7, 7) for _ in range(deg)]
                         + [rng.choice([2, 3, -2, 5, 6, 1])])
        if rng.random() < 0.3:
            parts.append([0, 1])
        if rng.random() < 0.2:
            parts.append(parts[0])
        f = product([zx(p) for p in parts])
        assert our_factors(sympy, f) == sympy_factors(sympy, f), f


@pytest.mark.parametrize("coeffs", [
    [[1, 0, -2], [3, 1], [-5, 0, 1]],            # 2x^2 - 1 splits mod many primes
    [[5, 0, 0, 3], [-7, 0, 2], [1, 0, 0, 0, 6]],
    [[1, 0], [3, 0, 2], [-1, 0, 0, 4]],          # x * ..., g(0) == 0 at first
], ids=["quadratics", "sparse", "with-x"])
def test_non_monic_factors_survive_the_trailing_test(coeffs):
    sympy = pytest.importorskip("sympy")
    f = product([zx(list(reversed(c))) for c in coeffs])
    got = our_factors(sympy, f)
    assert got == sympy_factors(sympy, f)
    assert sum(got.values()) == len(coeffs)


@pytest.mark.parametrize("vars", [V2, V3], ids=["bivariate", "trivariate"])
def test_multivariate_z_products_match_sympy(vars):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(len(vars))
    max_deg = 2 if len(vars) == 2 else 1
    for f in random_products(rng, ZZ, vars, 25, max_deg, [1, -1, 2, -3, 5]):
        assert our_factors(sympy, f) == sympy_factors(sympy, f), f


def monic_factors(sympy, pairs, gens):
    """Nonconstant factors as {the monic sympy Poly's terms: mult} over Q."""
    out = Counter()
    for q, m in pairs:
        p = sympy.Poly(q, *gens, domain="QQ")
        if p.total_degree() > 0:
            out[tuple(sorted((e, str(c)) for e, c in p.monic().terms()))] += m
    return out


@pytest.mark.parametrize("vars", [V2, V3], ids=["bivariate", "trivariate"])
def test_multivariate_q_products_match_sympy(vars):
    # sympy factors multivariate polynomials over Q but not over GF(p)
    sympy = pytest.importorskip("sympy")
    rng = random.Random(10 + len(vars))
    gens = sympy.symbols(vars.names)
    max_deg = 2 if len(vars) == 2 else 1
    coeffs = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]

    def expr(g):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * math.prod(s ** k for s, k in zip(gens, e)) for e, c in g.terms.items())

    for f in random_products(rng, QQ, vars, 15, max_deg, coeffs):
        fac = factor_multivariate(f)
        assert fac.recompose_over(f.vars) == f
        got = monic_factors(sympy, [(expr(g), m) for g, m in fac.factors], gens)
        want = monic_factors(sympy, sympy.factor_list(expr(f), *gens, domain="QQ")[1], gens)
        assert got == want, f


def test_monomial_times_factor_matches_sympy():
    sympy = pytest.importorskip("sympy")
    g = parse_poly("2*x1^2*x2 + 3*x2^2 - x1 + 7", ZZ, V2)
    for text in ("x1*x2", "x1^2*x2", "x2^3"):
        f = parse_poly(text, ZZ, V2) * g * g
        assert our_factors(sympy, f) == sympy_factors(sympy, f), text


# ---------------------------------------------------------------------------
# Over Z and Q the image is lifted only as far as the factors need.
# ---------------------------------------------------------------------------

G2, H2 = "2*x1^2*x2 - x2 + 3", "x1*x2^2 - 5*x1 + 1"
G3, H3 = "x1*x2 + x3^2 - 2", "3*x1^2*x3 - x2 + x1 + 1"
# products of the parts text^m
Z_ROUTE_CASES = {
    "square-bivariate": (V2, [(G2, 2), (H2, 1)]),            # the image is no squarefree
    "negative-lc": (V2, [("-1", 1), (G2, 1), (H2, 1)]),
    "monomial-content": (V2, [("6*x1^2*x2", 1), (G2, 1), (H2, 1)]),
    "item-x": (V2, [("x1 + x2", 1), ("x1 - x2 + 2", 1), (G2, 1)]),  # x divides the image
    "cube": (V2, [("-1", 1), (G2, 3)]),
    "square-trivariate": (V3, [(G3, 2), (H3, 1)]),
    "negative-trivariate": (V3, [("-1", 1), (G3, 1), (H3, 1), ("x1 + x2*x3 - 1", 1)]),
    "monomial-trivariate": (V3, [("x1*x3^2", 1), (G3, 2), (H3, 1)]),
    "linear-square": (V3, [("x1 + x2 + x3", 2), ("x1*x2*x3 + 2", 1)]),
}


def route_case(name, ring):
    """The product of a case over ring; over Q its parts get rational
    coefficients."""
    vars, parts = Z_ROUTE_CASES[name]
    acc = MultiPoly.constant(ring, vars, ring.one)
    for text, m in parts:
        if ring == QQ:
            text = text.replace("2*x1^2", "2/3*x1^2").replace("x3^2 - 2", "x3^2 - 1/2")
        acc = acc * parse_poly(text, ring, vars) ** m
    return acc


def sympy_monic_factors(sympy, f):
    """Nonconstant factors over Q by sympy, as {monic terms: mult}."""
    gens = sympy.symbols(f.vars.names)
    expr = sum(sympy.Rational(c.numerator, c.denominator)
               * math.prod(g ** k for g, k in zip(gens, e)) for e, c in f.terms.items())
    return monic_factors(sympy, sympy.factor_list(expr, *gens, domain="QQ")[1], gens)


@pytest.mark.parametrize("name", sorted(Z_ROUTE_CASES))
def test_lifted_kronecker_route_matches_sympy_over_z(name):
    sympy = pytest.importorskip("sympy")
    f = route_case(name, ZZ)
    assert our_factors(sympy, f) == sympy_factors(sympy, f)
    assert "kronecker-fold" in factor_multivariate(f).method


@pytest.mark.parametrize("name", sorted(Z_ROUTE_CASES))
def test_lifted_kronecker_route_matches_sympy_over_q(name):
    sympy = pytest.importorskip("sympy")
    f = route_case(name, QQ)
    vars = f.vars
    fac = factor_multivariate(f)
    assert fac.recompose_over(vars) == f
    gens = sympy.symbols(vars.names)
    ours = [(sum(sympy.Rational(c.numerator, c.denominator)
                 * math.prod(s ** k for s, k in zip(gens, e)) for e, c in g.terms.items()), m)
            for g, m in fac.factors]
    assert monic_factors(sympy, ours, gens) == sympy_monic_factors(sympy, f)


def test_kronecker_over_z_lifts_to_the_bound_of_the_factors(monkeypatch):
    # p^l just above 2 * |lc(image)| * B with B = prod C(d_i, d_i // 2) * ceil(|f|_2),
    # while the image's univariate bound carries 2^deg(image)
    f = parse_poly(G3, ZZ, V3) * parse_poly(H3, ZZ, V3) * parse_poly(
        "x1^2*x3 - x2^2 + 3*x3 + x1", ZZ, V3)
    seen = []
    lift = factor_mod._hensel_lift
    monkeypatch.setattr(factor_mod, "_hensel_lift",
                        lambda p, g, modular, l: seen.append((p, l)) or lift(p, g, modular, l))
    assert sum(our_factors(pytest.importorskip("sympy"), f).values()) == 3
    degs = f.degree_vector()
    image = kronecker_fold(f, 1 + max(degs))
    lc = abs(image.leading_term()[1])
    norm = math.isqrt(sum(c * c for c in f.terms.values()) - 1) + 1
    bound = 2 * lc * math.prod(math.comb(d, d // 2) for d in degs) * norm
    (p, l), = set(seen)
    assert p ** (l - 1) <= bound < p ** l
    assert p ** l < 2 ** image.total_degree()


# ---------------------------------------------------------------------------
# Over GF(2) and GF(3): pruned equals unpruned, and every factor irreducible.
# ---------------------------------------------------------------------------

def small_box(g, q, limit=1 << 12):
    return q ** math.prod(d + 1 for d in g.degree_vector()) <= limit


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("vars", [V2, V3], ids=["bivariate", "trivariate"])
def test_finite_field_products_equal_unpruned_recombination(monkeypatch, p, vars):
    K = GF(p)
    rng = random.Random(10 * p + len(vars))
    max_deg = 2 if len(vars) == 2 else 1
    cases = list(random_products(rng, K, vars, 20, max_deg, list(range(1, p))))
    pruned = [factor_multivariate(f) for f in cases]
    checked = 0
    for f, fac in zip(cases, pruned):
        assert fac.recompose_over(vars) == f
        for g, _ in nonconstant_factors(fac):
            if small_box(g, p):
                assert brute_force_irreducible(g), (f, g)
                checked += 1
    assert checked >= 20
    monkeypatch.setattr(factor_mod, "_digits_fit", lambda part, whole, D: True)
    assert [factor_multivariate(f) for f in cases] == pruned


def test_monomial_content_is_split_off_before_the_fold():
    # content x2^4 would fold to x^28 next to (x+2)^6 and two more factors,
    # 36 image factors and over 2^20 subsets; the cofactor's image has 3
    K = GF(3)
    f = parse_poly("2*x1^4*x2^5 + 2*x1^4*x2^4 + 2*x1^3*x2^5 + 2*x1^2*x2^6 + 2*x1^2*x2^5"
                   " + 2*x1*x2^5 + 2*x2^6 + x2^4", K, V2)
    fac = factor_multivariate(f)
    assert fac.recompose_over(V2) == f
    factors = nonconstant_factors(fac)
    assert (MultiPoly.variable(K, V2, "x2"), 4) in factors
    assert len(factors) == 3
    for g, _ in factors:
        assert brute_force_irreducible(g), g


def test_repeated_image_factors_are_enumerated_once_per_multiset():
    # the image (D = 16) has 51 factors, 7 of them distinct: 2^51 subsets
    # when equal factors were told apart, at most 774,592 sub-multisets now
    K = GF(3)
    a = parse_poly("x1^2 + x2 + 1", K, V2)
    b = parse_poly("x1 + x2^2 + 1", K, V2)
    f = a ** 6 * b ** 3
    image = factor_multivariate(kronecker_fold(f, 16)).factors
    assert (sum(m for _, m in image), len(image)) == (51, 7)
    start = time.perf_counter()
    fac = factor_multivariate(f)
    assert time.perf_counter() - start < 1.0
    assert Counter({format_poly(g): m for g, m in fac.factors}) == Counter(
        {format_poly(a): 6, format_poly(b): 3})
    assert fac.recompose_over(V2) == f


def lex_key(e):
    return tuple(reversed(e))  # the fold puts the last variable in the top digit


def digits(n, D, k):
    return [n // D ** i % D for i in range(k)]


@pytest.mark.parametrize("text", [
    GF2_TRIVARIATE,
    "x1^2*x2^2*x3^2 + x1^2*x2*x3^2 + x1^2*x2^2 + x1^2*x2*x3 + x1*x2*x3^2"
    " + x2^2*x3^2 + x2*x3^2 + x1*x3 + x2^2 + x2*x3 + x3^2",
])
def test_kronecker_unfolds_only_subsets_whose_digits_fit(monkeypatch, text):
    # irreducible, so every subset is tried; each one unfolded must have the
    # base-D digits of its degree and of its lowest exponent within those of
    # the input's lex-leading and lex-trailing monomials, in every digit
    f = parse_poly(text, GF(2), V3)
    D = 1 + max(f.degree_vector())
    high = kronecker_fold(MultiPoly.monomial(f.ring, V3, max(f.terms, key=lex_key)), D)
    low = kronecker_fold(MultiPoly.monomial(f.ring, V3, min(f.terms, key=lex_key)), D)
    high, low = digits(high.total_degree(), D, 3), digits(low.total_degree(), D, 3)
    # the hook is the per-subset step that reads the partial degrees of the
    # unfolded dense product, the first step after the digit test
    seen = []
    split = factor_mod._kronecker_split
    monkeypatch.setattr(factor_mod, "_kronecker_split",
                        lambda prod, *rest: seen.append(prod) or split(prod, *rest))
    assert single_irreducible(factor_multivariate(f))
    assert seen
    for g in seen:
        e = [E for E, v in enumerate(g) if v]
        assert all(a <= b for a, b in zip(digits(e[-1], D, 3), high)), g
        assert all(a <= b for a, b in zip(digits(e[0], D, 3), low)), g
    folded = factor_multivariate(kronecker_fold(f, D))
    assert len(seen) < multiset_subsets([m for _, m in folded.factors])


# ---------------------------------------------------------------------------
# One cap: every enumerated subset counts, pruned or not.
# ---------------------------------------------------------------------------

def multiset_subsets(counts):
    """Sub-multisets the Kronecker loop enumerates for an irreducible input
    whose image has counts[t] copies of factor t: sizes 1..r/2, each
    multiset once, and at size r/2 only those holding factor 0."""
    def by_size(cs):
        # coefficients of prod (1 + z + ... + z^m)
        out = [1]
        for m in cs:
            out = [sum(out[s - j] for j in range(m + 1) if 0 <= s - j < len(out))
                   for s in range(len(out) + m)]
        return out
    r = sum(counts)
    every, without = by_size(counts), by_size(counts[1:])
    return sum(every[s] - (without[s] if s < len(without) else 0) if 2 * s == r else every[s]
               for s in range(1, r // 2 + 1))


@pytest.mark.parametrize("counts", [[1, 1, 1, 1], [3], [2, 1], [1, 2, 2], [4, 6, 1, 1], [2, 3, 1, 2]])
def test_multisubsets_list_each_sub_multiset_once_in_order(counts):
    # reference: the combinations of the expanded item list, equal ones
    # dropped, which keeps itertools' lexicographic order
    items = [t for t, m in enumerate(counts) for _ in range(m)]
    r = len(items)
    for size in range(1, r // 2 + 1):
        want = list(dict.fromkeys(itertools.combinations(items, size)))
        if 2 * size == r:
            want = [c for c in want if c[0] == 0]
        assert list(factor_mod._multisubsets(counts, size)) == want
    assert sum(len(list(factor_mod._multisubsets(counts, s)))
               for s in range(1, r // 2 + 1)) == multiset_subsets(counts)


@pytest.mark.parametrize("n", range(1, 11))
def test_subset_heads_list_the_subsets_in_order_with_their_products(n):
    rng = random.Random(n)
    m = (1 << 61) - 1
    values = [rng.randrange(m) for _ in range(n)]
    for size in range(1, n // 2 + 1):
        got = [(tuple(head) + (j,), a * values[j] % m)
               for head, lasts, a in factor_mod._subset_heads(values, size, 7, m) for j in lasts]
        assert [c for c, _ in got] == list(factor_mod._subsets(n, size))
        assert all(v == 7 * math.prod(values[i] for i in c) % m for c, v in got)


def test_kronecker_counts_every_subset_against_the_cap(monkeypatch):
    # the image is x^4 * (x + 1)^6 times two distinct factors: 12 items,
    # and 2047 subsets when equal items were told apart
    f = parse_poly(GF2_TRIVARIATE, GF(2), V3)
    D = 1 + max(f.degree_vector())
    counts = [m for _, m in factor_multivariate(kronecker_fold(f, D)).factors]
    total = multiset_subsets(counts)
    assert (counts, total) == ([4, 6, 1, 1], 75)
    monkeypatch.setattr(factor_mod, "RECOMBINATION_SUBSET_CAP", total)
    assert single_irreducible(factor_multivariate(f))
    monkeypatch.setattr(factor_mod, "RECOMBINATION_SUBSET_CAP", total - 1)
    with pytest.raises(BudgetExceededError, match="Kronecker recombination exceeded") as hit:
        factor_multivariate(f)
    assert hit.value.tested == total


@pytest.mark.parametrize("f", [
    zx(swinnerton_dyer([2, 3, 5, 7])),
    parse_poly(GF2_TRIVARIATE, GF(2), V3),
], ids=["integer", "kronecker"])
def test_cap_hit_is_reported_with_exit_3(monkeypatch, capsys, f):
    monkeypatch.setattr(factor_mod, "RECOMBINATION_SUBSET_CAP", 5)
    with pytest.raises(BudgetExceededError) as hit:
        factor_multivariate(f)
    assert hit.value.tested == 6
    assert main(["factor", format_poly(f), "--ring", str(f.ring)]) == EXIT_BUDGET
    assert "recombination exceeded 5 subsets" in capsys.readouterr().err
