"""Dense univariate gcd and Yun over Z and GF(p), the GCDHEU fallback, and
the multi-prime irreducibility screen in front of Hensel lifting, with the
Hensel start it hands over for degree 2 and 3.

The differential tests compare against sympy, which is a test-only
dependency; they are skipped when it is not installed.
"""

import math
import random
from fractions import Fraction

import pytest

from schinzelpoly import factor as factor_mod
from schinzelpoly import rings
from schinzelpoly.errors import BudgetExceededError
from schinzelpoly.factor import factor_multivariate
from schinzelpoly.multipoly import MultiPoly, VarSet, dense_in_var, poly_gcd
from schinzelpoly.rings import GF, QQ, ZZ, PrimeField, u_is_irreducible, zx_gcd

V1 = VarSet(("x",))
V2 = VarSet(("x1", "x"))  # the polynomials below involve only x, the second


def zx_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly(ring, vars, dense):
    i = vars.index("x")
    zero = [0] * len(vars)
    terms = {}
    for k, c in enumerate(dense):
        e = list(zero)
        e[i] = k
        terms[tuple(e)] = c
    return MultiPoly.from_terms(ring, vars, terms)


def dense_of(f):
    i = f.vars.index("x")
    out = [0] * (max((e[i] for e in f.terms), default=-1) + 1)
    for e, v in f.terms.items():
        assert all(x == 0 for j, x in enumerate(e) if j != i)
        out[e[i]] = v
    return out


def rand_zx(rng, deg, bound=9):
    """A random dense Z[x] polynomial of exactly this degree."""
    c = [rng.randint(-bound, bound) for _ in range(deg)]
    return c + [rng.choice([v for v in range(-bound, bound + 1) if v])]


def rand_fp(rng, p, deg):
    return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]


def positive(c):
    return c if not c or c[-1] > 0 else [-v for v in c]


def zx_cases(seed, count):
    """(f, g) over Z: optional planted common factor, non-unit contents and
    negative leading coefficients."""
    rng = random.Random(seed)
    for _ in range(count):
        a = rand_zx(rng, rng.randint(0, 5))
        b = rand_zx(rng, rng.randint(0, 5))
        if rng.random() < 0.7:
            common = rand_zx(rng, rng.randint(1, 3))
            a, b = zx_mul(a, common), zx_mul(b, common)
        ka = rng.choice([1, -1, 2, -6, 12])
        kb = rng.choice([1, -1, 3, -4, 18])
        yield [ka * v for v in a], [kb * v for v in b]


def sympy_dense(p_sym, modulus=None):
    coeffs = [int(c) for c in reversed(p_sym.all_coeffs())]
    if modulus is not None:
        coeffs = [c % modulus for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


@pytest.mark.parametrize("vars", [V1, V2], ids=["x", "x1,x"])
def test_poly_gcd_over_z_matches_sympy(vars):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for f, g in zx_cases(seed=11, count=150):
        want = sympy.Poly(list(reversed(f)), x, domain="ZZ").gcd(
            sympy.Poly(list(reversed(g)), x, domain="ZZ"))
        got = poly_gcd(poly(ZZ, vars, f), poly(ZZ, vars, g))
        assert dense_of(got) == positive(sympy_dense(want)), (f, g)


@pytest.mark.parametrize("p", [2, 3, 7, 10007])
def test_poly_gcd_over_gfp_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    K = GF(p)
    rng = random.Random(p)
    for _ in range(80):
        a, b = rand_fp(rng, p, rng.randint(0, 6)), rand_fp(rng, p, rng.randint(0, 6))
        if rng.random() < 0.7:
            common = rand_fp(rng, p, rng.randint(1, 3))
            a = rings.u_mul(a, common, K)
            b = rings.u_mul(b, common, K)
        want = sympy.Poly(list(reversed(a)), x, modulus=p).gcd(
            sympy.Poly(list(reversed(b)), x, modulus=p))
        for vars in (V1, V2):
            got = poly_gcd(poly(K, vars, a), poly(K, vars, b))
            assert dense_of(got) == sympy_dense(want, modulus=p), (p, a, b)


def test_poly_gcd_dense_path_agrees_with_prs_when_variables_differ():
    # f involves only x, g involves x1 and x: the multivariate PRS decides
    f = poly(ZZ, V2, [-2, 0, 2])                       # 2*(x - 1)*(x + 1)
    x1 = MultiPoly.variable(ZZ, V2, "x1")
    g = poly(ZZ, V2, [-4, 4]) * (x1 + MultiPoly.one(ZZ, V2))
    assert dense_of(poly_gcd(f, g)) == [-2, 2]


def sqf_groups(pairs):
    """{multiplicity: dense product of the parts} for dense (part, mult) pairs."""
    out = {}
    for part, m in pairs:
        out[m] = zx_mul(out.get(m, [1]), part)
    return out


def test_dense_yun_over_z_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(5)
    for _ in range(120):
        f = [1]
        for m in (1, 2, 3):
            if rng.random() < 0.7:
                part = rand_zx(rng, rng.randint(1, 2), bound=4)
                for _ in range(m):
                    f = zx_mul(f, part)
        if len(f) < 2:
            continue
        f = positive(rings.zx_primitive(f)[1])
        got = sqf_groups(factor_mod._yun_squarefree(f))
        _, want_pairs = sympy.Poly(list(reversed(f)), x, domain="ZZ").sqf_list()
        want = sqf_groups((positive(sympy_dense(q)), m) for q, m in want_pairs)
        assert got == want, f


def test_factor_content_and_sign_match_sympy_sqf_list():
    # negative lc and non-unit content go around Yun: unit and constant factors
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(8)
    for _ in range(60):
        base = rand_zx(rng, rng.randint(1, 2), bound=4)
        rep = rand_zx(rng, rng.randint(1, 2), bound=4)
        k = rng.choice([-12, -2, -1, 3, 10])
        f = [k * v for v in zx_mul(base, zx_mul(rep, rep))]
        fac = factor_multivariate(poly(ZZ, V1, f))
        const = fac.unit.value
        groups = {}
        for g, m in fac.factors:
            if g.is_constant():
                const *= g.constant_value() ** m
            else:
                groups[m] = zx_mul(groups.get(m, [1]), dense_of(g))
        coeff, want_pairs = sympy.Poly(list(reversed(f)), x, domain="ZZ").sqf_list()
        want = sqf_groups((sympy_dense(q), m) for q, m in want_pairs)
        # sympy may put the sign on a factor instead of the coefficient
        sign = 1
        for m, part in want.items():
            if part[-1] < 0:
                want[m] = [-v for v in part]
                sign *= (-1) ** m
        assert const == int(coeff) * sign, f
        assert groups == want, f


@pytest.mark.parametrize("p", [2, 3, 5])
def test_dense_yun_over_gfp_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    K = GF(p)
    rng = random.Random(100 + p)
    for _ in range(60):
        f = [1]
        for m in (1, 2, 3, p, p + 1):
            if rng.random() < 0.6:
                part = rand_fp(rng, p, rng.randint(1, 2))
                for _ in range(m):
                    f = rings.u_mul(f, part, K)
        f = rings.u_monic(f, K)[1]
        if len(f) < 2:
            continue
        got = {}
        for part, m in factor_mod._ff_sff(f, K):
            got[m] = rings.u_mul(got.get(m, [1]), part, K)
        _, want_pairs = sympy.Poly(list(reversed(f)), x, modulus=p).sqf_list()
        want = {}
        for q, m in want_pairs:
            want[m] = rings.u_mul(want.get(m, [1]), sympy_dense(q, modulus=p), K)
        want = {m: rings.u_monic(v, K)[1] for m, v in want.items()}
        assert got == want, (p, f)


def test_gcdheu_fallback_gives_the_same_gcd(monkeypatch):
    cases = list(zx_cases(seed=23, count=200))
    expected = [zx_gcd(f, g) for f, g in cases]
    calls = []
    prs = rings._zx_prs_gcd
    monkeypatch.setattr(rings, "GCDHEU_TRIES", 0)
    monkeypatch.setattr(rings, "_zx_prs_gcd", lambda a, b: calls.append(1) or prs(a, b))
    assert [zx_gcd(f, g) for f, g in cases] == expected
    assert calls  # the PRS really decided


def test_zx_gcd_edges():
    assert zx_gcd([], []) == []
    assert zx_gcd([], [2, -4]) == [-2, 4]
    assert zx_gcd([6, 0, -6], []) == [-6, 0, 6]
    assert zx_gcd([4], [6, 2]) == [2]
    assert zx_gcd([-2, 0, 2], [2, -2]) == [-2, 2]
    assert zx_gcd([1, 1], [1, 2]) == [1]


# ---------------------------------------------------------------------------
# The irreducibility screen.
# ---------------------------------------------------------------------------

def swinnerton_dyer(primes):
    """Dense coefficients of prod (x +- sqrt(p1) +- ... +- sqrt(pk)): each
    step writes f(x + sqrt p) = E(x) + sqrt(p) O(x) and sets f = E^2 - p O^2."""
    f = [0, 1]
    for p in primes:
        even, odd = [0] * len(f), [0] * len(f)
        for k, c in enumerate(f):
            for j in range(k + 1):
                term = c * math.comb(k, j) * p ** (j // 2)
                (odd if j % 2 else even)[k - j] += term
        sq_odd = zx_mul(odd, odd)
        f = [e - p * (sq_odd[i] if i < len(sq_odd) else 0)
             for i, e in enumerate(zx_mul(even, even))]
        while f and f[-1] == 0:
            f.pop()
    return f


SCREEN_BEATERS = {
    "x^4+1": [1, 0, 0, 0, 1],
    "x^4-10x^2+1": [1, 0, -10, 0, 1],
    "swinnerton-dyer-16": swinnerton_dyer([2, 3, 5, 7]),
}


@pytest.mark.parametrize("name", sorted(SCREEN_BEATERS))
def test_screen_cannot_decide_and_hensel_still_factors_exactly(name):
    f = SCREEN_BEATERS[name]
    # reducible modulo every screened prime, so the screen proves nothing
    primes = [p for p in (3, 5, 7, 11, 13, 17) if f[-1] % p]
    assert not any(u_is_irreducible([c % p for c in f], PrimeField(p)) for p in primes)
    assert factor_mod._zx_factor_squarefree(f) == [f]
    other = [-3, 1]                                  # x - 3
    fac = factor_multivariate(poly(ZZ, V1, zx_mul(f, zx_mul(other, other))))
    assert [(dense_of(g), m) for g, m in fac.factors] == [(other, 2), (f, 1)]
    assert fac.unit.value == 1


def test_swinnerton_dyer_32_is_certified_irreducible():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    f = swinnerton_dyer([2, 3, 5, 7, 11])
    assert len(f) == 33
    fac = factor_multivariate(poly(ZZ, V1, f))
    assert [(dense_of(g), m) for g, m in fac.factors] == [(f, 1)]
    assert fac.unit.value == 1
    coeff, want = sympy.factor_list(sympy.Poly(list(reversed(f)), x))
    assert coeff == 1 and [(sympy_dense(q), m) for q, m in want] == [(f, 1)]


def recombination_subsets(r):
    """Subsets a recombination enumerates for an irreducible input with r
    items: sizes 1..r/2, and at size r/2 only those holding item 0."""
    return sum(math.comb(r - 1, s - 1) if 2 * s == r else math.comb(r, s)
               for s in range(1, r // 2 + 1))


@pytest.mark.parametrize("primes", [[2, 3, 5, 7], [2, 3, 5, 7, 11]], ids=["sd16", "sd32"])
def test_swinnerton_dyer_counts_every_subset_against_the_cap(monkeypatch, primes):
    f = swinnerton_dyer(primes)
    modular = []
    split = factor_mod._ff_factor_monic_squarefree
    monkeypatch.setattr(factor_mod, "_ff_factor_monic_squarefree",
                        lambda *args: modular.append(split(*args)) or modular[-1])
    assert factor_mod._zx_factor_squarefree(f) == [f]
    # factors of degree <= 2 modulo every prime, and nearly every subset is
    # pruned: pruned subsets count too, so one below the count refuses
    assert len(modular) == 1 and all(len(it) <= 3 for it in modular[0])
    total = recombination_subsets(len(modular[0]))
    if len(primes) == 5:
        assert total == 2 ** 15 - 1       # 16 quadratics: sizes 1..7, half of C(16, 8)
    monkeypatch.setattr(factor_mod, "RECOMBINATION_SUBSET_CAP", total)
    assert factor_mod._zx_factor_squarefree(f) == [f]
    monkeypatch.setattr(factor_mod, "RECOMBINATION_SUBSET_CAP", total - 1)
    with pytest.raises(BudgetExceededError, match="integer recombination exceeded") as hit:
        factor_mod._zx_factor_squarefree(f)
    assert hit.value.tested == total


def test_screen_decides_quadratic_whose_first_good_prime_splits(monkeypatch):
    f = [-7, 0, 1]  # x^2 - 7 = (x - 1)(x + 1) mod 3, irreducible mod 5
    assert not u_is_irreducible([c % 3 for c in f], PrimeField(3))

    def no_lift(*args):
        raise AssertionError("the screen should have decided")

    monkeypatch.setattr(factor_mod, "_hensel_lift", no_lift)
    monkeypatch.setattr(factor_mod, "_ff_factor_monic_squarefree", no_lift)
    assert factor_mod._zx_factor_squarefree(f) == [f]


def test_hensel_prime_stays_the_first_good_prime(monkeypatch):
    f = zx_mul([-7, 0, 1], [1, 0, 1])  # squarefree mod 3, which divides no lc
    seen = []
    lift = factor_mod._hensel_lift
    monkeypatch.setattr(factor_mod, "_hensel_lift",
                        lambda p, *rest: seen.append(p) or lift(p, *rest))
    assert sorted(factor_mod._zx_factor_squarefree(f)) == [[-7, 0, 1], [1, 0, 1]]
    assert set(seen) == {3}


def test_primes_dividing_the_leading_coefficient_do_not_screen():
    # (3x + 1)(x + 1) is x + 1 mod 3, irreducible there only because the degree fell
    f = zx_mul([1, 3], [1, 1])
    assert sorted(factor_mod._zx_factor_squarefree(f)) == [[1, 1], [1, 3]]


# ---------------------------------------------------------------------------
# _zx_is_irreducible: the decision on the dense image, screen before Yun.
# ---------------------------------------------------------------------------

def zx_decision_cases(seed, count):
    """Primitive dense Z[x] inputs of degree 1-8: products of up to three
    random parts, some repeated, either sign of the leading coefficient."""
    rng = random.Random(seed)
    fixed = [[1, 0, 2, 0, 1],                     # (x^2 + 1)^2
             [-1, 0, -2, 0, -1],                  # -(x^2 + 1)^2
             [1, 0, 1],                           # x^2 + 1
             [-3, 0, -1],                         # -x^2 - 3
             zx_mul([1, 1], [1, 1]),              # (x + 1)^2
             zx_mul([-2, 0, 1], zx_mul([1, 1], [1, 1])),
             swinnerton_dyer([2, 3, 5, 7])]
    out = list(fixed)
    while len(out) < count:
        f = [1]
        for _ in range(rng.randint(1, 3)):
            part = rand_zx(rng, rng.randint(1, 3), bound=5)
            for _ in range(rng.choice([1, 1, 2])):
                f = zx_mul(f, part)
        f = rings.zx_primitive(f)[1]
        if 2 <= len(f) <= 9:
            out.append(f)
    return out


def single_irreducible(fac):
    return len(fac.factors) == 1 and fac.factors[0][1] == 1


def test_zx_is_irreducible_matches_factoring_and_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    seen = set()
    for f in zx_decision_cases(seed=29, count=160):
        got = factor_mod._zx_is_irreducible(f)
        assert got == single_irreducible(factor_multivariate(poly(ZZ, V1, f))), f
        coeff, pairs = sympy.factor_list(sympy.Poly(list(reversed(f)), x, domain="ZZ"))
        assert got == (len(pairs) == 1 and pairs[0][1] == 1), f
        seen.add((got, f[-1] > 0, len(zx_gcd(f, rings.zx_deriv(f))) > 1))
    # irreducible and reducible, both signs, and squarefree or not among the reducible
    assert {(True, True), (True, False), (False, True), (False, False)} <= {s[:2] for s in seen}
    assert (False, True, True) in seen and (False, True, False) in seen


def test_zx_is_irreducible_over_q_through_the_dense_image():
    rng = random.Random(31)
    for f in zx_decision_cases(seed=37, count=80):
        den = rng.choice([1, 2, 3, 6, 35])
        scale = Fraction(rng.choice([1, -1, 3, -5]), rng.choice([1, 2, 7]))
        F = poly(QQ, V2, [Fraction(c, den) * scale for c in f])
        image = factor_mod._integer_image(dense_in_var(F, "x"))
        assert image in (f, [-c for c in f])
        assert factor_mod._zx_is_irreducible(image) == single_irreducible(factor_multivariate(F)), f


def test_non_squarefree_input_is_decided_before_any_hensel_prime_search(monkeypatch):
    f = [1, 0, 2, 0, 1]  # (x^2 + 1)^2: a square modulo every prime, so the screen fails
    screened = []
    test = factor_mod.u_is_irreducible

    def no_search(*args):
        raise AssertionError("a non-squarefree input reached the Hensel-prime search")

    monkeypatch.setattr(factor_mod, "u_is_irreducible",
                        lambda g, K: screened.append(K.p) or test(g, K))
    monkeypatch.setattr(factor_mod, "_zx_hensel_factors", no_search)
    assert factor_mod._zx_is_irreducible(f) is False
    assert factor_mod._zx_is_irreducible([-c for c in f]) is False
    assert screened == [3, 5, 7, 11, 13, 17] * 2


def test_screened_input_skips_the_squarefree_test(monkeypatch):
    def no_gcd(*args):
        raise AssertionError("the screen should have decided before the squarefree test")

    monkeypatch.setattr(factor_mod, "zx_gcd", no_gcd)
    monkeypatch.setattr(factor_mod, "_zx_hensel_factors", no_gcd)
    assert factor_mod._zx_is_irreducible([-7, 0, 1]) is True     # irreducible mod 5
    assert factor_mod._zx_is_irreducible([3, 0, -1]) is True     # -x^2 + 3


# ---------------------------------------------------------------------------
# The screen's Hensel start: degree 2 and 3 lift from the roots it found.
# ---------------------------------------------------------------------------

def first_squarefree_prime(f):
    """The Hensel prime and its sorted monic factors, found as the search
    without a start finds them: the first odd prime not dividing lc modulo
    which f is squarefree, factored by _ff_factor_monic_squarefree."""
    for p in range(3, 1000, 2):
        if not rings.is_prime(p) or f[-1] % p == 0:
            continue
        K = PrimeField(p)
        fbar = [c % p for c in f]
        if rings.u_deg(rings.u_gcd(fbar, rings.u_deriv(fbar, K), K)) == 0:
            monic = rings.u_monic(fbar, K)[1]
            return p, sorted(factor_mod._ff_factor_monic_squarefree(monic, K, random.Random(0)))


def watch_the_lift(monkeypatch):
    """Record (p, modular factors) of every lift call, the first one the
    lift of the whole input; fail on any modular factoring or Z[x] gcd."""
    lifts = []
    newton, tree = factor_mod._newton_lift_roots, factor_mod._hensel_lift

    def by_roots(p, f, roots, l):
        lifts.append((p, [[-a % p, 1] for a in roots]))
        return newton(p, f, roots, l)

    def by_tree(p, f, f_list, l):
        lifts.append((p, [list(g) for g in f_list]))
        return tree(p, f, f_list, l)

    def refuse(*args):
        raise AssertionError("the screen's Hensel start was not used")

    monkeypatch.setattr(factor_mod, "_newton_lift_roots", by_roots)
    monkeypatch.setattr(factor_mod, "_hensel_lift", by_tree)
    monkeypatch.setattr(factor_mod, "_ff_factor_monic_squarefree", refuse)
    monkeypatch.setattr(factor_mod, "zx_gcd", refuse)
    return lifts


HANDED_OVER = {
    # name: (f, its irreducible factors, the Hensel prime)
    "lc-15-quadratic": (zx_mul([1, 3], [2, 5]), [[1, 3], [2, 5]], 7),
    "lc-15-cubic": (zx_mul(zx_mul([1, 3], [-1, 5]), [2, 1]), [[-1, 5], [1, 3], [2, 1]], 7),
    "double-root-mod-3": (zx_mul([-1, 1], [-4, 1]), [[-4, 1], [-1, 1]], 5),
    "triple-root-mod-3": (zx_mul(zx_mul([-1, 1], [-4, 1]), [-7, 1]),
                          [[-7, 1], [-4, 1], [-1, 1]], 5),
    "linear-times-quadratic-mod-3": ([0, 1, 0, 1], [[0, 1], [1, 0, 1]], 3),
    "irreducible-with-roots-mod-3-to-17": ([-1114, 0, 1], [[-1114, 0, 1]], 3),
}


@pytest.mark.parametrize("name", sorted(HANDED_OVER))
def test_screen_hands_its_factorization_to_hensel(monkeypatch, name):
    f, want, p = HANDED_OVER[name]
    start = first_squarefree_prime(f)
    assert start[0] == p
    assert factor_mod._zx_screen(f) == start
    lifts = watch_the_lift(monkeypatch)
    assert sorted(factor_mod._zx_factor_squarefree(f)) == want
    assert lifts[0] == start
    # split ones lift by Newton in one call, a quadratic factor mod p by
    # the tree, which calls itself on the halves
    assert (len(lifts) > 1) == any(len(g) > 2 for g in start[1])
    for g in (f, [-c for c in f]):
        del lifts[:]
        assert factor_mod._zx_is_irreducible(g) == (len(want) == 1)
        assert lifts[0] == start


def test_negative_leading_coefficient_lifts_from_the_screen(monkeypatch):
    f = zx_mul([1, -2], [-3, 1])  # (1 - 2x)(x - 3): lc -2
    start = first_squarefree_prime([-c for c in f])
    lifts = watch_the_lift(monkeypatch)
    assert factor_mod._zx_is_irreducible(f) is False
    assert lifts == [start] and start[0] == 3


@pytest.mark.parametrize("f", [zx_mul(zx_mul([1, 1], [1, 1]), [3, 1]),   # (x + 1)^2 (x + 3)
                               zx_mul(zx_mul([1, 2], [1, 2]), [1, 2])],  # (2x + 1)^3
                         ids=["(x+1)^2(x+3)", "(2x+1)^3"])
def test_nonsquarefree_cubic_still_reaches_the_gcd(monkeypatch, f):
    # a repeated root modulo every prime: no start, so the Z[x] gcd decides
    assert factor_mod._zx_screen(f) is None
    gcds = []
    gcd = factor_mod.zx_gcd
    monkeypatch.setattr(factor_mod, "zx_gcd", lambda a, b: gcds.append(a) or gcd(a, b))
    monkeypatch.setattr(factor_mod, "_zx_hensel_factors", lambda *args: pytest.fail("lifted"))
    assert factor_mod._zx_is_irreducible(f) is False
    assert gcds == [f]


def test_screen_start_equals_the_search_on_random_quadratics_and_cubics():
    rng = random.Random(43)
    seen = set()
    # x(x - 3*5*7*11*13*17) has a double root modulo every screened prime,
    # so its Hensel prime, 19, is searched for
    fixed = [zx_mul([0, 1], [-255255, 1])]
    assert first_squarefree_prime(fixed[0])[0] == 19
    for i in range(400):
        f = fixed[i] if i < len(fixed) else \
            [rng.randint(-30, 30) for _ in range(rng.choice([2, 3]))] + \
            [rng.choice([1, 2, 3, 5, 15, 105, 3 * 5 * 7 * 11 * 13 * 17 * 19])]
        f = rings.zx_primitive(f)[1]
        start = factor_mod._zx_screen(f)
        if start is True:
            continue
        if len(zx_gcd(f, rings.zx_deriv(f))) > 1:
            assert start is None
            continue
        seen.add(start is None)
        if start is not None:
            assert start == first_squarefree_prime(f), f
        prod = [1]
        for g in factor_mod._zx_factor_squarefree(f):
            prod = zx_mul(prod, g)
        assert prod == f
    assert seen == {False, True}
