"""The GF(p) and Z/mZ integer kernels, the byte-slot GF(p) kernels against
the list loops, Hensel lifting, the distinct-degree split, the GF(p) root
scan, the discriminant and Stickelberger's parity and the decisions and
splits built on them, dense substitution and the
Specializer against sparse Horner, heap-ordered exact division, GF(p^k) table
arithmetic and dense Kronecker recombination, each checked against a plain
reference or an independent oracle."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from schinzelpoly import factor as factor_mod
from schinzelpoly import rings
from schinzelpoly.errors import BudgetExceededError
from schinzelpoly.factor import brute_force_factor, brute_force_irreducible, factor_multivariate
from schinzelpoly.multipoly import (DEGREE_CAP, MultiPoly, Specializer, VarSet, dense_in_var,
                                   format_poly, grlex_key, substitute_y)
from schinzelpoly.rings import (GF, QQ, ZZ, ExtField, PolyRing, u_add, u_deriv, u_divmod,
                                u_mul, u_sub, zm_add, zm_divmod, zm_mul, zm_sub)
from schinzelpoly.textform import parse_poly

PRIMES = [2, 3, 5, 10007]


def ref_mul(a, b, p):
    """Schoolbook product mod p, reduced coefficient by coefficient."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def ref_add(a, b, p, sign=1):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) + sign * (b[i] if i < len(b) else 0)) % p
           for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def rand_dense(rng, p, deg):
    """A dense GF(p) polynomial of exactly this degree ([] for deg -1)."""
    if deg < 0:
        return []
    return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]


@pytest.mark.parametrize("p", PRIMES)
def test_u_mul_matches_schoolbook(p):
    rng = random.Random(p)
    K = GF(p)
    for da in range(-1, 61, 3):
        for db in (-1, 0, 1, 2, 5, 17, 33, 60):
            a, b = rand_dense(rng, p, da), rand_dense(rng, p, db)
            assert u_mul(a, b, K) == ref_mul(a, b, p)
    # all-maximal coefficients fill every packed slot to its bound
    top = [p - 1] * 61
    assert u_mul(top, top, K) == ref_mul(top, top, p)


@pytest.mark.parametrize("p", PRIMES)
def test_u_divmod_identity(p):
    rng = random.Random(100 + p)
    K = GF(p)
    for da in range(-1, 61, 2):
        for db in (0, 1, 2, 7, 30, 60):
            a, b = rand_dense(rng, p, da), rand_dense(rng, p, db)
            q, r = u_divmod(a, b, K)
            assert len(r) < len(b)
            assert all(0 <= c < p for c in q + r)
            assert (not q or q[-1]) and (not r or r[-1])
            assert ref_add(ref_mul(q, b, p), r, p) == a


def test_u_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        u_divmod([1, 1], [], GF(3))


@pytest.mark.parametrize("p", PRIMES)
def test_u_add_sub_deriv(p):
    rng = random.Random(200 + p)
    K = GF(p)
    for _ in range(50):
        a = rand_dense(rng, p, rng.randrange(-1, 12))
        b = rand_dense(rng, p, rng.randrange(-1, 12))
        assert u_add(a, b, K) == ref_add(a, b, p)
        assert u_sub(a, b, K) == ref_add(a, b, p, sign=-1)
        assert u_sub(a, a, K) == []
        deriv = [a[i] * i % p for i in range(1, len(a))]
        while deriv and deriv[-1] == 0:
            deriv.pop()
        assert u_deriv(a, K) == deriv


# ---------------------------------------------------------------------------
# Z/mZ kernels for composite m: packed slots (9), slots wider than 8 bytes
# (3^40), and a modulus above 2^64
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [9, 3 ** 40, 5 ** 30], ids=["9", "3^40", "5^30"])
def test_zm_kernels_match_schoolbook(m):
    rng = random.Random(m % 1000)
    for da in range(-1, 41, 3):
        for db in (-1, 0, 1, 4, 13, 40):
            a, b = rand_dense(rng, m, da), rand_dense(rng, m, db)
            assert zm_add(a, b, m) == ref_add(a, b, m)
            assert zm_sub(a, b, m) == ref_add(a, b, m, sign=-1)
            assert zm_mul(a, b, m) == ref_mul(a, b, m)
            if db < 0:
                continue
            # a monic divisor, and one whose leading coefficient is a unit mod m
            for lc in (1, next(c for c in range(2, m) if math.gcd(c, m) == 1)):
                b = b[:-1] + [lc]
                q, r = zm_divmod(a, b, m)
                assert len(r) < len(b)
                assert all(0 <= c < m for c in q + r)
                assert ref_add(ref_mul(q, b, m), r, m) == a
    top = [m - 1] * 41
    assert zm_mul(top, top, m) == ref_mul(top, top, m)


# ---------------------------------------------------------------------------
# zm_mul packed at any slot width (8 to 100 bytes) against the list loop,
# on both sides of _PACK_MIN_WORK and of the wide-slot crossover
# _PACK_WIDE_MIN_LEN + width // 16, which grows with the width
# ---------------------------------------------------------------------------

def slot_modulus(width, n):
    """The largest modulus m whose products of operands with at least n
    coefficients fit `width`-byte slots: n * (m - 1)^2 < 2^(8 * width)."""
    return math.isqrt(((1 << (8 * width)) - 1) // n) + 1


@pytest.mark.parametrize("width", [8, 9, 16, 17, 40, 100])
def test_zm_mul_at_any_slot_width_matches_the_list_loop(monkeypatch, width):
    rng = random.Random(width)
    # 8 coefficients at 9 to 31 bytes, 10 at 40 and 14 at 100
    work, wide = rings._PACK_MIN_WORK, rings._PACK_WIDE_MIN_LEN + width // 16
    packs = []
    pack = rings._pack_wide
    monkeypatch.setattr(rings, "_pack_wide", lambda a, w: packs.append(w) or pack(a, w))
    shapes = [(4, 6), (5, 5), (1, work + 1), (2, work // 2 + 1), (3, 8),
              (wide - 1, 30), (wide, wide), (wide, 30), (40, 40)]
    assert any(la * lb <= work for la, lb in shapes)
    assert any(la * lb > work and min(la, lb) < wide for la, lb in shapes)
    assert any(min(la, lb) >= wide for la, lb in shapes)
    for la, lb in shapes:
        m = slot_modulus(width, min(la, lb))
        top = min(la, lb) * (m - 1) ** 2
        assert (top.bit_length() + 7) >> 3 == width  # the slot width zm_mul picks
        for a, b in [(rand_dense(rng, m, la - 1), rand_dense(rng, m, lb - 1)),
                     ([m - 1] * la, [m - 1] * lb),
                     ([m - 1] * la, [0] * (lb - 1) + [1])]:
            del packs[:]
            assert zm_mul(a, b, m) == ref_mul(a, b, m), (la, lb)
            assert zm_mul(b, a, m) == ref_mul(a, b, m), (la, lb)
            # wide slots pack exactly from the crossover on
            wide_packed = width > 8 and la * lb > work and min(la, lb) >= wide
            assert packs == ([width] * 4 if wide_packed else []), (la, lb)


# ---------------------------------------------------------------------------
# Byte-slot GF(p) kernels against the list loops, on both sides of the size
# crossovers (_PACK_MIN_WORK, _PACK_MIN_LEN) and of the byte-slot bounds
# (a product slot reaching 256; a division running more steps than its
# slots take between reductions, e.g. 64 for p = 3 and 1 for p = 13)
# ---------------------------------------------------------------------------

SLOT_PRIMES = [2, 3, 5, 7, 13]


def list_gcd(a, b, p):
    """Euclid on zm_divmod, the list loop the byte-slot path replaces."""
    while b:
        a, b = b, zm_divmod(a, b, p)[1]
    return rings.u_monic(a, GF(p))[1]


def slot_lengths(p):
    """Divisor and factor lengths around every crossover and bound for p."""
    fit = 255 // (p - 1) ** 2  # the longest factor whose product slots fit a byte
    lens = {1, 2, 4, rings._PACK_MIN_LEN - 1, rings._PACK_MIN_LEN, rings._PACK_MIN_LEN + 1,
            fit, fit + 1, 70}
    return sorted(n for n in lens if n >= 1)


@pytest.mark.parametrize("p", SLOT_PRIMES)
def test_byte_slot_product_matches_schoolbook(p):
    rng = random.Random(300 + p)
    for la in slot_lengths(p):
        for lb in slot_lengths(p):
            for a, b in [(rand_dense(rng, p, la - 1), rand_dense(rng, p, lb - 1)),
                         ([p - 1] * la, [p - 1] * lb)]:
                assert zm_mul(a, b, p) == ref_mul(a, b, p), (la, lb)


@pytest.mark.parametrize("p", SLOT_PRIMES)
def test_byte_slot_division_matches_the_list_loop(p):
    rng = random.Random(400 + p)
    K = GF(p)
    room = (256 - p) // (p - 1) ** 2
    for lb in slot_lengths(p):
        for lq in (0, 1, 2, room, room + 1, room + 5):
            la = lb + lq - 1
            for a, b in [(rand_dense(rng, p, la - 1), rand_dense(rng, p, lb - 1)),
                         ([p - 1] * max(la, 0), [p - 1] * lb)]:
                want = zm_divmod(a, b, p)
                assert u_divmod(a, b, K) == want, (la, lb)
                assert rings.u_rem(a, b, K) == want[1], (la, lb)


@pytest.mark.parametrize("p", SLOT_PRIMES)
def test_byte_slot_gcd_matches_the_list_loop(p):
    rng = random.Random(500 + p)
    K = GF(p)
    for lg in (1, 2, 3, rings._PACK_MIN_LEN, 9):
        for la in slot_lengths(p):
            for lb in (1, rings._PACK_MIN_LEN - 1, rings._PACK_MIN_LEN, 20):
                # a common factor g makes most gcds nontrivial
                g = rand_dense(rng, p, lg - 1)
                a = zm_mul(g, rand_dense(rng, p, la - 1), p)
                b = zm_mul(g, rand_dense(rng, p, lb - 1), p)
                want = list_gcd(a, b, p)
                assert rings.u_gcd(a, b, K) == want == rings.u_gcd(b, a, K), (lg, la, lb)
                assert len(want) >= len(g)
    assert rings.u_gcd([], [], K) == []


@pytest.mark.parametrize("p", SLOT_PRIMES)
def test_byte_slot_powmod_matches_the_list_loop(p):
    rng = random.Random(600 + p)
    K = GF(p)
    fit = 255 // (p - 1) ** 2  # the longest modulus whose residue products fit a byte
    for lm in sorted({2, rings._PACK_MIN_LEN - 1, rings._PACK_MIN_LEN, fit, fit + 1, 30}):
        m = rand_dense(rng, p, lm - 1)
        for a in (rand_dense(rng, p, lm - 2), rand_dense(rng, p, lm + 2), [p - 1] * (lm - 1)):
            want = [1]
            for e in range(1, 10):
                want = zm_divmod(ref_mul(want, a, p), m, p)[1]
                assert rings.u_powmod(a, e, m, K) == want, (lm, e)


def odd_prime_for(f):
    """The first odd prime not dividing lc(f) modulo which f stays squarefree."""
    for p in itertools.count(3, 2):
        if rings.is_prime(p) and f[-1] % p:
            fbar = [c % p for c in f]
            if len(rings.u_gcd(fbar, u_deriv(fbar, GF(p)), GF(p))) == 1:
                return p


def test_hensel_lift_postcondition():
    rng = random.Random(41)
    seen = set()
    while len(seen) < 5:  # every factor count from 2 to 6
        f = [1]
        for _ in range(rng.randint(2, 6)):
            f = rings.zx_mul(f, [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))]
                             + [rng.choice([1, 2, 3, -1])])
        if len(f) < 3 or len(rings.zx_gcd(f, rings.zx_deriv(f))) > 1:
            continue
        p = odd_prime_for(f)
        K = GF(p)
        modular = factor_mod._ff_factor_dense([c % p for c in f], K)[1]
        if not 2 <= len(modular) <= 6:
            continue
        seen.add(len(modular))
        for l in (1, 2, 5, 9):
            P = p ** l
            lifted = factor_mod._hensel_lift(p, f, [g for g, _ in modular], l)
            assert all(g[-1] == 1 and all(0 <= c < P for c in g) for g in lifted)
            assert [[c % p for c in g] for g in lifted] == [g for g, _ in modular]
            prod = [f[-1] % P]
            for g in lifted:
                prod = ref_mul(prod, g, P)
            assert prod == [c % P for c in f]


def split_products(seed, count):
    """(f, forms) for primitive squarefree f, the product of 2-6 distinct
    primitive forms a*x + b with a > 0 drawn from products of 2 and 3, so
    that the leading coefficients share small primes and push the Hensel
    prime past them."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(2, 6)
        forms = set()
        while len(forms) < size:
            a = rng.choice([1, 2, 3, 4, 6, 8, 9, 12, 18])
            b = rng.randint(-40, 40)
            if math.gcd(a, b) == 1:
                forms.add((b, a))
        f = [1]
        for form in forms:
            f = rings.zx_mul(f, list(form))
        yield f, sorted(list(form) for form in forms)


def test_newton_root_lift_equals_the_factor_tree():
    sizes = set()
    for f, forms in split_products(seed=43, count=60):
        p = odd_prime_for(f)
        K = GF(p)
        modular = sorted(factor_mod._ff_factor_monic_squarefree(
            rings.u_monic([c % p for c in f], K)[1], K, random.Random(0)))
        assert len(modular) == len(forms) and all(len(g) == 2 for g in modular)
        sizes.add(len(forms))
        roots = [-g[0] % p for g in modular]
        for l in (1, 2, 5, 9):
            P = p ** l
            lifted = factor_mod._newton_lift_roots(p, f, roots, l)
            assert [[-a % P, 1] for a in lifted] == factor_mod._hensel_lift(p, f, modular, l)
            assert all(rings.zx_eval(f, a) % P == 0 for a in lifted)
    assert sizes == {2, 3, 4, 5, 6}


def test_completely_split_inputs_never_reach_the_factor_tree(monkeypatch):
    def no_tree(*args):
        raise AssertionError("a completely split factorization reached _hensel_lift")

    monkeypatch.setattr(factor_mod, "_hensel_lift", no_tree)
    for f, forms in split_products(seed=47, count=40):
        assert sorted(g for g, _ in factor_mod._factor_dense(f, ZZ)) == forms
        F = MultiPoly.from_terms(ZZ, V1, {(i,): c for i, c in enumerate(f) if c})
        fac = factor_multivariate(F)
        assert sorted(dense_in_var(g, "x") for g, _ in fac.factors) == forms
    with pytest.raises(AssertionError, match="reached _hensel_lift"):
        # x^2 + 1 is irreducible mod 3, the Hensel prime of (x^2 - 7)(x^2 + 1)
        factor_mod._factor_dense(rings.zx_mul([-7, 0, 1], [1, 0, 1]), ZZ)


# ---------------------------------------------------------------------------
# The distinct-degree split, the root scan, and the irreducibility tests and
# the factorization built on them
# ---------------------------------------------------------------------------

V1 = VarSet(("x",))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_u_ddf_parts_multiply_back_and_have_one_factor_degree(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    K = GF(p)
    rng = random.Random(300 + p)
    for _ in range(40):
        f = rings.u_monic(rand_dense(rng, p, rng.randint(1, 16)), K)[1]
        if len(rings.u_gcd(f, u_deriv(f, K), K)) != 1:
            continue
        parts = list(rings.u_ddf(f, K))
        assert [d for _, d in parts] == sorted({d for _, d in parts})
        prod = [1]
        for g, d in parts:
            prod = u_mul(prod, g, K)
            _, facs = sympy.Poly(list(reversed(g)), x, modulus=p).factor_list()
            assert g[-1] == 1 and {q.degree() for q, _ in facs} == {d}
        assert prod == f


# u_powmod: left-to-right square and multiply against repeated products
@pytest.mark.parametrize("K", [GF(2), GF(3), GF(67), GF(2, 2)], ids=str)
def test_u_powmod_matches_repeated_multiplication(K):
    rng = random.Random(K.order)
    box = K.element_box()

    def rand(deg):
        return [rng.choice(box) for _ in range(deg)] + [rng.choice(box[1:])]

    for _ in range(3):
        m = rand(rng.randint(2, 6))
        # a reduced base, one of m's degree and one above it
        for a in (rand(len(m) - 2), rand(len(m) - 1), rand(len(m) + 3)):
            kept = list(a)
            want = [K.one]
            for e in range(71):
                got = rings.u_powmod(a, e, m, K)
                assert got == want, (a, e, m)
                assert a == kept and (e == 0 or got is not a)
                want = rings.u_rem(u_mul(want, a, K), m, K)
            for e in (K.order ** 5, 2 ** 61 + 12345):
                want = [K.one]
                for bit in bin(e)[2:]:
                    want = rings.u_rem(u_mul(want, want, K), m, K)
                    if bit == "1":
                        want = rings.u_rem(u_mul(want, a, K), m, K)
                assert rings.u_powmod(a, e, m, K) == want


@pytest.mark.parametrize("e, products", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3)])
def test_u_powmod_product_count(monkeypatch, e, products):
    # the top bit costs nothing: x^(q^d) steps with q = 3 take 2 products
    K = GF(3)
    calls = []

    def counted(a, b, K):
        calls.append(1)
        return u_mul(a, b, K)

    monkeypatch.setattr(rings, "u_mul", counted)
    m = [1, 2, 0, 1, 1]
    a = [2, 1, 1]
    assert rings.u_powmod(a, e, m, K) is not a
    assert len(calls) == products


def sympy_irreducible(f, p):
    """sympy's irreducibility test on a dense GF(p) list of degree >= 1."""
    galois = pytest.importorskip("sympy.polys.galoistools")
    domains = pytest.importorskip("sympy.polys.domains")
    return galois.gf_irreducible_p([c % p for c in reversed(f)], p, domains.ZZ)


@pytest.mark.parametrize("p, top", [(2, 7), (3, 6), (5, 4), (7, 3)])
def test_u_is_irreducible_matches_sympy_exhaustively(p, top):
    # every polynomial up to the degree, so every root position, repeated
    # roots, p-th powers and products of root-free factors all occur
    K = GF(p)
    kinds = Counter()
    for n in range(0, top + 1):
        for low in itertools.product(range(p), repeat=n):
            monic = list(low) + [1]
            want = n >= 1 and sympy_irreducible(monic, p)
            for lc in range(1, p):
                f = [c * lc % p for c in monic]
                assert rings.u_is_irreducible(f, K) == want, f
            if n >= 2:
                fp = u_deriv(monic, K)
                kinds["p-th power" if not fp else "repeated factor"
                      if len(rings.u_gcd(monic, fp, K)) > 1 else "squarefree"] += 1
    assert len(kinds) == (3 if top >= p else 2)                 # a p-th power has degree >= p


def test_gf2_is_irreducible_matches_sympy_exhaustively():
    for a in range(1 << 13):  # every GF(2) polynomial of degree <= 12
        dense = [(a >> i) & 1 for i in range(a.bit_length())]
        want = len(dense) >= 2 and sympy_irreducible(dense, 2)
        assert factor_mod.gf2_is_irreducible(a) == want, bin(a)


def random_irreducible_dense(rng, p, deg):
    K = GF(p)
    while True:
        g = rand_dense(rng, p, deg)
        g = rings.u_monic(g, K)[1]
        if rings.u_is_irreducible(g, K):
            return g


@pytest.mark.parametrize("p", [61, 67, 10007])
def test_u_is_irreducible_matches_sympy_on_both_sides_of_the_root_scan(p):
    # 61 is scanned for roots and 67 and 10007 are not
    assert (p <= rings.ROOT_SCAN_LIMIT) == (p == 61)
    K = GF(p)
    rng = random.Random(p)
    cases = [rand_dense(rng, p, rng.randint(1, 8)) for _ in range(60)]
    for _ in range(15):
        g = random_irreducible_dense(rng, p, rng.randint(2, 3))
        h = random_irreducible_dense(rng, p, rng.randint(2, 3))
        cases += [u_mul(g, h, K),                          # no root, reducible
                  u_mul(g, g, K),                          # no root, a square
                  u_mul(g, [rng.randrange(p), 1], K)]      # one root
    if p < 100:
        # g^p = g(x^p): no root and a zero derivative
        g, gp = random_irreducible_dense(rng, p, 2), [1]
        for _ in range(p):
            gp = u_mul(gp, g, K)
        assert not u_deriv(gp, K) and len(gp) == 2 * p + 1
        cases.append(gp)
    seen = Counter()
    for f in cases:
        want = sympy_irreducible(f, p)
        assert rings.u_is_irreducible(f, K) == want, f
        seen[want] += 1
    assert seen[True] >= 5 and seen[False] >= 40


def test_degrees_two_and_three_are_decided_by_their_roots(monkeypatch):
    def no_ddf(*args):
        raise AssertionError("degree 2 or 3 reached the distinct-degree split")

    monkeypatch.setattr(rings, "u_ddf", no_ddf)
    K = GF(7)
    assert rings.u_is_irreducible([1, 0, 1], K)              # x^2 + 1
    assert not rings.u_is_irreducible([6, 0, 1], K)          # (x - 1)(x + 1)
    assert rings.u_is_irreducible([2, 0, 0, 1], K)           # x^3 + 2
    assert not rings.u_is_irreducible([0, 0, 0, 1], K)       # x^3
    assert factor_mod.gf2_is_irreducible(0b1011)             # x^3 + x + 1
    assert not factor_mod.gf2_is_irreducible(0b1110)         # x (x^2 + x + 1)


def test_zm_roots_are_every_root_in_order():
    rng = random.Random(5)
    for p in (2, 3, 5, 61):
        for _ in range(20):
            roots = sorted(rng.sample(range(p), rng.randint(0, min(p, 5))))
            f = [rng.randrange(1, p)]
            for a in roots:
                f = u_mul(f, [-a % p, 1], GF(p))
            g = random_irreducible_dense(rng, p, 2)              # root-free
            f = u_mul(f, u_mul(g, g, GF(p)), GF(p))
            assert list(rings.zm_roots(f, p)) == roots, (p, f)


@pytest.mark.parametrize("p", [2, 3, 5, 61, 67, 10007])
def test_ff_factor_dense_matches_sympy_with_several_linear_factors(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    K = GF(p)
    rng = random.Random(7 * p)
    for _ in range(12):
        f = [rng.randrange(1, p)]
        for a in rng.sample(range(p), min(p, rng.randint(2, 5))):
            for _ in range(rng.choice([1, 1, 2, 3])):
                f = u_mul(f, [-a % p, 1], K)
        for _ in range(rng.randint(0, 2)):
            f = u_mul(f, rand_dense(rng, p, rng.randint(1, 4)), K)
        lc, got = factor_mod._ff_factor_dense(f, K)
        coeff, want = sympy.Poly(list(reversed(f)), x, modulus=p).factor_list()
        assert lc == int(coeff) % p
        assert sorted(got) == sorted(([int(c) % p for c in reversed(g.all_coeffs())], m)
                                     for g, m in want), f


@pytest.mark.parametrize("p", [5, 67])
def test_linear_part_is_split_without_random_splitting_up_to_the_limit(monkeypatch, p):
    K = GF(p)
    edf = factor_mod._ff_edf
    degrees = []
    monkeypatch.setattr(factor_mod, "_ff_edf",
                        lambda g, d, *rest: degrees.append(d) or edf(g, d, *rest))
    c = next(c for c in range(1, p) if all((a * a + c) % p for a in range(p)))
    parts = [[1, 1], [2, 1], [3, 1], [c, 0, 1]]                 # three roots, x^2 + c
    f = [1]
    for g in parts:
        f = u_mul(f, g, K)
    assert sorted(g for g, _ in factor_mod._ff_factor_dense(f, K)[1]) == sorted(parts)
    assert set(degrees) == ({2} if p <= rings.ROOT_SCAN_LIMIT else {1, 2})


@pytest.mark.parametrize("p, k, top, count", [(2, 2, 5, 60), (3, 2, 3, 60)])
def test_u_is_irreducible_matches_brute_force_over_extensions(p, k, top, count):
    K = GF(p, k)
    box = K.element_box()
    rng = random.Random(10 * p + k)
    for _ in range(count):
        f = [rng.choice(box) for _ in range(rng.randint(1, top))] + [rng.choice(box[1:])]
        g = MultiPoly.from_terms(K, V1, {(i,): c for i, c in enumerate(f)})
        assert rings.u_is_irreducible(f, K) == brute_force_irreducible(g), f


@pytest.mark.parametrize("p, k, top", [(2, 2, 4), (2, 3, 3), (3, 2, 3)],
                         ids=["GF(4)", "GF(8)", "GF(9)"])
def test_root_scan_over_extensions_matches_the_distinct_degree_split(monkeypatch, p, k, top):
    # every polynomial of degree 2..top over GF(p^k), a field small enough
    # for the root scan: its answer against squarefreeness and the first
    # part of the distinct-degree split, which degree 2 and 3 never reach
    K = GF(p, k)
    assert K.order <= rings.ROOT_SCAN_LIMIT
    ddf = rings.u_ddf
    reached = []
    monkeypatch.setattr(rings, "u_ddf", lambda f, K: reached.append(len(f) - 1) or ddf(f, K))
    seen = Counter()
    for coeffs in itertools.product(K.element_box(), repeat=top + 1):
        f = rings.dense_trim(list(coeffs))
        n = len(f) - 1
        if n < 2:
            continue
        fp = u_deriv(f, K)
        monic = rings.u_monic(f, K)[1]
        want = bool(fp) and len(rings.u_gcd(f, fp, K)) == 1 and next(ddf(monic, K))[1] == n
        got = rings.u_is_irreducible(f, K)
        assert got == want, f
        seen[n, got] += 1
    assert all(seen[n, True] and seen[n, False] for n in range(2, top + 1)), seen
    assert all(n >= 4 for n in reached)


def sylvester_discriminant(f, p):
    """disc(f) over GF(p) from the determinant of the Sylvester matrix of
    f and f' at its formal degree n - 1, by Gaussian elimination."""
    n = len(f) - 1
    fp = [f[i] * i % p for i in range(1, n + 1)]  # its top may be zero
    size = 2 * n - 1
    rows = [[0] * i + f[::-1] + [0] * (n - 2 - i) for i in range(n - 1)]
    rows += [[0] * i + fp[::-1] + [0] * (n - 1 - i) for i in range(n)]
    det = 1
    for i in range(size):
        pivot = next((r for r in range(i, size) if rows[r][i] % p), None)
        if pivot is None:
            return 0
        if pivot != i:
            rows[i], rows[pivot] = rows[pivot], rows[i]
            det = -det
        det = det * rows[i][i] % p
        inv = pow(rows[i][i], -1, p)
        for r in range(i + 1, size):
            c = rows[r][i] * inv % p
            rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[i])]
    sign = -1 if n * (n - 1) // 2 % 2 else 1
    return sign * det * pow(f[-1], -1, p) % p


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_u_discriminant_matches_the_sylvester_determinant(p):
    # degrees up to 19 reach the byte-slot Euclid loop for p <= 7; sparse
    # inputs give f' a degree below n - 1 and common factors
    K = GF(p)
    rng = random.Random(40 + p)
    for _ in range(300):
        f = rand_dense(rng, p, rng.randint(1, 19))
        if rng.random() < 0.3:
            f = [c if rng.random() < 0.4 else 0 for c in f[:-1]] + f[-1:]
        assert rings.u_discriminant(f, K) == sylvester_discriminant(f, p), f
    assert rings.u_discriminant([2, 3, 1], K) == (9 - 8) % p      # b^2 - 4ac
    assert rings.u_discriminant([1, 1, 0, 1], K) == -31 % p       # -4a^3 - 27b^2


def parity_inputs(p, k, top, monic):
    """Every monic polynomial of degree 2..top over GF(p^k), or 400 random
    ones of degree 2..top with any leading coefficient, a third of them of
    a degree divisible by p when top allows one."""
    K = GF(p, k) if k > 1 else GF(p)
    box = K.element_box()
    if monic:
        for n in range(2, top + 1):
            for low in itertools.product(box, repeat=n):
                yield list(low) + [K.one]
        return
    rng = random.Random(p)
    multiples = range(p, top + 1, p)
    for i in range(400):
        n = rng.choice(multiples) if i % 3 == 0 and multiples else rng.randint(2, top)
        yield [rng.choice(box) for _ in range(n)] + [rng.choice(box[1:])]


@pytest.mark.parametrize("p, k, top, monic", [
    (3, 1, 8, True), (5, 1, 6, True), (3, 2, 4, True),
    (3, 1, 19, False), (5, 1, 19, False), (7, 1, 19, False), (11, 1, 19, False),
    (101, 1, 19, False),
], ids=["GF(3)-monic", "GF(5)-monic", "GF(9)-monic", "GF(3)", "GF(5)", "GF(7)", "GF(11)",
        "GF(101)"])
def test_stickelberger_parity_against_the_distinct_degree_split(monkeypatch, capsys,
                                                                p, k, top, monic):
    # For squarefree f of degree n with r irreducible factors, disc(f) is a
    # square exactly when n - r is even; u_is_irreducible must agree with
    # the split and stop before it for every squarefree f with r even.
    K = GF(p, k) if k > 1 else GF(p)
    ddf = rings.u_ddf
    reached = []
    monkeypatch.setattr(rings, "u_ddf", lambda f, K: reached.append(f) or ddf(f, K))
    reducible = certified = 0
    for f in parity_inputs(p, k, top, monic):
        n = len(f) - 1
        disc = rings.u_discriminant(f, K)
        fp = u_deriv(f, K)
        squarefree = bool(fp) and len(rings.u_gcd(f, fp, K)) == 1
        assert K.is_zero(disc) != squarefree, f
        r = 0
        if squarefree:
            r = sum((len(g) - 1) // d for g, d in ddf(f, K))
            square = K.pow(disc, (K.order - 1) // 2) == K.one
            assert square == ((n - r) % 2 == 0), f
        reached.clear()
        irreducible = rings.u_is_irreducible(f, K)
        assert irreducible == (squarefree and r == 1), f
        if not irreducible:
            reducible += 1
            if squarefree and r % 2 == 0:
                certified += 1
                assert not reached, f
    assert certified > 0
    with capsys.disabled():
        print(f"\n{K}{' monic' if monic else ''} degree <= {top}: parity certifies "
              f"{certified} of {reducible} reducible inputs ({certified / reducible:.0%})")


# ---------------------------------------------------------------------------
# substitute: the dense path against a sum of MultiPoly powers
# ---------------------------------------------------------------------------

def ref_substitute(P, name, M):
    """sum of c * x^a * M^b over the terms of P, with the sparse arithmetic."""
    i = P.vars.index(name)
    new_vars = P.vars.without(name)
    acc = MultiPoly.zero(P.ring, new_vars)
    for e, v in P.terms.items():
        rest = MultiPoly.monomial(P.ring, new_vars, e[:i] + e[i + 1:], v)
        acc = acc + rest * M ** e[i]
    return acc


def rand_poly(rng, ring, vars, deg, nterms):
    box = ring.element_box(deg_bound=1) if isinstance(ring, PolyRing) else \
        ring.element_box(coeff_bound=3)
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(deg + 1) for _ in vars)
        terms[e] = rng.choice(box)
    return MultiPoly.from_terms(ring, vars, terms)


@pytest.mark.parametrize("p", [2, 3, 10007])
@pytest.mark.parametrize("yfirst", [True, False])
def test_substitute_dense_matches_reference(p, yfirst):
    rng = random.Random(p * 2 + yfirst)
    K = GF(p)
    vars = VarSet(("y", "x1")) if yfirst else VarSet(("x1", "y"))
    xv = VarSet(("x1",))
    for _ in range(40):
        P = rand_poly(rng, K, vars, 6, rng.randrange(1, 8))
        M = rand_poly(rng, K, xv, rng.randrange(0, 6), rng.randrange(0, 5))
        got = P.substitute("y", M)
        assert got.vars == xv
        assert got == ref_substitute(P, "y", M)


def test_substitute_constant_and_cancelling_image():
    K = GF(3)
    vars = VarSet(("x1", "y"))
    xv = VarSet(("x1",))
    P = MultiPoly(K, vars, {(0, 2): 1, (1, 0): 2, (0, 0): 1})       # y^2 + 2*x1 + 1
    two = MultiPoly.constant(K, xv, 2)
    assert P.substitute("y", two) == MultiPoly(K, xv, {(1,): 2, (0,): 2})
    # y - x1^2 at y = x1^2 cancels to zero
    Q = MultiPoly(K, vars, {(0, 1): 1, (2, 0): 2})
    x_sq = MultiPoly(K, xv, {(2,): 1})
    assert Q.substitute("y", x_sq).is_zero()
    # the zero image and the zero polynomial
    assert P.substitute("y", MultiPoly.zero(K, xv)) == MultiPoly(K, xv, {(1,): 2, (0,): 1})
    assert MultiPoly.zero(K, vars).substitute("y", x_sq).is_zero()


def sparse_horner(P, name, M):
    """P(M) by Horner on whole MultiPolys in the remaining variables."""
    i = P.vars.index(name)
    new_vars = P.vars.without(name)
    acc = MultiPoly.zero(P.ring, new_vars)
    for c in reversed(P.coeffs_in(name)):
        acc = acc * M + MultiPoly(P.ring, new_vars, {e[:i] + e[i + 1:]: v for e, v in c.terms.items()})
    return acc


def rand_rational_poly(rng, vars, deg, nterms):
    """Coefficients with denominators up to 6, most of them not integers."""
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(deg + 1) for _ in vars)
        terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return MultiPoly.from_terms(QQ, vars, terms)


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=["Z", "Q"])
@pytest.mark.parametrize("yfirst", [True, False])
def test_substitute_dense_over_z_and_q_matches_sparse_horner(ring, yfirst):
    rng = random.Random(7 * yfirst + (ring is QQ))
    vars = VarSet(("y", "x1")) if yfirst else VarSet(("x1", "y"))
    xv = VarSet(("x1",))
    make = rand_poly if ring is ZZ else (lambda rng, ring, vars, deg, n: rand_rational_poly(rng, vars, deg, n))
    for _ in range(60):
        P = make(rng, ring, vars, 6, rng.randrange(1, 8))
        M = make(rng, ring, xv, rng.randrange(0, 6), rng.randrange(0, 5))
        got = P.substitute("y", M)
        assert got.vars == xv
        assert got == sparse_horner(P, "y", M) == ref_substitute(P, "y", M)
        if ring is QQ:
            assert all(type(v) is Fraction for v in got.terms.values())


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=["Z", "Q"])
def test_substitute_dense_over_z_and_q_edges(ring):
    vars = VarSet(("x1", "y"))
    xv = VarSet(("x1",))
    c = ring.from_int
    half, third = (Fraction(1, 2), Fraction(-1, 3)) if ring is QQ else (c(1), c(-1))
    P = MultiPoly(ring, vars, {(0, 2): half, (1, 0): c(2), (0, 0): third})  # half*y^2 + 2*x1 + third
    # a constant image
    three = MultiPoly.constant(ring, xv, c(3))
    assert P.substitute("y", three) == MultiPoly(ring, xv, {(1,): c(2), (0,): half * 9 + third})
    # the zero image and the zero polynomial
    assert P.substitute("y", MultiPoly.zero(ring, xv)) == MultiPoly(ring, xv, {(1,): c(2), (0,): third})
    x_sq = MultiPoly(ring, xv, {(2,): half})
    assert MultiPoly.zero(ring, vars).substitute("y", x_sq).is_zero()
    # y - half*x1^2 at y = half*x1^2 cancels to zero, and so does a y^2 term
    Q = MultiPoly(ring, vars, {(0, 1): c(1), (2, 0): -half})
    assert Q.substitute("y", x_sq).is_zero()
    R = MultiPoly(ring, vars, {(0, 2): c(1), (4, 0): -half * half, (1, 0): c(5)})
    assert R.substitute("y", x_sq) == MultiPoly(ring, xv, {(1,): c(5)})
    if ring is QQ:
        # denominators of P and of the image combine: (y/2 + 1/3)(y = x1/3 + 1/5)
        S = MultiPoly(QQ, vars, {(0, 1): Fraction(1, 2), (0, 0): Fraction(1, 3)})
        img = MultiPoly(QQ, xv, {(1,): Fraction(1, 3), (0,): Fraction(1, 5)})
        assert S.substitute("y", img) == MultiPoly(QQ, xv, {(1,): Fraction(1, 6),
                                                             (0,): Fraction(13, 30)})


SPEC_RINGS = [ZZ, QQ, GF(2), GF(3), GF(13), GF(10007)]


def spec_poly(rng, ring, vars, deg, nterms):
    if ring is QQ:
        return rand_rational_poly(rng, vars, deg, nterms)
    return rand_poly(rng, ring, vars, deg, nterms)


@pytest.mark.parametrize("ring", SPEC_RINGS, ids=str)
@pytest.mark.parametrize("nleft", [1, 2, 3])
def test_specializer_matches_dict_horner(ring, nleft):
    # y in every position among 1-3 variables left; one Specializer per P
    # across values of growing degree (its strides grow), and values over
    # only the first variable left, as a multi-y search passes them
    rng = random.Random(f"{ring}/{nleft}")
    names = [f"x{j}" for j in range(1, nleft + 1)]
    for ypos in range(nleft + 1):
        vars = VarSet(names[:ypos] + ["y"] + names[ypos:])
        left = vars.without("y")
        first = VarSet(left.names[:1])
        for _ in range(5):
            P = spec_poly(rng, ring, vars, 3, rng.randrange(1, 7))
            spec = Specializer(P, "y")
            for deg in (0, 1, 2, 3, 1):
                M = spec_poly(rng, ring, left, deg, rng.randrange(0, 6))
                assert spec(M) == sparse_horner(P, "y", M) == P.substitute("y", M), (P, M)
                M = spec_poly(rng, ring, first, deg, rng.randrange(0, 4))
                assert spec(M) == sparse_horner(P, "y", M.embed(left)), (P, M)
                if nleft == 1:
                    c, den = spec.dense(M)
                    assert MultiPoly(ring, left, {(e,): Fraction(v, den) if ring is QQ else v
                                                  for e, v in enumerate(c) if v}) == spec(M)


@pytest.mark.parametrize("ring", SPEC_RINGS, ids=str)
def test_specializer_zero_image_degree_drop_and_dense_values(ring):
    V3 = VarSet(("x1", "y", "x2", "x3"))
    left = V3.without("y")
    xy = parse_poly("x1*x2", ring, left)
    # the image cancels to zero, and the image drops far below the bounds
    assert Specializer(parse_poly("y - x1*x2", ring, V3), "y")(xy).is_zero()
    P = parse_poly("y^3*x3 - x1^3*x2^3*x3 + y + x1", ring, V3)
    assert Specializer(P, "y")(xy) == parse_poly("x1*x2 + x1", ring, left)
    # a value with 64 terms: over GF(3) its product slots can pass 255, so
    # the Horner runs on the list kernels
    M = MultiPoly.from_terms(ring, left, {e: ring.from_int(2)
                                          for e in itertools.product(range(4), repeat=3)})
    Q = parse_poly("y^2 + x2*y + x3 + 1", ring, V3)
    assert Specializer(Q, "y")(M) == sparse_horner(Q, "y", M)


@pytest.mark.parametrize("vars", [("x1", "y"), ("x1", "x2", "y")], ids=["one-left", "two-left"])
def test_specializer_past_the_degree_cap(vars):
    # the dense image is refused before any list or row of that length is
    # built, and the MultiPoly image comes from the dict Horner
    V = VarSet(vars)
    P = parse_poly("y^2 + x1", GF(2), V)
    left = V.without("y")
    big = MultiPoly(GF(2), left, {(DEGREE_CAP // 2 + 1,) + (0,) * (len(left) - 1): 1})
    spec = Specializer(P, "y")
    with pytest.raises(BudgetExceededError, match="Kronecker image degree"):
        spec.dense(big)
    assert spec(big) == P.substitute("y", big) == sparse_horner(P, "y", big)
    assert spec.layouts == {}


def test_specializer_drops_earlier_strides_that_would_pass_the_cap():
    # x1^2048 and then x2^1024: strides covering both would give an image of
    # about 2^21 slots, the second value's own strides 2 * 1025
    V = VarSet(("x1", "x2", "y"))
    left = V.without("y")
    P = parse_poly("y + x1", GF(3), V)
    spec = Specializer(P, "y")
    for g in ("x1^2048 + 1", "x2^1024 + x1", "x1 + x2"):
        M = parse_poly(g, GF(3), left)
        assert spec.dense(M) == Specializer(P, "y").dense(M)


def test_specializer_image_does_not_depend_on_earlier_values():
    # after x1^3 a layout that also covered x1^3 gave dense(x1 + x2) as
    # [0, 2, 0, 0, 0, 1]; its own layout gives [0, 2, 0, 1]
    V = VarSet(("x1", "x2", "y"))
    left = V.without("y")
    spec = Specializer(parse_poly("y + x1", GF(3), V), "y")
    spec.dense(parse_poly("x1^3", GF(3), left))
    assert spec.dense(parse_poly("x1 + x2", GF(3), left)) == ([0, 2, 0, 1], 1)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3), GF(13)], ids=str)
@pytest.mark.parametrize("nleft", [2, 3])
def test_one_specializer_equals_a_fresh_one_on_values_of_mixed_shapes(ring, nleft):
    # values of several degree vectors, fed to one Specializer in shuffled
    # order: each of dense, dense_rows and __call__ equals what a fresh
    # Specializer returns, and one layout is kept per shape
    rng = random.Random(f"mixed/{ring}/{nleft}")
    names = [f"x{j}" for j in range(1, nleft + 1)]
    for ypos in (0, nleft):
        vars = VarSet(names[:ypos] + ["y"] + names[ypos:])
        left = vars.without("y")
        for _ in range(3):
            P = spec_poly(rng, ring, vars, 2, rng.randrange(2, 7))
            values = [spec_poly(rng, ring, left, deg, rng.randrange(1, 5))
                      for deg in (0, 1, 2, 3) for _ in range(3)]
            rng.shuffle(values)
            spec = Specializer(P, "y")
            for M in values:
                fresh = Specializer(P, "y")
                assert spec.dense(M) == fresh.dense(M), (P, M)
                if nleft == 2:
                    assert spec.dense_rows(M) == Specializer(P, "y").dense_rows(M), (P, M)
                assert spec(M) == Specializer(P, "y")(M) == sparse_horner(P, "y", M), (P, M)
            assert len(spec.layouts) == len({M.degree_vector()[:-1] for M in values})


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3)], ids=str)
@pytest.mark.parametrize("nleft", [2, 3, 4, 5])
def test_sparse_values_take_the_dict_horner(ring, nleft, monkeypatch):
    # y^8 + (x1...xn)^8 at y = x1...xn has 9^n slots in its dense image and
    # one term; it is substituted without a dense image however many
    # variables are left, and with a few more terms the image is dense again
    names = [f"x{j}" for j in range(1, nleft + 1)]
    V = VarSet(names + ["y"])
    left = V.without("y")
    mono8 = "*".join(f"{x}^8" for x in names)
    P = parse_poly(f"y^8 + {mono8}", ring, V)
    M = parse_poly("*".join(names), ring, left)
    want = parse_poly(f"2*{mono8}", ring, left)
    spec = Specializer(P, "y")
    with monkeypatch.context() as m:
        m.setattr(Specializer, "dense", None)  # any dense image fails
        assert spec(M) == P.substitute("y", M) == substitute_y(P, M) == want
    assert spec.layouts == {}
    Q = parse_poly("y^2 + x1*y + x2", ring, V)
    M = parse_poly("x1 + x2 + 1", ring, left)
    spec = Specializer(Q, "y")
    assert spec(M) == sparse_horner(Q, "y", M)
    assert spec.layouts != {}


# ---------------------------------------------------------------------------
# try_divexact: the heap-ordered division against repeated leading-term
# subtraction on whole polynomials
# ---------------------------------------------------------------------------

def ref_divexact(f, g):
    ring = f.ring
    g_exps, g_lc = max(g.terms.items(), key=lambda kv: grlex_key(kv[0]))
    rem, q = f, {}
    while not rem.is_zero():
        exps, v = max(rem.terms.items(), key=lambda kv: grlex_key(kv[0]))
        diff = tuple(a - b for a, b in zip(exps, g_exps))
        c = ring.try_divexact(v, g_lc) if min(diff) >= 0 else None
        if c is None:
            return None
        q[diff] = c
        rem = rem - g * MultiPoly.monomial(ring, f.vars, diff, c)
    return MultiPoly(ring, f.vars, q)


DIV_RINGS = [ZZ, QQ, GF(3), GF(2, 2), PolyRing(GF(2))]


@pytest.mark.parametrize("ring", DIV_RINGS, ids=str)
def test_try_divexact_matches_reference(ring):
    rng = random.Random(str(ring))
    vars = VarSet(("x1", "x2"))
    for _ in range(60):
        f = rand_poly(rng, ring, vars, 3, rng.randrange(1, 5))
        g = rand_poly(rng, ring, vars, 2, rng.randrange(1, 4))
        if f.is_zero() or g.is_zero():
            continue
        fg = f * g
        assert fg.try_divexact(g) == f
        for h in (fg + rand_poly(rng, ring, vars, 2, 2), f):
            assert h.try_divexact(g) == ref_divexact(h, g)


def test_try_divexact_integer_leading_coefficient_miss():
    vars = VarSet(("x1", "x2"))
    g = MultiPoly(ZZ, vars, {(1, 0): 2, (0, 1): 1})                 # 2*x1 + x2
    f = MultiPoly(ZZ, vars, {(2, 0): 3, (0, 0): 1})                 # 3*x1^2 + 1
    assert f.try_divexact(g) is None
    assert (g * g).try_divexact(g) == g
    # monomial divisors: an exponent miss, a coefficient miss, an exact quotient
    two_x1 = MultiPoly(ZZ, vars, {(1, 0): 2})
    assert f.try_divexact(two_x1) is None
    assert MultiPoly(ZZ, vars, {(2, 0): 3, (1, 1): 2}).try_divexact(two_x1) is None
    assert MultiPoly(ZZ, vars, {(2, 0): 4, (1, 1): 2}).try_divexact(two_x1) == g
    # exact over Q, where 2 is a unit
    gq = MultiPoly(QQ, vars, {e: Fraction(v) for e, v in g.terms.items()})
    fq = MultiPoly(QQ, vars, {(2, 0): Fraction(3), (1, 1): Fraction(3, 2)})
    assert fq.try_divexact(gq) == MultiPoly(QQ, vars, {(1, 0): Fraction(3, 2)})


def test_try_divexact_edges():
    K = GF(3)
    vars = VarSet(("x1", "x2"))
    g = MultiPoly(K, vars, {(1, 1): 1, (0, 0): 2})
    zero = MultiPoly.zero(K, vars)
    assert zero.try_divexact(g) == zero
    assert g.try_divexact(zero) is None
    assert MultiPoly.one(K, vars).try_divexact(g) is None             # degree too high
    assert g.try_divexact(MultiPoly.constant(K, vars, 2)) == g.scale(2)


# ---------------------------------------------------------------------------
# GF(p^k): table lookups against the polynomial path.
# ---------------------------------------------------------------------------

def polynomial_field(monkeypatch, p, k):
    """The same field without tables: every operation reduces by the modulus."""
    with monkeypatch.context() as m:
        m.setattr(rings, "EXT_TABLE_LIMIT", 0)
        F = ExtField(p, k)
    assert F._log is None
    return F


def same_arithmetic(T, P, pairs):
    for a, b in pairs:
        assert T.add(a, b) == P.add(a, b), (a, b)
        assert T.sub(a, b) == P.sub(a, b), (a, b)
        assert T.mul(a, b) == P.mul(a, b), (a, b)
        assert T.try_divexact(a, b) == P.try_divexact(a, b), (a, b)
    for a in {a for a, _ in pairs}:
        assert T.neg(a) == P.neg(a)
        if a:
            assert T.inv(a) == P.inv(a)
        for e in (0, 1, 2, 3, T.p, T.order - 2, T.order - 1, T.order, 5 * T.order + 3):
            assert T.pow(a, e) == P.pow(a, e), (a, e)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_table_arithmetic_matches_polynomial_path_on_every_pair(monkeypatch, p, k):
    T, P = ExtField(p, k), polynomial_field(monkeypatch, p, k)
    assert T._log is not None and T.modulus == P.modulus
    elements = T.element_box()
    same_arithmetic(T, P, list(itertools.product(elements, elements)))


def test_table_arithmetic_above_the_limit_on_sampled_pairs(monkeypatch):
    # an odd p, and p = 2, where a sum is an XOR at every order
    for p, k in ((3, 6), (2, 9)):
        assert p ** k > rings.EXT_TABLE_LIMIT
        assert ExtField(p, k)._log is None
        with monkeypatch.context() as m:
            m.setattr(rings, "EXT_TABLE_LIMIT", p ** k)
            T = ExtField(p, k)
            assert T._log is not None
            P = polynomial_field(monkeypatch, p, k)
        rng = random.Random(p * 10 + k)
        elements = P.element_box()
        pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(400)]
        same_arithmetic(T, P, pairs + [(0, 0), (1, 0), (0, p)])


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_element_box_order_and_format_unchanged(monkeypatch, p, k):
    T, P = ExtField(p, k), polynomial_field(monkeypatch, p, k)
    # index order: element i has the base-p digits of i as its coefficients
    expected = list(range(p ** k))
    assert T.element_box() == P.element_box() == expected
    assert [T.format(a) for a in expected] == [P.format(a) for a in expected]
    for i in expected:
        digits = [i // p ** j % p for j in range(k)]
        terms = [str(c) if j == 0 else ("" if c == 1 else f"{c}*") + ("t" if j == 1 else f"t^{j}")
                 for j, c in enumerate(digits) if c]
        assert T.format(i) == (" + ".join(terms[::-1]) or "0")
    if (p, k) == (2, 2):
        assert [T.format(a) for a in expected] == ["0", "1", "t", "t + 1"]


# ---------------------------------------------------------------------------
# Dense Kronecker recombination against the generated parts and oracles.
# ---------------------------------------------------------------------------

V2 = VarSet(("x1", "x2"))


def random_irreducible(rng, K, vars, max_deg):
    """A normalized irreducible with a constant term, by brute force."""
    while True:
        degs = [rng.randint(0, max_deg) for _ in vars.names]
        terms = {e: rng.randrange(1, K.p) for e in itertools.product(*[range(d + 1) for d in degs])
                 if rng.random() < 0.6}
        terms[(0,) * len(vars)] = rng.randrange(1, K.p)
        g = MultiPoly.from_terms(K, vars, terms)
        if not g.is_constant() and brute_force_irreducible(g):
            return g.monic_normalize()[1]


def factor_counts(fac):
    return Counter({format_poly(g): m for g, m in fac.factors if not g.is_constant()})


@pytest.mark.parametrize("p", [2, 3])
def test_dense_recombination_matches_parts_and_brute_force(p):
    K = GF(p)
    rng = random.Random(61 + p)
    brute = 0
    for _ in range(16):
        max_deg = rng.choice([1, 2])
        parts = [random_irreducible(rng, K, V2, max_deg) for _ in range(rng.randint(2, 3))]
        if rng.random() < 0.4:
            parts.append(parts[0])
        f = parts[0]
        for g in parts[1:]:
            f = f * g
        fac = factor_multivariate(f)
        assert fac.recompose_over(V2) == f
        assert factor_counts(fac) == Counter(format_poly(g) for g in parts)
        if p ** ((f.degree_in("x1") + 1) * (f.degree_in("x2") + 1)) <= 20000:
            assert fac == brute_force_factor(f)
            brute += 1
    assert brute >= 4


def test_dense_recombination_matches_sympy_over_z():
    sympy = pytest.importorskip("sympy")
    from test_recombination import our_factors, sympy_factors

    rng = random.Random(5)
    for vars in (V2, VarSet(("x1", "x2", "x3"))):
        for _ in range(8):
            parts = []
            for _ in range(rng.randint(2, 3)):
                terms = {e: rng.choice([-2, -1, 1, 2, 3])
                         for e in itertools.product(range(2), repeat=len(vars)) if rng.random() < 0.5}
                terms[(0,) * len(vars)] = rng.choice([-3, 1, 2])
                parts.append(MultiPoly.from_terms(ZZ, vars, terms))
            if rng.random() < 0.4:
                parts.append(parts[-1])
            f = parts[0]
            for g in parts[1:]:
                f = f * g
            if f.is_constant():
                continue
            assert our_factors(sympy, f) == sympy_factors(sympy, f)


def test_division_runs_once_per_factor_found(monkeypatch):
    # the fixed GF(2) (3,3) x (3,3) product of the benchmark: about 2.3k
    # subsets pass the digit test, and each used to cost a division
    K = GF(2)
    a = parse_poly("x1^3*x2^3 + x1^2*x2^3 + x1^3*x2 + x1^2*x2^2 + x1*x2^3 + x1^2*x2"
                   " + x2^3 + x1*x2 + x2 + 1", K, V2)
    b = parse_poly("x1^3*x2^2 + x1*x2^3 + x1^3 + x1^2 + x1*x2 + x1 + x2 + 1", K, V2)
    calls = []
    divide = MultiPoly.try_divexact
    monkeypatch.setattr(MultiPoly, "try_divexact",
                        lambda self, other: calls.append(other) or divide(self, other))
    fac = factor_multivariate(a * b)
    assert factor_counts(fac) == Counter({format_poly(a): 1, format_poly(b): 1})
    assert 1 <= len(calls) <= len(fac.factors)


def test_a_degree_test_disagreeing_with_division_raises(monkeypatch):
    K = GF(2)
    f = parse_poly("x1*x2 + x1 + x2 + 1", K, V2)
    monkeypatch.setattr(MultiPoly, "try_divexact", lambda self, other: None)
    with pytest.raises(ArithmeticError, match="degree test accepted a non-factor"):
        factor_multivariate(f)
