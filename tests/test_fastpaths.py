"""The GF(p) integer kernels, dense substitution and heap-ordered exact
division, each checked against a plain reference written here."""

import random
from fractions import Fraction

import pytest

from schinzelpoly.multipoly import MultiPoly, VarSet, grlex_key
from schinzelpoly.rings import GF, QQ, ZZ, PolyRing, u_add, u_deriv, u_divmod, u_mul, u_sub

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
        rem = rem - g.mul_monomial(diff, c)
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
