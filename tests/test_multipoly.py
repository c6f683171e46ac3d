"""Sparse multivariate arithmetic, substitution, content, gcd, degrees."""

import random
from fractions import Fraction

import pytest

from schinzelpoly.errors import VariableMismatchError, ZeroInputError
from schinzelpoly.multipoly import (
    NEG_INF,
    MultiPoly,
    VarSet,
    content,
    degree_in,
    degree_vector,
    format_poly,
    poly_gcd,
    primitive_part,
    substitute_y,
    total_degree,
)
from schinzelpoly.rings import GF, QQ, ZZ, PolyRing
from schinzelpoly.textform import parse_poly

F2 = GF(2)
F5 = GF(5)
R2u = PolyRing(F2)

V1 = VarSet(("x1",))
V2 = VarSet(("x1", "x2"))
V1y = VarSet(("x1", "y"))


def P(text, ring=ZZ, vars=V1):
    return parse_poly(text, ring, vars)


def test_mul_example():
    assert P("x1+1") * P("x1-1") == P("x1^2-1")


def test_mul_by_zero():
    f = P("x1^3 + 2*x1")
    assert (f * MultiPoly.zero(ZZ, V1)).is_zero()


def test_char2_square():
    f = parse_poly("y + x1", F2, V1y)
    assert f * f == parse_poly("y^2 + x1^2", F2, V1y)


def test_substitute_y_basic():
    Pp = P("y^2 + x1", ZZ, V1y)
    M = P("x1")
    assert substitute_y(Pp, M) == P("x1^2 + x1")


def test_substitute_y_swan_instance():
    Pp = parse_poly("y^8 + x1^3", F2, V1y)
    M = parse_poly("x1", F2, V1)
    F = substitute_y(Pp, M)
    assert F == parse_poly("x1^8 + x1^3", F2, V1)
    # the image factors as x^3 (x^5 + 1)
    assert F.try_divexact(parse_poly("x1^3", F2, V1)) == parse_poly("x1^5 + 1", F2, V1)


def test_substitute_goldbach_shape():
    Pp = P("-y", ZZ, V1y)
    M = P("x1^2 + 7")
    assert substitute_y(Pp, M) == -M


def test_substitute_is_ring_homomorphism():
    rng = random.Random(2)
    for _ in range(30):
        def rnd(vars, ring=ZZ, deg=2):
            terms = {}
            for e1 in range(deg + 1):
                for e2 in range(deg + 1):
                    c = rng.randrange(-2, 3)
                    if c:
                        terms[(e1, e2)] = c
            return MultiPoly.from_terms(ring, vars, terms)

        Pa = rnd(V1y)
        Pb = rnd(V1y)
        M = MultiPoly.from_terms(
            ZZ, V1, {(e,): rng.randrange(-2, 3) for e in range(3)})
        lhs = substitute_y(Pa * Pb, M)
        rhs = substitute_y(Pa, M) * substitute_y(Pb, M)
        assert lhs == rhs


def test_content_primitive_over_z():
    f = P("2*x1 + 4")
    assert content(f).value == 2
    assert primitive_part(f) == P("x1 + 2")


def test_content_over_field_is_one():
    f = P("x1 + 2", QQ)
    assert content(f).value == Fraction(1)


def test_content_over_f2u():
    f = parse_poly("(u^2+u)*x1 + u + 1", R2u, V1)
    assert content(f).value == (1, 1)  # u + 1
    assert primitive_part(f) == parse_poly("(u)*x1 + 1", R2u, V1)


def test_content_zero_polynomial():
    assert content(MultiPoly.zero(ZZ, V1)).value == 0


def test_poly_gcd_examples():
    f = parse_poly("x1^2 - x2^2", QQ, V2)
    g = parse_poly("x1 - x2", QQ, V2)
    assert poly_gcd(f, g) == g
    assert poly_gcd(parse_poly("x1", QQ, V2), parse_poly("x2", QQ, V2)) == \
        MultiPoly.one(QQ, V2)
    a = parse_poly("x1^2 + x1", F2, V1)
    b = parse_poly("x1^2 + 1", F2, V1)
    assert poly_gcd(a, b) == parse_poly("x1 + 1", F2, V1)


def test_poly_gcd_divides_both():
    rng = random.Random(3)
    for _ in range(25):
        def rnd(ring, conv):
            terms = {}
            for e1 in range(3):
                for e2 in range(2):
                    c = conv(rng.randrange(-3, 4))
                    if not ring.is_zero(c):
                        terms[(e1, e2)] = c
            return MultiPoly.from_terms(ring, V2, terms)

        for ring, conv in ((ZZ, lambda n: n), (F5, lambda n: n % 5)):
            f, g = rnd(ring, conv), rnd(ring, conv)
            if f.is_zero() and g.is_zero():
                continue
            h = poly_gcd(f, g)
            if not f.is_zero():
                assert f.try_divexact(h) is not None
            if not g.is_zero():
                assert g.try_divexact(h) is not None


def test_poly_gcd_both_zero_raises():
    with pytest.raises(ZeroInputError):
        poly_gcd(MultiPoly.zero(ZZ, V1), MultiPoly.zero(ZZ, V1))


def test_gauss_content_multiplicativity():
    rng = random.Random(4)
    for ring, rand_coeff in ((ZZ, lambda: rng.randrange(-6, 7)),
                             (R2u, lambda: tuple(rng.randrange(2) for _ in range(2)))):
        for _ in range(40):
            def rnd():
                terms = {}
                for e in range(3):
                    c = rand_coeff()
                    if isinstance(c, tuple):
                        cl = list(c)
                        while cl and cl[-1] == 0:
                            cl.pop()
                        c = tuple(cl)
                    if not ring.is_zero(c):
                        terms[(e,)] = c
                return MultiPoly.from_terms(ring, V1, terms)

            f, g = rnd(), rnd()
            if f.is_zero() or g.is_zero():
                continue
            lhs = (f * g).content_value()
            rhs = ring.canonical_split(ring.mul(f.content_value(), g.content_value()))[1]
            assert lhs == rhs


def test_degrees():
    f = parse_poly("x1^3*x2 + x2^2", QQ, V2)
    assert degree_vector(f) == (3, 2)
    assert total_degree(f) == 4
    assert total_degree(P("5")) == 0
    assert degree_in(parse_poly("y^8 + x1^3", F2, V1y), "y") == 8


def test_zero_degree_marker():
    z = MultiPoly.zero(ZZ, V2)
    assert total_degree(z) == NEG_INF
    assert degree_in(z, "x1") == NEG_INF
    assert degree_vector(z) == (0, 0)
    assert z.is_zero()


def test_unknown_variable():
    with pytest.raises(VariableMismatchError):
        degree_in(P("x1"), "x9")


def test_ring_axioms_random():
    rng = random.Random(5)
    for ring, conv in ((ZZ, lambda n: n), (F5, lambda n: n % 5),
                       (R2u, lambda n: (n % 2,) if n % 2 else ())):
        for _ in range(25):
            def rnd():
                terms = {}
                for e1 in range(2):
                    for e2 in range(2):
                        c = conv(rng.randrange(-4, 5))
                        if not ring.is_zero(c):
                            terms[(e1, e2)] = c
                return MultiPoly.from_terms(ring, V2, terms)

            f, g, h = rnd(), rnd(), rnd()
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert (f * g) * h == f * (g * h)
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h


def test_divmod_single():
    f = P("x1^3 + 2*x1 + 1")
    g = P("x1^2 + 1")
    q, r = f.divmod_single(g)
    assert q * g + r == f
    assert r == P("x1 + 1")


def test_divmod_multivariate_property():
    rng = random.Random(6)
    for _ in range(30):
        def rnd():
            terms = {}
            for e1 in range(3):
                for e2 in range(3):
                    c = rng.randrange(-3, 4)
                    if c:
                        terms[(e1, e2)] = Fraction(c)
            return MultiPoly.from_terms(QQ, V2, terms)

        f, g = rnd(), rnd()
        if g.is_zero():
            continue
        q, r = f.divmod_single(g)
        assert q * g + r == f


def test_try_divexact_roundtrip():
    rng = random.Random(7)
    for _ in range(30):
        def rnd(ring, conv):
            terms = {}
            for e1 in range(3):
                for e2 in range(2):
                    c = conv(rng.randrange(-3, 4))
                    if not ring.is_zero(c):
                        terms[(e1, e2)] = c
            return MultiPoly.from_terms(ring, V2, terms)

        for ring, conv in ((ZZ, lambda n: n), (F2, lambda n: n % 2)):
            f, g = rnd(ring, conv), rnd(ring, conv)
            if f.is_zero() or g.is_zero():
                continue
            prod = f * g
            q = prod.try_divexact(g)
            assert q == f
            # and a non-divisor usually fails
            if not (prod + MultiPoly.one(ring, V2)).is_zero():
                q2 = (prod + MultiPoly.one(ring, V2)).try_divexact(g)
                if q2 is not None:
                    assert q2 * g == prod + MultiPoly.one(ring, V2)


def test_canonical_printing():
    assert format_poly(P("x1^2 - 2*x1 + 3")) == "x1^2 - 2*x1 + 3"
    assert format_poly(P("-x1 + 1")) == "-x1 + 1"
    assert format_poly(MultiPoly.zero(ZZ, V1)) == "0"
    f = parse_poly("x2 + x1 + x1^2", QQ, V2)
    assert format_poly(f) == "x1^2 + x1 + x2"  # graded-lex descending


def test_zero_and_naming_edges():
    zero = MultiPoly.constant(F5, V1, 0)
    assert zero.is_zero() and zero.primitive_part() is zero
    assert zero.monic_normalize() == (1, zero)
    assert MultiPoly.monomial(F5, V1, (2,), 0) == zero
    assert hash(VarSet(("x1", "x2"))) == hash(V2)
    assert repr(V2) == "VarSet('x1', 'x2')"
    f = parse_poly("x1 + 2", F5, ("x1",))  # a tuple of names is taken as a VarSet
    assert f.vars == V1
    assert repr(f) == "MultiPoly(GF(5), 'x1 + 2')"
