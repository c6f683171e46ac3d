"""The polynomial text grammar: every ParseError path with its message and
position, inside a parenthesized coefficient and outside it, and the
print-parse round trip of k[u] coefficients."""

import itertools
import random
from fractions import Fraction

import pytest

from schinzelpoly.errors import ParseError
from schinzelpoly.multipoly import MultiPoly, VarSet
from schinzelpoly.rings import GF, QQ, ZZ, PolyRing, u_trim
from schinzelpoly.textform import parse_poly

V = VarSet(("x1", "y"))


@pytest.mark.parametrize("text, ring, message, position", [
    ("(x1 + 1)*y", ZZ, "variable 'x1' not allowed inside a coefficient", 1),
    ("2*(u + x1)", PolyRing(GF(2)), "variable 'x1' not allowed inside a coefficient", 7),
    ("(z)", ZZ, "variable 'z' not allowed inside a coefficient", 1),
    ("()", ZZ, "expected a coefficient", 1),
    ("x1*()", ZZ, "expected a coefficient", 4),
    ("(1 + )*x1", ZZ, "expected a coefficient", 5),
    ("(", ZZ, "expected a coefficient", 1),
    ("x1 + ", ZZ, "expected a term", 5),
    ("x1 + * 2", ZZ, "expected a term", 5),
    ("-", ZZ, "expected a term", 1),
    ("x1 )", ZZ, "unexpected token ')'", 3),
    ("(1 + 2) y)", ZZ, "unexpected token ')'", 9),
    ("", ZZ, "empty polynomial", 0),
    ("   ", ZZ, "empty polynomial", 0),
    ("1/2*x1", ZZ, "fraction coefficient 1/2 is not in Z", 0),
    ("x1 + (1/2)", GF(3), "fraction coefficient 1/2 is not in GF(3)", 6),
    ("(u + 1/2)*y", PolyRing(GF(3)), "fraction coefficient 1/2 is not in GF(3)[u]", 5),
    ("1/0*x1", QQ, "zero denominator", 2),
    ("(u - 3/0)*y", PolyRing(QQ), "zero denominator", 7),
    ("x1 + 1/", QQ, "expected a denominator", 7),
    ("x1^y", ZZ, "expected an exponent", 3),
    ("x1*y^", ZZ, "expected an exponent", 5),
    ("(1 + u)^", PolyRing(GF(2)), "expected an exponent", 8),
    ("x9 + 1", ZZ, "unknown variable 'x9'", 0),
    ("(1 + 1", ZZ, "expected ')'", 6),
    ("x1 + $", ZZ, "unexpected character '$'", 4),
    # a dangling '*' needs a factor after it
    ("x1*", ZZ, "expected a term", 3),
    ("x1 * + 1", ZZ, "expected a term", 5),
    ("(2*)*y", ZZ, "expected a coefficient", 3),
])
def test_parse_error_message_and_position(text, ring, message, position):
    with pytest.raises(ParseError) as ei:
        parse_poly(text, ring, V)
    assert ei.value.position == position
    assert str(ei.value) == f"{message} (at position {position})"


@pytest.mark.parametrize("text, ring, want", [
    # signs, implicit products and powers inside a coefficient
    ("-(-u + 1)^2 y", PolyRing(GF(3)), "(2*u^2 + 2*u + 2)*y"),
    ("(1/2 - 1/3)(2) x1", QQ, "(1/3)*x1"),
    ("((t + 1) t)*x1", GF(2, 2), "x1"),
    ("(u - u)*y + 1", PolyRing(GF(2)), "1"),
])
def test_parse_coefficient_expressions(text, ring, want):
    assert str(parse_poly(text, ring, V)) == want


@pytest.mark.parametrize("text, ring, want", [
    # a constant in u that k parenthesizes gets one pair, as over k itself
    ("x1^2 + 1/2", PolyRing(QQ), "x1^2 + (1/2)"),
    ("-1/2*x1 + 1/3", PolyRing(QQ), "-(1/2)*x1 + (1/3)"),
    ("1/2*x1*y", PolyRing(QQ), "(1/2)*x1*y"),
    ("x1^3 + t", PolyRing(GF(3, 2)), "x1^3 + (t)"),
    ("2*t*x1 + t + 1", PolyRing(GF(3, 2)), "(2*t)*x1 + (t + 1)"),
    ("t*u*x1 + (t + 1)*u + t", PolyRing(GF(2, 2)), "((t)*u)*x1 + ((t + 1)*u + (t))"),
])
def test_format_of_ku_constants(text, ring, want):
    assert str(parse_poly(text, ring, V)) == want


@pytest.mark.parametrize("ring", [PolyRing(QQ), PolyRing(GF(2, 2)), PolyRing(GF(3, 2))],
                         ids=str)
def test_ku_print_parse_roundtrip(ring):
    rng = random.Random(0)
    base = ring.base
    if base is QQ:
        values = [Fraction(n, d) for n in range(-2, 3) for d in (1, 2, 3)]
    else:
        values = base.element_box()
    for _ in range(300):
        terms = {}
        for e in itertools.product(range(2), repeat=2):
            a = u_trim([rng.choice(values) for _ in range(rng.randrange(3))], base)
            if a:
                terms[e] = tuple(a)
        f = MultiPoly(ring, V, terms)
        text = str(f)
        assert parse_poly(text, ring, V) == f, text
        for e, a in terms.items():
            if len(a) == 1:  # constant in u: one pair of parentheses at most
                term = str(MultiPoly(ring, V, {e: a}))
                assert "((" not in term and term.count("(") <= 1, term
