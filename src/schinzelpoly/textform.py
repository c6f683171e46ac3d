"""Parsing of the polynomial text grammar.

Grammar (whitespace-insensitive):

    poly   := [sign] term (sign term)*
    term   := factor ('*'? factor)*
    factor := NUMBER ['/' NUMBER] | IDENT ['^' NUMBER] | '(' coeff ')' ['^' NUMBER]
    coeff  := poly, with no variable

Identifiers resolve to variables of the supplied VarSet, or to the ring's
coefficient symbol (u for k[u], t for GF(p^k)).  One sum/product walk
reads both a polynomial and a parenthesized coefficient, whose sum
collapses to one raw value.  Printing (the inverse) lives in
multipoly.format_poly and is canonical: graded-lex descending, no zero
terms, unary minus folded into the separator.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, VariableMismatchError
from .multipoly import MultiPoly, VarSet, check_degree
from .rings import ExtField, PolyRing, RationalField, Ring

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*^()/]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", position=pos)
        if m.group(1) is not None:
            tokens.append(("num", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("ident", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    return tokens


def _symbol_value(ring: Ring, name: str):
    """Raw value of a coefficient symbol, or None if the name is not one."""
    if isinstance(ring, ExtField) and name == "t":
        return ring.generator()
    if isinstance(ring, PolyRing):
        if name == "u":
            return ring.generator()
        if isinstance(ring.base, ExtField) and name == "t":
            return (ring.base.generator(),)
    return None


class _Parser:
    def __init__(self, text, ring, vars, aliases=None):
        self.text = text
        self.ring = ring
        self.vars = vars
        self.aliases = aliases or {}
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", position=pos)

    # -- coefficient pieces ---------------------------------------------------

    def parse_number(self):
        kind, val, pos = self.next()
        if kind != "num":
            raise ParseError("expected a number", position=pos)
        kind2, val2, _ = self.peek()
        if kind2 == "op" and val2 == "/":
            self.next()
            kind3, den, pos3 = self.next()
            if kind3 != "num":
                raise ParseError("expected a denominator", position=pos3)
            base = self.ring.base if isinstance(self.ring, PolyRing) else self.ring
            if not isinstance(base, RationalField):
                raise ParseError(f"fraction coefficient {val}/{den} is not in {self.ring}", position=pos)
            if den == 0:
                raise ParseError("zero denominator", position=pos3)
            frac = Fraction(val, den)
            if isinstance(self.ring, PolyRing):
                return (frac,) if frac else ()
            return frac
        return self.ring.from_int(val)

    def parse_exponent_suffix(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind2, e, pos2 = self.next()
            if kind2 != "num":
                raise ParseError("expected an exponent", position=pos2)
            check_degree(e, "exponent")
            return e
        return 1

    # -- sums and products -------------------------------------------------------

    def parse_sum(self, coeff=False):
        """poly, or with coeff the raw value of the sum inside parentheses,
        which ends at any token but a sign."""
        ring = self.ring
        terms = {}
        sign = 1
        kind, val, pos = self.peek()
        if kind is None and not coeff:
            raise ParseError("empty polynomial", position=0)
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        while True:
            exps, c = self.parse_product(coeff)
            if sign < 0:
                c = ring.neg(c)
            if exps in terms:
                c = ring.add(terms[exps], c)
            if ring.is_zero(c):
                terms.pop(exps, None)
            else:
                terms[exps] = c
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                sign = -1 if val == "-" else 1
            elif coeff:
                return terms.get((), ring.zero)
            elif kind is None:
                return MultiPoly(ring, self.vars, terms)
            else:
                raise ParseError(f"unexpected token {val!r}", position=pos)

    def parse_product(self, coeff):
        """(exponent vector, coefficient) of a term; with coeff no variable
        may occur and the exponent vector is ()."""
        ring = self.ring
        value = ring.one
        exps = [0] * (0 if coeff else len(self.vars))
        while True:  # at a factor: the first, one after '*', or an implicit product's
            kind, val, pos = self.peek()
            if kind == "num":
                value = ring.mul(value, self.parse_number())
            elif kind == "ident":
                name = self.aliases.get(val, val)
                var = not coeff and name in self.vars
                sym = None if var else _symbol_value(ring, val)
                if not var and sym is None:
                    raise ParseError(f"variable {val!r} not allowed inside a coefficient" if coeff
                                     else f"unknown variable {val!r}", position=pos)
                self.next()
                e = self.parse_exponent_suffix()
                if var:
                    exps[self.vars.index(name)] += e
                else:
                    value = ring.mul(value, ring.pow(sym, e))
            elif kind == "op" and val == "(":
                self.next()
                inner = self.parse_sum(coeff=True)
                self.expect_op(")")
                value = ring.mul(value, ring.pow(inner, self.parse_exponent_suffix()))
            else:
                raise ParseError("expected a coefficient" if coeff else "expected a term",
                                 position=pos)
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
            elif kind not in ("num", "ident") and not (kind == "op" and val == "("):
                return tuple(exps), value


def parse_poly(text, ring, vars, aliases=None) -> MultiPoly:
    """Parse a polynomial in the package grammar over the given ring/vars."""
    if isinstance(vars, (list, tuple)):
        vars = VarSet(vars)
    return _Parser(text, ring, vars, aliases=aliases).parse_sum()


def infer_vars(text):
    """Guess a VarSet from the identifiers appearing in a polynomial string.

    x/x1..xn sort before y/y1..ym; the bare names x and y are kept as
    given.  Coefficient symbols u and t are never variables.
    """
    names = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
    names.discard("u")
    names.discard("t")

    def sort_key(n):
        m = re.fullmatch(r"([xy])(\d*)", n)
        if not m:
            raise VariableMismatchError(f"cannot infer a variable role for {n!r}")
        return (0 if m.group(1) == "x" else 1, int(m.group(2) or 0))

    return VarSet(tuple(sorted(names, key=sort_key)))
