"""Sparse multivariate polynomials over any coefficient ring.

Terms are stored in a dict mapping exponent vectors (one nonnegative int
per variable) to nonzero raw coefficient values.  Graded-lexicographic
order (total degree first, then exponent vector) fixes iteration and
printing, so equal polynomials print identically.

The degree of the zero polynomial is the distinguished marker NEG_INF,
never -1, so sentinel arithmetic cannot slip through silently.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from operator import mul

from .errors import (
    BudgetExceededError,
    RingMismatchError,
    VariableMismatchError,
    ZeroInputError,
)
from .rings import (
    IntegerRing,
    PolyRing,
    PrimeField,
    RationalField,
    Ring,
    SLOT_MOD,
    RingElement,
    dense_trim,
    pack_slots,
    u_gcd,
    zm_add,
    zm_mul,
    zx_add,
    zx_gcd,
    zx_mul,
)

NEG_INF = float("-inf")

# the largest exponent the parser accepts and the largest degree of a dense
# coefficient list; a list that long takes about 8 MB
DEGREE_CAP = 1 << 20


def check_degree(d, what):
    """Refuse a degree or exponent above DEGREE_CAP, before anything dense
    is built from it."""
    if d > DEGREE_CAP:
        raise BudgetExceededError(f"{what} {d} exceeds the degree cap of {DEGREE_CAP}")


class VarSet:
    """An ordered set of distinct variable names."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise VariableMismatchError(f"unknown variable {name!r} (have {self.names})") from None

    def __contains__(self, name):
        return name in self._index

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other):
        return isinstance(other, VarSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarSet{self.names}"

    def without(self, name):
        return VarSet(tuple(n for n in self.names if n != name))


def grlex_key(exps):
    return (sum(exps), exps)


class MultiPoly:
    """A sparse multivariate polynomial; immutable by convention."""

    __slots__ = ("ring", "vars", "terms")

    def __init__(self, ring: Ring, vars: VarSet, terms: dict):
        self.ring = ring
        self.vars = vars
        self.terms = terms  # exponent tuple -> nonzero raw value

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_terms(cls, ring, vars, terms):
        n = len(vars)
        clean = {}
        for exps, value in terms.items():
            exps = tuple(exps)
            if len(exps) != n or any(e < 0 for e in exps):
                raise VariableMismatchError(f"exponent vector {exps} does not fit {vars}")
            if ring.is_zero(value):
                continue
            if exps in clean:
                value = ring.add(clean[exps], value)
                if ring.is_zero(value):
                    del clean[exps]
                    continue
            clean[exps] = value
        return cls(ring, vars, clean)

    @classmethod
    def zero(cls, ring, vars):
        return cls(ring, vars, {})

    @classmethod
    def constant(cls, ring, vars, value):
        if ring.is_zero(value):
            return cls.zero(ring, vars)
        return cls(ring, vars, {(0,) * len(vars): value})

    @classmethod
    def one(cls, ring, vars):
        return cls.constant(ring, vars, ring.one)

    @classmethod
    def monomial(cls, ring, vars, exps, coeff=None):
        coeff = ring.one if coeff is None else coeff
        if ring.is_zero(coeff):
            return cls.zero(ring, vars)
        return cls(ring, vars, {tuple(exps): coeff})

    @classmethod
    def variable(cls, ring, vars, name):
        exps = [0] * len(vars)
        exps[vars.index(name)] = 1
        return cls.monomial(ring, vars, exps)

    # -- structure -----------------------------------------------------------

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(f"polynomials over {self.ring} and {other.ring} do not mix")
        if self.vars is not other.vars and self.vars != other.vars:
            raise VariableMismatchError(f"variable sets {self.vars} and {other.vars} differ")

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * len(self.vars), self.ring.zero)

    def sorted_terms(self):
        """Terms in graded-lex descending order."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def leading_term(self):
        if not self.terms:
            raise ZeroInputError("the zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def key(self):
        """Hashable canonical identity (ring, vars, sorted terms)."""
        return (self.ring.spec_string(), self.vars.names, tuple(self.sorted_terms()))

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.ring == other.ring
                and self.vars == other.vars and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        return f"MultiPoly({self.ring}, {format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)

    # -- degrees ---------------------------------------------------------------

    def total_degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def degree_in(self, name):
        i = self.vars.index(name)
        if not self.terms:
            return NEG_INF
        return max(e[i] for e in self.terms)

    def degree_vector(self):
        """Per-variable max exponents; all zeros for the zero polynomial."""
        n = len(self.vars)
        vec = [0] * n
        for e in self.terms:
            for i in range(n):
                if e[i] > vec[i]:
                    vec[i] = e[i]
        return tuple(vec)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        ring = self.ring
        out = dict(self.terms)
        for e, v in other.terms.items():
            if e in out:
                s = ring.add(out[e], v)
                if ring.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = v
        return MultiPoly(ring, self.vars, out)

    def __neg__(self):
        ring = self.ring
        return MultiPoly(ring, self.vars, {e: ring.neg(v) for e, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        ring = self.ring
        out = {}
        for e1, v1 in self.terms.items():
            for e2, v2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = ring.mul(v1, v2)
                if e in out:
                    v = ring.add(out[e], v)
                    if ring.is_zero(v):
                        del out[e]
                        continue
                if not ring.is_zero(v):
                    out[e] = v
        return MultiPoly(ring, self.vars, out)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = MultiPoly.one(self.ring, self.vars)
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, value):
        ring = self.ring
        if ring.is_zero(value):
            return MultiPoly.zero(ring, self.vars)
        return MultiPoly(ring, self.vars,
                         {e: ring.mul(v, value) for e, v in self.terms.items()})

    # -- variable plumbing ---------------------------------------------------------

    def embed(self, new_vars: VarSet):
        """Reinterpret over a superset of variables (by name)."""
        mapping = [new_vars.index(n) for n in self.vars.names]
        n = len(new_vars)
        out = {}
        for e, v in self.terms.items():
            ee = [0] * n
            for i, x in enumerate(e):
                ee[mapping[i]] = x
            out[tuple(ee)] = v
        return MultiPoly(self.ring, new_vars, out)

    def coeffs_in(self, name):
        """Dense coefficient list w.r.t. one variable (entries share self.vars)."""
        i = self.vars.index(name)
        d = 0 if not self.terms else max(e[i] for e in self.terms)
        buckets = [dict() for _ in range(d + 1)]
        for e, v in self.terms.items():
            ee = e[:i] + (0,) + e[i + 1:]
            buckets[e[i]][ee] = v
        return [MultiPoly(self.ring, self.vars, b) for b in buckets]

    @staticmethod
    def from_coeffs_in(name, coeffs):
        """Inverse of coeffs_in."""
        if not coeffs:
            raise ValueError("empty coefficient list")
        ring, vars = coeffs[0].ring, coeffs[0].vars
        i = vars.index(name)
        out = {}
        for power, c in enumerate(coeffs):
            for e, v in c.terms.items():
                if e[i]:
                    raise VariableMismatchError(f"coefficient {power} involves {name}")
                out[e[:i] + (power,) + e[i + 1:]] = v
        return MultiPoly(ring, vars, out)

    def substitute(self, name, value_poly):
        """Substitute a polynomial for one variable; the variable disappears.
        A Specializer of self computes it."""
        spec = Specializer(self, name)  # an unknown name raises here
        if value_poly.ring != self.ring:
            raise RingMismatchError("substitution value lives in a different ring")
        return spec(value_poly)

    # -- content / normalization ---------------------------------------------------

    def content_value(self):
        """Ring content: gcd of the coefficients (0 for the zero polynomial).

        Over a field this is 1 for any nonzero polynomial.
        """
        ring = self.ring
        if not self.terms:
            return ring.zero
        if ring.is_field:
            return ring.one
        acc = None
        for _, v in self.sorted_terms():
            acc = v if acc is None else ring.gcd(acc, v)
            if ring.is_unit(acc) and acc == ring.one:
                break
        return ring.canonical_split(acc)[1]

    def primitive_part(self):
        c = self.content_value()
        if self.ring.is_zero(c):
            return self
        return self.div_scalar(c)

    def div_scalar(self, value):
        ring = self.ring
        out = {}
        for e, v in self.terms.items():
            q = ring.try_divexact(v, value)
            if q is None:
                raise ArithmeticError(f"coefficient {ring.format(v)} not divisible by {ring.format(value)}")
            out[e] = q
        return MultiPoly(ring, self.vars, out)

    def monic_normalize(self):
        """Canonical associate: returns (unit value, normalized poly).

        unit * normalized == self.  Fields: monic leading coefficient;
        Z: positive leading coefficient; k[u]: monic-in-u leading coefficient.
        """
        if not self.terms:
            return self.ring.one, self
        _, lc = self.leading_term()
        unit, _ = self.ring.canonical_split(lc)
        if unit == self.ring.one:
            return unit, self
        if self.ring.is_field:
            return unit, self.scale(self.ring.inv(unit))
        return unit, self.div_scalar(unit)

    # -- division ---------------------------------------------------------------------

    def divmod_single(self, g):
        """Multivariate division by a single divisor in graded-lex order.

        Returns (q, r) with self = q*g + r and no term of r divisible by
        the leading term of g (including coefficient divisibility over a
        non-field ring).
        """
        return self._divide(g, exact=False)

    def try_divexact(self, g):
        """self / g when g divides exactly in R[vars], else None."""
        return self._divide(g, exact=True)

    def _divide(self, g, exact):
        """(q, r) as divmod_single returns them or, in exact mode, q, and
        None at the first term that would go to r or when g = 0.

        The part of self not yet reduced lives in one dict updated in
        place, keyed by packed exponents: an exponent vector e becomes the
        integer sum(e)*B^n + sum(e_i * B^(n-1-i)), whose order is graded
        lex while every e_i < B, and which adds up when monomials
        multiply.  A heap of these keys yields its leading term (Monagan
        and Pearce 2007); entries whose term has cancelled are skipped on
        pop.  A term that LT(g) does not divide, by exponent or by
        coefficient, moves to r.
        """
        self._check(g)
        if g.is_zero():
            if exact:
                return None
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self if exact else (self, self)
        ring, vars = self.ring, self.vars
        n = len(vars)
        g_exps, g_lc = g.leading_term()
        # every term left has total degree <= that of self, so B bounds
        # each of its exponents
        B = self.total_degree() + 1
        if exact and sum(g_exps) >= B:
            return None
        q, r = {}, {}
        if len(g.terms) == 1:
            # a monomial divides term by term (most divisors the Kronecker
            # route and the gcd contents pass in)
            for e, v in self.terms.items():
                diff = tuple(a - b for a, b in zip(e, g_exps))
                c = None if any(d < 0 for d in diff) else ring.try_divexact(v, g_lc)
                if c is not None:
                    q[diff] = c
                elif exact:
                    return None
                else:
                    r[e] = v
        else:
            weights = [B ** (n - 1 - k) for k in range(n)]
            top = B ** n
            # pack(e) = sum(e)*top + sum(e_i*weights_i), one product per exponent
            coef = [top + w for w in weights]
            rem = {sum(map(mul, e, coef)): v for e, v in self.terms.items()}
            heap = [-k for k in rem]
            heapq.heapify(heap)
            g_key = sum(map(mul, g_exps, coef))
            g_rest = [(sum(map(mul, e, coef)) - g_key, v)
                      for e, v in g.terms.items() if e != g_exps]
            while heap:
                k = -heapq.heappop(heap)
                v = rem.pop(k, None)
                if v is None:
                    continue
                low = k % top
                diff = []
                for w, ge in zip(weights, g_exps):
                    x, low = divmod(low, w)
                    if x < ge:
                        break
                    diff.append(x - ge)
                c = ring.try_divexact(v, g_lc) if len(diff) == n else None
                if c is None:
                    if exact:
                        return None
                    r[tuple(k % top // w % B for w in weights)] = v
                    continue
                q[tuple(diff)] = c
                for dk, v2 in g_rest:
                    t = k + dk
                    old = rem.get(t)
                    if old is None:
                        rem[t] = ring.neg(ring.mul(c, v2))
                        heapq.heappush(heap, -t)
                    else:
                        s = ring.sub(old, ring.mul(c, v2))
                        if ring.is_zero(s):
                            del rem[t]
                        else:
                            rem[t] = s
        quotient = MultiPoly(ring, vars, q)
        return quotient if exact else (quotient, MultiPoly(ring, vars, r))


# ---------------------------------------------------------------------------
# Dense layouts: the one encoder and the one decoder between MultiPoly
# terms and dense lists.
# ---------------------------------------------------------------------------

def dense_encode(ring, terms, strides, what="dense image degree"):
    """(c, den): the dense list holding each term x^e of terms at slot
    sum(e_j * strides[j]), zeros elsewhere, trimmed, and den = 1.  Over Q, c
    holds integers and den is the lcm of the denominators, so the terms are
    c / den.  The strides must keep the slots of distinct terms apart: in a
    Kronecker image (von zur Gathen & Gerhard, Modern Computer Algebra,
    §8.4) the stride of each variable is the product of the radices of the
    variables before it, each radix above that variable's degree.  A list
    longer than DEGREE_CAP is refused, its top slot named by what."""
    den, zero = 1, ring.zero
    if isinstance(ring, RationalField):
        (terms, den), zero = _integer_terms(terms), 0
    if len(strides) == 1:
        # one variable, the searches' images: skip the dot product
        s = strides[0]
        top = max(terms)[0] * s if terms else -1
        check_degree(top, what)
        c = [zero] * (top + 1)
        for (e,), v in terms.items():
            c[e * s] = v
        return c, den
    slots = _slots(terms, strides)
    top = max(slots, default=-1)
    check_degree(top, what)
    c = [zero] * (top + 1)
    for k, v in zip(slots, terms.values()):
        c[k] = v
    return c, den


def _integer_terms(terms):
    """(terms * den, den) for rational terms, den the lcm of their denominators."""
    den = math.lcm(*(v.denominator for v in terms.values()))
    return {e: v.numerator * (den // v.denominator) for e, v in terms.items()}, den


def _slots(terms, strides):
    """The slot sum(e_j * strides[j]) of each term x^e of terms, in order."""
    return [sum(map(mul, e, strides)) for e in terms]


def sparse_fold(f: MultiPoly, strides, var):
    """f in the one variable var, x^e taken to var^k at the slot k of
    dense_encode: its image kept sparse, so the cost follows the terms of f,
    not the length of the image, and no cap applies."""
    return MultiPoly(f.ring, VarSet((var,)),
                     {(k,): v for k, v in zip(_slots(f.terms, strides), f.terms.values())})


def dense_decode(ring, vars, c, radices, den=1):
    """The MultiPoly over vars with c[k] (over Q, c[k] / den) at x^e, where
    e_j is the j-th digit of k in the mixed radix radices, one radix per
    variable but the last, whose exponent takes what is left: the inverse
    of dense_encode for the strides of radices."""
    strides = list(itertools.accumulate(radices, mul, initial=1))[:len(vars)][::-1]
    rational = isinstance(ring, RationalField)
    terms = {}
    for k, v in enumerate(c):
        if v:
            e = []
            for s in strides:
                x, k = divmod(k, s)
                e.append(x)
            terms[tuple(e[::-1])] = Fraction(v, den) if rational else v
    return MultiPoly(ring, vars, terms)


def _split_rows(c, width):
    """The dense list c cut into trimmed rows of width slots: the rows in
    the last variable of an image whose other variables have radix width."""
    return [dense_trim(c[k:k + width]) for k in range(0, len(c), width)]


def dense_in_var(f: MultiPoly, var):
    """Coefficients of f in var, low to high; f may involve no other
    variable.  Over Q they are integers, a positive multiple of f's."""
    strides = [int(n == var) for n in f.vars.names]
    return dense_encode(f.ring, f.terms, strides, f"degree in {var}")[0]


def rows_of(f: MultiPoly, a, b):
    """The rows of f, which involves no variable but a and b: rows[j] is
    the trimmed coefficient list in a of b^j, over Q of integers, a
    positive multiple of f's.  Each nonempty row is encoded on its own and
    an empty one is [] with no encoding, so the rows take the room of their
    own lengths, not of a full degree box."""
    i, j = f.vars.index(a), f.vars.index(b)
    terms = _integer_terms(f.terms)[0] if isinstance(f.ring, RationalField) else f.terms
    rows = [{} for _ in range(1 + max(e[j] for e in terms))]
    for e, v in terms.items():
        rows[e[j]][(e[i],)] = v
    return [dense_encode(f.ring, row, [1], f"degree in {a}")[0] if row else []
            for row in rows]


def poly_from_rows(ring, vars, rows):
    """The MultiPoly over the two variables vars whose rows are rows, each
    decoded on its own."""
    first = VarSet(vars.names[:1])
    return MultiPoly(ring, vars, {(i, j): v for j, row in enumerate(rows)
                                  for (i,), v in dense_decode(ring, first, row, ()).terms.items()})


# ---------------------------------------------------------------------------
# Dense substitution: one P, many values for one of its variables.
# ---------------------------------------------------------------------------

# a Specializer substitutes a value by the sparse Horner when its dense
# image would have more than this many times the terms the image can have;
# over Z the dense pass measured about as fast as the sparse one there
_DENSE_SLACK = 16


class Specializer:
    """y -> g in a polynomial P over any ring: over GF(p^k) and k[u] by
    horner_substitute, over Z, Q and GF(p) on dense images.

    A polynomial in the variables left is handled as its Kronecker image
    (dense_encode), in which variable j has stride s_j: s_0 = 1 and
    s_(j+1) = s_j * (b_j + 1), where b_j = deg_j P + D * deg_j g, with D
    the degree of P in y (at least 1), bounds the degree in variable j of
    every Horner step, so no product wraps (von zur Gathen & Gerhard,
    Modern Computer Algebra, §8.4).  The strides depend only on the degrees
    of g in the variables left but the last, so one layout serves each such
    shape of value: built on first use and cached by that shape, it holds
    the strides and the rows of P in y (its coefficients, row_terms, as
    images), and each value g of the shape costs one Horner pass over
    them.  With one variable left the image is the coefficient list
    itself.  An image depends only on P and g, never on earlier values.
    MultiPoly.substitute builds one Specializer per call, and the witness
    searches keep one per P across their candidates.

    The image has prod_j (b_j + 1) slots however sparse P and g are, so a
    value whose image would pass DEGREE_CAP, or _DENSE_SLACK times the
    terms P(g) can have, is substituted by horner_substitute instead; dense
    refuses a value past DEGREE_CAP before any layout is built.

    Over GF(p) with p in SLOT_MOD the rows are also packed ints, one byte
    slot per coefficient, and a step acc * g + row runs on them whenever
    its slots stay below 256: len(g.terms) * (p-1)^2 + p - 1 < 256.  Over
    Q the Horner runs on integers: with P = sum_k c_k y^k / a for integral
    c_k and g = h / b for integral h,
    P(g) = sum_k c_k h^k b^(D-k) / (a b^D).
    Over GF(p)[u] and Q[u] with one variable x left, lifted is lift_u(P)'s.
    """

    __slots__ = ("P", "name", "ring", "left", "dense_ok", "lifted", "row_terms", "top", "den",
                 "p", "span", "layouts")

    def __init__(self, P, name):
        K = P.ring
        i = P.vars.index(name)
        self.P, self.name, self.ring = P, name, K
        self.left = P.vars.without(name)
        self.layouts = {}  # by the degrees of a value but the last, built by dense
        self.lifted = None
        self.dense_ok = isinstance(K, (IntegerRing, RationalField, PrimeField))
        if not self.dense_ok:
            if isinstance(K, PolyRing) and len(self.left) == 1:
                lifted = Specializer(lift_u(P), name)
                self.lifted = lifted if lifted.dense_ok else None
            return
        terms = P.terms
        self.den = 1
        if isinstance(K, RationalField):
            terms, self.den = _integer_terms(terms)
        top = P.degree_vector()
        check_degree(top[i], f"degree in {name}")
        self.row_terms = [{} for _ in range(top[i] + 1)]  # by power of y, top first
        for e, v in terms.items():
            self.row_terms[top[i] - e[i]][e[:i] + e[i + 1:]] = v
        self.top = top[:i] + top[i + 1:]
        self.p = K.p if isinstance(K, PrimeField) else 0
        self.span = max(top[i], 1)  # >= 1: the image of g itself fits when P has no y

    def dense(self, g, gdeg=None):
        """(c, den) with P(g) = c / den, for g over P's ring (Z, Q or GF(p))
        in the variables left: c is the image as a dense int
        list (the coefficient list when one variable is left), reduced mod p
        over GF(p), and den = 1 except over Q.  gdeg, when given, is the
        degree vector of g in the variables left.

        The layout of g's shape, gdeg[:-1], is (radices, strides, size,
        rows, packed): the images of row_terms, each at most size slots
        long, and the same rows as byte-slot ints (None unless p is in
        SLOT_MOD).  It is built on first use, after the length n of g's
        image is checked against DEGREE_CAP."""
        if len(self.top) == 1:
            # a third of a call faster than degree_vector
            gdeg = (max(g.terms)[0] if g.terms else 0,)
        else:
            gdeg = gdeg or g.degree_vector()
        D = self.span
        key = gdeg[:-1]
        layout = self.layouts.get(key)
        if layout is None:
            radices = [t + D * d + 1 for t, d in zip(self.top, key)]
            strides = list(itertools.accumulate(radices, mul, initial=1))[:len(self.top)]
            size = 1 + sum(map(mul, self.top, strides))
            rows = packed = None
        else:
            radices, strides, size, rows, packed = layout
        n = size + D * sum(map(mul, gdeg, strides))
        check_degree(n - 1, "Kronecker image degree")
        if rows is None:
            rows = [dense_encode(self.ring, row, strides)[0] for row in self.row_terms]
            packed = [pack_slots(r) for r in rows] if self.p in SLOT_MOD else None
            self.layouts[key] = (radices, strides, size, rows, packed)
        h, b = dense_encode(self.ring, g.terms, strides)
        p = self.p
        if packed is not None and len(g.terms) * (p - 1) ** 2 + p - 1 < 256:
            table, G, acc = SLOT_MOD[p], pack_slots(h), b""
            for row in packed:
                acc = (int.from_bytes(acc, "little") * G + row).to_bytes(n, "little").translate(table)
            return list(acc.rstrip(b"\0")), 1
        acc = []
        w = 1  # b^(D-k) at the row of y^k
        for c in rows:
            if w != 1:
                c = [v * w for v in c]
            acc = zm_add(zm_mul(acc, h, p), c, p) if p else zx_add(zx_mul(acc, h), c)
            w *= b
        return acc, self.den * b ** (len(rows) - 1)

    def _terms_bound(self, t):
        """A bound on the terms of P(g) for g of t terms: the row of y^d
        times g^d, which has at most C(t + d - 1, d) terms."""
        D = len(self.row_terms) - 1
        return sum(len(row) * (math.comb(t + D - k - 1, D - k) if k < D else 1)
                   for k, row in enumerate(self.row_terms))

    def _dense_pays(self, g, gdeg):
        """Whether P(g) is taken as a dense image rather than by horner_substitute."""
        n = math.prod(t + self.span * d + 1 for t, d in zip(self.top, gdeg))  # in g's own strides
        return n - 1 <= DEGREE_CAP and (n <= _DENSE_SLACK
                                        or n <= _DENSE_SLACK * self._terms_bound(len(g.terms)))

    def dense_rows(self, g):
        """P(g) in two variables left (a, b), over Q a multiple, as its rows
        (rows[j] in a at b^j); None where __call__ takes horner_substitute."""
        if g.vars.names != self.left.names:
            g = g.embed(self.left)
        gdeg = g.degree_vector()
        if not self._dense_pays(g, gdeg):
            return None
        c = self.dense(g, gdeg)[0]
        return _split_rows(c, self.layouts[gdeg[:-1]][0][0])

    def __call__(self, g):
        """P(g) as a MultiPoly in the variables left."""
        if g.vars.names != self.left.names:
            g = g.embed(self.left)
        if not self.dense_ok:
            return horner_substitute(self.P, self.name, g)
        gdeg = g.degree_vector()
        if not self._dense_pays(g, gdeg):
            return horner_substitute(self.P, self.name, g)
        c, den = self.dense(g, gdeg)
        return dense_decode(self.ring, self.left, c, self.layouts[gdeg[:-1]][0], den)


def lift_u(f: MultiPoly):
    """f over k[u] as a polynomial over k, with u one more variable, last."""
    base = f.ring.base
    terms = {}
    for e, uval in f.terms.items():
        for j, c in enumerate(uval):
            if not base.is_zero(c):
                terms[e + (j,)] = c
    return MultiPoly(base, VarSet(f.vars.names + ("u",)), terms)


def horner_substitute(P, name, g):
    """P with g substituted for name, for g over P.vars.without(name): a
    Horner pass on sparse MultiPolys."""
    i = P.vars.index(name)
    coeffs = []
    for c in P.coeffs_in(name):
        coeffs.append(MultiPoly(P.ring, g.vars, {e[:i] + e[i + 1:]: v for e, v in c.terms.items()}))
    acc = MultiPoly.zero(P.ring, g.vars)
    for c in reversed(coeffs):
        acc = acc * g + c
    return acc


# ---------------------------------------------------------------------------
# Spec-level operation names.
# ---------------------------------------------------------------------------

def substitute_y(P, M, yname="y"):
    """P(x, M(x)): substitute M for the designated y variable of P."""
    return P.substitute(yname, M)


def content(f) -> RingElement:
    return RingElement(f.ring, f.content_value())


def primitive_part(f):
    return f.primitive_part()


def total_degree(f):
    return f.total_degree()


def degree_in(f, name):
    return f.degree_in(name)


def degree_vector(f):
    return f.degree_vector()


# ---------------------------------------------------------------------------
# Multivariate gcd: primitive PRS in a main variable, recursing on the
# coefficients, with the ring gcd at the bottom.
# ---------------------------------------------------------------------------

def list_content(polys):
    """A gcd of the nonzero polynomials in a list (None when there are none)."""
    acc = None
    for c in polys:
        if c.is_zero():
            continue
        acc = c if acc is None else poly_gcd(acc, c)
        if acc.is_constant() and acc.ring.is_unit(acc.constant_value()):
            break
    return acc


def _prem(F, G):
    """Pseudo-remainder of dense coefficient lists (entries are MultiPoly).

    Returns some nonzero multiple of (F mod G); the caller strips content
    afterwards, so the exact lc power does not matter.
    """
    dG = len(G) - 1
    lc_g = G[-1]
    R = list(F)
    while R and len(R) - 1 >= dG:
        lc_r = R[-1]
        shift = len(R) - 1 - dG
        R = [lc_g * c for c in R]
        for i, gc in enumerate(G):
            R[shift + i] = R[shift + i] - lc_r * gc
        while R and R[-1].is_zero():
            R.pop()
    return R


def _sole_variable(f):
    """Name of the one variable a nonconstant f involves, or None."""
    if len(f.vars) == 1:
        return f.vars.names[0]
    found = None
    for e in f.terms:
        for i, x in enumerate(e):
            if x and i != found:
                if found is not None:
                    return None
                found = i
    return f.vars.names[found]


def _dense_gcd(f, g, var):
    """poly_gcd of f, g over Z or GF(p) that both involve only var, on the
    dense univariate kernels.  zx_gcd (positive leading coefficient) and
    u_gcd (monic) return the associate the PRS below normalizes to."""
    ring = f.ring
    a, b = dense_in_var(f, var), dense_in_var(g, var)
    d = u_gcd(a, b, ring) if isinstance(ring, PrimeField) else zx_gcd(a, b)
    return dense_decode(ring, VarSet((var,)), d, ()).embed(f.vars)


def poly_gcd(f, g):
    """A gcd in R[vars], canonical-unit-normalized (errors when both zero)."""
    f._check(g)
    ring = f.ring
    if f.is_zero() and g.is_zero():
        raise ZeroInputError("gcd(0, 0) is undefined for polynomials")
    if f.is_zero():
        return g.monic_normalize()[1]
    if g.is_zero():
        return f.monic_normalize()[1]
    if f.is_constant() and g.is_constant():
        return MultiPoly.constant(ring, f.vars,
                                  ring.gcd(f.constant_value(), g.constant_value()))
    # constants against polynomials: gcd of the constant with the content
    if f.is_constant() or g.is_constant():
        c, h = (f, g) if f.is_constant() else (g, f)
        value = ring.gcd(c.constant_value(), h.content_value())
        return MultiPoly.constant(ring, f.vars, ring.canonical_split(value)[1])
    if isinstance(ring, (IntegerRing, PrimeField)):
        var = _sole_variable(f)
        if var is not None and var == _sole_variable(g):
            return _dense_gcd(f, g, var)
    main = next(n for n in f.vars.names
                if f.degree_in(n) > 0 or g.degree_in(n) > 0)
    F = f.coeffs_in(main)
    G = g.coeffs_in(main)
    cont_f = list_content(F)
    cont_g = list_content(G)
    cont = poly_gcd(cont_f, cont_g)
    Fp = [c.try_divexact(cont_f) for c in F]
    Gp = [c.try_divexact(cont_g) for c in G]
    if len(Fp) < len(Gp):
        Fp, Gp = Gp, Fp
    while True:
        R = _prem(Fp, Gp)
        if not R:
            h = Gp
            break
        if len(R) == 1:
            h = None  # coprime up to content
            break
        rc = list_content(R)
        R = [c.try_divexact(rc) for c in R]
        Fp, Gp = Gp, R
    if h is None:
        result = cont
    else:
        hc = list_content(h)
        h = [c.try_divexact(hc) for c in h]
        result = cont * MultiPoly.from_coeffs_in(main, h)
    return result.monic_normalize()[1]


# ---------------------------------------------------------------------------
# Canonical text form (grammar shared with the CLI and golden files).
# ---------------------------------------------------------------------------

def format_poly(f: MultiPoly) -> str:
    """Canonical printing: graded-lex descending, '+'/'-' separators."""
    if f.is_zero():
        return "0"
    ring = f.ring
    parts = []
    for exps, value in f.sorted_terms():
        mono = "*".join(
            (name if e == 1 else f"{name}^{e}")
            for name, e in zip(f.vars.names, exps) if e > 0
        )
        cs = ring.format(value)
        # fold the sign into the separator only for atomic formats like
        # -3 or -1/2; composite strings such as -2*u + 1 stay intact
        negative = cs.startswith("-") and not any(ch in cs[1:] for ch in "+-*^ ")
        if negative:
            cs = cs[1:]
        if not mono:
            body = f"({cs})" if not negative and ring.format_needs_parens(value) else cs
        elif cs == "1":
            body = mono
        elif not negative and ring.format_needs_parens(value):
            body = f"({cs})*{mono}"
        else:
            body = f"{cs}*{mono}"
        parts.append(("-" if negative else "+", body))
    sign, body = parts[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
