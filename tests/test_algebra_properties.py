"""Property tests of division with remainder, gcds, factoring, the dense
layout and the text form: the remainder of a single-divisor division is
reduced and exact division agrees with it, a gcd divides both inputs and
is divided by every common factor, a factorization recomposes to its
input, decoding an encoded polynomial gives it back, and so does parsing a
printed one; the polynomial CRT meets every residue below the degree of
the product of its moduli, and the Capelli test agrees with deciding
b*y^rho + a directly.  Skipped when hypothesis is not installed."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from schinzelpoly.constructions import poly_crt, poly_mod  # noqa: E402
from schinzelpoly.factor import capelli_check, factor_multivariate, is_irreducible  # noqa: E402
from schinzelpoly.multipoly import (MultiPoly, VarSet, dense_decode, dense_encode,  # noqa: E402
                                   format_poly, poly_gcd)
from schinzelpoly.rings import GF, QQ, ZZ, PolyRing, u_trim  # noqa: E402
from schinzelpoly.textform import parse_poly  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                               database=None)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def poly_ring_values(K, base_values, max_deg):
    """Values of K[u]: lists of base values, low to high, stripped."""
    return st.lists(base_values, max_size=max_deg + 1).map(
        lambda c: tuple(u_trim(c, K.base)))


F4 = GF(2, 2)
RINGS = {
    "Z": (ZZ, st.integers(-9, 9)),
    "Q": (QQ, rationals),
    "GF(3)": (GF(3), st.integers(0, 2)),
    "GF(5)": (GF(5), st.integers(0, 4)),
    "GF(2^2)": (F4, st.sampled_from(F4.element_box())),
    "GF(2)[u]": (PolyRing(GF(2)), poly_ring_values(PolyRing(GF(2)), st.integers(0, 1), 2)),
    "GF(3)[u]": (PolyRing(GF(3)), poly_ring_values(PolyRing(GF(3)), st.integers(0, 2), 2)),
    "Q[u]": (PolyRing(QQ), poly_ring_values(PolyRing(QQ), rationals, 2)),
    "GF(2^2)[u]": (PolyRing(F4), poly_ring_values(PolyRing(F4),
                                                   st.sampled_from(F4.element_box()), 2)),
}
NAMES = ("x1", "x2", "x3")


def polys(ring, values, vars, max_deg, max_terms):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in vars.names])
    return st.dictionaries(exps, values, max_size=max_terms).map(
        lambda terms: MultiPoly.from_terms(ring, vars, terms))


@SETTINGS
@hypothesis.given(st.sampled_from(["Z", "Q", "GF(3)", "GF(2^2)", "GF(2)[u]"]),
                  st.integers(1, 3), st.booleans(), st.data())
def test_division_remainder_is_reduced_and_exact_division_agrees(ring_name, n, multiple,
                                                                  data):
    ring, values = RINGS[ring_name]
    vars = VarSet(NAMES[:n])
    g = data.draw(polys(ring, values, vars, 2, 4))
    hypothesis.assume(not g.is_zero())
    f = data.draw(polys(ring, values, vars, 3, 6))
    if multiple:
        f = f * g
    q, r = f.divmod_single(g)
    assert q * g + r == f
    g_exps, g_lc = g.leading_term()
    for e, v in r.terms.items():
        # over a field every coefficient divides; over Z and k[u] a term
        # whose exponent LT(g) divides stays only when its coefficient
        # does not divide
        assert not (all(a >= b for a, b in zip(e, g_exps))
                    and ring.try_divexact(v, g_lc) is not None), (f, g, e)
    exact = f.try_divexact(g)
    assert exact == (q if r.is_zero() else None)
    if multiple:
        assert r.is_zero()


@SETTINGS
@hypothesis.given(st.sampled_from(["Z", "Q", "GF(5)", "GF(2^2)", "GF(3)[u]", "Q[u]",
                                   "GF(2^2)[u]"]), st.data())
def test_parse_of_format_is_the_identity(ring_name, data):
    ring, values = RINGS[ring_name]
    vars = VarSet(("x1", "y"))
    f = data.draw(polys(ring, values, vars, 3, 6))
    assert parse_poly(format_poly(f), ring, vars) == f


PROPERTY_RINGS = ["Z", "Q", "GF(3)", "GF(2^2)", "GF(2)[u]"]


@hypothesis.settings(SETTINGS, max_examples=80)
@hypothesis.given(st.sampled_from(PROPERTY_RINGS), st.integers(1, 3), st.booleans(), st.data())
def test_gcd_divides_both_inputs_and_takes_every_common_factor(ring_name, n, one_var, data):
    # one_var keeps both inputs in x1 alone, the dense univariate path over
    # Z and GF(p); otherwise the primitive PRS runs.  Partial degrees <= 2.
    ring, values = RINGS[ring_name]
    vars = VarSet(NAMES[:n])
    draw_vars = VarSet(NAMES[:1]) if one_var else vars
    a, b, c = (data.draw(polys(ring, values, draw_vars, 1, 3)).embed(vars) for _ in range(3))
    f, g = a * c, b * c
    hypothesis.assume(not (f.is_zero() and g.is_zero()))
    h = poly_gcd(f, g)
    assert h.monic_normalize()[1] == h
    assert f.try_divexact(h) is not None and g.try_divexact(h) is not None, (f, g, h)
    assert h.try_divexact(c) is not None, (f, g, h, c)


@hypothesis.settings(SETTINGS, max_examples=60)
@hypothesis.given(st.sampled_from(PROPERTY_RINGS), st.integers(1, 3), st.data())
def test_factorization_recomposes_to_its_input(ring_name, n, data):
    ring, values = RINGS[ring_name]
    vars = VarSet(NAMES[:n])
    a, b = (data.draw(polys(ring, values, vars, 1, 3)) for _ in range(2))
    f = a * b
    hypothesis.assume(not f.is_zero())
    fac = factor_multivariate(f)
    assert fac.recompose_over(vars) == f
    for g, m in fac.factors:
        assert m >= 1 and g.monic_normalize()[1] == g, (f, g)


@SETTINGS
@hypothesis.given(st.sampled_from(PROPERTY_RINGS), st.integers(1, 3), st.data())
def test_decode_of_encode_is_the_identity(ring_name, n, data):
    # any radix above a variable's degree gives an injective layout; the
    # last variable has none
    ring, values = RINGS[ring_name]
    vars = VarSet(NAMES[:n])
    f = data.draw(polys(ring, values, vars, 3, 6))
    radices = [d + 1 + data.draw(st.integers(0, 2)) for d in f.degree_vector()[:-1]]
    strides = [1]
    for r in radices:
        strides.append(strides[-1] * r)
    c, den = dense_encode(ring, f.terms, strides)
    assert c[-1] if c else f.is_zero()  # trimmed: the last slot holds a term
    assert dense_decode(ring, vars, c, radices, den) == f


def coprime(f, g):
    h = poly_gcd(f, g)
    return h.is_constant() and h.ring.is_unit(h.constant_value())


@hypothesis.settings(SETTINGS, max_examples=60)
@hypothesis.given(st.sampled_from(["Q", "GF(3)", "GF(2^2)"]), st.integers(1, 3), st.data())
def test_crt_meets_every_residue_below_the_degree_of_the_modulus(ring_name, count, data):
    ring, values = RINGS[ring_name]
    vars = VarSet(NAMES[:1])
    moduli = []
    for _ in range(8):  # draws until count nonconstant, pairwise coprime moduli
        m = data.draw(polys(ring, values, vars, 2, 3))
        if m.total_degree() >= 1 and all(coprime(m, n) for n in moduli):
            moduli.append(m)
            if len(moduli) == count:
                break
    hypothesis.assume(len(moduli) == count)
    targets = [data.draw(polys(ring, values, vars, 3, 4)) for _ in moduli]
    r = poly_crt(list(zip(targets, moduli)))
    for t, m in zip(targets, moduli):
        assert poly_mod(r - t, m).is_zero(), (targets, moduli, r)
    assert r.is_zero() or r.total_degree() < sum(m.total_degree() for m in moduli)


@hypothesis.settings(SETTINGS, max_examples=60)
@hypothesis.given(st.sampled_from(["Z", "Q", "GF(3)", "GF(2^2)"]), st.integers(1, 4),
                  st.integers(1, 4), st.data())
def test_capelli_check_agrees_with_deciding_the_binomial(ring_name, rho, power, data):
    # with a, b coprime, b*y^rho + a is primitive in y, so by Gauss's lemma
    # it is irreducible in K[x1, y] exactly when it is over K(x1).  When the
    # drawn power divides rho, -a/b is drawn as a power of that order, the
    # reducible side of the test.
    ring, values = RINGS[ring_name]
    vars, both = VarSet(("x1",)), VarSet(("x1", "y"))
    if power > 1 and rho % power == 0:
        g, h = (data.draw(polys(ring, values, vars, 1, 2)) for _ in range(2))
        a, b = -(g ** power), h ** power
    else:
        a, b = (data.draw(polys(ring, values, vars, 2, 3)) for _ in range(2))
    hypothesis.assume(not a.is_zero() and not b.is_zero() and coprime(a, b))
    y = MultiPoly.from_terms(ring, both, {(0, 1): ring.one})
    binomial = b.embed(both) * y ** rho + a.embed(both)
    assert capelli_check(a, b, rho) == bool(is_irreducible(binomial)), (a, b, rho)
