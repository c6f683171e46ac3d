"""The dense path of the witness searches: Specializer and
dense_is_irreducible against MultiPoly.substitute, is_irreducible and the
Kronecker oracle, the content and GF(p^k) specialization certificates of
bivariate finite-field inputs against the Kronecker oracle, and
bivariate_is_irreducible on dense rows against the MultiPoly rules, the
Kronecker oracle and, on whole search boxes, is_irreducible."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from schinzelpoly import factor as factor_mod
from schinzelpoly import multipoly
from schinzelpoly.factor import bivariate_is_irreducible, dense_is_irreducible, is_irreducible
from schinzelpoly.multipoly import (DEGREE_CAP, MultiPoly, Specializer, VarSet, dense_in_var,
                                   list_content, poly_gcd)
from schinzelpoly.rings import GF, QQ, ROOT_SCAN_LIMIT, ZZ, PolyRing, PrimeField, parse_ring
from schinzelpoly.schinzel import (SearchConstraints, image_irreducibility, iter_candidates,
                                   support_monomials)
from schinzelpoly.textform import parse_poly
from test_fastpaths import sparse_horner

X = VarSet(("x",))
XY = VarSet(("x", "y"))
YX = VarSet(("y", "x"))
V2 = VarSet(("x1", "x2"))
X1 = VarSet(("x1",))

# (ring, coefficient values, top degree): every polynomial of the box
BOXES = [
    (ZZ, [0, 1, -1, 2, -2, 6], 4),
    (QQ, [0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)], 3),
    (GF(2), [0, 1], 8),
    (GF(3), [0, 1, 2], 5),
    (GF(67), [0, 1, 2, 33, 65, 66], 4),
]


def univariate_box(ring, values, top):
    for coeffs in itertools.product(values, repeat=top + 1):
        terms = {(e,): Fraction(v) if ring is QQ else v for e, v in enumerate(coeffs) if v}
        if terms:
            yield MultiPoly(ring, X, terms)


def expected_method(f):
    """The route names is_irreducible has always reported for univariate f."""
    if f.is_constant():
        return "degree"
    if f.ring is ZZ and f.content_value() != 1:
        return "content"
    if f.degree_in("x") == 1:
        return "linear-variable"
    return "univariate-ff" if f.ring.is_finite else "kronecker"


@pytest.mark.parametrize("ring, values, top", BOXES, ids=[str(b[0]) for b in BOXES])
def test_dense_decision_matches_is_irreducible_on_every_box_polynomial(ring, values, top):
    assert GF(67).p > ROOT_SCAN_LIMIT
    seen = Counter()
    for f in univariate_box(ring, values, top):
        cert = is_irreducible(f)
        got = dense_is_irreducible(dense_in_var(f, "x"), ring)
        assert got == (cert.irreducible, cert.reason, cert.method), f
        assert got[2] == expected_method(f), f
        if not f.is_constant():
            assert got[0] == is_irreducible(f, method="kronecker").irreducible, f
        seen[got[1]] += 1
    assert seen["irreducible"] and seen["reducible"] and seen["unit/constant"]
    assert bool(seen["content"]) == (ring is ZZ)
    assert dense_is_irreducible([], ring) == (False, "unit/constant", "degree")


def test_dense_decision_over_q_takes_any_positive_integer_multiple():
    for f in univariate_box(QQ, [0, 1, -1, Fraction(1, 2), Fraction(-2, 3)], 3):
        c = dense_in_var(f, "x")
        scaled = [int(v * 6) for v in c]
        assert dense_is_irreducible(scaled, QQ) == dense_is_irreducible(c, QQ), f


def sparse_image(P, M):
    """P(y = M) as a sum of terms times powers of M, on MultiPoly arithmetic."""
    acc = MultiPoly.zero(P.ring, X)
    i = P.vars.index("y")
    for e, v in P.terms.items():
        acc = acc + MultiPoly.monomial(P.ring, X, e[:i] + e[i + 1:], v) * M ** e[i]
    return acc


def random_poly(rng, ring, vars, top, values):
    terms = {}
    for _ in range(rng.randrange(1, 7)):
        terms[tuple(rng.randrange(top + 1) for _ in vars)] = rng.choice(values)
    return MultiPoly.from_terms(ring, vars, terms)


@pytest.mark.parametrize("ring, values", [
    (ZZ, [1, -1, 2, -3, 5]),
    (QQ, [1, -1, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]),
    (GF(2), [1]),
    (GF(3), [1, 2]),
    (GF(67), [1, 2, 66, 40]),
], ids=["Z", "Q", "GF(2)", "GF(3)", "GF(67)"])
@pytest.mark.parametrize("vars", [XY, YX], ids=["xy", "yx"])
def test_one_specializer_serves_every_candidate(ring, values, vars):
    # one Specializer per P across many M, as a search keeps it: every image
    # matches the sparse reference, and the dense decision of every image
    # matches is_irreducible on the MultiPoly image
    rng = random.Random(f"{ring}/{vars.names}")
    for _ in range(6):
        P = random_poly(rng, ring, vars, 4, values)
        spec = Specializer(P, "y")
        assert spec.dense_ok
        for _ in range(25):
            M = random_poly(rng, ring, X, rng.randrange(0, 4), values + [0])
            c, den = spec.dense(M)
            want = sparse_image(P, M)
            got = MultiPoly(ring, X, {(e,): Fraction(v, den) if ring is QQ else v
                                      for e, v in enumerate(c) if v})
            assert got == want == spec(M) == P.substitute("y", M), (P, M)
            dense = image_irreducibility(spec, M)
            if want.is_zero():
                assert dense == (False, "unit/constant", "degree")
            else:
                cert = is_irreducible(want)
                assert dense == (cert.irreducible, cert.reason, cert.method), (P, M)
            assert image_irreducibility(Specializer(P, "y"), M) == dense


@pytest.mark.parametrize("ring", [GF(3), GF(2, 2), PolyRing(GF(2))], ids=str)
@pytest.mark.parametrize("vars", [XY, VarSet(("x1", "x2", "y")), VarSet(("y", "x1", "x2"))],
                         ids=["one-left", "two-left", "y-first"])
def test_specializer_over_every_ring_for_any_variables_left(ring, vars):
    # dense images over GF(p); over GF(p^k) and k[u] every image comes from
    # the dict Horner, and image_irreducibility decides it as
    # is_irreducible does
    rng = random.Random(f"{ring}/{vars.names}")
    left = vars.without("y")
    values = ring.element_box(deg_bound=1)[1:] if isinstance(ring, PolyRing) \
        else ring.element_box()[1:]
    for _ in range(4):
        P = random_poly(rng, ring, vars, 3, values)
        spec = Specializer(P, "y")
        assert spec.left == left
        assert spec.dense_ok == isinstance(ring, PrimeField)
        for _ in range(6):
            M = random_poly(rng, ring, left, rng.randrange(0, 3), values)
            image = spec(M)
            assert image == sparse_horner(P, "y", M) == P.substitute("y", M), (P, M)
            if image.is_zero():
                want = (False, "unit/constant", "degree")
            else:
                cert = is_irreducible(image)
                want = (cert.irreducible, cert.reason, cert.method)
            assert image_irreducibility(spec, M) == want, (P, M)
        if not spec.dense_ok:
            assert spec.layouts == {}  # no dense row was built


# ---------------------------------------------------------------------------
# The content and GF(p^k) specialization certificates against Kronecker
# ---------------------------------------------------------------------------

def every_bivariate(K, top):
    monos = list(itertools.product(range(top + 1), repeat=2))
    for coeffs in itertools.product(K.element_box(), repeat=len(monos)):
        terms = {e: v for e, v in zip(monos, coeffs) if v}
        if terms:
            yield MultiPoly(K, V2, terms)


def gf3_sample():
    """Seeded GF(3) inputs with partial degrees <= (3, 3): half of them
    random, half products of two random factors."""
    K = GF(3)
    rng = random.Random(2024)
    box = K.element_box()

    def rand(dx, dy):
        terms = {(i, j): rng.choice(box) for i in range(dx + 1) for j in range(dy + 1)}
        return MultiPoly.from_terms(K, V2, terms)

    out = []
    while len(out) < 240:
        if len(out) % 2:
            f = rand(rng.randint(1, 2), rng.randint(0, 2)) * rand(rng.randint(0, 1), rng.randint(1, 1))
        else:
            f = rand(3, 3)
        if not f.is_zero():
            out.append(f)
    return out


@pytest.mark.parametrize("inputs", [lambda: every_bivariate(GF(2), 2), gf3_sample],
                         ids=["GF(2)-every-(2,2)", "GF(3)-sample"])
def test_certificates_agree_with_kronecker(monkeypatch, inputs):
    drawn = []
    extension_points = factor_mod._extension_points

    def spy(p, m):
        for item in extension_points(p, m):
            drawn.append(item)
            yield item

    monkeypatch.setattr(factor_mod, "_extension_points", spy)
    routes = Counter()
    count = 0
    for f in inputs():
        count += 1
        drawn.clear()
        auto = is_irreducible(f, need_witness=True)
        oracle = is_irreducible(f, method="kronecker")
        assert auto.irreducible == oracle.irreducible, (f, auto.method)
        if auto.method == "content":
            assert auto.reason == "reducible" and not auto.irreducible
            w = auto.witness
            cofactor = f.try_divexact(w)
            assert not w.is_constant() and cofactor is not None and not cofactor.is_constant(), f
        if auto.method == "specialization":
            assert auto.irreducible
            # base points come first, so a drawn point of GF(p^k) decided it
            routes["extension" if drawn else "base"] += 1
            assert all(not isinstance(E, PrimeField) and any(len(a) > 1 for a in pt)
                       for E, pt in drawn)
        routes[auto.method] += 1
    if inputs is gf3_sample:
        assert count == 240
    else:
        assert count == 511
    assert routes["content"] and routes["extension"] and routes["base"], routes
    assert routes["kronecker"], routes


def test_a_content_free_of_base_roots_is_caught_before_the_extension_points():
    # (x2 + 1)(x1^2 + x1 + x2) over GF(2): no image at x2 in GF(2) keeps
    # degree 2 and is irreducible, but at x2 = t in GF(4) the image is
    # (t + 1)(x1^2 + x1 + t), irreducible over GF(4).  Only the content
    # in x1 stands between it and a false certificate.
    K = GF(2)
    f = MultiPoly(K, V2, {(2, 1): 1, (1, 1): 1, (0, 2): 1, (2, 0): 1, (1, 0): 1, (0, 1): 1})
    g = MultiPoly(K, V2, {(0, 1): 1, (0, 0): 1}) * MultiPoly(K, V2, {(2, 0): 1, (1, 0): 1, (0, 1): 1})
    assert f == g
    cert = is_irreducible(f, need_witness=True)
    assert (cert.irreducible, cert.reason, cert.method) == (False, "reducible", "content")
    assert cert.witness == MultiPoly(K, V2, {(0, 1): 1, (0, 0): 1})
    assert not is_irreducible(f, method="kronecker")


# ---------------------------------------------------------------------------
# Two-variable images on dense rows: bivariate_is_irreducible against the
# MultiPoly rules and Kronecker, and the search images against is_irreducible
# ---------------------------------------------------------------------------

def rows_of(f):
    """The rows of f over V2 built term by term; over Q of 6 * lcm * f."""
    scale = 1
    if f.ring is QQ:
        scale = 6 * math.lcm(*(v.denominator for v in f.terms.values()))
    rows = [[0 if f.ring is QQ else f.ring.zero] * (f.degree_in("x1") + 1)
            for _ in range(f.degree_in("x2") + 1)]
    for (i, j), v in f.terms.items():
        rows[j][i] = int(v * scale) if f.ring is QQ else v
    for row in rows:
        while row and not row[-1]:
            row.pop()
    return rows


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)], ids=str)
def test_rows_of_a_sparse_input_whose_box_passes_the_cap(ring):
    # the full box of x1^1100*x2 + x2^1100 has 1101^2 slots, past
    # DEGREE_CAP; each row is encoded and decoded on its own, so the input
    # is decided on its rows, by its Newton polygon
    f = parse_poly("x1^1100*x2 + x2^1100 + x1 + 1", ring, V2)
    assert 1101 ** 2 > DEGREE_CAP
    rows = multipoly.rows_of(f, "x1", "x2")
    assert [len(r) for r in rows] == [2, 1101] + [0] * 1098 + [1]
    assert multipoly.poly_from_rows(ring, V2, rows) == f
    assert is_irreducible(f).method == "newton-polytope"


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)], ids=str)
def test_rows_of_encodes_only_the_nonempty_rows(monkeypatch, ring):
    # 1001 rows of which 3 hold a term: the empty ones cost no encode
    f = parse_poly("x1^1000*x2 + x2^1000 + x1", ring, V2)
    encoded = []
    encode = multipoly.dense_encode
    monkeypatch.setattr(multipoly, "dense_encode",
                        lambda ring, terms, *rest: encoded.append(dict(terms))
                        or encode(ring, terms, *rest))
    rows = multipoly.rows_of(f, "x1", "x2")
    assert len(rows) == 1001 and sum(1 for r in rows if r) == 3
    assert len(encoded) == 3 and sorted(e for terms in encoded for (e,) in terms) == [0, 1, 1000]
    assert multipoly.poly_from_rows(ring, V2, rows) == f


def multipoly_route(f):
    """(irreducible, method, witness) of a bivariate f by the rules on
    MultiPolys that is_irreducible keeps for more variables: the degree-1
    rule, the Newton polygon, then the content and specialization
    certificates on the coefficients in the main variable, then Kronecker."""
    K = f.ring
    for v in V2.names:
        if f.degree_in(v) == 1:
            g = poly_gcd(*f.coeffs_in(v))
            unit = g.is_constant() and K.is_unit(g.constant_value())
            return unit, "linear-variable", None if unit else g
    if factor_mod._newton_indecomposable(set(f.terms)):
        return True, "newton-polytope", None
    main = max(V2.names, key=f.degree_in)
    others = [v for v in V2.names if v != main]
    j = f.vars.index(others[0])

    def content(v):
        acc = list_content(f.coeffs_in(v))
        unit = acc.is_constant() and K.is_unit(acc.constant_value())
        return None if unit else factor_mod.IrreducibilityCertificate(
            False, "reducible", acc.monic_normalize()[1], "content")

    def value(line, E, point):
        out = E.zero
        for e, v in line.terms.items():
            v = v if E is K else E.from_int(v)
            out = E.add(out, E.mul(v, E.pow(point[0], e[j])))
        return out

    cert = factor_mod._try_specialization_certificate(K, main, others, content,
                                                      f.coeffs_in(main), value)
    if cert is None:
        cert = is_irreducible(f, method="kronecker")
    return cert.irreducible, cert.method, cert.witness


def random_bivariate(K, values, count, seed):
    """count bivariate inputs over K, half with random terms, half products."""
    rng = random.Random(seed)

    def rand(dx, dy):
        terms = {(i, j): rng.choice(values) for i in range(dx + 1) for j in range(dy + 1)
                 if rng.random() < 0.7}
        return MultiPoly.from_terms(K, V2, terms)

    out = []
    while len(out) < count:
        f = rand(1, 1) * rand(rng.randint(0, 2), 1) if len(out) % 2 else rand(3, 2)
        if all(f.degree_in(v) > 0 for v in V2.names):
            out.append(f)
    return out


BIVARIATE_SAMPLES = {
    "GF(2)-every-(2,2)": lambda: [f for f in every_bivariate(GF(2), 2)
                                  if f.degree_in("x1") and f.degree_in("x2")],
    "GF(3)": lambda: [f for f in gf3_sample() if f.degree_in("x1") and f.degree_in("x2")],
    "GF(4)": lambda: random_bivariate(GF(2, 2), GF(2, 2).element_box(), 120, 4),
    "Z": lambda: random_bivariate(ZZ, [0, 1, -1, 2, -3, 4], 160, 5),
    "Q": lambda: random_bivariate(QQ, [Fraction(v) for v in (0, 1, -1, 0.5, -0.75)], 120, 6),
}


@pytest.mark.parametrize("name", list(BIVARIATE_SAMPLES))
def test_dense_rows_match_the_multipoly_rules_and_kronecker(name):
    routes = Counter()
    for f in BIVARIATE_SAMPLES[name]():
        if f.ring is ZZ and f.content_value() != 1:
            assert bivariate_is_irreducible(rows_of(f), ZZ, V2).method == "content", f
            continue
        cert = bivariate_is_irreducible(rows_of(f), f.ring, V2, need_witness=True)
        assert (cert.irreducible, cert.method, cert.witness) == multipoly_route(f), f
        assert cert.irreducible == is_irreducible(f, method="kronecker").irreducible, f
        assert cert.reason == ("irreducible" if cert.irreducible else "reducible")
        if not cert.irreducible:
            w = cert.witness
            assert w.vars == V2 and not w.is_constant() and f.try_divexact(w) is not None, f
        assert is_irreducible(f, need_witness=True) == cert, f
        routes[cert.method] += 1
    want = {"linear-variable", "newton-polytope", "specialization", "kronecker"}
    if f.ring.is_field:
        want.add("content")
    assert want <= set(routes), routes


def test_dense_rows_of_lifted_ku_images_match_is_irreducible():
    # every x-polynomial of degree <= 2 with GF(2)[u] coefficients of
    # degree <= 2, on the rows of its lifted form in (x1, u)
    R = PolyRing(GF(2))
    routes = Counter()
    for coeffs in itertools.product(R.element_box(deg_bound=2), repeat=3):
        f = MultiPoly(R, X1, {(i,): c for i, c in enumerate(coeffs) if c})
        rows = [[] for _ in range(max((len(c) for c in coeffs), default=0))]
        for i, c in enumerate(coeffs):
            for j, v in enumerate(c):
                rows[j] += [0] * (i - len(rows[j])) + [v] if v else []
        got = bivariate_is_irreducible(rows, GF(2), VarSet(("x1", "u")), in_ku=True)
        if f.is_zero():
            want = (False, "unit/constant", "degree")
        else:
            cert = is_irreducible(f)
            want = (cert.irreducible, cert.reason, cert.method)
            if not f.is_constant():
                assert got.irreducible == is_irreducible(f, method="kronecker").irreducible, f
        assert (got.irreducible, got.reason, got.method) == want, f
        routes[got.method] += 1
    assert set(routes) >= {"degree", "content", "linear-variable", "newton-polytope",
                           "specialization", "univariate-ff"}, routes


# the routes of each box's images
BOX_ROUTES = {
    "dirichlet-gf2": {"degree", "linear-variable", "univariate-ff", "newton-polytope", "content",
                      "specialization", "kronecker"},
    "dirichlet-gf3": {"degree", "linear-variable", "univariate-ff"},
    "pair-gf2u": {"degree", "linear-variable", "univariate-ff", "newton-polytope", "content",
                  "specialization", "kronecker"},
    "square-z": {"linear-variable", "newton-polytope", "specialization", "kronecker"},
}
SEARCH_BOXES = {
    "dirichlet-gf2": ("GF(2)", ["x1 + x2*y", "y"], (2, 2), None, None, 512),
    "dirichlet-gf3": ("GF(3)", ["x1 + x2*y", "y"], (1, 2), None, None, 729),
    "pair-gf2u": ("GF(2)[u]", ["y", "y+x1"], (2,), 2, None, 512),
    "square-z": ("Z", ["y^2+x1"], (1, 1), None, 1, 81),
}


@pytest.mark.parametrize("name", list(SEARCH_BOXES))
@pytest.mark.parametrize("reverse", [False, True], ids=["x-then-y", "y-then-reversed-x"])
def test_search_images_match_is_irreducible_on_whole_boxes(name, reverse):
    # image_irreducibility on the Specializer's dense rows against
    # is_irreducible on the MultiPoly image, for every candidate of the box
    spec_text, texts, d, deg_u, bound, size = SEARCH_BOXES[name]
    ring = parse_ring(spec_text)
    xnames = [f"x{i}" for i in range(1, len(d) + 1)]
    names = ["y"] + xnames[::-1] if reverse else xnames + ["y"]
    specs = [Specializer(parse_poly(t, ring, VarSet(names)), "y") for t in texts]
    xvars = specs[0].left
    d = tuple(d[xnames.index(n)] for n in xvars.names)
    cons = SearchConstraints(deg_u_bound=deg_u, coeff_bound=bound)
    routes = Counter()
    count = 0
    for M, _ in iter_candidates(ring, xvars, support_monomials(d), cons):
        count += 1
        for spec in specs:
            F = spec(M)
            if F.is_zero():
                want = (False, "unit/constant", "degree")
            else:
                cert = is_irreducible(F)
                want = (cert.irreducible, cert.reason, cert.method)
            assert image_irreducibility(spec, M) == want, (spec.P, M)
            routes[want[2]] += 1
    assert count == size
    # over Z the content in the main variable is the one tried, and with
    # equal degrees the variable order picks main
    assert BOX_ROUTES[name] <= set(routes) <= BOX_ROUTES[name] | {"content"}, routes
