"""The Newton-polygon irreducibility certificate, and k[u] inputs decided on
their lifted base-field form.

The certificate is one-sided: a hit must be irreducible, a miss says
nothing.  Every hit is checked against brute-force trial division over
GF(2) and GF(3) and against sympy `factor_list` over Z (a test-only
dependency, skipped when it is not installed).
"""

import itertools
import json
import math
import random

import pytest

from schinzelpoly.cli import main
from schinzelpoly.factor import (
    _convex_hull,
    _newton_indecomposable,
    brute_force_irreducible,
    is_irreducible,
)
from schinzelpoly.multipoly import MultiPoly, VarSet
from schinzelpoly.rings import GF, ZZ, PolyRing
from schinzelpoly.textform import parse_poly

V2 = VarSet(("x1", "x2"))
V1 = VarSet(("x1",))
EFFECTIVE = ["x1", "x2"]


def box_polys(ring, vars, degs, values):
    """Every polynomial with coefficients from values in the degree box."""
    monomials = list(itertools.product(*[range(d + 1) for d in degs]))
    for assignment in itertools.product(values, repeat=len(monomials)):
        terms = {e: v for e, v in zip(monomials, assignment) if not ring.is_zero(v)}
        if terms:
            yield MultiPoly(ring, vars, terms)


def bivariate(f):
    return all(f.degree_in(v) > 0 for v in EFFECTIVE)


def support(f):
    return set(f.terms)


def newton_hit(f):
    return bivariate(f) and _newton_indecomposable(support(f))


# ---------------------------------------------------------------------------
# Differential checks: every hit is irreducible.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,degs", [(2, (2, 2)), (2, (3, 1)), (3, (2, 1))],
                         ids=["gf2-2x2", "gf2-3x1", "gf3-2x1"])
def test_hits_are_irreducible_by_brute_force(p, degs):
    K = GF(p)
    hits = 0
    for f in box_polys(K, V2, degs, list(range(p))):
        if newton_hit(f):
            hits += 1
            assert brute_force_irreducible(f), f
            # the linear-variable rule runs first and decides degree-1 inputs
            cert = is_irreducible(f)
            expect = "newton-polytope" if min(f.degree_vector()) >= 2 else "linear-variable"
            assert cert.irreducible and cert.method == expect, f
    assert hits >= 50


def test_gf3_hits_of_degree_two_are_irreducible_by_brute_force():
    rng = random.Random(3)
    K = GF(3)
    hits = 0
    while hits < 6:
        terms = {e: rng.randrange(3) for e in itertools.product(range(3), range(3))}
        f = MultiPoly.from_terms(K, V2, terms)
        if f.degree_vector() == (2, 2) and newton_hit(f):
            hits += 1
            assert brute_force_irreducible(f), f
            assert is_irreducible(f).method == "newton-polytope"


def decomposable_by_enumeration(f):
    """Every choice 0 <= m_i <= n_i over the hull's edges n_i * v_i, with no
    pruning: some choice other than all 0 and all n_i sums to zero."""
    points = sorted(f.terms)
    hull = _convex_hull(points)
    edges = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        n = math.gcd(b[0] - a[0], b[1] - a[1])
        edges.append(((b[0] - a[0]) // n, (b[1] - a[1]) // n, n))
    full = tuple(n for _, _, n in edges)
    for ms in itertools.product(*[range(n + 1) for n in full]):
        if any(ms) and ms != full \
                and sum(m * dx for m, (dx, _, _) in zip(ms, edges)) == 0 \
                and sum(m * dy for m, (_, dy, _) in zip(ms, edges)) == 0:
            return True
    return False


def test_pruned_search_matches_enumerating_every_edge_choice():
    rng = random.Random(1)
    checked = hits = 0
    while checked < 600:
        degs = (rng.randint(1, 6), rng.randint(1, 6))
        density = rng.choice([0.1, 0.3, 0.6])
        terms = {e: 1 for e in itertools.product(*[range(d + 1) for d in degs])
                 if rng.random() < density}
        f = MultiPoly.from_terms(GF(2), V2, terms)
        if not bivariate(f) or min(e[0] for e in f.terms) or min(e[1] for e in f.terms):
            continue
        checked += 1
        hit = _newton_indecomposable(support(f))
        assert hit == (not decomposable_by_enumeration(f)), f
        hits += hit
    assert 50 <= hits <= checked - 50


def sympy_irreducible(sympy, f):
    gens = sympy.symbols(f.vars.names)
    expr = sum(c * math.prod(g ** k for g, k in zip(gens, e)) for e, c in f.terms.items())
    const, pairs = sympy.factor_list(expr, *gens)
    return abs(const) == 1 and len(pairs) == 1 and pairs[0][1] == 1


def test_hits_over_z_are_irreducible_by_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    hits = 0
    for _ in range(300):
        degs = (rng.randint(1, 4), rng.randint(1, 4))
        terms = {e: rng.choice([1, -1, 2, -3, 4, 5])
                 for e in itertools.product(*[range(d + 1) for d in degs])
                 if rng.random() < 0.35}
        f = MultiPoly.from_terms(ZZ, V2, terms)
        if not bivariate(f):
            continue
        cert = is_irreducible(f)
        assert bool(cert) == sympy_irreducible(sympy, f), f
        if newton_hit(f) and f.content_value() == 1:
            hits += 1
            assert cert.method in ("linear-variable", "newton-polytope"), f
    assert hits >= 20


# ---------------------------------------------------------------------------
# Pinned polygons.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3)], ids=str)
def test_segment_of_lattice_length_one_is_certified(ring):
    f = parse_poly("x1^2 + x2^3", ring, V2)
    assert _newton_indecomposable(support(f))
    cert = is_irreducible(f)
    assert cert.irreducible and cert.method == "newton-polytope"


def test_segment_of_lattice_length_two_is_not_certified():
    f = parse_poly("x1^2 + x2^2", GF(2), V2)  # (x1 + x2)^2
    assert not _newton_indecomposable(support(f))
    assert not is_irreducible(f)
    assert not brute_force_irreducible(f)


def test_a_variable_dividing_the_input_blocks_the_certificate():
    # the polygon of x1*x2 + x1 is a unit segment, a translate of x2 + 1's
    f = parse_poly("x1*x2 + x1", ZZ, V2)
    assert not _newton_indecomposable(support(f))
    assert not is_irreducible(f)


def test_a_rectangle_falls_through_to_another_route():
    # (x1^2 + 1)(x2^2 + 1) + 1: the rectangle [0,2]x[0,2] decomposes, yet
    # the input is irreducible (x2 = 1 leaves 2*x1^2 + 3)
    f = parse_poly("x1^2*x2^2 + x1^2 + x2^2 + 2", ZZ, V2)
    assert not _newton_indecomposable(support(f))
    cert = is_irreducible(f)
    assert cert.irreducible and cert.method not in ("newton-polytope", "")
    assert is_irreducible(f, method="kronecker").irreducible


def test_kronecker_method_never_uses_the_certificate():
    seen = set()
    for f in box_polys(GF(2), V2, (2, 2), [0, 1]):
        cert = is_irreducible(f, method="kronecker")
        seen.add(cert.method)
        if newton_hit(f):
            assert cert.irreducible and cert.method == "kronecker", f
    assert "newton-polytope" not in seen


# ---------------------------------------------------------------------------
# k[u]: decided on the lifted form in k[x, u].
# ---------------------------------------------------------------------------

R2u = PolyRing(GF(2))


def test_auto_and_kronecker_agree_on_a_gf2u_box():
    values = R2u.element_box(deg_bound=2)
    assert len(values) == 8
    methods = set()
    for f in box_polys(R2u, V1, (2,), values):
        auto = is_irreducible(f, need_witness=True)
        oracle = is_irreducible(f, method="kronecker")
        assert (auto.irreducible, auto.reason) == (oracle.irreducible, oracle.reason), f
        methods.add(auto.method)
        if auto.reason == "reducible":
            w = auto.witness
            assert w.ring == R2u and w.vars == V1 and not w.is_constant()
            assert f.try_divexact(w) is not None, (f, w)
    assert "newton-polytope" in methods


def test_irred_cli_returns_a_ku_witness_dividing_the_input(capsys):
    text = "x1^2 + x1 + (u^2+u)"  # (x1 + u)(x1 + u + 1)
    assert main(["irred", text, "--ring", "GF(2)[u]"]) == 0
    env = json.loads(capsys.readouterr().out)
    result = env["result"]
    assert result["irreducible"] is False and result["reason"] == "reducible"
    f = parse_poly(text, R2u, V1)
    w = parse_poly(result["witness_factor"], R2u, V1)
    assert not w.is_constant() and f.try_divexact(w) is not None
