"""Property tests of the dense univariate Z/Q route: dense substitution
against sparse Horner, and the dense irreducibility decision against the
factor count.  Skipped when hypothesis is not installed."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from schinzelpoly import factor as factor_mod  # noqa: E402
from schinzelpoly.factor import factor_multivariate  # noqa: E402
from schinzelpoly.multipoly import MultiPoly, VarSet  # noqa: E402
from schinzelpoly.rings import GF, QQ, ZZ, dense_trim, zx_mul, zx_primitive  # noqa: E402
from test_fastpaths import sparse_horner  # noqa: E402

V = VarSet(("x1", "y"))
X = VarSet(("x1",))
SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                               database=None)

integers = st.integers(-30, 30)
rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


def polys(values, vars, max_deg):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in vars.names])
    return st.dictionaries(exps, values, max_size=8)


@SETTINGS
@hypothesis.given(st.sampled_from(["Z", "Q", "GF(7)"]), st.data())
def test_dense_substitution_equals_sparse_horner(ring_name, data):
    ring, values = {"Z": (ZZ, integers), "Q": (QQ, rationals),
                    "GF(7)": (GF(7), st.integers(0, 6))}[ring_name]
    P = MultiPoly.from_terms(ring, V, data.draw(polys(values, V, 5)))
    M = MultiPoly.from_terms(ring, X, data.draw(polys(values, X, 4)))
    assert P.substitute("y", M) == sparse_horner(P, "y", M)


@SETTINGS
@hypothesis.given(st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=4),
                           min_size=1, max_size=3))
def test_zx_is_irreducible_agrees_with_the_factor_count(parts):
    f = [1]
    for part in parts:
        f = zx_mul(f, dense_trim(part))
    hypothesis.assume(len(f) >= 2)
    f = zx_primitive(f)[1]
    fac = factor_multivariate(MultiPoly(ZZ, X, {(k,): c for k, c in enumerate(f) if c}))
    want = len(fac.factors) == 1 and fac.factors[0][1] == 1
    assert factor_mod._zx_is_irreducible(f) == want
