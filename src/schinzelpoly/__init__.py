"""Schinzel-hypothesis witnesses, Goldbach decompositions and prescribed
spectra over polynomial rings, with exact arithmetic over Z, Q, GF(q)
and k[u]."""

__version__ = "0.1.0"

from .rings import GF, QQ, ZZ, PolyRing, RingElement, parse_ring, ring_factor, ring_gcd, ring_is_unit
from .multipoly import (
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
from .factor import (
    Factorization,
    brute_force_irreducible,
    capelli_check,
    factor_multivariate,
    factor_univariate_finite_field,
    factor_univariate_integers,
    is_irreducible,
    kronecker_fold,
)
from .schinzel import (
    SchinzelProblem,
    SearchConstraints,
    SearchReport,
    check_fixed_divisor,
    density_probe,
    schinzel_search,
    schinzel_search_multi,
)
from .constructions import (
    GoldbachDecomposition,
    SpectrumSpec,
    SpectrumResult,
    goldbach_decompose,
    poly_crt,
    spectrum_construct,
)
from .textform import parse_poly

__all__ = [
    "GF", "QQ", "ZZ", "PolyRing", "RingElement", "parse_ring",
    "ring_factor", "ring_gcd", "ring_is_unit",
    "MultiPoly", "VarSet", "content", "degree_in", "degree_vector",
    "format_poly", "poly_gcd", "primitive_part", "substitute_y", "total_degree",
    "Factorization", "brute_force_irreducible", "capelli_check",
    "factor_multivariate", "factor_univariate_finite_field",
    "factor_univariate_integers", "is_irreducible", "kronecker_fold",
    "SchinzelProblem", "SearchConstraints", "SearchReport",
    "check_fixed_divisor", "density_probe", "schinzel_search",
    "schinzel_search_multi",
    "GoldbachDecomposition", "SpectrumSpec", "SpectrumResult",
    "goldbach_decompose", "poly_crt", "spectrum_construct",
    "parse_poly",
]
