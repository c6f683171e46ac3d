"""Ring arithmetic, canonical units, gcds and element factorization."""

import itertools
import random
from fractions import Fraction

import pytest

from schinzelpoly import rings
from schinzelpoly.errors import RingMismatchError, ZeroInputError
from schinzelpoly.rings import (
    GF,
    QQ,
    ZZ,
    ExtField,
    Field,
    PolyRing,
    PrimeField,
    RationalField,
    RingElement,
    factor_int,
    is_prime,
    parse_ring,
    ring_factor,
    ring_gcd,
    ring_is_unit,
    u_scale,
    u_xgcd,
    zx_primitive,
    zx_try_div,
)

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
F5 = GF(5)
R2u = PolyRing(F2)
R3u = PolyRing(F3)


def el(ring, v):
    return RingElement(ring, v)


def test_gcd_integers():
    assert ring_gcd(el(ZZ, 12), el(ZZ, 18)).value == 6
    assert ring_gcd(el(ZZ, -12), el(ZZ, 18)).value == 6
    assert ring_gcd(el(ZZ, 0), el(ZZ, 0)).value == 0


def test_gcd_prime_field_is_one():
    for a in range(1, 5):
        for b in range(1, 5):
            assert ring_gcd(el(F5, a), el(F5, b)).value == 1


def test_gcd_f2u():
    # u^2+u = u(u+1), u^2+1 = (u+1)^2: gcd is u+1
    a = el(R2u, (0, 1, 1))
    b = el(R2u, (1, 0, 1))
    assert ring_gcd(a, b).value == (1, 1)


def test_gcd_ring_mismatch():
    with pytest.raises(RingMismatchError):
        ring_gcd(el(ZZ, 1), el(F5, 1))


def test_units():
    assert ring_is_unit(el(ZZ, -1))
    assert ring_is_unit(el(ZZ, 1))
    assert not ring_is_unit(el(ZZ, 2))
    assert ring_is_unit(el(R3u, (2,)))       # constants of k[u] are units
    assert not ring_is_unit(el(R3u, (0, 1)))  # u is not
    assert el(R3u, (2,)).is_unit() and not el(R3u, (0, 1)).is_unit()
    assert el(ZZ, 0).is_zero() and not el(F4, 1).is_zero()
    assert str(el(R3u, (1, 2))) == "2*u + 1"


def test_factor_integer():
    unit, factors = ring_factor(el(ZZ, -12))
    assert unit.value == -1
    assert [(f.value, m) for f, m in factors] == [(2, 2), (3, 1)]


def test_factor_f2u():
    unit, factors = ring_factor(el(R2u, (0, 1, 1)))  # u^2+u
    assert unit.value == (1,)
    assert [(f.value, m) for f, m in factors] == [((0, 1), 1), ((1, 1), 1)]


def test_factor_field_element():
    from fractions import Fraction

    unit, factors = ring_factor(el(QQ, Fraction(7, 3)))
    assert unit.value == Fraction(7, 3)
    assert factors == []


def test_factor_zero_raises():
    with pytest.raises(ZeroInputError):
        ring_factor(el(ZZ, 0))


def test_factor_recomposition_random():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randrange(-500, 500)
        if n == 0:
            continue
        unit, factors = ring_factor(el(ZZ, n))
        acc = unit.value
        for f, m in factors:
            acc *= f.value ** m
        assert acc == n


def test_gcd_scaling_invariant():
    # gcd(ab, ac) == a * gcd(b, c) up to the canonical unit
    rng = random.Random(1)
    for _ in range(100):
        a, b, c = (rng.randrange(-20, 21) for _ in range(3))
        if a == 0:
            continue
        lhs = ZZ.gcd(a * b, a * c)
        rhs = abs(a) * ZZ.gcd(b, c)
        assert lhs == rhs
    def rnd_u():
        coeffs = [rng.randrange(2) for _ in range(rng.randrange(1, 4))]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)

    for _ in range(60):
        a, b, c = rnd_u(), rnd_u(), rnd_u()
        if not a:
            continue
        lhs = R2u.gcd(R2u.mul(a, b), R2u.mul(a, c))
        rhs = R2u.mul(R2u.canonical_split(a)[1], R2u.gcd(b, c))
        assert lhs == rhs


def test_frobenius_fixed_points():
    # t^q == t for every element of small GF(q)
    for K in (F4, GF(2, 3), GF(3, 2)):
        for a in K.element_box():
            assert K.pow(a, K.order) == a


def test_default_extension_moduli():
    # lexicographically smallest monic irreducible, coefficient vectors
    # compared low-to-high
    assert F4.modulus == [1, 1, 1]            # t^2 + t + 1
    assert GF(2, 3).modulus == [1, 0, 1, 1]   # t^3 + t^2 + 1 beats t^3 + t + 1
    assert GF(3, 2).modulus == [1, 0, 1]      # t^2 + 1 over GF(3)


def test_extension_field_inverse():
    K = GF(2, 3)
    for a in K.element_box():
        if a:
            assert K.mul(a, K.inv(a)) == K.one


@pytest.mark.parametrize("K", [QQ, F5, F4], ids=str)
def test_inv_of_zero_raises_zero_division(K):
    with pytest.raises(ZeroDivisionError):
        K.inv(K.zero)


@pytest.mark.parametrize("K, a", [(ZZ, 2), (R2u, (0, 1))], ids=["Z", "GF(2)[u]"])
def test_inv_of_a_nonunit_raises_arithmetic_error(K, a):
    with pytest.raises(ArithmeticError):
        K.inv(a)


@pytest.mark.parametrize("K", [ZZ, QQ, F5, F4, R2u, PolyRing(QQ)], ids=str)
def test_try_divexact_by_zero_is_none(K):
    assert K.try_divexact(K.one, K.zero) is None


@pytest.mark.parametrize("K, a", [(ZZ, 2), (QQ, Fraction(2)), (F5, 2), (F4, 2),
                                  (R2u, (0, 1)), (PolyRing(QQ), (Fraction(1), Fraction(1)))],
                         ids=str)
def test_negative_exponent_raises(K, a):
    assert K.pow(a, 0) == K.one
    assert K.pow(a, 2) == K.mul(a, a)
    for e in (-1, -2):
        with pytest.raises(ValueError, match="negative exponent"):
            K.pow(a, e)


@pytest.mark.parametrize("p, k", [(2, 3), (3, 6)], ids=["tables", "polynomial"])
def test_extension_field_modulus_is_searched_once(monkeypatch, p, k):
    first = ExtField(p, k)
    monkeypatch.setattr(rings, "u_is_irreducible", lambda *args: pytest.fail("searched again"))
    again = ExtField(p, k)
    assert again.modulus == first.modulus and again.modulus is not first.modulus
    assert again._pw is first._pw


def test_parse_ring():
    assert parse_ring("Z") is ZZ
    assert parse_ring("Q") is QQ
    assert parse_ring("GF(5)") == F5
    assert parse_ring("GF(2^2)") == F4
    assert parse_ring("GF(2)[u]") == R2u
    assert parse_ring("Q[u]") == PolyRing(QQ)
    assert parse_ring(" GF( 7 ) [ u ] ") == PolyRing(GF(7))


def test_parse_ring_errors():
    from schinzelpoly.errors import ParseError

    with pytest.raises(ParseError):
        parse_ring("GF(6)")  # 6 not prime -> ValueError inside
    with pytest.raises(ParseError):
        parse_ring("Z[u]")
    with pytest.raises(ParseError, match="1 is not prime"):
        parse_ring("GF(1)")
    with pytest.raises(ParseError):
        parse_ring("banana")


def test_factor_int_pollard(monkeypatch):
    # both factors are below _TRIAL_LIMIT, so trial division splits this one
    n = 1000003 * 1000033
    assert factor_int(n) == [(1000003, 1), (1000033, 1)]
    # a semiprime past trial division reaches Pollard's rho
    runs = []
    rho = rings._pollard_rho

    def counted_rho(m):
        runs.append(m)
        return rho(m)
    monkeypatch.setattr(rings, "_pollard_rho", counted_rho)
    p, q = 2**31 - 1, 2**61 - 1
    assert factor_int(p * q) == [(p, 1), (q, 1)]
    assert runs == [p * q]


def test_element_boxes_deterministic():
    assert ZZ.element_box(coeff_bound=2) == [0, 1, -1, 2, -2]
    assert F3.element_box() == [0, 1, 2]
    box = R2u.element_box(deg_bound=1)
    assert box == [(), (1,), (0, 1), (1, 1)]
    assert len(F4.element_box()) == 4


def _spiral_order(n):
    """The first n of 0, 1, -1, 2, -2, ..."""
    signed = itertools.chain.from_iterable((k, -k) for k in itertools.count(1))
    return [0] + list(itertools.islice(signed, n - 1))


def _degree_blocks_order(base, n):
    """The first n elements of k[u] for a finite k: zero, then degree 0, 1,
    2, ..., each degree block by leading coefficient, then lower
    coefficients in product order."""
    box = base.element_box()
    nonzero = [v for v in box if v != base.zero]
    blocks = (tuple(lower) + (lead,) for d in itertools.count()
              for lead in nonzero for lower in itertools.product(box, repeat=d))
    return [()] + list(itertools.islice(blocks, n - 1))


@pytest.mark.parametrize("ring, expected", [
    (ZZ, _spiral_order(50)),
    (QQ, [Fraction(v) for v in _spiral_order(50)]),
    (R2u, _degree_blocks_order(F2, 50)),
    (R3u, _degree_blocks_order(F3, 50)),
], ids=str)
def test_element_stream_order_is_pinned(ring, expected):
    assert list(itertools.islice(ring.element_stream(), 50)) == expected


def test_element_stream_of_q_u_repeats_nothing():
    first = list(itertools.islice(PolyRing(QQ).element_stream(), 500))
    assert len(set(first)) == 500
    # each box adds its new elements in box order: box 1 after box 0 = [()]
    assert first[:4] == [(), (Fraction(1),), (Fraction(-1),), (Fraction(0), Fraction(1))]


def test_fields_share_one_copy_of_the_field_rules():
    rules = ("canonical_split", "gcd", "is_unit", "factor_value")
    for cls in (RationalField, PrimeField, ExtField):
        assert issubclass(cls, Field) and cls.is_field
        assert [name for name in rules if name in vars(cls)] == []
    for K in (QQ, F5, F4):
        a = K.from_int(3)
        assert K.canonical_split(a) == (a, K.one)
        assert K.canonical_split(K.zero) == (K.one, K.zero)
        assert K.gcd(a, K.zero) == K.one and K.gcd(K.zero, K.zero) == K.zero
        assert K.is_unit(a) and not K.is_unit(K.zero)
        assert K.factor_value(a) == (a, [])
        with pytest.raises(ZeroInputError):
            K.factor_value(K.zero)


def test_poly_ring_canonical_split():
    unit, monic = R3u.canonical_split((1, 2))  # 2u + 1
    assert unit == (2,)
    assert monic == (2, 1)  # u + 2, monic
    assert R3u.mul(unit, monic) == (1, 2)


def test_kernel_edges_at_zero():
    assert u_scale([1, 2], 0, F3) == []
    assert u_xgcd([], [], F3) == ([], [1], [])
    assert zx_primitive([]) == (0, [])
    assert zx_try_div([1, 1], []) is None
    assert zx_try_div([], [1, 1]) == []
    assert zx_try_div([1, 1], [1, 1, 1]) is None
    assert not any(is_prime(n) for n in (-3, 0, 1))


def test_ring_edges():
    assert hash(parse_ring("GF(2^2)")) == hash(F4)
    assert ZZ.inv(-1) == -1
    assert R3u.inv((2,)) == (2,)
    assert R3u.canonical_split(()) == ((1,), ())
    assert R3u.format(()) == "0"
