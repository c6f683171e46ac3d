"""Irreducibility testing and factorization.

Univariate factoring has one entry on dense coefficient lists,
_factor_dense, for univariate inputs, GF(q) Kronecker images and k[u]
elements.  Over GF(q): squarefree decomposition (with p-th-root descent),
distinct-degree, then equal-degree splitting.
Multivariate: Kronecker substitution x_i -> x^(D^(i-1)) with D = 1 + max
partial degree and the dense image (multipoly.dense_encode with strides
D^(i-1)); monomial content x_i^k is split off before the fold.  Over
GF(q) the image is factored by _factor_dense.

Over Z and Q a univariate input is the one-variable case of the same
route.  The Yun parts of the primitive integer image are screened
modulo six good primes.  One lifting front end (_lifted_items) factors
the parts the screen leaves modulo one good prime and lifts them only as
far as a factor needs, by Mignotte's bound through the Mahler measure;
in one variable, where the Yun parts are exact, each part is lifted and
recombined on its own.  One recombination loop (_recombine) takes the
items, image factors over GF(q) or lifted modular factors over Z and Q,
in sub-multisets (_sub_multisets) on dense coefficient lists, prunes them
by tests carried per prefix (the base-D digits of the leading and
trailing exponents in several variables; the lowest coefficient, then
the next one and the values at 1 and -1 over Z and Q), and accepts a
candidate exactly (zx_try_div in one variable, _kronecker_split in
several).  A factor is decoded (multipoly.dense_decode, radix D) and the
multivariate division runs once per factor found.  Every enumerated
sub-multiset counts against one cap (RECOMBINATION_SUBSET_CAP), reported
when exceeded.  A Factorization names the route that ran in its method,
which the factor envelope reports.

is_irreducible(method="auto") tries sound shortcuts before factoring, on
a univariate input's dense list (dense_is_irreducible) and a bivariate
one's dense rows (bivariate_is_irreducible), which the witness searches
call directly: the degree-1-in-a-variable rule; then, for a bivariate
input that no variable divides, the Newton-polygon certificate (an
integrally indecomposable polygon proves irreducibility; Gao 2001,
Gao-Lauder 2001); then the content and specialization certificates, over
GF(p) at points of GF(p^k) too.  method="kronecker" skips them all.

k[u] takes the dispatch Z takes: its content is split off first and
factored as a k[u] element, so no u-only factor can survive, and the
primitive part is factored with u folded in as one more variable over the
base field.  Irreducibility over k[u] with unit content is decided on the
same lifted form, so every shortcut applies.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetExceededError, UnsupportedRingError, ZeroInputError
from .multipoly import (MultiPoly, VarSet, dense_decode, dense_encode, dense_in_var, lift_u,
                        list_content, poly_from_rows, poly_gcd, rows_of, sparse_fold)
from .rings import (
    EXT_TABLE_LIMIT,
    ExtField,
    FiniteField,
    IntegerRing,
    PolyRing,
    PrimeField,
    ROOT_SCAN_LIMIT,
    RationalField,
    RingElement,
    dense_trim,
    factor_int,
    is_perfect_power,
    is_prime,
    u_add,
    u_ddf,
    u_deg,
    u_deriv,
    u_divmod,
    u_eval,
    u_gcd,
    u_is_irreducible,
    u_monic,
    u_mul,
    u_powmod,
    u_rem,
    u_sub,
    u_xgcd,
    zm_add,
    zm_divmod,
    zm_mul,
    zm_roots,
    zm_sub,
    zx_deriv,
    zx_eval,
    zx_gcd,
    zx_mul,
    zx_primitive,
    zx_sub,
    zx_try_div,
)

RECOMBINATION_SUBSET_CAP = 1 << 20
# good primes whose reduction is tested for irreducibility before Hensel lifting
ZX_SCREEN_PRIMES = 6


# ---------------------------------------------------------------------------
# Factorization container.
# ---------------------------------------------------------------------------

def _factor_sort_key(f: MultiPoly):
    key = f.ring.order_key
    return f.total_degree(), [(e, key(v)) for e, v in f.sorted_terms()]


@dataclass
class Factorization:
    """unit * prod(factor^multiplicity) == the factored polynomial, exactly.

    Factors are canonical-unit-normalized and sorted by (total degree,
    term order).  Constant factors appear when the content of the input
    is a nonunit (its irreducible ring elements, one per prime).  method
    names the route that factored the primitive part, as the factor
    envelope reports it ("" when not given), and takes no part in equality.
    """

    unit: RingElement
    factors: list
    method: str = field(default="", compare=False)

    @classmethod
    def build(cls, ring, unit_value, pairs, method):
        merged = {}
        for f, m in pairs:
            k = f.key()
            if k in merged:
                merged[k] = (merged[k][0], merged[k][1] + m)
            else:
                merged[k] = (f, m)
        items = sorted(merged.values(), key=lambda fm: _factor_sort_key(fm[0]))
        return cls(RingElement(ring, unit_value), list(items), method)

    def recompose_over(self, vars: VarSet) -> MultiPoly:
        ring = self.unit.ring
        acc = MultiPoly.constant(ring, vars, self.unit.value)
        for f, m in self.factors:
            acc = acc * (f ** m)
        return acc


# ---------------------------------------------------------------------------
# Kronecker substitution.
# ---------------------------------------------------------------------------

def kronecker_fold(f: MultiPoly, D: int, target: str = "x") -> MultiPoly:
    """Fold a multivariate polynomial to one variable; needs D > all partial degrees."""
    degs = f.degree_vector()
    if any(d >= D for d in degs):
        raise ValueError(f"Kronecker bound D={D} is not above the partial degrees {degs}")
    return sparse_fold(f, [D ** i for i in range(len(degs))], target)


# ---------------------------------------------------------------------------
# GF(2) univariate fast path: polynomials as int bit masks.
# ---------------------------------------------------------------------------

# bytes.translate table from a 0/1 byte to the digit "0"/"1"
_BIT_DIGITS = bytes(range(48, 50)) + bytes(254)


def _gf2_from_dense(c):
    return int(bytes(reversed(c)).translate(_BIT_DIGITS), 2) if c else 0


def _gf2_mod(a, m):
    dm = m.bit_length()
    s = a.bit_length() - dm
    while s >= 0:
        a ^= m << s
        s = a.bit_length() - dm
    return a


def _gf2_gcd(a, b):
    while b:
        a, b = b, _gf2_mod(a, b)
    return a


def _gf2_sq(a):
    return int(bin(a)[2:], 4) if a else 0


def gf2_is_irreducible(a: int) -> bool:
    """Irreducibility of an F_2[x] polynomial packed as an int bit mask.

    The roots come first, as in u_is_irreducible: f(0) is the constant bit
    and f(1) the parity of the bit count.  A root makes degree >= 2
    reducible, and degree 2 or 3 without one is irreducible."""
    n = a.bit_length() - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    if not a & 1 or not a.bit_count() & 1:
        return False
    if n <= 3:
        return True
    m = (n + 1) // 2
    even_mask = ((1 << (2 * m)) - 1) // 3
    deriv = (a >> 1) & even_mask
    if deriv == 0:
        return False
    if _gf2_gcd(a, deriv) != 1:
        return False
    h = 2  # the polynomial x
    for _ in range(n // 2):
        h = _gf2_mod(_gf2_sq(h), a)
        if _gf2_gcd(h ^ 2, a) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Univariate factorization over GF(q) (dense kernels from the rings module).
# ---------------------------------------------------------------------------

def _ff_ext_degree(K):
    return K.k if isinstance(K, ExtField) else 1


def _ff_pth_root(f, K):
    """Inverse Frobenius on a polynomial of the form g(x^p)."""
    p = K.characteristic
    e = p ** (_ff_ext_degree(K) - 1)
    out = []
    for i in range(0, u_deg(f) + 1, p):
        out.append(K.pow(f[i], e))
    return dense_trim(out)


def _ff_sff(f, K):
    """Squarefree decomposition of a monic polynomial: [(monic part, mult)]."""
    p = K.characteristic
    out = []
    fp = u_deriv(f, K)
    if not fp:
        for g, m in _ff_sff(_ff_pth_root(f, K), K):
            out.append((g, m * p))
        return out
    c = u_gcd(f, fp, K)
    w = u_divmod(f, c, K)[0]
    i = 1
    while u_deg(w) > 0:
        y = u_gcd(w, c, K)
        z = u_divmod(w, y, K)[0]
        if u_deg(z) > 0:
            out.append((z, i))
        w = y
        c = u_divmod(c, y, K)[0]
        i += 1
    if u_deg(c) > 0:
        for g, m in _ff_sff(_ff_pth_root(c, K), K):
            out.append((g, m * p))
    return out


def _ff_random_poly(deg, K, rng):
    return dense_trim([rng.randrange(K.order) for _ in range(deg)])


def _ff_edf(g, d, K, rng):
    """Split a monic product of degree-d irreducibles (Cantor-Zassenhaus)."""
    if u_deg(g) == d:
        return [g]
    q = K.order
    p = K.characteristic
    k = _ff_ext_degree(K)
    while True:
        a = _ff_random_poly(u_deg(g), K, rng)
        if u_deg(a) < 1:
            continue
        if p == 2:
            t = list(a)
            acc = list(a)
            for _ in range(k * d - 1):
                t = u_powmod(t, 2, g, K)
                acc = u_rem(u_add(acc, t, K), g, K)
            h = u_gcd(acc, g, K)
        else:
            b = u_powmod(a, (q ** d - 1) // 2, g, K)
            h = u_gcd(u_sub(b, [K.one], K), g, K)
        if 0 < u_deg(h) < u_deg(g):
            rest = u_divmod(g, h, K)[0]
            return _ff_edf(h, d, K, rng) + _ff_edf(rest, d, K, rng)


def _ff_factor_monic_squarefree(f, K, rng):
    """Monic irreducible factors of a monic squarefree f.  Over GF(p) with
    p <= ROOT_SCAN_LIMIT the linear part of the distinct-degree split is
    split into x - a over its roots a, with no random splitting."""
    scan = isinstance(K, PrimeField) and K.p <= ROOT_SCAN_LIMIT
    out = []
    for prod, d in u_ddf(f, K):
        if d == 1 and scan:
            out.extend([-a % K.p, 1] for a in zm_roots(prod, K.p))
        else:
            out.extend(_ff_edf(prod, d, K, rng))
    return out


def _ff_factor_dense(f, K):
    """Full factorization over GF(q) of f of degree >= 1: (lc, [(monic dense
    factor, mult)]).  The factors are sorted by the caller, so the fixed
    stream of the random splitting draws can change no result."""
    lc, monic = u_monic(f, K)
    rng = random.Random(0)
    out = []
    for part, mult in _ff_sff(monic, K):
        for fac in _ff_factor_monic_squarefree(part, K, rng):
            out.append((fac, mult))
    return lc, out


# ---------------------------------------------------------------------------
# Hensel lifting (quadratic, recursive halves, or Newton on the roots) and
# the screen of a univariate integer polynomial.
# ---------------------------------------------------------------------------

def _odd_primes(n):
    """The primes from the odd n on."""
    while True:
        if is_prime(n):
            yield n
        n += 2


def _hensel_step(M, f, g, h, s, t):
    """Lift f = g*h (mod m), s*g + t*h = 1 (mod m) with h monic to the same
    mod M, a divisor of m^2, on coefficients in [0, M) (von zur Gathen &
    Gerhard, Modern Computer Algebra, Alg. 15.10)."""
    e = zm_sub([c % M for c in f], zm_mul(g, h, M), M)
    q, r = zm_divmod(zm_mul(s, e, M), h, M)
    G = zm_add(g, zm_add(zm_mul(t, e, M), zm_mul(q, g, M), M), M)
    H = zm_add(h, r, M)
    b = zm_sub(zm_add(zm_mul(s, G, M), zm_mul(t, H, M), M), [1], M)
    c, d = zm_divmod(zm_mul(s, b, M), H, M)
    S = zm_sub(s, d, M)
    T = zm_sub(t, zm_add(zm_mul(t, b, M), zm_mul(c, G, M), M), M)
    return G, H, S, T


def _hensel_lift(p, f, f_list, l):
    """Lift monic factors of f/lc mod p to monic factors mod p^l, with
    coefficients in [0, p^l).

    Postcondition: f = lc(f) * prod(result) (mod p^l).
    """
    r, P = len(f_list), p ** l
    if r == 1:
        inv = pow(f[-1], -1, P)
        return [[c * inv % P for c in f]]
    k = r // 2
    K = PrimeField(p)
    g = [f[-1] % p]
    for fi in f_list[:k]:
        g = u_mul(g, fi, K)
    h = list(f_list[k])
    for fi in f_list[k + 1:]:
        h = u_mul(h, fi, K)
    gg, s, t = u_xgcd(g, h, K)
    if u_deg(gg) != 0:
        raise ArithmeticError("Hensel start: halves are not coprime mod p")
    m = p
    while m < P:
        m = min(m * m, P)
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
    return _hensel_lift(p, g, f_list[:k], l) + _hensel_lift(p, h, f_list[k:], l)


def _horner(f, a, m):
    """(f(a), f'(a)) mod m, both in one Horner pass."""
    v = d = 0
    for c in reversed(f):
        d = (d * a + v) % m
        v = (v * a + c) % m
    return v, d


def _newton_lift_roots(p, f, roots, l):
    """Lift simple roots a of f mod p to the roots A = a (mod p) of f mod
    p^l by Newton iteration, A <- A - f(A)/f'(A) mod p^e with e doubling up
    to l (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 9).
    f'(A) is a unit mod p because the root is simple."""
    out = []
    for a in roots:
        e = 1
        while e < l:
            e = min(2 * e, l)
            m = p ** e
            v, d = _horner(f, a, m)
            a = (a - v * pow(d, -1, m)) % m
        out.append(a)
    return out


def _zx_screen(f):
    """Reduce a primitive f with lc > 0 and deg >= 2 modulo the first
    ZX_SCREEN_PRIMES good primes (those not dividing lc, so the degree is
    kept).  True when a reduction is irreducible, which proves f
    irreducible, and so squarefree, in Z[x].  The screen primes are 3 to 17
    unless lc has small prime factors, which can push them past
    ROOT_SCAN_LIMIT.

    Of degree 2 or 3, a reduction factors by its roots alone: none means
    irreducible, and simple roots a give the factors x - a and, for a cubic
    with one root, the irreducible quadratic cofactor.  So the screen hands
    its work on: unless it returns True, it returns the Hensel start (p,
    modular) at the first screened prime p where f mod p is squarefree, with
    the sorted monic factors there, or None when no screened reduction is
    squarefree.  The factors are built only once every screened reduction
    has a root, since a later prime often proves f irreducible.  Of degree
    >= 4 u_is_irreducible decides each reduction, and the screen returns
    True or None."""
    lc, n = f[-1], u_deg(f)
    screened, start = 0, None
    for p in _odd_primes(3):
        if lc % p == 0:
            continue
        fbar = [c % p for c in f]
        if n > 3:
            if u_is_irreducible(fbar, PrimeField(p)):
                return True
        elif start is None:
            roots = list(zm_roots(fbar, p))
            if not roots:
                return True
            if 0 not in [_horner(fbar, a, p)[1] for a in roots]:  # no repeated root
                start = fbar, roots, p
        elif next(zm_roots(fbar, p), None) is None:
            return True
        screened += 1
        if screened == ZX_SCREEN_PRIMES:
            return _split_by_roots(*start) if start else None


def _split_by_roots(fbar, roots, p):
    """(p, the sorted monic factors of fbar mod p) for a squarefree fbar of
    degree 2 or 3 with the given roots.  These are the factors
    _ff_factor_monic_squarefree finds: x - a for each root a, and for a
    cubic with one root the quadratic cofactor, which has no root and so is
    irreducible."""
    modular = [[-a % p, 1] for a in roots]
    if len(roots) < u_deg(fbar):
        q = zm_divmod(fbar, modular[0], p)[0]
        inv = pow(q[-1], -1, p)
        modular.append([c * inv % p for c in q])
    return p, sorted(modular)


def _zx_is_irreducible(f):
    """Irreducibility in Z[x] of a primitive dense f of degree >= 1, with a
    leading coefficient of either sign.

    The screen runs first, since an irreducible reduction proves f
    squarefree too.  Only when it fails does the squarefree test run (a
    nontrivial gcd(f, f') means reducible), and only then the Hensel-prime
    search, lifting and recombination.  A Hensel start from the screen
    skips the squarefree test: f squarefree modulo a prime not dividing
    lc(f) is squarefree in Z[x].
    """
    if f[-1] < 0:
        f = [-c for c in f]
    if u_deg(f) == 1:
        return True
    start = _zx_screen(f)
    if start is True:
        return True
    if start is None and len(zx_gcd(f, zx_deriv(f))) > 1:
        return False
    # the first factor found is a proper one, or f itself when f is irreducible
    return len(next(_factor_zx(f, [u_deg(f)], [(f, 1, start)]))[0]) == len(f)


def _screened_yun(f):
    """The Yun parts of a primitive dense f over Z with lc > 0 and their
    screen results: [(part, mult, screen)], screen True at degree 1."""
    return [(g, m, u_deg(g) == 1 or _zx_screen(g)) for g, m in _yun_squarefree(f)]


def _factor_zx(whole, degs, parts):
    """The irreducible factors (factor, mult) over Z of a primitive dense
    whole with lc > 0, folded from a polynomial of partial degrees degs
    (one for a univariate input), from its screened Yun parts."""
    return _recombine(whole, degs, *_lifted_items(whole, degs, parts), None)


# ---------------------------------------------------------------------------
# One lifting front end and one recombination loop, for every input in one
# or several variables over Z, Q and GF(q).
# ---------------------------------------------------------------------------

def _lifted_items(whole, degs, parts):
    """The factorization over Z of a primitive dense whole with lc > 0,
    folded from a polynomial of partial degrees degs, lifted modulo
    P = p^l: (items, counts, (P, B)), with whole = lc * prod(items^counts)
    mod P and each item monic in [0, P).  parts are whole's Yun parts
    (part, mult, screen), mult the count of their items.  A part whose
    screen is True (degree 1, or proved irreducible) is one exact item.
    The others are factored modulo p, the first odd prime not dividing lc
    that keeps all of them squarefree; a screen's Hensel start (p, modular)
    gives its part's factors, and no smaller prime is good for that part.
    They lift by Newton iteration on the roots when all their factors mod p
    are linear, else by _hensel_lift.  A factor of the unfold of whole has
    |coefficients| <= B = prod C(d_i, d_i // 2) * ceil(|whole|_2), by
    Mignotte's bound through the Mahler measure in several variables (von
    zur Gathen & Gerhard, Modern Computer Algebra, ch. 6), as the fold is a
    bijection on coefficients; l is the least with p^l > 2 * lc * B."""
    lc = whole[-1]
    split = [(part, start) for part, _, start in parts if start is not True]
    for p in _odd_primes(max([start[0] for _, start in split if start] + [3])):
        if lc % p == 0:
            continue
        for part, start in split:
            if not (start and start[0] == p or _squarefree_mod(part, p)):
                break
        else:
            break
    B = math.isqrt(sum(c * c for c in whole) - 1) + 1
    for d in degs:
        B *= math.comb(d, d // 2)
    l, P = 1, p
    while P <= 2 * lc * B:
        l, P = l + 1, P * p
    items, counts = [], []
    for part, mult, start in parts:
        if start is True:
            inv = pow(part[-1], -1, P)
            lifted = [[c * inv % P for c in part]]
        else:
            if start and start[0] == p:
                modular = start[1]
            else:
                K = PrimeField(p)
                fmonic = u_monic([c % p for c in part], K)[1]
                modular = sorted(_ff_factor_monic_squarefree(fmonic, K, random.Random(0)))
            if max(map(len, modular)) == 2:  # all x - a: lift the roots a
                roots = _newton_lift_roots(p, part, [-g[0] % p for g in modular], l)
                lifted = [[-a % P, 1] for a in roots]
            else:
                lifted = _hensel_lift(p, part, modular, l)
        items.extend(lifted)
        counts.extend([mult] * len(lifted))
    return items, counts, (P, B)


def _squarefree_mod(f, p):
    """Whether f, whose lc the prime p does not divide, is squarefree mod p."""
    K = PrimeField(p)
    fbar = [c % p for c in f]
    return u_deg(u_gcd(fbar, u_deriv(fbar, K), K)) == 0


def _sub_multisets(counts, size, step, start):
    """The sub-multisets of one size of counts[t] >= 1 copies of each type
    t, as nondecreasing lists of types in lexicographic order, each once;
    at half the total only those holding type 0, as the complement of a
    true factor is one.  Depth first: yields (head, lasts, acc), where
    head + [j] for j in lasts are the sub-multisets of a group and acc
    folds step over head from start.  Each prefix keeps its fold, so a step
    folds only from the first type that moved; head is updated in place."""
    r = len(counts)
    k = size - 1
    floor = 1 if 2 * size == sum(counts) else 0  # at half the total head[0] stays type 0
    if not k:
        yield [], range(1 if floor else r), start
        return
    room = list(itertools.accumulate(reversed(counts)))[::-1] + [0]  # copies of types t, t+1, ...
    # lasts[v]: the last types after a head ending in one copy of v
    lasts = [range(v if counts[v] > 1 else v + 1, r) for v in range(r)]
    top = r - 1 if counts[-1] == 1 else r  # a head cannot end in the only copy of type r - 1
    head = [0] * k
    acc = [start]  # acc[i]: the fold over head[:i], kept for i < k
    t = u = 0      # head[t:k-1] is filled greedily from type u
    while True:
        while t < k - 1:
            for _ in range(min(counts[u], k - 1 - t)):
                head[t] = u
                acc.append(step(acc[-1], u))
                t += 1
            u += 1
        # head[k-1] = v runs over the types left after head[:k-1]
        b = acc[k - 1]
        v = 0
        if k > 1:
            q = head[k - 2]
            run = k - bisect.bisect_left(head, q, 0, k - 1)  # copies of q in head with v = q
            v = q + 1
            if run <= counts[q]:
                j = q if run < counts[q] else q + 1
                if j < r:
                    head[k - 1] = q
                    yield head, range(j, r), step(b, q)
        for v in range(v, 1 if floor and k == 1 else top):
            head[k - 1] = v
            yield head, lasts[v], step(b, v)
        # move the last position of head[:k-1] that can still move, if any
        t = k - 2
        while t >= floor and room[head[t] + 1] <= k - t:
            t -= 1
        if t < floor:
            return
        u = head[t] + 1
        del acc[t + 1:]


def _recombine(whole, degs, items, counts, lift, K):
    """The irreducible factors of the dense image whole of a polynomial of
    partial degrees degs from whole's items, taken counts[i] times each:
    yields (factor image, mult) as each is found, then the cofactor left,
    unless constant.  Over Z and Q lift is (P, B) from _lifted_items; over
    GF(q) lift is None and the items are whole's irreducible factors.

    A proper factor is a sub-multiset of at most half the items, so the
    first found is irreducible; each enumerated one counts against
    RECOMBINATION_SUBSET_CAP.  In several variables the fold (radix D) is
    injective on the box of partial degrees < D, so the base-D digits of a
    true factor's degree and lowest exponent and those of its cofactor add
    to whole's without a carry.  Over Z and Q the candidate is the
    primitive part of the symmetric lift of lc times the items' product,
    for a true factor G with cofactor H exactly lc(H) * G, and the fold is
    a ring homomorphism: so before the product is formed its lowest
    coefficient divides lc * trail(whole) and its next one lies within
    lc * B, both read mod P, and then its values at 1 and -1 divide
    whole's.  A survivor is decided by zx_try_div in one variable, by
    _kronecker_split in several; the powers of a factor give its mult."""
    digits = None
    if len(degs) > 1:
        D = 1 + max(degs)
        digits = [[E // D ** i % D for E in range(len(whole))] for i in range(len(degs))]
    target = degs
    if lift:
        P, B = lift
        mul, div, extend = zx_mul, zx_try_div, functools.partial(zm_mul, m=P)
    else:
        P = 1  # no integer tests: the walk's lowest-coefficient channel stays 0
        mul = extend = functools.partial(u_mul, K=K)

        def div(a, b):  # a product of image factors divides the image
            return u_divmod(a, b, K)[0]

    def split(prod, whole):
        if digits is None:
            return div(whole, prod)
        return _kronecker_split(prod, whole, target, digits, div)

    def step(acc, t):  # the lowest coefficient mod P, degree and lowest exponent
        return acc[0] * tails[t] % P, acc[1] + highs[t], acc[2] + lows[t]

    what, cap = "integer" if digits is None else "Kronecker", RECOMBINATION_SUBSET_CAP
    items, counts = list(items), list(counts)
    # each item's degree, lowest exponent and coefficient there
    highs = [len(c) - 1 for c in items]
    lows = [next(E for E, v in enumerate(c) if v) for c in items]
    tails = [c[e] for c, e in zip(items, lows)]
    explored, size = 0, 1
    last, prefix = (), []  # the last product's sub-multiset and its prefix products
    while 2 * size <= sum(counts):
        if digits:
            high = sum(h * m for h, m in zip(highs, counts))
            low = sum(w * m for w, m in zip(lows, counts))
        start = (0, 0, 0)
        if lift:
            lc = whole[-1]
            lc_trail = lc * next(filter(None, whole))
            bound = abs(lc_trail)  # lowest coefficients strictly between bound and P - bound fail
            lc_B, w1, w_1, start = lc * B, sum(whole), zx_eval(whole, -1), (lc, 0, 0)
        for head, lasts, (a, hi, lo) in _sub_multisets(counts, size, step, start):
            for j in lasts:
                explored += 1
                if explored > cap:
                    raise BudgetExceededError(
                        f"{what} recombination exceeded {cap} subsets", tested=explored)
                if digits and not (_digits_fit(hi + highs[j], high, D)
                                   and _digits_fit(lo + lows[j], low, D)):
                    continue
                if lift:
                    c0 = a * tails[j] % P
                    if bound < c0 < P - bound or c0 == 0 or lc_trail % (
                            c0 - P if c0 > bound else c0):
                        continue
                    u, v = lc, 0  # the lowest coefficient and the next, mod P
                    for i in (*head, j):
                        c, e = items[i], lows[i] + 1
                        u, v = u * tails[i] % P, (u * (c[e] if e < len(c) else 0) + v * tails[i]) % P
                    if lc_B < v < P - lc_B:
                        continue
                combo = head + [j]
                # sub-multisets come in lexicographic order: reuse the shared prefix
                shared = 0
                while shared < len(last) and shared < size and last[shared] == combo[shared]:
                    shared += 1
                del prefix[shared:]
                for i in combo[shared:]:
                    prefix.append(extend(prefix[-1], items[i]) if prefix else items[i])
                last = combo
                base = prefix[-1]
                if lift:
                    base = _symmetric_candidate(base, lc, P)
                    if not (_value_divides(sum(base), w1)
                            and _value_divides(zx_eval(base, -1), w_1)):
                        continue
                cofactor = split(base, whole)
                if cofactor is not None:
                    break
            else:
                continue
            break
        else:
            size += 1
            continue
        # The factor's m-th power lies in the box when m times its partial
        # degrees stay within whole's, and divides when the counts allow.
        top = min([counts[i] // combo.count(i) for i in combo])  # the counts allow G^top
        fdegs = _unfolded_degrees(base, digits) if digits else [len(base) - 1]
        prod, mult = base, 1
        while mult < top and all((mult + 1) * d <= t for d, t in zip(fdegs, target)):
            power = mul(prod, base)
            rest = split(power, whole)
            if rest is None:
                break
            prod, cofactor, mult = power, rest, mult + 1
        yield base, mult
        for i in sorted(set(combo), reverse=True):
            counts[i] -= mult * combo.count(i)
            if not counts[i]:
                for xs in (items, counts, highs, lows, tails):
                    del xs[i]
        whole = cofactor
        target = [t - mult * d for t, d in zip(target, fdegs)]
        last, prefix = (), []
    if len(whole) > 1:
        yield whole, 1


def _value_divides(v, w):
    """Whether v divides w in Z, as a factor's value divides the value of
    its multiple at the same point."""
    return w % v == 0 if v else w == 0


def _digits_fit(part, whole, D):
    """Whether part and whole - part add in base D without a carry, that is,
    no base-D digit of part exceeds the matching digit of whole."""
    while part:
        if part % D > whole % D:
            return False
        part //= D
        whole //= D
    return True


# ---------------------------------------------------------------------------
# The main factorization dispatch.
# ---------------------------------------------------------------------------

def factor_multivariate(f: MultiPoly) -> Factorization:
    """Complete factorization in R[vars] for R in {Z, Q, GF(q), k[u]}.  Its
    method is "content" when the primitive part is constant, else the
    route _factor_primitive took."""
    ring, vars = f.ring, f.vars
    if f.is_zero():
        raise ZeroInputError("cannot factor the zero polynomial")
    if not isinstance(ring, (IntegerRing, RationalField, FiniteField, PolyRing)):
        raise UnsupportedRingError(f"factorization over {ring} is not supported")

    pairs = []
    if ring.is_field:
        unit_value, pp = f.monic_normalize()
    else:
        c = f.content_value()
        pp = f.div_scalar(c)
        cunit, cfactors = ring.factor_value(c)
        for value, mult in cfactors:
            pairs.append((MultiPoly.constant(ring, vars, value), mult))
        sign, pp = pp.monic_normalize()
        unit_value = ring.mul(cunit, sign)

    method = "content"
    if not pp.is_constant():
        found, method = _factor_primitive(pp)
        pairs.extend(found)
    return Factorization.build(ring, unit_value, pairs, method)


def _factor_primitive(pp: MultiPoly):
    """Factor a canonical primitive nonconstant polynomial over Z, Q, GF(q)
    or k[u]: (pairs, method).  The factors are canonical, and their product
    is pp.  method names the route that ran: "u-fold + " and the lifted
    form's route over k[u], "univariate cantor-zassenhaus" over GF(q) and
    "univariate zassenhaus" over Z and Q in one variable, else
    _factor_kronecker's."""
    ring = pp.ring
    if isinstance(ring, PolyRing):
        # Factor the lifted form over the base field.  A product of
        # canonical factors is canonical, like pp, so the units dropped by
        # normalizing the unlifted factors multiply to 1.
        lifted = factor_multivariate(lift_u(pp))
        out = []
        for g, mult in lifted.factors:
            back = _unlift_u(g, ring, pp.vars)
            if back.is_constant():
                raise ArithmeticError("u-only factor survived content splitting")
            out.append((back.monic_normalize()[1], mult))
        return out, "u-fold + " + lifted.method
    effective = [n for n in pp.vars.names if pp.degree_in(n) > 0]
    if len(effective) == 1:
        var = effective[0]
        method = "univariate cantor-zassenhaus" if ring.is_finite else "univariate zassenhaus"
        return [(dense_decode(ring, VarSet((var,)), fac, ()).embed(pp.vars), mult)
                for fac, mult in _factor_dense(dense_in_var(pp, var), ring)], method
    return _factor_kronecker(pp, effective)


def _factor_dense(c, K):
    """The univariate factorization of a dense list c over GF(q), Z or Q:
    [(irreducible factor, mult)], monic over GF(q) and Q, primitive with
    lc > 0 over Z.  Over Z and Q the factors are those of c's primitive
    integer image.  The unit and content of c are dropped, so a constant
    has none.  Sorted like Factorization: by degree, then by the nonzero
    terms from the top."""
    if len(c) < 2:
        return []
    if K.is_finite:
        out = _ff_factor_dense(c, K)[1]
    else:
        f = _integer_image(c)
        if f[-1] < 0:
            f = [-v for v in f]
        # The Yun parts are exact in one variable: each factor lies in one
        # part and takes its multiplicity, so each part recombines alone.
        out = [(g, mult) for part, mult, start in _screened_yun(f)
               for g, _ in _factor_zx(part, [u_deg(part)], [(part, 1, start)])]
        if isinstance(K, RationalField):
            out = [([Fraction(v, fac[-1]) for v in fac], mult) for fac, mult in out]

    def key(fm):
        g = fm[0]
        return len(g), [(i, K.order_key(g[i])) for i in range(len(g) - 1, -1, -1) if g[i]]
    return sorted(out, key=key)


def _yun_squarefree(f):
    """Yun decomposition of a primitive dense f over Z with lc > 0:
    [(primitive part with lc > 0, mult)]."""
    d1 = zx_deriv(f)
    g = zx_gcd(f, d1)
    if len(g) == 1:
        return [(f, 1)]
    out = []
    b = zx_try_div(f, g)
    c = zx_try_div(d1, g)
    d = zx_sub(c, zx_deriv(b))
    i = 1
    while len(b) > 1:
        a = zx_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b = zx_try_div(b, a)
        c = zx_try_div(d, a)
        d = zx_sub(c, zx_deriv(b))
        i += 1
    return out


def _factor_kronecker(pp: MultiPoly, effective):
    """Fold to one variable, split the image into items (its irreducible
    factors over GF(q), its lifted modular factors over Z and Q), and
    recombine sub-multisets of the items (_recombine): (pairs, method), as
    _factor_primitive returns them, with method "kronecker-fold D=<D>", or
    "monomial" and the route of the rest after a monomial content."""
    ring, vars = pp.ring, pp.vars
    # Monomial content x_i^k is split off first: folded, it would add k
    # copies of x to the image and so to every subset enumeration.
    lows = [min(e[i] for e in pp.terms) for i in range(len(vars))]
    if any(lows):
        out = [(MultiPoly.variable(ring, vars, name), k)
               for name, k in zip(vars.names, lows) if k]
        rest = MultiPoly(ring, vars, {tuple(a - b for a, b in zip(e, lows)): v
                                      for e, v in pp.terms.items()})
        if rest.is_constant():
            return out, "monomial"
        found, method = _factor_primitive(rest)
        return out + found, "monomial + " + method
    sub_vars = VarSet(tuple(effective))
    collapsed = pp.embed(vars) if vars.names == sub_vars.names else _restrict(pp, sub_vars)
    degs = list(collapsed.degree_vector())
    D = 1 + max(degs)
    # the image over Z, Q (scaled to a primitive integer list) or GF(q)
    whole = dense_encode(ring, collapsed.terms, [D ** i for i in range(len(sub_vars))],
                         f"degree in {sub_vars.names[0]}")[0]
    if ring.is_finite:
        # The image keeps its unit: _factor_dense drops it, and every
        # cofactor whole / prod carries it, so no test depends on it.
        types = _factor_dense(whole, ring)
        items, counts = [f for f, _ in types], [m for _, m in types]
        found = list(_recombine(whole, degs, items, counts, None, ring))
    else:
        whole = zx_primitive(whole)[1]
        if whole[-1] < 0:
            whole = [-c for c in whole]
        found = list(_factor_zx(whole, degs, _screened_yun(whole)))
    method = f"kronecker-fold D={D}"
    if len(found) == 1 and found[0][1] == 1:
        # No proper sub-multiset divides: pp is irreducible.
        return [(pp, 1)], method
    # Each factor image is primitive over Z; the multivariate division runs
    # once per factor, for its quotient.
    radices = [D] * (len(sub_vars) - 1)
    out = []
    for g, m in found:
        cand = dense_decode(ring, sub_vars, g, radices).monic_normalize()[1]
        collapsed = collapsed.try_divexact(cand ** m)
        if collapsed is None:
            raise ArithmeticError("Kronecker degree test accepted a non-factor")
        out.append((_expand(cand, vars), m))
    return out, method


def _symmetric_candidate(prod, lc, P):
    """The primitive part of the symmetric lift of lc * prod modulo the odd P."""
    half = P // 2
    return zx_primitive([(lc * v + half) % P - half for v in prod])[1]


def _integer_image(c):
    """The primitive integer list that is a positive rational multiple of the
    dense list c over Z or Q."""
    lcm = math.lcm(*(v.denominator for v in c))
    return zx_primitive([v.numerator * (lcm // v.denominator) for v in c])[1]


def _unfolded_degrees(c, digits):
    """Partial degrees of the unfold of the dense image c."""
    support = [E for E, v in enumerate(c) if v]
    return [max(map(dig.__getitem__, support)) for dig in digits]


def _kronecker_split(prod, whole, target, digits, div):
    """The cofactor whole / prod of a candidate image factor prod when prod
    divides whole and the unfolds of both have partial degrees that add up
    to target, else None.  div(whole, prod) is the exact quotient, or None
    when there is none.

    The fold is a ring homomorphism, injective on the box of partial
    degrees < D.  If the degrees add up, the product of the two unfolds
    lies in that box and folds to whole, so it is the unfolded input and
    the unfold of prod divides it.  Conversely a true factor and its
    cofactor lie in the box and fold to prod and whole / prod up to units.
    So this test holds exactly when the unfolded prod divides.
    """
    degs = _unfolded_degrees(prod, digits)
    if any(d > t for d, t in zip(degs, target)):
        return None
    cofactor = div(whole, prod)
    if cofactor is None:
        return None
    if all(a + b == t for a, b, t in zip(degs, _unfolded_degrees(cofactor, digits), target)):
        return cofactor
    return None


def _restrict(f: MultiPoly, sub_vars: VarSet):
    idx = [f.vars.index(n) for n in sub_vars.names]
    return MultiPoly(f.ring, sub_vars,
                     {tuple(e[i] for i in idx): v for e, v in f.terms.items()})


def _expand(f: MultiPoly, vars: VarSet):
    return f if f.vars == vars else f.embed(vars)


# ---------------------------------------------------------------------------
# k[u] coefficients: fold u in with the x variables over the base field.
# ---------------------------------------------------------------------------

def _unlift_u(g: MultiPoly, ring: PolyRing, vars: VarSet):
    base = ring.base
    buckets = {}
    for e, c in g.terms.items():
        xe, j = e[:-1], e[-1]
        buckets.setdefault(xe, {})[j] = c
    terms = {}
    for xe, coeffs in buckets.items():
        d = max(coeffs)
        uval = tuple(coeffs.get(i, base.zero) for i in range(d + 1))
        terms[xe] = tuple(dense_trim(list(uval)))
    return MultiPoly(ring, vars, terms)


def factor_poly_ring_value(ring: PolyRing, a):
    """Factor a nonzero k[u] element: (unit value, [(monic value, mult)]),
    the unit being its leading coefficient."""
    if not a:
        raise ZeroInputError("cannot factor 0")
    return (a[-1],), [(tuple(fac), mult) for fac, mult in _factor_dense(list(a), ring.base)]


# ---------------------------------------------------------------------------
# Public univariate entry points.
# ---------------------------------------------------------------------------

def factor_univariate_finite_field(f: MultiPoly) -> Factorization:
    """Complete univariate factorization over GF(q)."""
    if not isinstance(f.ring, FiniteField):
        raise UnsupportedRingError(f"{f.ring} is not a finite field")
    return factor_multivariate(f)


def factor_univariate_integers(f: MultiPoly) -> Factorization:
    """Complete univariate factorization over Z or Q (content split off)."""
    if not isinstance(f.ring, (IntegerRing, RationalField)):
        raise UnsupportedRingError(f"{f.ring} is not Z or Q")
    return factor_multivariate(f)


# ---------------------------------------------------------------------------
# Irreducibility with certificates.
# ---------------------------------------------------------------------------

@dataclass
class IrreducibilityCertificate:
    irreducible: bool
    reason: str          # "irreducible" | "unit/constant" | "content" | "reducible"
    witness: MultiPoly | None = None
    method: str = ""

    def __bool__(self):
        return self.irreducible


_SPECIALIZE_ATTEMPTS = 8


def is_irreducible(f: MultiPoly, method: str = "auto",
                   need_witness: bool = False) -> IrreducibilityCertificate:
    """Decide irreducibility in R[vars]; over a UFD this includes primitivity.

    method="kronecker" forces the fold-factor-recombine route for
    multivariate inputs (used by the oracle-equivalence sweeps);
    method="auto" adds sound shortcuts in front of it.  Over k[u], once the
    content is a unit, "auto" decides the lifted form in k[vars, u] (the
    same ring), and a witness comes back in k[u][vars].
    """
    if method not in ("auto", "kronecker"):
        raise ValueError(f"unknown method {method!r}")
    if f.is_zero():
        raise ZeroInputError("irreducibility of the zero polynomial is undefined")
    ring = f.ring
    if f.is_constant():
        return IrreducibilityCertificate(False, "unit/constant", None, "degree")
    if not ring.is_field:
        c = f.content_value()
        if not ring.is_unit(c):
            witness = MultiPoly.constant(ring, f.vars, c)
            return IrreducibilityCertificate(False, "content", witness, "content")

    if method == "kronecker":
        return _is_irreducible_via_factor(f)
    if isinstance(ring, PolyRing):
        cert = _is_irreducible_auto(lift_u(f), need_witness)
        if cert.witness is not None:
            cert.witness = _unlift_u(cert.witness, ring, f.vars).monic_normalize()[1]
        return cert
    return _is_irreducible_auto(f, need_witness)


def _is_irreducible_auto(f, need_witness):
    """The shortcut routes, then factoring, for a nonconstant f over Z, Q or
    GF(q) whose content is a unit."""
    ring = f.ring
    effective = [n for n in f.vars.names if f.degree_in(n) > 0]

    if len(effective) == 1:
        var = effective[0]
        ok, reason, method = dense_is_irreducible(dense_in_var(f, var), ring)
        witness = _is_irreducible_via_factor(f).witness if need_witness and not ok else None
        return IrreducibilityCertificate(ok, reason, witness, method)
    if len(effective) == 2:
        cert = bivariate_is_irreducible(rows_of(f, *effective), ring, VarSet(tuple(effective)),
                                        need_witness)
        if cert.witness is not None:
            cert.witness = _expand(cert.witness, f.vars)
        return cert

    # Degree-1-in-a-variable rule: exact, both directions.
    for v in effective:
        if f.degree_in(v) == 1:
            coeffs = f.coeffs_in(v)
            g = poly_gcd(coeffs[0], coeffs[1])
            if g.is_constant() and ring.is_unit(g.constant_value()):
                return IrreducibilityCertificate(True, "irreducible", None, "linear-variable")
            return IrreducibilityCertificate(False, "reducible",
                                             g if need_witness else None, "linear-variable")

    main = max(effective, key=f.degree_in)
    others = [v for v in effective if v != main]
    idx = [f.vars.index(v) for v in others]

    def content(v):
        acc = list_content(f.coeffs_in(v))
        if acc.is_constant() and ring.is_unit(acc.constant_value()):
            return None
        return IrreducibilityCertificate(False, "reducible", acc.monic_normalize()[1], "content")

    def value(line, E, point):
        out = E.zero
        for e, v in line.terms.items():
            for j, x in zip(idx, point):
                if e[j]:
                    v = E.mul(v, E.pow(x, e[j]))
            out = E.add(out, v)
        return out

    cert = _try_specialization_certificate(ring, main, others, content, f.coeffs_in(main), value)
    return _is_irreducible_via_factor(f) if cert is None else cert


def dense_is_irreducible(c, K):
    """Irreducibility of the polynomial with dense coefficients c (low to
    high; a constant or zero c included) over Z, Q or GF(q), as
    is_irreducible decides it: (irreducible, reason, method).

    Zero and constants are "unit/constant" (method "degree"); over Z a
    content above 1 is "content"; degree 1 is irreducible by
    "linear-variable".  Otherwise gf2_is_irreducible (GF(2)),
    u_is_irreducible (GF(q)) or _zx_is_irreducible (Z and Q, on the
    primitive integer image) decides, reported as "univariate-ff" over
    GF(q) and "kronecker" over Z and Q, the names envelopes and route
    counts use.  Over Q, c may be any positive integer multiple of the
    polynomial, as Specializer and bivariate_is_irreducible pass it.
    """
    if len(c) < 2:
        return False, "unit/constant", "degree"
    if isinstance(K, IntegerRing) and math.gcd(*c) != 1:
        return False, "content", "content"
    if len(c) == 2:
        return True, "irreducible", "linear-variable"
    if K.is_finite:
        if isinstance(K, PrimeField) and K.p == 2:
            ok = gf2_is_irreducible(_gf2_from_dense(c))
        else:
            ok = u_is_irreducible(c, K)
        method = "univariate-ff"
    else:
        ok = _zx_is_irreducible(_integer_image(c) if isinstance(K, RationalField) else c)
        method = "kronecker"
    return ok, "irreducible" if ok else "reducible", method


def bivariate_is_irreducible(rows, K, vars, need_witness=False, in_ku=False):
    """is_irreducible of F in the two variables vars = (a, b), from its rows:
    rows[j] is the coefficient list in a of b^j, trimmed, the last nonzero;
    over Z and Q of integers, over Q of a multiple of F.  F in at most one
    variable goes to dense_is_irreducible.  With in_ku, F is the lifted form
    of a k[u] polynomial in one x, (a, b) = (x, u), decided as over k[u].
    Then is_irreducible's rules in its order: degree 1 in a variable, the
    Newton polygon, _try_specialization_certificate, and Kronecker.
    Witnesses are over vars."""
    cols = [[] for _ in range(max(map(len, rows), default=0))]
    for j, row in enumerate(rows):  # from the nonzero entries, so sparse F costs its terms
        for i, v in enumerate(row):
            if v:
                col = cols[i]
                if len(col) < j:
                    col += [0] * (j - len(col))
                col.append(v)
    lines = (cols, rows)  # lines[k]: the coefficients of F in its k-th variable
    gcd = functools.partial(u_gcd, K=K) if K.is_finite else zx_gcd

    def witness(g, k):  # g a list in the k-th variable
        if need_witness:
            return poly_from_rows(K, vars, [g] if k == 0 else [[v] for v in g]).monic_normalize()[1]
        return None

    def content(k):  # the certificate of a nonunit content in the k-th variable
        g = []
        for c in lines[k]:
            if c:
                g = gcd(g, c)
                if len(g) == 1:
                    return None
        return IrreducibilityCertificate(False, "reducible", witness(g, 1 - k), "content")

    def value(line, E, point):
        return u_eval(line, point[0], E) if E.is_finite else zx_eval(line, point[0])

    if in_ku:
        if len(cols) < 2:
            return IrreducibilityCertificate(False, "unit/constant", None, "degree")
        if content(0) is not None:
            return IrreducibilityCertificate(False, "content", None, "content")
    if len(rows) < 2 or len(cols) < 2:
        ok, reason, method = dense_is_irreducible(rows[0] if len(rows) == 1 else
                                                  cols[0] if cols else [], K)
        return IrreducibilityCertificate(ok, reason, None, method)
    if isinstance(K, IntegerRing) and math.gcd(*itertools.chain(*rows)) != 1:
        return IrreducibilityCertificate(False, "content", None, "content")
    for k in (0, 1):  # degree 1 in a variable: exact, both directions
        if len(lines[k]) == 2:
            g = gcd(*lines[k])
            if len(g) == 1:
                return IrreducibilityCertificate(True, "irreducible", None, "linear-variable")
            return IrreducibilityCertificate(False, "reducible", witness(g, 1 - k),
                                             "linear-variable")
    if _newton_indecomposable({(i, j) for j, row in enumerate(rows)
                               for i, v in enumerate(row) if v}):
        return IrreducibilityCertificate(True, "irreducible", None, "newton-polytope")
    main = 0 if len(cols) >= len(rows) else 1
    cert = _try_specialization_certificate(K, main, [1 - main], content, lines[main], value)
    if cert is None:
        cert = _is_irreducible_via_factor(poly_from_rows(K, vars, rows))
    return cert


def _is_irreducible_via_factor(f):
    fac = factor_multivariate(f)
    nontrivial = fac.factors
    if len(nontrivial) == 1 and nontrivial[0][1] == 1 and not nontrivial[0][0].is_constant():
        return IrreducibilityCertificate(True, "irreducible", None, "kronecker")
    witness = nontrivial[0][0] if nontrivial else None
    return IrreducibilityCertificate(False, "reducible", witness, "kronecker")


def _convex_hull(points):
    """Vertices of the convex hull of distinct lattice points, counterclockwise
    from the lexicographically smallest, collinear points dropped."""
    pts = sorted(points)
    if len(pts) <= 2:
        return pts

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0:
                    break
                chain.pop()
            chain.append(p)
        return chain

    lower, upper = half(pts), half(reversed(pts))
    return lower[:-1] + upper[:-1]


def _newton_indecomposable(points):
    """Sound one-sided test on the support points of a bivariate f in both
    its variables: whether f, which no variable may divide, has an
    integrally indecomposable Newton polygon, which proves f irreducible
    (Gao 2001, Ostrowski: Newt(gh) = Newt(g) + Newt(h), and a nonconstant
    factor of f is no monomial, so its polygon is no point).

    The hull's edges, in cyclic order, are n_i * v_i with v_i primitive.
    The polygon decomposes exactly when some 0 <= m_i <= n_i, neither all 0
    nor all n_i, give sum m_i * v_i = 0 (Gao-Lauder 2001).  With m, n - m
    is such a choice too, so m_1 < n_1 loses none; and the partial sums of
    either walk a summand's vertices, so they stay in the bounding box of
    the polygon shifted by its first vertex.
    """
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    if min(xs) or min(ys):
        return False
    hull = _convex_hull(points)
    x0, y0 = hull[0]
    xlo, xhi, ylo, yhi = -x0, max(xs) - x0, -y0, max(ys) - y0
    reached = set()  # partial sums of the choices with some m_i > 0 so far
    for k, (a, b) in enumerate(zip(hull, hull[1:] + hull[:1])):
        dx, dy = b[0] - a[0], b[1] - a[1]
        n = math.gcd(dx, dy)
        dx, dy = dx // n, dy // n
        top = n - 1 if k == 0 else n
        grown = set(reached)
        for x, y in reached | {(0, 0)}:
            for m in range(1, top + 1):
                px, py = x + m * dx, y + m * dy
                if not (xlo <= px <= xhi and ylo <= py <= yhi):
                    break
                grown.add((px, py))
        # a zero sum already reached stays one with every later m_i = 0
        if (0, 0) in grown:
            return False
        reached = grown
    return True


def _try_specialization_certificate(K, main, others, content, lines, value):
    """Sound certificates for f over K, tried before Kronecker; None when
    none applies.  content(v) certifies a nonunit content of f in v, else
    is None; lines are the coefficients of f in main, and value(line, E,
    point) is one at a point over E.

    Content: a nonconstant content of f in its main variable (over a field,
    in any effective variable v) is a proper factor, since f divided by it
    keeps its degree in v, so f is reducible.  It is the witness, with
    method "content".  The contents in the other variables than main are
    only computed once the base-ring points fail, since a certifying image
    proves them units.

    Specialization: when the content of f in its main variable (of largest
    degree) is a unit, one image f(main, a) at a point a of the other
    variables that keeps the main degree and is irreducible proves f
    irreducible over the fraction field.
    A factorization f = g*h with both factors of positive main degree would
    keep both degrees in the image, and a factor of degree 0 in main
    divides the content.  The first _SPECIALIZE_ATTEMPTS points of the base
    ring are tried; over GF(p), which may have too few points, then as many
    points of GF(p^k) outside GF(p) for p^k <= EXT_TABLE_LIMIT, k = 2, 3,
    ..., the image being decided over GF(p^k) (Bernardin & Monagan 1997; von
    zur Gathen & Gerhard, Modern Computer Algebra, §14).  The method is
    "specialization".
    """
    cert = content(main)
    if cert is not None:
        return cert
    pool = K.element_box() if K.is_finite else [1, -1, 2, -2, 3, 0, -3, 4]
    points = ((K, pt) for pt in itertools.product(pool, repeat=len(others)))
    if _irreducible_image(lines, value, itertools.islice(points, _SPECIALIZE_ATTEMPTS)):
        return IrreducibilityCertificate(True, "irreducible", None, "specialization")
    if not K.is_field:
        return None
    for v in others:
        cert = content(v)
        if cert is not None:
            return cert
    if isinstance(K, PrimeField):
        points = itertools.islice(_extension_points(K.p, len(others)), _SPECIALIZE_ATTEMPTS)
        if _irreducible_image(lines, value, points):
            return IrreducibilityCertificate(True, "irreducible", None, "specialization")
    return None


def _irreducible_image(lines, value, points):
    """Whether at one of the points, pairs (E, a point over E) with E the
    ring of f or an extension of its prime field, the image of f in main,
    value(line, E, point) for each of its coefficients lines, keeps the
    main degree and is irreducible over E."""
    for E, point in points:
        c = [value(line, E, point) for line in lines]
        if not c[-1]:
            continue  # the main degree dropped
        if not E.is_field:
            c = zx_primitive(c)[1]
        if dense_is_irreducible(c, E)[0]:
            return True
    return False


def _extension_points(p, m):
    """(GF(p^k), a point of GF(p^k)^m outside GF(p)^m) for k = 2, 3, ...
    while p^k <= EXT_TABLE_LIMIT; each field is built when first reached
    (its tables are cached by the rings module)."""
    k = 2
    while p ** k <= EXT_TABLE_LIMIT:
        E = ExtField(p, k)
        for point in itertools.product(E.element_box(), repeat=m):
            if any(a >= p for a in point):
                yield E, point
        k += 1


# ---------------------------------------------------------------------------
# Brute-force oracle over small finite fields.
# ---------------------------------------------------------------------------

def _brute_candidates(f: MultiPoly, budget):
    """All canonical (monic-leading) nonconstant polynomials in f's degree box."""
    ring = f.ring
    if not ring.is_finite:
        raise UnsupportedRingError("brute force needs a finite field")
    degs = f.degree_vector()
    monomials = sorted(itertools.product(*[range(d + 1) for d in degs]))
    count = ring.order ** len(monomials)
    if count > budget:
        raise BudgetExceededError(
            f"brute-force box has {count} candidates, budget {budget}")
    box = ring.element_box()
    total_f = f.total_degree()
    out = []
    for assignment in itertools.product(box, repeat=len(monomials)):
        terms = {}
        for e, v in zip(monomials, assignment):
            if not ring.is_zero(v):
                terms[e] = v
        if not terms:
            continue
        g = MultiPoly(ring, f.vars, terms)
        td = g.total_degree()
        if td < 1 or td >= total_f:
            continue
        if g.leading_term()[1] != ring.one:
            continue
        out.append(g)
    out.sort(key=_factor_sort_key)
    return out


def brute_force_irreducible(f: MultiPoly, budget: int = 1 << 20) -> bool:
    """Ground truth by trial division over the whole smaller-degree box."""
    if f.is_zero():
        raise ZeroInputError("irreducibility of the zero polynomial is undefined")
    if f.is_constant():
        return False
    for g in _brute_candidates(f, budget):
        if f.try_divexact(g) is not None:
            return False
    return True


def brute_force_factor(f: MultiPoly, budget: int = 1 << 20) -> Factorization:
    """Full factorization over GF(q) by exhaustive trial division."""
    ring = f.ring
    if f.is_zero():
        raise ZeroInputError("cannot factor the zero polynomial")
    unit, rest = f.monic_normalize()
    pairs = []
    while not rest.is_constant():
        hit = None
        for g in _brute_candidates(rest, budget):
            if rest.try_divexact(g) is not None:
                hit = g
                break
        if hit is None:
            pairs.append((rest, 1))
            break
        mult = 0
        while True:
            q = rest.try_divexact(hit)
            if q is None:
                break
            rest = q
            mult += 1
        u2, rest = rest.monic_normalize()
        unit = ring.mul(unit, u2)
        pairs.append((hit, mult))
    return Factorization.build(ring, unit, pairs, "brute-force")


# ---------------------------------------------------------------------------
# Capelli condition for b*y^rho + a.
# ---------------------------------------------------------------------------

def _fraction_field_profile(a: MultiPoly, b: MultiPoly):
    """Factor -a/b in K(vars): returns (num, den, {factor key: exponent}).

    num/den are ring values collecting the constant (unit-in-K) part;
    the map carries exponents of the canonical nonconstant irreducibles.
    """
    ring = a.ring
    exps = {}

    def absorb(f, sign):
        fac = factor_multivariate(f)
        const = fac.unit.value
        for g, m in fac.factors:
            if g.is_constant():
                const = ring.mul(const, ring.pow(g.constant_value(), m))
            else:
                k = g.key()
                exps[k] = exps.get(k, 0) + sign * m
        return const

    num = absorb(a, +1)
    den = absorb(b, -1)
    return num, den, exps


def _constant_is_power(num, den, ring, ell):
    """Is num/den, both nonzero, an ell-th power in the fraction field of
    the constants?"""
    if isinstance(ring, IntegerRing) or isinstance(ring, RationalField):
        x = Fraction(num) / Fraction(den)
        if x < 0:
            if ell % 2 == 0:
                return False
            x = -x
        return is_perfect_power(x.numerator, ell) and is_perfect_power(x.denominator, ell)
    if isinstance(ring, FiniteField):
        c = ring.mul(num, ring.inv(den))
        q = ring.order
        g = math.gcd(ell, q - 1)
        return ring.pow(c, (q - 1) // g) == ring.one
    if isinstance(ring, PolyRing):
        nu, nf = ring.factor_value(num)
        du, df = ring.factor_value(den)
        table = {}
        for v, m in nf:
            table[v] = table.get(v, 0) + m
        for v, m in df:
            table[v] = table.get(v, 0) - m
        if any(m % ell for m in table.values()):
            return False
        return _constant_is_power(nu[0], du[0], ring.base, ell)
    raise UnsupportedRingError(f"power test over {ring} not supported")


def capelli_check(a: MultiPoly, b: MultiPoly, rho: int) -> bool:
    """True iff b*y^rho + a is irreducible over K(vars) by the Capelli test:
    -a/b is no ell-th power for any prime ell dividing rho, and
    -a/b is not in -4*K(vars)^4 when 4 divides rho."""
    if a.is_zero() or b.is_zero():
        raise ZeroInputError("Capelli test needs nonzero a and b")
    if rho < 1:
        raise ValueError("rho must be a positive integer")
    g = poly_gcd(a, b)
    if not (g.is_constant() and a.ring.is_unit(g.constant_value())):
        raise ValueError("a and b must be relatively prime")
    if rho == 1:
        return True
    ring = a.ring
    num, den, exps = _fraction_field_profile(a, b)
    neg_num = ring.neg(num)  # the constant part of -a/b
    for ell, _ in factor_int(rho):
        if all(m % ell == 0 for m in exps.values()):
            if _constant_is_power(neg_num, den, ring, ell):
                return False
    if rho % 4 == 0 and ring.characteristic != 2:
        # -a/b in -4K^4  <=>  a/(4b) is a fourth power
        den4 = ring.mul(den, ring.from_int(4))
        if all(m % 4 == 0 for m in exps.values()):
            if _constant_is_power(num, den4, ring, 4):
                return False
    return True
