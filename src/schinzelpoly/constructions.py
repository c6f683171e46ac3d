"""Constructive corollaries: Goldbach decompositions and prescribed spectra.

Every search here is one loop, _first_accepted, over a stream of
candidates.  Goldbach: write a nonconstant Q as F + G with both parts
irreducible and F a binomial of degree at most deg(Q).  Degree-1 inputs in
one variable use a closed-form three-case table; every other search reads
binomials: the congruence stream over infinite rings (lambda0 = 1 - q0
mod the leading coefficient, lambda1 = 1 mod lambda0), every a + b*x^e
over finite fields.  A strict finite-field search then reads the whole
degree box, so a failure proves non-existence.

Spectra: given distinct a_1..a_t in a field k, prescribed factors w_i and
a nonzero V, build U with U - a_i V = w_i H_i (H_i irreducible), U - a_0 V
irreducible of full degree, and exact partial degrees.  The pipeline is
polynomial CRT for the seed U_0, a nonzero-cofactor adjustment, and seeded
random draws of the correction M in U = U_0 + M prod(w_i).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    BezoutUnavailableError,
    BudgetExceededError,
    ExhaustiveNoneError,
    NonCoprimeModuliError,
    UnsupportedRingError,
    ZeroInputError,
)
from .factor import is_irreducible
from .multipoly import MultiPoly, VarSet, grlex_key, poly_gcd
from .rings import ExtField, PolyRing, PrimeField, Ring
from .schinzel import SearchConstraints, iter_candidates, support_monomials

_BEZOUT_STEP_CAP = 200


# ---------------------------------------------------------------------------
# Bezout identities and CRT in k[vars].
# ---------------------------------------------------------------------------

def bezout_pair(f: MultiPoly, g: MultiPoly):
    """(s, t) with s*f + t*g = 1, or None if the division-based Euclidean
    walk cannot reach a constant (comaximality in general is a
    Groebner-complete question, out of scope here)."""
    ring = f.ring
    one = MultiPoly.one(ring, f.vars)
    zero = MultiPoly.zero(ring, f.vars)
    r0, r1 = f, g
    s0, s1 = one, zero
    t0, t1 = zero, one
    steps = 0
    stalls = 0
    while not r1.is_zero():
        steps += 1
        if steps > _BEZOUT_STEP_CAP:
            return None
        q, r = r0.divmod_single(r1)
        if q.is_zero():
            # swap and retry; two stalls in a row means neither leading
            # term divides into the other and the walk is stuck
            stalls += 1
            if stalls >= 2:
                return None
        else:
            stalls = 0
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_constant() and ring.is_unit(r0.constant_value()):
        inv = ring.inv(r0.constant_value())
        return s0.scale(inv), t0.scale(inv)
    return None


def poly_mod(f: MultiPoly, m: MultiPoly) -> MultiPoly:
    """Remainder of multivariate division by m in graded-lex order."""
    return f.divmod_single(m)[1]


def poly_crt(residues) -> MultiPoly:
    """Solve x = target_i (mod modulus_i) for pairwise coprime moduli over a
    field; the result is reduced modulo the product of the moduli."""
    if not residues:
        raise ZeroInputError("poly_crt needs at least one residue")
    ring = residues[0][0].ring
    if not ring.is_field:
        raise UnsupportedRingError("poly_crt needs field coefficients")
    moduli = [m for _, m in residues]
    for m in moduli:
        if m.is_zero():
            raise ZeroInputError("zero modulus")
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            g = poly_gcd(moduli[i], moduli[j])
            if not (g.is_constant() and ring.is_unit(g.constant_value())):
                raise NonCoprimeModuliError(
                    f"moduli {moduli[i]} and {moduli[j]} share the factor {g}",
                    pair=(i, j), gcd=g)
    x = poly_mod(residues[0][0], moduli[0])
    M = moduli[0]
    for target, m in residues[1:]:
        bez = bezout_pair(M, m)
        if bez is None:
            raise BezoutUnavailableError(
                f"no Bezout identity reachable for {M} and {m}")
        s, _ = bez
        delta = poly_mod(target - x, m)
        x = x + M * poly_mod(s * delta, m)
        M = M * m
    return poly_mod(x, M)


# ---------------------------------------------------------------------------
# Goldbach decomposition.
# ---------------------------------------------------------------------------

@dataclass
class GoldbachDecomposition:
    Q: MultiPoly
    F: MultiPoly
    G: MultiPoly
    case: str
    binomial: bool
    relaxed_var: str | None
    tested: int
    F_exponents: tuple | None

    def verify(self):
        return (self.F + self.G == self.Q
                and bool(is_irreducible(self.F)) and bool(is_irreducible(self.G)))


def _goldbach_linear_table(Q: MultiPoly):
    """The closed-form table for n = 1, deg(Q) = 1: Q = q1*x + q0.  Each
    part is a*x + b with a != 0 and gcd(a, b) a unit, so irreducible.  None
    over GF(2), the one ring without an r outside {0, 1}."""
    ring = Q.ring
    vars = Q.vars
    x = MultiPoly.variable(ring, vars, vars.names[0])
    one = ring.one
    q1 = Q.terms.get((1,), ring.zero)
    q0 = Q.constant_value()

    def lin(a, b):  # a*x + b
        return x.scale(a) + MultiPoly.constant(ring, vars, b)

    if q1 != one:
        F = lin(one, ring.sub(q0, one))
        G = lin(ring.sub(q1, one), one)
        case = "table-q1-ne-1"
    elif q1 != ring.neg(one):
        F = lin(ring.neg(one), ring.sub(q0, one))
        G = lin(ring.add(q1, one), one)
        case = "table-q1-ne-minus1"
    else:
        # q1 = 1 = -1 (characteristic 2): need r outside {0, 1}, which is u
        # over k[u], else the first one a finite field has (GF(2) has none)
        if isinstance(ring, PolyRing):
            r = ring.generator()
        else:
            r = next((c for c in ring.element_box() if not ring.is_zero(c) and c != one),
                     None)
        if r is None:
            return None
        rq0 = ring.mul(r, q0)
        F = lin(r, ring.add(rq0, one))
        G = lin(ring.add(r, one), ring.add(rq0, ring.add(q0, one)))
        case = "table-char2"
    return GoldbachDecomposition(Q, F, G, case, True, None, 0, (1,))


def _other_part(Q: MultiPoly, F: MultiPoly):
    """G = Q - F when G is nonconstant and F, then G, is irreducible."""
    G = Q - F
    if G.is_constant() or not is_irreducible(F) or not is_irreducible(G):
        return None
    return G


def _first_accepted(candidates, accept, budget, exhausted):
    """The first-accepted candidate loop: count each candidate of the
    stream against the budget (BudgetExceededError(exhausted) past it)
    until accept(candidate, count so far) is not None.  Returns what accept
    returned, or None when the stream runs out, and the count."""
    tested = 0
    for candidate in candidates:
        if tested >= budget:
            raise BudgetExceededError(exhausted, tested=tested)
        tested += 1
        accepted = accept(candidate, tested)
        if accepted is not None:
            return accepted, tested
    return None, tested


def _binomial_search(Q: MultiPoly, candidates, budget, exhausted, case, relaxed_var):
    """_first_accepted over a stream of (F, e) with F = a + b*x^e: the
    decomposition of the first F whose Q - F is the other part."""
    def accept(candidate, tested):
        F, e = candidate
        G = _other_part(Q, F)
        return None if G is None else GoldbachDecomposition(Q, F, G, case, True, relaxed_var,
                                                            tested, e)
    return _first_accepted(candidates, accept, budget, exhausted)


def _degree_box(n, deg):
    """Exponent vectors in n variables of total degree 1..deg, ascending."""
    return sorted(e for e in itertools.product(range(deg + 1), repeat=n)
                  if 1 <= sum(e) <= deg)


def _binomials(Q: MultiPoly, monomials):
    """(a + b*x^e, e) over a finite field: e in monomials order, then b,
    then a, both nonzero."""
    ring = Q.ring
    vars = Q.vars
    nonzero = [v for v in ring.element_box() if not ring.is_zero(v)]
    for e in monomials:
        for b in nonzero:
            for a in nonzero:
                yield MultiPoly.from_terms(ring, vars, {(0,) * len(vars): a, e: b}), e


def _relaxed_binomials(Q: MultiPoly, relaxed_var):
    """The binomials of relaxed mode, deg_x(F) <= deg_x(Q) in the designated
    variable x only: shell after shell of the degree bound in the others."""
    n = len(Q.vars)
    vi = Q.vars.index(relaxed_var)
    dv = int(Q.degree_in(relaxed_var))
    for other_bound in itertools.count(0):
        bounds = [other_bound] * n
        bounds[vi] = dv
        yield from _binomials(Q, sorted(
            e for e in itertools.product(*[range(b + 1) for b in bounds])
            if sum(e) >= 1 and (other_bound == 0
                                or max(e[j] for j in range(n) if j != vi) == other_bound)))


def _pairs_by_shell(stream):
    """(a_i, a_j) pairs of an infinite stream's elements graded by max(i, j)."""
    seen = []
    for a in stream:
        seen.append(a)
        for b in seen:
            yield a, b
        for b in seen[:-1]:
            yield b, a


def _congruence_binomials(Q: MultiPoly):
    """F = -(lambda0 + lambda1*Q1) with lambda0 = 1 - q0 (mod q_inf) and
    lambda1 = 1 (mod lambda0), over pairs of the ring's element stream;
    Q1 is the first monomial of the degree box below the leading one."""
    ring = Q.ring
    vars = Q.vars
    lead_exps, q_inf = Q.leading_term()
    Q1_exps = next(e for e in sorted(_degree_box(len(vars), int(Q.total_degree())),
                                     key=grlex_key, reverse=True) if e != lead_exps)
    Q1 = MultiPoly.monomial(ring, vars, Q1_exps)
    base = ring.sub(ring.one, Q.constant_value())
    for t, s in _pairs_by_shell(ring.element_stream()):
        lam0 = ring.add(base, ring.mul(t, q_inf))
        lam1 = ring.add(ring.one, ring.mul(s, lam0))
        if not (ring.is_zero(lam0) or ring.is_zero(lam1)):
            yield -(MultiPoly.constant(ring, vars, lam0) + Q1.scale(lam1)), Q1_exps


def _goldbach_finite_field(Q: MultiPoly, budget):
    """Strict search over a finite field: the binomials, then every F with
    deg(F) <= deg(Q), so coming up empty proves non-existence."""
    ring = Q.ring
    vars = Q.vars
    monomials = _degree_box(len(vars), int(Q.total_degree()))
    # Binomials first: the shape the corollary promises.
    found, tested = _binomial_search(Q, _binomials(Q, monomials), budget,
                                     "Goldbach budget exhausted", "exhaustive-search", None)
    if found is not None:
        return found
    # Full exhaustive pass: decides existence.  It counts F's parts without
    # the constant, the zero part included, after the binomials.
    box = ring.element_box()
    count = len(box) ** len(monomials)
    exhausted = f"exhaustive box has {count} candidates, budget {budget}"
    if count > budget:
        raise BudgetExceededError(exhausted, tested=tested)

    def accept(candidate, parts):
        part = candidate[0]
        if part.is_zero():
            return None
        # F = part + const is a binomial when part is one term
        exps = next(iter(part.terms)) if len(part.terms) == 1 else None
        for const in box:
            F = part + MultiPoly.constant(ring, vars, const)
            G = _other_part(Q, F)
            if G is not None:
                return GoldbachDecomposition(Q, F, G, "exhaustive-search", exps is not None,
                                             None, tested + parts, exps)
        return None

    found, parts = _first_accepted(iter_candidates(ring, vars, monomials, SearchConstraints()),
                                   accept, count, exhausted)
    if found is None:
        raise ExhaustiveNoneError(
            f"no Goldbach decomposition of {Q} with deg(F) <= {Q.total_degree()} exists",
            tested=tested + parts)
    return found


def check_goldbach_inputs(Q: MultiPoly, relaxed_var):
    """Raise unless goldbach_decompose takes Q and relaxed_var: Q is
    nonconstant, and the relaxed clause, if asked for, is over a finite
    field and names a variable of Q besides which Q has another."""
    if Q.is_zero() or Q.is_constant():
        raise ZeroInputError("Q must be nonconstant")
    if relaxed_var is None:
        return
    if not Q.ring.is_finite:
        raise UnsupportedRingError(
            "the relaxed per-variable degree clause is a finite-field accommodation")
    if relaxed_var not in Q.vars:
        raise ValueError(f"unknown variable {relaxed_var!r}")
    if len(Q.vars) < 2:
        # the relaxed search grows the degree in the other variables;
        # with none it would only try binomials, which proves nothing
        raise ValueError("the relaxed degree clause needs a second variable "
                         "besides the designated one")


def goldbach_decompose(Q: MultiPoly, relaxed_var=None, budget=100_000) -> GoldbachDecomposition:
    """Q = F + G with F, G irreducible and the degree clause on F.

    Raises ExhaustiveNoneError when an exhaustive finite-field search
    proves no decomposition exists, BudgetExceededError when the search
    ran out of budget.
    """
    check_goldbach_inputs(Q, relaxed_var)
    if relaxed_var is not None:
        return _binomial_search(Q, _relaxed_binomials(Q, relaxed_var), budget,
                                "Goldbach budget exhausted", "relaxed-search", relaxed_var)[0]

    if len(Q.vars) == 1 and Q.total_degree() == 1:
        found = _goldbach_linear_table(Q)
        if found is not None:
            return found
    if Q.ring.is_finite:
        return _goldbach_finite_field(Q, budget)
    return _binomial_search(Q, _congruence_binomials(Q), budget,
                            f"no Goldbach decomposition within {budget} candidates",
                            "congruence-search", None)[0]


# ---------------------------------------------------------------------------
# Prescribed spectra.
# ---------------------------------------------------------------------------

@dataclass
class SpectrumSpec:
    """Inputs of the explicit spectrum construction.

    base: the field k.  S: distinct elements a_1..a_t of k.  a0: an element
    outside S, either of k itself or of an extension GF(p^m) when k is a
    prime field.  V: nonzero.  w: the prescribed factors w_1..w_t (w_0 = 1
    is implicit), pairwise comaximal and each coprime to V.  d: the exact
    partial degrees of U.
    """

    base: Ring
    xvars: VarSet
    S: list
    a0: object
    V: MultiPoly
    w: list
    d: tuple
    a0_field: Ring = None

    def __post_init__(self):
        self.d = tuple(self.d)
        if not self.base.is_field:
            raise UnsupportedRingError("spectrum construction needs a base field")
        if self.a0_field is None:
            self.a0_field = self.base
        if len(self.S) != len(set(map(self._key, self.S))):
            raise ValueError("the spectrum elements a_1..a_t must be distinct")
        if len(self.w) != len(self.S):
            raise ValueError("one prescribed factor w_i per spectrum element")
        if self.V.is_zero():
            raise ZeroInputError("V must be nonzero")
        if self.a0_field == self.base and any(self._key(a) == self._key(self.a0) for a in self.S):
            raise ValueError("a0 must avoid the prescribed spectrum S")
        for i, w in enumerate(self.w):
            if w.is_zero() or w.is_constant():
                raise ValueError(f"w_{i + 1} must be nonconstant")
            g = poly_gcd(w, self.V)
            if not (g.is_constant() and self.base.is_unit(g.constant_value())):
                raise ValueError(f"w_{i + 1} and V share the factor {g}")
        for i in range(len(self.w)):
            for j in range(i + 1, len(self.w)):
                g = poly_gcd(self.w[i], self.w[j])
                if not (g.is_constant() and self.base.is_unit(g.constant_value())):
                    raise NonCoprimeModuliError(
                        f"w_{i + 1} and w_{j + 1} share the factor {g}",
                        pair=(i, j), gcd=g)
                if bezout_pair(self.w[i], self.w[j]) is None:
                    raise BezoutUnavailableError(
                        f"cannot certify comaximality of w_{i + 1} and w_{j + 1}")

    @staticmethod
    def _key(v):
        return v if not isinstance(v, list) else tuple(v)


@dataclass
class SpectrumResult:
    U: MultiPoly
    U0: MultiPoly
    M: MultiPoly
    H: list            # H_0 .. H_t over k(a0)
    cofactors: list    # p_0 .. p_t
    tested: int


def _embedding(spec: SpectrumSpec):
    """The field k(a0), which holds k: k itself, or GF(p^m) over a prime
    field k, whose residues are the same elements there."""
    kp, k = spec.a0_field, spec.base
    if kp == k or (isinstance(k, PrimeField) and isinstance(kp, ExtField) and kp.p == k.p):
        return kp
    raise UnsupportedRingError(
        "a0 may live in k itself, or in GF(p^m) over a prime field k")


def _embed_poly(f: MultiPoly, kp):
    """f read over the field kp that holds its coefficients."""
    return MultiPoly(kp, f.vars, f.terms)


def spectrum_construct(spec: SpectrumSpec, budget=20_000, seed=0,
                       coeff_bound=2) -> SpectrumResult:
    """Build U = U_0 + M*prod(w_i) with the three spectrum conclusions."""
    k = spec.base
    vars = spec.xvars
    t = len(spec.S)
    kp = _embedding(spec)

    W = MultiPoly.one(k, vars)
    for w in spec.w:
        W = W * w
    delta = []
    for name, dj in zip(vars.names, spec.d):
        dW = W.degree_in(name)
        dW = 0 if not isinstance(dW, int) else dW
        dj2 = dj - dW
        if dj2 < 1:
            raise ValueError(
                f"degree d for {name} leaves no room for the search component "
                f"(need > deg_{name}(prod w) = {dW})")
        delta.append(dj2)

    if t:
        U0 = poly_crt([(spec.V.scale(a), w) for a, w in zip(spec.S, spec.w)])
    else:
        U0 = MultiPoly.zero(k, vars)

    # Nonzero cofactors: nudge U0 by the full product until every p_i != 0.
    for _ in range(t + 2):
        cof = []
        ok = True
        for a, w in zip(spec.S, spec.w):
            num = U0 - spec.V.scale(a)
            p = num.try_divexact(w)
            if p is None:
                raise ArithmeticError("CRT residue failed to divide")
            cof.append(p)
            if p.is_zero():
                ok = False
        p0 = _embed_poly(U0, kp) - _embed_poly(spec.V, kp).scale(spec.a0)
        if p0.is_zero():
            ok = False
        if ok:
            break
        U0 = U0 + W
    else:
        raise ArithmeticError("could not make all cofactors nonzero")

    # A_i + B_i * y data over k(a0); coprimality verified, as in the proof.
    Wp = _embed_poly(W, kp)
    AB = [(p0, Wp)]
    for i, (a, w) in enumerate(zip(spec.S, spec.w)):
        Bi = MultiPoly.one(k, vars)
        for j, wj in enumerate(spec.w):
            if j != i:
                Bi = Bi * wj
        AB.append((_embed_poly(cof[i], kp), _embed_poly(Bi, kp)))
    for i, (A, B) in enumerate(AB):
        g = poly_gcd(A, B)
        if not (g.is_constant() and kp.is_unit(g.constant_value())):
            raise ValueError(f"cofactor {i} is not coprime to its complement: {g}")

    cons = SearchConstraints(strategy="random", seed=seed, budget=budget,
                             coeff_bound=coeff_bound)
    support = support_monomials(delta)
    Vp = _embed_poly(spec.V, kp)
    wps = [_embed_poly(w, kp) for w in spec.w]

    def accept(candidate, tested):
        M = candidate[0]
        if any(M.degree_in(name) != dj for name, dj in zip(vars.names, delta)):
            return None
        Mp = _embed_poly(M, kp)
        H = []
        for i, (A, B) in enumerate(AB):
            Hi = A + B * Mp
            if Hi.is_zero() or not is_irreducible(Hi):
                return None
            if i >= 1 and wps[i - 1].try_divexact(Hi) is not None:
                return None
            H.append(Hi)
        U = U0 + M * W
        if any(U.degree_in(name) != dj for name, dj in zip(vars.names, spec.d)):
            return None
        Up = _embed_poly(U, kp)
        lhs = Up - Vp.scale(spec.a0)
        if lhs != H[0]:
            raise ArithmeticError("internal mismatch: U - a0*V != H_0")
        if lhs.total_degree() != max(Up.total_degree(), Vp.total_degree()):
            return None
        return SpectrumResult(U=U, U0=U0, M=M, H=H, cofactors=[p0] + cof, tested=tested)

    exhausted = f"no spectrum witness within {budget} samples"
    found, tested = _first_accepted(iter_candidates(k, vars, support, cons), accept,
                                    budget, exhausted)
    if found is None:  # the budget draws ran out
        raise BudgetExceededError(exhausted, tested=tested)
    return found
