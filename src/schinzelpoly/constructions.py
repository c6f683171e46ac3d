"""Constructive corollaries: Goldbach decompositions and prescribed spectra.

Goldbach: write a nonconstant Q as F + G with both parts irreducible and
F a binomial of degree at most deg(Q).  Degree-1 inputs in one variable
use a closed-form three-case table; other inputs over infinite rings run
the two-parameter congruence search (lambda0 = 1 - q0 mod the leading
coefficient, lambda1 = 1 mod lambda0); finite fields are searched
exhaustively, so a failure there is a proof of non-existence.

Spectra: given distinct a_1..a_t in a field k, prescribed factors w_i and
a nonzero V, build U with U - a_i V = w_i H_i (H_i irreducible), U - a_0 V
irreducible of full degree, and exact partial degrees.  The pipeline is
polynomial CRT for the seed U_0, a nonzero-cofactor adjustment, and a
degree-1 witness search for the correction M in U = U_0 + M prod(w_i).
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
from .multipoly import MultiPoly, VarSet, poly_gcd
from .rings import ExtField, PolyRing, PrimeField, Ring
from .schinzel import SearchConstraints, iter_candidates

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
        if self.F + self.G != self.Q:
            return False
        return bool(is_irreducible(self.F)) and bool(is_irreducible(self.G))


def _binomial_exponents(F: MultiPoly):
    """Exponent vector of a + b*monomial shaped F (None if not that shape)."""
    nonconst = [e for e in F.terms if sum(e) > 0]
    if len(nonconst) == 1 and len(F.terms) <= 2:
        return nonconst[0]
    return None


def _goldbach_linear_table(Q: MultiPoly):
    """The closed-form table for n = 1, deg(Q) = 1: Q = q1*x + q0."""
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
        r = None
        if isinstance(ring, PolyRing):
            r = ring.generator()
        else:
            for cand in ring.element_box():
                if not ring.is_zero(cand) and cand != one:
                    r = cand
                    break
        if r is None:
            return None
        rq0 = ring.mul(r, q0)
        F = lin(r, ring.add(rq0, one))
        G = lin(ring.add(r, one), ring.add(rq0, ring.add(q0, one)))
        case = "table-char2"
    if not (is_irreducible(F) and is_irreducible(G)):
        return None
    return F, G, case


def _pairs_by_shell(stream):
    """(a_i, a_j) pairs of an infinite stream's elements graded by max(i, j)."""
    seen = []
    for a in stream:
        seen.append(a)
        for b in seen:
            yield a, b
        for b in seen[:-1]:
            yield b, a


def _goldbach_congruence_search(Q: MultiPoly, budget):
    """The two-parameter search M = lambda0 + lambda1*Q1, F = -M, G = M + Q,
    with lambda0 = 1 - q0 (mod q_inf) and lambda1 = 1 (mod lambda0)."""
    ring = Q.ring
    vars = Q.vars
    lead_exps, q_inf = Q.leading_term()
    q0 = Q.constant_value()
    deg = int(Q.total_degree())
    Q1_exps = None
    for total in range(deg, 0, -1):
        cands = sorted((e for e in itertools.product(*[range(total + 1)] * len(vars))
                        if sum(e) == total), reverse=True)
        for e in cands:
            if e != lead_exps:
                Q1_exps = e
                break
        if Q1_exps is not None:
            break
    if Q1_exps is None:
        raise ValueError("no second monomial available; use the linear table")
    Q1 = MultiPoly.monomial(ring, vars, Q1_exps)
    base = ring.sub(ring.one, q0)

    tested = 0
    for t, s in _pairs_by_shell(ring.element_stream()):
        if tested >= budget:
            raise BudgetExceededError(
                f"no Goldbach decomposition within {budget} candidates", tested=tested)
        lam0 = ring.add(base, ring.mul(t, q_inf))
        if ring.is_zero(lam0):
            continue
        lam1 = ring.add(ring.one, ring.mul(s, lam0))
        if ring.is_zero(lam1):
            continue
        tested += 1
        M = MultiPoly.constant(ring, vars, lam0) + Q1.scale(lam1)
        G = M + Q
        if not is_irreducible(M):
            continue
        if not is_irreducible(G):
            continue
        return GoldbachDecomposition(Q, -M, G, "congruence-search", True,
                                     None, tested, Q1_exps)


def _goldbach_finite_field(Q: MultiPoly, relaxed_var, budget):
    """Search over a finite field.  Strict mode enumerates every F with
    deg(F) <= deg(Q), so coming up empty proves non-existence."""
    ring = Q.ring
    vars = Q.vars
    deg = int(Q.total_degree())
    box = ring.element_box()
    nonzero = [v for v in box if not ring.is_zero(v)]
    tested = 0

    def try_F(F):
        G = Q - F
        if G.is_zero() or G.is_constant():
            return None
        if not is_irreducible(F):
            return None
        if not is_irreducible(G):
            return None
        return G

    def binomial_pass(monomials, method):
        """The first binomial F = a + b*x^e, e in monomials order, with F
        and Q - F irreducible, or None."""
        nonlocal tested
        for e in monomials:
            for b in nonzero:
                for a in nonzero:
                    if tested >= budget:
                        raise BudgetExceededError("Goldbach budget exhausted", tested=tested)
                    tested += 1
                    F = MultiPoly.from_terms(ring, vars,
                                             {(0,) * len(vars): a, e: b})
                    G = try_F(F)
                    if G is not None:
                        return GoldbachDecomposition(Q, F, G, method,
                                                     True, relaxed_var, tested, e)
        return None

    if relaxed_var is None:
        monomials = sorted(
            (e for e in itertools.product(*[range(deg + 1)] * len(vars))
             if 1 <= sum(e) <= deg))
        # Binomial pass first: matches the shape the corollary promises.
        found = binomial_pass(monomials, "exhaustive-search")
        if found is not None:
            return found
        # Full exhaustive pass: decides existence.
        count = len(box) ** len(monomials)
        if count > budget:
            raise BudgetExceededError(
                f"exhaustive box has {count} candidates, budget {budget}",
                tested=tested)
        for assign in itertools.product(box, repeat=len(monomials)):
            tested += 1
            terms = {}
            for e, v in zip(monomials, assign):
                if not ring.is_zero(v):
                    terms[e] = v
            if not terms:
                continue
            for const in box:
                Fterms = dict(terms)
                if not ring.is_zero(const):
                    Fterms[(0,) * len(vars)] = const
                F = MultiPoly(ring, vars, Fterms)
                G = try_F(F)
                if G is not None:
                    exps = _binomial_exponents(F)
                    return GoldbachDecomposition(Q, F, G, "exhaustive-search",
                                                 exps is not None, None, tested, exps)
        raise ExhaustiveNoneError(
            f"no Goldbach decomposition of {Q} with deg(F) <= {deg} exists",
            tested=tested)

    # Relaxed mode: deg_{x}(F) <= deg_{x}(Q) in the designated variable only;
    # grow the degree bound in the other variables round by round.
    vi = vars.index(relaxed_var)
    dv = int(Q.degree_in(relaxed_var))
    for other_bound in itertools.count(0):
        bounds = [other_bound] * len(vars)
        bounds[vi] = dv
        monomials = sorted(
            e for e in itertools.product(*[range(b + 1) for b in bounds])
            if sum(e) >= 1 and (other_bound == 0
                                or max(e[j] for j in range(len(vars)) if j != vi) == other_bound))
        found = binomial_pass(monomials, "relaxed-search")
        if found is not None:
            return found


def goldbach_decompose(Q: MultiPoly, relaxed_var=None, budget=100_000) -> GoldbachDecomposition:
    """Q = F + G with F, G irreducible and the degree clause on F.

    Raises ExhaustiveNoneError when an exhaustive finite-field search
    proves no decomposition exists, BudgetExceededError when the search
    ran out of budget.
    """
    if Q.is_zero() or Q.is_constant():
        raise ZeroInputError("Q must be nonconstant")
    ring = Q.ring
    if relaxed_var is not None:
        if not ring.is_finite:
            raise UnsupportedRingError(
                "the relaxed per-variable degree clause is a finite-field accommodation")
        if relaxed_var not in Q.vars:
            raise ValueError(f"unknown variable {relaxed_var!r}")
        if len(Q.vars) < 2:
            # the relaxed search grows the degree in the other variables;
            # with none it would only try binomials, which proves nothing
            raise ValueError("the relaxed degree clause needs a second variable "
                             "besides the designated one")
        return _goldbach_finite_field(Q, relaxed_var, budget)

    if len(Q.vars) == 1 and Q.total_degree() == 1:
        hit = _goldbach_linear_table(Q)
        if hit is not None:
            F, G, case = hit
            return GoldbachDecomposition(Q, F, G, case, len(F.terms) <= 2, None, 0,
                                         _binomial_exponents(F))
        if ring.is_finite:
            return _goldbach_finite_field(Q, None, budget)
        raise UnsupportedRingError(f"linear table inapplicable over {ring}")

    if ring.is_finite:
        return _goldbach_finite_field(Q, None, budget)
    return _goldbach_congruence_search(Q, budget)


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
    """Coefficient embedding k -> k(a0)."""
    kp = spec.a0_field
    k = spec.base
    if kp == k:
        return kp, lambda v: v
    if isinstance(k, PrimeField) and isinstance(kp, ExtField) and kp.p == k.p:
        return kp, lambda v: (v,) if v else ()
    raise UnsupportedRingError(
        "a0 may live in k itself, or in GF(p^m) over a prime field k")


def _embed_poly(f: MultiPoly, kp, emb):
    return MultiPoly(kp, f.vars, {e: emb(v) for e, v in f.terms.items()})


def spectrum_construct(spec: SpectrumSpec, budget=20_000, seed=0,
                       coeff_bound=2) -> SpectrumResult:
    """Build U = U_0 + M*prod(w_i) with the three spectrum conclusions."""
    k = spec.base
    vars = spec.xvars
    t = len(spec.S)
    kp, emb = _embedding(spec)

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
        p0 = _embed_poly(U0, kp, emb) - _embed_poly(spec.V, kp, emb).scale(spec.a0)
        if p0.is_zero():
            ok = False
        if ok:
            break
        U0 = U0 + W
    else:
        raise ArithmeticError("could not make all cofactors nonzero")

    # A_i + B_i * y data over k(a0); coprimality verified, as in the proof.
    Wp = _embed_poly(W, kp, emb)
    AB = [(p0, Wp)]
    for i, (a, w) in enumerate(zip(spec.S, spec.w)):
        Bi = MultiPoly.one(k, vars)
        for j, wj in enumerate(spec.w):
            if j != i:
                Bi = Bi * wj
        AB.append((_embed_poly(cof[i], kp, emb), _embed_poly(Bi, kp, emb)))
    for i, (A, B) in enumerate(AB):
        g = poly_gcd(A, B)
        if not (g.is_constant() and kp.is_unit(g.constant_value())):
            raise ValueError(f"cofactor {i} is not coprime to its complement: {g}")

    cons = SearchConstraints(strategy="random", seed=seed, budget=budget,
                             coeff_bound=coeff_bound,
                             deg_u_bound=None, exact_degrees=True)
    support = sorted(itertools.product(*[range(dj + 1) for dj in delta]),
                     key=lambda e: (sum(e), e), reverse=True)
    Vp = _embed_poly(spec.V, kp, emb)
    wps = [_embed_poly(w, kp, emb) for w in spec.w]
    tested = 0
    for M, _ in iter_candidates(k, vars, support, cons):
        tested += 1
        if any(M.degree_in(name) != dj for name, dj in zip(vars.names, delta)):
            continue
        Mp = _embed_poly(M, kp, emb)
        H = []
        good = True
        for i, (A, B) in enumerate(AB):
            Hi = A + B * Mp
            if Hi.is_zero() or not is_irreducible(Hi):
                good = False
                break
            if i >= 1 and wps[i - 1].try_divexact(Hi) is not None:
                good = False
                break
            H.append(Hi)
        if not good:
            continue
        U = U0 + M * W
        if any(U.degree_in(name) != dj for name, dj in zip(vars.names, spec.d)):
            continue
        Up = _embed_poly(U, kp, emb)
        lhs = Up - Vp.scale(spec.a0)
        if lhs != H[0]:
            raise ArithmeticError("internal mismatch: U - a0*V != H_0")
        if lhs.total_degree() != max(Up.total_degree(), Vp.total_degree()):
            continue
        return SpectrumResult(U=U, U0=U0, M=M, H=H, cofactors=[p0] + cof,
                              tested=tested)
    raise BudgetExceededError(
        f"no spectrum witness within {budget} samples", tested=tested)
