"""Witness search: polynomials M making every P_i(x, M(x)) irreducible.

A SearchBox holds the coefficient ring, the x variables, one or more y
variables, the polynomials P_i and a degree box for M; a SchinzelProblem
is one that checks the standing hypotheses.  One candidate loop serves
the witness search for any number of y, the density probe and swan-scan:
it specializes y_1, ..., y_m in turn with candidates enumerated (or
sampled) from the box, checks that every intermediate polynomial keeps the
standing hypotheses, verifies irreducibility of every P_i at the last y,
and keeps an exact accounting of rejections.  Each candidate is verified
exactly once: a witness keeps the certificates of the verification that
accepted it, and the independent re-check is `verify` on the emitted
envelope.  Exhaustive runs over finite boxes are complete: an empty
witness list is a proof of non-existence inside the box.

Enumeration order over Z boxes follows a balanced spiral per coefficient
(0, 1, -1, 2, -2, ...) graded by max-norm, so small witnesses surface
first and reruns are reproducible byte for byte.

At the last y with one x, over a finite field of order at most
ROOT_SCAN_LIMIT, each P_i's root_sieve proves an image reducible by a
root, from M's values and a memo of P_i's zeros, before it is built.
check_fixed_divisor decides exactly whether the P_i have a fixed divisor.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from dataclasses import dataclass, field, replace

from .errors import UnsupportedRingError, ZeroInputError
from .factor import bivariate_is_irreducible, dense_is_irreducible, is_irreducible
from .multipoly import MultiPoly, Specializer, VarSet, horner_substitute, lift_u, list_content
from .rings import ROOT_SCAN_LIMIT, IntegerRing, PolyRing, RationalField, Ring, u_eval


# ---------------------------------------------------------------------------
# Problem data.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConstraints:
    """Knobs for the candidate box and the search strategy."""

    strategy: str = "exhaustive"          # "exhaustive" | "random"
    seed: int = 0
    budget: int = 100_000
    coeff_bound: int | None = None        # B: integer coefficients in [-B, B]
    deg_u_bound: int | None = None        # delta: degree-in-u bound for k[u]
    exact_degrees: bool = False           # require deg_{x_j}(M) == d_j
    deg_u_target: int | None = None       # Theorem-1.2-style exact deg_u(M)
    paper_mode: bool = False              # monomial support + coprimality of
                                          # the two top coefficients
    support: tuple | None = None          # restrict M to these monomials
                                          # (exponent tuples; must contain 1)
    max_witnesses: int | None = None

    def __post_init__(self):
        if self.strategy not in ("exhaustive", "random"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.support is not None:
            object.__setattr__(self, "support",
                               tuple(tuple(e) for e in self.support))
        # whether a candidate has more to meet than its box
        object.__setattr__(self, "has_side_constraints",
                           self.exact_degrees or self.deg_u_target is not None or self.paper_mode)


def support_monomials(d, paper_mode=False):
    """Exponent vectors of the box deg_{x_i} <= d_i.

    Default: graded-lex descending.  Paper mode puts the constant monomial
    first, then the monomials of degree d_1+...+d_n and d_1+...+d_n - 1
    whose coefficients carry the coprimality side constraint.
    """
    exps = sorted(itertools.product(*[range(di + 1) for di in d]),
                  key=lambda e: (sum(e), e), reverse=True)
    if not paper_mode:
        return exps
    top = tuple(d)
    second = max((e for e in exps if sum(e) == sum(d) - 1), default=None)
    ordered = [(0,) * len(d)]
    for e in (top, second):
        if e is not None and e not in ordered:
            ordered.append(e)
    for e in exps:
        if e not in ordered:
            ordered.append(e)
    return ordered


@dataclass
class SearchBox:
    """The data of a candidate search, unchecked: swan-scan counts the
    images of any P over a plain box."""

    ring: Ring
    xvars: VarSet
    yvars: VarSet
    P: list
    d: tuple
    constraints: SearchConstraints = field(default_factory=SearchConstraints)
    degree_bound_warning: bool = False

    @property
    def support(self):
        cons = self.constraints
        if cons.support is not None:
            zero = (0,) * len(self.xvars)
            return [zero] + [e for e in cons.support if e != zero]
        return support_monomials(self.d, paper_mode=cons.paper_mode)


@dataclass
class SchinzelProblem(SearchBox):
    """The data of a witness search; construction validates the standing
    hypotheses (each P_i irreducible with positive y-degree)."""

    def __post_init__(self):
        self.d = tuple(self.d)
        n = len(self.xvars)
        if len(self.d) != n:
            raise ValueError("degree tuple length must match the x variables")
        if any(di < 0 for di in self.d):
            raise ValueError("degrees must be nonnegative")
        if len(self.yvars) < 1:
            raise ValueError("at least one y variable is required")
        full = VarSet(self.xvars.names + self.yvars.names)
        for P in self.P:
            if P.vars != full:
                raise ValueError(f"P = {P} is not over {full.names}")
            ydeg = max(P.degree_in(y) for y in self.yvars.names)
            if not (isinstance(ydeg, int) and ydeg >= 1):
                raise ValueError(f"P = {P} has y-degree 0")
            cert = is_irreducible(P)
            if not cert:
                raise ValueError(f"P = {P} is not irreducible over {self.ring}[x,y] "
                                 f"({cert.reason})")
        if self.constraints.support is not None:
            zero = (0,) * n
            for e in self.constraints.support:
                if len(e) != n or any(x < 0 for x in e):
                    raise ValueError(f"support monomial {e} does not fit {n} variables")
                if any(x > dj for x, dj in zip(e, self.d)):
                    raise ValueError(f"support monomial {e} leaves the degree box {self.d}")
            if zero not in self.constraints.support:
                raise ValueError("the support restriction must contain the constant monomial")
        # every P is over the x variables, then the y
        bound = max(sum(e[:n]) for P in self.P for e in P.terms) + 2
        if sum(self.d) < bound:
            self.degree_bound_warning = True
            warnings.warn(
                f"sum of degrees {sum(self.d)} is below the guaranteed bound "
                f"max deg_x(P_i) + 2 = {bound}; witnesses may not exist",
                UserWarning, stacklevel=2)


# ---------------------------------------------------------------------------
# Candidate enumeration.
# ---------------------------------------------------------------------------

def coefficient_box(ring: Ring, constraints: SearchConstraints):
    return ring.element_box(coeff_bound=constraints.coeff_bound,
                            deg_bound=constraints.deg_u_bound)


def _spiral_tuples(ring, N, B):
    """The N-tuples over Z or Q with entries in [-B, B], graded by
    max-norm, each entry running 0, 1, -1, 2, -2, ..."""
    for r in range(B + 1):
        vals = [ring.from_int(0)]
        for k in range(1, r + 1):
            vals += [ring.from_int(k), ring.from_int(-k)]
        for tup in itertools.product(vals, repeat=N):
            if max(abs(v) for v in tup) == r:
                yield tup


def iter_candidates(ring, xvars, support, constraints):
    """Yield each candidate polynomial M over (ring, xvars) from the box,
    with its coefficient tuple: a seeded stream of budget draws, or the
    whole box in order."""
    box = coefficient_box(ring, constraints)
    N = len(support)
    if constraints.strategy == "random":
        rng = random.Random(constraints.seed)
        tuples = (tuple(box[rng.randrange(len(box))] for _ in range(N))
                  for _ in range(constraints.budget))
    elif isinstance(ring, (IntegerRing, RationalField)):
        tuples = _spiral_tuples(ring, N, constraints.coeff_bound)
    else:
        tuples = itertools.product(box, repeat=N)
    for tup in tuples:
        yield MultiPoly(ring, xvars, {e: v for e, v in zip(support, tup)
                                      if not ring.is_zero(v)}), tup


# ---------------------------------------------------------------------------
# Verification of one candidate.
# ---------------------------------------------------------------------------

REASON_DEGREE = "degree_shortfall"
REASON_COPRIME = "coprimality"
REASON_CONTENT = "content_nonunit"
REASON_REDUCIBLE = "reducible_over_K"
REASON_CONSTANT = "unit_or_constant"


# the rejection reasons of is_irreducible's reasons other than reducibility
_REASONS = {"content": REASON_CONTENT, "unit/constant": REASON_CONSTANT}


def _check_side_constraints(problem, M, tup):
    cons = problem.constraints
    if cons.exact_degrees:
        for name, dj in zip(problem.xvars.names, problem.d):
            if M.degree_in(name) != dj:
                return REASON_DEGREE
    if cons.deg_u_target is not None:
        if not isinstance(problem.ring, PolyRing):
            raise UnsupportedRingError("deg_u target needs a k[u] coefficient ring")
        p = problem.ring.characteristic
        target = cons.deg_u_target if p == 0 else p * cons.deg_u_target
        if max((problem.ring.deg_u(v) for v in M.terms.values()), default=-1) != target:
            return REASON_DEGREE
    if cons.paper_mode and len(tup) >= 3:
        lam1, lam2 = tup[1], tup[2]
        g = problem.ring.gcd(lam1, lam2)
        if not problem.ring.is_unit(g):
            return REASON_COPRIME
    return None


def image_irreducibility(spec, M):
    """(irreducible, reason, method) of P(y = M) for the Specializer spec
    of P and y, as is_irreducible reports them, with the zero image
    "unit/constant".  Over Z, Q and GF(p) the image stays dense: with one
    variable left dense_is_irreducible decides its coefficient list, with
    two bivariate_is_irreducible its rows, as for the lifted form in (x, u)
    of an image over GF(p)[u] or Q[u] in one x (from spec.lifted)."""
    if spec.dense_ok and len(spec.left) == 1:
        return dense_is_irreducible(spec.dense(M)[0], spec.ring)
    rows_spec = spec.lifted or (spec if spec.dense_ok and len(spec.left) == 2 else None)
    rows = rows_spec and rows_spec.dense_rows(lift_u(M) if spec.lifted else M)
    if rows is not None:
        cert = bivariate_is_irreducible(rows, rows_spec.ring, rows_spec.left,
                                        in_ku=rows_spec is not spec)
        return cert.irreducible, cert.reason, cert.method
    F = spec(M)
    if F.is_zero():
        return False, "unit/constant", "degree"
    cert = is_irreducible(F)
    return cert.irreducible, cert.reason, cert.method


def root_sieve(P, yname):
    """A test of candidates M in x alone for P in two variables, yname and
    one x, over a finite field K: True when the image P(x, M(x)) has degree
    >= 2 and a root in K, which proves it reducible without building it;
    False when the sieve proves nothing, and image_irreducibility decides.

    The image has the root a exactly when P(a, M(a)) = 0: M is evaluated
    at every point a of K, and whether P(a, v) = 0 is memoized for each
    pair (a, v) the candidates reach.  The image's degree is known without
    building it when P has a single term x^i y^j of top weighted degree
    i + j deg M: then it is that weight, since the top coefficient is that
    term's times lc(M)^j.  M = 0 gives the image P(x, 0), whose degree is
    the largest i of a term x^i.  Infinite rings and fields of order above
    ROOT_SCAN_LIMIT, where a rootless candidate would cost one evaluation
    per element, are not sieved; neither is P in more variables, where a
    zero at a point proves nothing, nor P = 0, whose images are all zero."""
    K = P.ring
    if not K.is_finite or K.order > ROOT_SCAN_LIMIT or len(P.vars) != 2 or P.is_zero():
        return lambda M: False
    yi = P.vars.index(yname)
    xi = 1 - yi
    terms = [(e[xi], e[yi], c) for e, c in P.terms.items()]
    points = K.element_box()
    degrees = {}  # deg M -> the image's degree when a single term is on top, else None
    zero_at = {}  # (a, v) -> whether P(a, v) = 0

    def image_degree(m):
        if m < 0:
            return max((i for i, j, _ in terms if j == 0), default=None)
        weights = sorted(i + j * m for i, j, _ in terms)
        return weights[-1] if len(weights) == 1 or weights[-2] < weights[-1] else None

    def is_zero_at(a, v):
        s = K.zero
        for i, j, c in terms:
            s = K.add(s, K.mul(c, K.mul(K.pow(a, i), K.pow(v, j))))
        return K.is_zero(s)

    def certifies_reducible(M):
        m = max(M.terms)[0] if M.terms else -1
        if m not in degrees:
            degrees[m] = image_degree(m)
        n = degrees[m]
        if n is None or n < 2:
            return False
        c = [K.zero] * (m + 1)
        for (e,), v in M.terms.items():
            c[e] = v
        for a in points:
            v = u_eval(c, a, K)
            hit = zero_at.get((a, v))
            if hit is None:
                hit = zero_at[a, v] = is_zero_at(a, v)
            if hit:
                return True
        return False

    return certifies_reducible


def verify_candidate(problem: SearchBox, M: MultiPoly, tup, specs, sieves):
    """Return (is_witness, reason, certificates) for substituting M, drawn
    as the coefficient tuple tup, in the polynomials whose _deciders for one
    y are specs and sieves.  After the side constraints each polynomial
    takes its turn: its sieve, then its image decision."""
    side = problem.constraints.has_side_constraints and _check_side_constraints(problem, M, tup)
    if side:
        return False, side, []
    certs = []
    for spec, sieve in zip(specs, sieves):
        if sieve(M):
            return False, REASON_REDUCIBLE, []
        ok, reason, method = image_irreducibility(spec, M)
        if not ok:
            return False, _REASONS.get(reason, REASON_REDUCIBLE), []
        certs.append(method)
    return True, "witness", certs


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------

@dataclass
class Witness:
    """M (a tuple (M_1, ..., M_m) for several y) and the method names of
    the irreducibility certificates, one per P_i, that the search's own
    verify_candidate call returned at the last y."""

    M: MultiPoly
    certificates: list


@dataclass
class SearchReport:
    witnesses: list
    tested: int
    rejected: dict
    budget: int
    budget_consumed: int
    seed: int
    strategy: str
    complete: bool            # the whole box was enumerated
    box_size: int | None
    degree_bound_warning: bool = False

    @property
    def found(self):
        return len(self.witnesses) > 0

    def status(self):
        if self.found:
            return "found"
        if self.complete:
            return "exhausted-none"
        return "budget-exhausted"


# ---------------------------------------------------------------------------
# The search loop.
# ---------------------------------------------------------------------------

REASON_INTERMEDIATE_DEGREE = "intermediate_y_degree_zero"
REASON_INTERMEDIATE_REDUCIBLE = "intermediate_reducible"


def _intermediate_reason(polys, rest):
    """Why polys, with the y variables rest still free, break the standing
    hypotheses (positive y-degree, irreducible), or None."""
    for Fi in polys:
        ydeg = max(Fi.degree_in(y) for y in rest)
        if not (isinstance(ydeg, int) and ydeg >= 1):
            return REASON_INTERMEDIATE_DEGREE
        if not is_irreducible(Fi):
            return REASON_INTERMEDIATE_REDUCIBLE
    return None


def _deciders(polys, yname):
    """The Specializers of polys for yname and their root sieves, which a
    search keeps across its candidates; a sieve is a no-op unless yname is
    the last y and one x is left."""
    return [Specializer(P, yname) for P in polys], [root_sieve(P, yname) for P in polys]


def _search(problem, cons, keep=None):
    """Specialize y_1, ..., y_m in turn with candidates from the box.

    Exhaustive: the budget counts candidates at every depth, and a
    candidate rejected at depth j stands for the per_level^(m-j) tuples
    below it.  The report is complete when no candidate of the box was
    left untested.  Random: each budget unit draws one whole tuple
    (M_1, ..., M_m) from one seeded stream, whether or not it survives
    depth 1, and counts as one test.  Returns (number of witnesses found,
    report); the report lists the first keep witnesses (all when keep is
    None), so that a density probe or a scan over many candidates does not
    hold every hit in memory.  problem may be any SearchBox.
    """
    ynames = problem.yvars.names
    m = len(ynames)
    support = problem.support
    exhaustive = cons.strategy == "exhaustive"
    per_level = len(coefficient_box(problem.ring, cons)) ** len(support) if exhaustive else None
    witnesses = []
    rejected = {}
    tested = found = 0
    stopped = False

    def check(deciders, depth, M, tup):
        """M for y_depth, with deciders the _deciders of the polynomials
        for y_depth: (reason, _) when rejected, else (None, the
        certificates at depth m or the polynomials for the next depth)."""
        specs, sieves = deciders
        if depth == m:
            ok, reason, certs = verify_candidate(problem, M, tup, specs, sieves)
            return (None if ok else reason), certs
        reason = _check_side_constraints(problem, M, tup)
        if reason is not None:
            return reason, None
        polys = [spec(M) for spec in specs]
        return _intermediate_reason(polys, ynames[depth:]), polys

    def out_of_budget():
        return (tested >= cons.budget
                or (cons.max_witnesses and found >= cons.max_witnesses))

    def record(Ms, certs):
        nonlocal found
        found += 1
        if keep is None or len(witnesses) < keep:
            witnesses.append(Witness(Ms if m > 1 else Ms[0], certs))

    def walk(polys, chosen, depth):
        nonlocal tested, stopped
        weight = per_level ** (m - depth)
        deciders = _deciders(polys, ynames[depth - 1])
        for M, tup in iter_candidates(problem.ring, problem.xvars, support, cons):
            # stopping here leaves this candidate untested
            if stopped or out_of_budget():
                stopped = True
                return
            tested += 1
            reason, out = check(deciders, depth, M, tup)
            if reason is not None:
                rejected[reason] = rejected.get(reason, 0) + weight
            elif depth == m:
                record(chosen + (M,), out)
            else:
                walk(out, chosen + (M,), depth + 1)

    if exhaustive:
        walk(problem.P, (), 1)
    else:
        draws = iter_candidates(problem.ring, problem.xvars, support,
                                replace(cons, budget=cons.budget * m))
        # every draw specializes y_1 in the P_i themselves
        first = _deciders(problem.P, ynames[0])
        while not out_of_budget():
            drawn = [next(draws) for _ in range(m)]
            tested += 1
            out = problem.P
            for depth, (M, tup) in enumerate(drawn, 1):
                deciders = first if depth == 1 else _deciders(out, ynames[depth - 1])
                reason, out = check(deciders, depth, M, tup)
                if reason is not None:
                    rejected[reason] = rejected.get(reason, 0) + 1
                    break
            else:
                record(tuple(M for M, _ in drawn), out)
    return found, SearchReport(
        witnesses=witnesses,
        tested=tested,
        rejected=dict(sorted(rejected.items())),
        budget=cons.budget,
        budget_consumed=tested,
        seed=cons.seed,
        strategy=cons.strategy,
        complete=exhaustive and not stopped,
        box_size=per_level ** m if exhaustive else None,
        degree_bound_warning=problem.degree_bound_warning,
    )


def schinzel_search(problem: SchinzelProblem) -> SearchReport:
    """Witness search over the problem's box, for any number of y:
    sequential specialization of y_1, ..., y_m.

    Each y_j is replaced in turn by a candidate from the box; intermediate
    polynomials must keep positive degree in the remaining y variables and
    stay irreducible (the standing hypotheses), otherwise the whole
    subtree is rejected and accounted for.  A witness is one M for a
    single y and the tuple (M_1, ..., M_m) otherwise; it carries the
    certificates from the one verification that accepted it.
    """
    return _search(problem, problem.constraints)[1]


# ---------------------------------------------------------------------------
# Fixed divisors, decided exactly, and density probes, sampled by _search.
# ---------------------------------------------------------------------------

@dataclass
class FixedDivisorReport:
    divisor: MultiPoly | None   # None when a unit
    certificate: list           # (pi, k) with pi^k dividing every value


def check_fixed_divisor(ring, xvars, yvars, P_list) -> FixedDivisorReport:
    """The gcd in R[x] of the values F(x, M), M in R[x]^m, F = P_1...P_s.

    It is the content c of F in R[x] times each pi^k dividing every value
    of G = F / c.  Such a prime pi leaves G, nonzero mod pi, vanishing on
    D^m for D = R[x]/(pi), so |D| <= deg_y G (Alon 1999): pi is monic
    irreducible in GF(q)[x] with q^deg(pi) <= deg_y G, and k is the largest
    with pi^k dividing G(x, M) at every residue M mod pi^k."""
    if not P_list or any(P.is_zero() for P in P_list):
        raise ZeroInputError("the product is empty or zero")
    F, n = math.prod(P_list[1:], start=P_list[0]), len(xvars)
    if not (xvars and yvars) or F.vars != VarSet(xvars.names + yvars.names):
        raise ValueError("P_list must be over one or more x, then one or more y")
    by_y = {}
    for e, v in F.terms.items():
        by_y.setdefault(e[n:], {})[e[:n]] = v
    divisor = list_content([MultiPoly(ring, xvars, t) for t in by_y.values()]).monic_normalize()[1]
    G = F.try_divexact(divisor.embed(F.vars))

    def box(deg):  # the polynomials in one x of degree at most deg
        return iter_candidates(ring, xvars, support_monomials((deg,)), SearchConstraints())

    def values(V, ynames, deg):  # V(x, M) at every tuple M from box(deg), lazily
        if not ynames:
            return [V]
        return (W for M, _ in box(deg) for W in values(horner_substitute(
            V, ynames[0], M.embed(V.vars.without(ynames[0]))), ynames[1:], deg))

    certificate, e = [], 1
    while ring.is_finite and n == 1 and ring.order ** e <= max(map(G.degree_in, yvars.names)):
        for pi, c in box(e):
            if c[0] != ring.one or not is_irreducible(pi):
                continue  # pi is not monic of degree e, or not irreducible
            k = 0
            while all(V.try_divexact(pi ** (k + 1)) is not None
                      for V in values(G, yvars.names, (k + 1) * e - 1)):
                k += 1
            if k:
                certificate.append((pi, k))
                divisor = divisor * pi ** k
        e += 1
    unit = divisor.is_constant() and ring.is_unit(divisor.constant_value())
    return FixedDivisorReport(None if unit else divisor, certificate)


_Z95 = 1.959963984540054


@dataclass
class DensityReport:
    fraction: float
    ci_low: float
    ci_high: float
    samples: int
    witnesses: int
    seed: int


def density_probe(problem: SchinzelProblem, samples: int) -> DensityReport:
    """Witness fraction of random samples with a Wilson 95% interval."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    cons = problem.constraints
    probe = replace(cons, strategy="random", budget=samples, max_witnesses=None)
    hits, _ = _search(problem, probe, keep=0)
    p = hits / samples
    z2 = _Z95 * _Z95
    denom = 1 + z2 / samples
    center = (p + z2 / (2 * samples)) / denom
    half = _Z95 * math.sqrt(p * (1 - p) / samples + z2 / (4 * samples * samples)) / denom
    return DensityReport(p, max(0.0, center - half), min(1.0, center + half),
                         samples, hits, cons.seed)
