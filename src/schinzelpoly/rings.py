"""Coefficient rings: Z, Q, GF(p), GF(p^k), and k[u] over such a field.

Every ring exposes one raw-value protocol (add/mul/gcd/units/canonical
normalization/factorization) so the polynomial layers above never have to
know which ring they are working over.  Values are plain hashable Python
objects:

    Z       -> int
    Q       -> fractions.Fraction
    GF(p)   -> int in [0, p)
    GF(p^k) -> int in [0, p^k), whose base-p digits are the coefficients
               of t, low to high; GF(p) sits inside it as 0, ..., p - 1
    k[u]    -> tuple of base-field values (coefficients of u, stripped)

Canonical units: over Z the canonical representative of an associate class
is nonnegative, over fields it is 1, over k[u] it is monic.  All gcds are
returned canonically normalized, so factorization outputs compare exactly.
Q, GF(p) and GF(p^k) share these field rules through one Field base.

Every ring lists a finite box of its elements, element_box(coeff_bound,
deg_bound); Ring.element_stream walks the boxes for growing bounds and
yields each element once, which is how the infinite rings Z, Q and k[u]
are searched.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
import struct
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, RingMismatchError, ZeroInputError


# ---------------------------------------------------------------------------
# Dense univariate arithmetic: coefficient lists, index = degree, no
# trailing zeros ([] is the zero polynomial).
#
# zm_* work in (Z/mZ)[x] for any int modulus m, on coefficients in [0, m),
# with inline `% m`.  A product is one big-int multiply of Kronecker-packed
# operands (Harvey 2009) once it is large enough: while its coefficients
# fit in one byte, the operands are packed by bytes() and all slots are
# reduced at once by bytes.translate with SLOT_MOD[m]; in 2 to 8 bytes they
# are packed by struct, and in wider slots one coefficient at a time by
# int.to_bytes.  They serve GF(p) (m = p) and Hensel lifting over Z
# (m = p^(2^i), the last step up to the p^l it needs).
#
# u_* work in K[x] for a field ring K: zm_* with m = p over a PrimeField,
# one ring method call per coefficient otherwise.  Over GF(p) with
# p in _SLOT_DIV_PRIMES, division, the Euclid loop of u_gcd and the
# squarings of u_powmod run on packed ints once the divisor has
# _PACK_MIN_LEN coefficients: each division step eliminates one quotient
# coefficient by one big-int multiply-add (XOR for p = 2), and the slots
# are reduced only before one could pass 255.  They implement the
# arithmetic of k[u] and of GF(p^k) above EXT_TABLE_LIMIT here, on the
# digits of its elements, and carry the finite-field factorizer;
# u_ddf is its one distinct-degree loop, which u_is_irreducible also runs.
# Over GF(p) with p <= ROOT_SCAN_LIMIT, zm_roots finds the roots by
# evaluating at every element, which decides degrees 2 and 3 outright and
# splits the linear part of a distinct-degree split; u_is_irreducible
# scans GF(p^k) of order <= ROOT_SCAN_LIMIT the same way, by u_eval.  Over
# GF(q) with q odd its squarefree test is u_discriminant, whose value
# proves reducibility by Stickelberger's parity before u_ddf runs.
# zx_* below work in Z[x].
# ---------------------------------------------------------------------------

# struct code of an unsigned little-endian slot, by slot width in bytes
_SLOT_CODES = {2: "H", 4: "I", 8: "Q"}
# below this many coefficient products the plain double loop beats packing
_PACK_MIN_WORK = 24
# `width`-byte slots (width > 8) pack only when both factors have at least
# _PACK_WIDE_MIN_LEN + width // 16 coefficients.  Each coefficient costs
# one to_bytes and one from_bytes of its slot, so the crossover with the
# list loop grows with the width: for square factors it measured 8
# coefficients at 11- and 17-byte slots, 10 at 26, 13-14 at 51, 16-20 at
# 101 and 22 at 201 (best of 5 x 200 calls, shared 2-core machine, Python
# 3.11); below 8 the list loop was 1.2-1.6x faster at 40- to 94-bit moduli
_PACK_WIDE_MIN_LEN = 8
# below this many divisor coefficients the list loops beat packed division
_PACK_MIN_LEN = 6
# the primes whose division runs on byte slots: a step there adds up to
# (p-1)^2 to a slot, so the slots take (256 - p) // (p-1)^2 >= 6 steps
# between reductions.  For 11 and 13 that is 2 and 1 steps, and the list
# loop measured as fast up to about 10 divisor coefficients.
_SLOT_DIV_PRIMES = (2, 3, 5, 7)
# bytes.translate table reducing every byte slot mod m; the byte-slot
# kernels run for these m, where (m-1) + (m-1)^2 < 256
SLOT_MOD = {m: (bytes(range(m)) * (256 // m + 1))[:256] for m in range(2, 17)}
# up to this exponent u_powmod reduces x^e by one division, not by squaring
_X_POW_DIRECT = 64
# up to this prime p, evaluating at all p elements finds the roots in GF(p)
# more cheaply than gcd(f, x^p - x) and equal-degree splitting
ROOT_SCAN_LIMIT = 64


def dense_trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def zm_add(a, b, m):
    """Sum in (Z/mZ)[x]."""
    if len(a) < len(b):
        a, b = b, a
    return dense_trim([(x + y) % m for x, y in zip(a, b)] + a[len(b):])


def zm_sub(a, b, m):
    """Difference in (Z/mZ)[x]."""
    out = [(x - y) % m for x, y in zip(a, b)]
    if len(a) > len(b):
        out += a[len(b):]
    else:
        out += [-y % m for y in b[len(a):]]
    return dense_trim(out)


def pack_slots(a):
    """The coefficient list a, entries in [0, 256), as one int with
    coefficient i in byte i."""
    return int.from_bytes(bytes(a), "little")


def _pack_wide(a, width):
    """The nonnegative coefficient list a as one int, `width` bytes per
    coefficient, coefficient i in slot i."""
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in a), "little")


def zm_mul(a, b, m):
    """Product in (Z/mZ)[x]."""
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    n = la + lb - 1
    # every coefficient of the integer product is at most min(la, lb)*(m-1)^2
    top = min(la, lb) * (m - 1) ** 2
    if la * lb > _PACK_MIN_WORK:
        # pack each operand into one int, `width` bytes per coefficient; the
        # slots of the product cannot carry into each other
        if top < 256:
            prod = pack_slots(a) * pack_slots(b)
            return list(prod.to_bytes(n, "little").translate(SLOT_MOD[m]).rstrip(b"\0"))
        width = (top.bit_length() + 7) >> 3
        if width <= 8:
            width = 2 if width <= 2 else 4 if width <= 4 else 8
            code = _SLOT_CODES[width]
            prod = (int.from_bytes(struct.pack(f"<{la}{code}", *a), "little")
                    * int.from_bytes(struct.pack(f"<{lb}{code}", *b), "little"))
            slots = struct.unpack(f"<{n}{code}", prod.to_bytes(n * width, "little"))
            return dense_trim([v % m for v in slots])
        if min(la, lb) >= _PACK_WIDE_MIN_LEN + width // 16:
            prod = _pack_wide(a, width) * _pack_wide(b, width)
            raw = prod.to_bytes(n * width, "little")
            return dense_trim([int.from_bytes(raw[k:k + width], "little") % m
                               for k in range(0, n * width, width)])
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return dense_trim([v % m for v in out])


def zm_roots(f, p):
    """The roots in GF(p) of a nonzero f, in increasing order, lazily:
    f is evaluated by Horner at 0, 1, ..., p - 1."""
    rev = f[::-1]
    for a in range(p):
        v = 0
        for c in rev:
            v = (v * a + c) % p
        if not v:
            yield a


def zm_divmod(a, b, m):
    """Euclidean division in (Z/mZ)[x]: (q, r) with a = q*b + r and
    deg r < deg b.  b is nonzero with a leading coefficient invertible mod m."""
    db = len(b) - 1
    r = list(a)
    if len(r) <= db:
        return [], r
    inv_lc = pow(b[-1], -1, m)
    q = [0] * (len(r) - db)
    # r stays unreduced below its current top; each top is reduced as it is read
    for d in range(len(q) - 1, -1, -1):
        c = r[d + db] * inv_lc % m
        if c:
            q[d] = c
            for i in range(db):
                r[d + i] -= c * b[i]
    del r[db:]
    return dense_trim(q), dense_trim([v % m for v in r])


def u_deg(c):
    return len(c) - 1  # -1 for the zero polynomial


def u_add(a, b, K):
    if isinstance(K, PrimeField):
        return zm_add(a, b, K.p)
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else K.zero
        y = b[i] if i < len(b) else K.zero
        out.append(K.add(x, y))
    return dense_trim(out)


def u_sub(a, b, K):
    if isinstance(K, PrimeField):
        return zm_sub(a, b, K.p)
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else K.zero
        y = b[i] if i < len(b) else K.zero
        out.append(K.sub(x, y))
    return dense_trim(out)


def u_neg(a, K):
    if isinstance(K, PrimeField):
        p = K.p
        return [-x % p for x in a]
    return [K.neg(x) for x in a]


def u_scale(a, s, K):
    if K.is_zero(s):
        return []
    if isinstance(K, PrimeField):
        p = K.p
        return dense_trim([x * s % p for x in a])
    return dense_trim([K.mul(x, s) for x in a])


def u_mul(a, b, K):
    if isinstance(K, PrimeField):
        return zm_mul(a, b, K.p)
    if not a or not b:
        return []
    out = [K.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if K.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = K.add(out[i + j], K.mul(x, y))
    return dense_trim(out)


def _slot_divmod(r, b, p, want_q):
    """(q, r mod b) over GF(p), p in _SLOT_DIV_PRIMES, on packed ints with
    reduced slots and b nonzero; q is the quotient's coefficient list when
    want_q, else None, and the remainder is packed and reduced."""
    db = (b.bit_length() - 1) >> 3
    d = ((r.bit_length() - 1) >> 3) - db
    q = [0] * max(d + 1, 0) if want_q else None
    if p == 2:
        # slots stay 0 or 1, XOR adds them mod 2, and the top bit is in the top slot
        while d >= 0:
            if want_q:
                q[d] = 1
            r ^= b << (d << 3)
            d = ((r.bit_length() - 1) >> 3) - db
        return q, r
    if d < 0:
        return q, r
    n = d + db + 1
    table = SLOT_MOD[p]
    inv = pow(b >> (db << 3), -1, p)
    # r + (p - c) * b * x^d clears slot d + db mod p and adds at most (p-1)^2
    # to the slots below it, so they take `room` steps between reductions
    room = left = (256 - p) // (p - 1) ** 2
    for d in range(d, -1, -1):
        c = ((r >> ((d + db) << 3)) & 255) * inv % p
        if c:
            if want_q:
                q[d] = c
            if not left:
                r = int.from_bytes(r.to_bytes(n, "little").translate(table), "little")
                left = room
            r += (p - c) * b << (d << 3)
            left -= 1
    return q, int.from_bytes(r.to_bytes(n, "little")[:db].translate(table), "little")


def _slot_mulmod(x, y, m, p):
    """x * y mod m over GF(p) on packed ints, when the slots of x * y fit."""
    n = 2 * ((m.bit_length() + 7) >> 3)  # bytes enough for a product of residues
    prod = int.from_bytes((x * y).to_bytes(n, "little").translate(SLOT_MOD[p]), "little")
    return _slot_divmod(prod, m, p, False)[1]


def _slot_list(v):
    """The coefficient list of a packed int with reduced slots."""
    return list(v.to_bytes((v.bit_length() + 7) >> 3, "little"))


def u_divmod(a, b, K):
    """Euclidean division in K[x], K a field.  Returns (q, r)."""
    if not b:
        raise ZeroDivisionError("univariate division by zero polynomial")
    if isinstance(K, PrimeField):
        if _slot_div(len(b), K):
            q, r = _slot_divmod(pack_slots(a), pack_slots(b), K.p, True)
            return q, _slot_list(r)
        return zm_divmod(a, b, K.p)
    r = list(a)
    q = [K.zero] * max(len(a) - len(b) + 1, 0)
    inv_lc = K.inv(b[-1])
    db = len(b) - 1
    while len(r) >= len(b):
        c = K.mul(r[-1], inv_lc)
        d = len(r) - 1 - db
        q[d] = c
        for i in range(len(b)):
            r[d + i] = K.sub(r[d + i], K.mul(c, b[i]))
        dense_trim(r)
        if not r:
            break
    return dense_trim(q), r


def _slot_div(n, K):
    """Whether a division by n coefficients over K runs on byte slots."""
    return n >= _PACK_MIN_LEN and isinstance(K, PrimeField) and K.p in _SLOT_DIV_PRIMES


def u_rem(a, b, K):
    if _slot_div(len(b), K):
        return _slot_list(_slot_divmod(pack_slots(a), pack_slots(b), K.p, False)[1])
    return u_divmod(a, b, K)[1]


def u_monic(a, K):
    """Scale to leading coefficient 1.  Returns (lc, monic)."""
    if not a:
        return K.one, []
    lc = a[-1]
    if lc == K.one:
        return lc, list(a)
    return lc, u_scale(a, K.inv(lc), K)


def u_gcd(a, b, K):
    """Monic gcd in K[x] (zero for gcd(0,0))."""
    if _slot_div(min(len(a), len(b)), K):
        # both remainders stay packed through the whole loop
        a, b = pack_slots(a), pack_slots(b)
        while b:
            a, b = b, _slot_divmod(a, b, K.p, False)[1]
        return u_monic(_slot_list(a), K)[1]
    a, b = list(a), list(b)
    while b:
        a, b = b, u_rem(a, b, K)
    return u_monic(a, K)[1]


def u_xgcd(a, b, K):
    """Extended Euclid: returns (g, s, t) with g monic and s*a + t*b = g."""
    r0, r1 = list(a), list(b)
    s0, s1 = [K.one], []
    t0, t1 = [], [K.one]
    while r1:
        q, r = u_divmod(r0, r1, K)
        r0, r1 = r1, r
        s0, s1 = s1, u_sub(s0, u_mul(q, s1, K), K)
        t0, t1 = t1, u_sub(t0, u_mul(q, t1, K), K)
    if not r0:
        return [], s0, t0
    lc = r0[-1]
    inv = K.inv(lc)
    return u_scale(r0, inv, K), u_scale(s0, inv, K), u_scale(t0, inv, K)


def u_powmod(a, e, m, K):
    """a^e mod m for e >= 0, by left-to-right square and multiply.

    The top bit of e costs nothing; every lower bit costs one square and,
    when set, one product by a, each reduced once.  a is reduced only when
    its degree reaches that of m, and is never modified.  So x^(q^d) mod f
    for q = 3 takes 2 products and 2 reductions."""
    if e == 0:
        return [K.one]
    if e <= _X_POW_DIRECT and len(a) == 2 and a[0] == K.zero and a[1] == K.one:
        # x^e for a small e (x^q of a Frobenius step): one division
        return u_rem([K.zero] * e + [K.one], m, K)
    base = u_rem(a, m, K) if len(a) >= len(m) else list(a)
    if _slot_div(len(m), K) and len(m) * (K.p - 1) ** 2 < 256:
        # every residue and product stays packed: a product of two residues
        # has fewer than len(m) terms per slot
        M, B = pack_slots(m), pack_slots(base)
        R = B
        for bit in bin(e)[3:]:
            R = _slot_mulmod(R, R, M, K.p)
            if bit == "1":
                R = _slot_mulmod(R, B, M, K.p)
        return _slot_list(R)
    result = base
    for bit in bin(e)[3:]:
        result = u_rem(u_mul(result, result, K), m, K)
        if bit == "1":
            result = u_rem(u_mul(result, base, K), m, K)
    return result


def u_deriv(a, K):
    if isinstance(K, PrimeField):
        p = K.p
        return dense_trim([a[i] * i % p for i in range(1, len(a))])
    out = []
    for i in range(1, len(a)):
        out.append(K.mul(a[i], K.from_int(i)))
    return dense_trim(out)


def u_ddf(f, K):
    """Distinct-degree split of a squarefree f of degree >= 1 in GF(q)[x].

    Yields (g, d) by increasing d, with g the product of the irreducible
    factors of f of degree d, monic when f is (von zur Gathen & Gerhard,
    Modern Computer Algebra, Alg. 14.3).  Lazy: h = x^(q^d) mod f costs one
    powmod per step, and a caller that stops early runs no more steps.
    """
    q = K.order
    x = [K.zero, K.one]
    h = x
    d = 0
    n = u_deg(f)
    while n > 0:
        d += 1
        if 2 * d > n:
            yield f, n
            return
        h = u_powmod(h, q, f, K)
        g = u_gcd(u_sub(h, x, K), f, K)
        if u_deg(g) > 0:
            yield g, d
            f = u_divmod(f, g, K)[0]
            n = u_deg(f)
            h = u_rem(h, f, K)


def u_eval(c, x, K):
    """c(x) by Horner in the field K, over GF(p) on residues."""
    p, v = K.p if isinstance(K, PrimeField) else 0, K.zero
    for a in reversed(c):
        v = (v * x + a) % p if p else K.add(K.mul(v, x), a)
    return v


def u_discriminant(f, K):
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f) for f of degree n >= 1
    over a field K, with f' taken at its formal degree n - 1; zero exactly
    when f is not squarefree.

    Res(f, f') comes from the Euclidean remainder sequence of f and f',
    the loop u_gcd runs: for r = a mod b, Res(a, b) = (-1)^(deg a deg b)
    lc(b)^(deg a - deg r) Res(b, r), and Res(a, c) = c^(deg a) for a
    nonzero constant c (von zur Gathen & Gerhard, Modern Computer Algebra,
    §6.10).  Below the formal degree, f' contributes lc(f)^(n - 1 - deg f').
    Over GF(p) with p in _SLOT_DIV_PRIMES the sequence stays packed as in
    u_gcd: a remainder's degree is read off its bit length and its leading
    coefficient off its top slot."""
    n = u_deg(f)
    fp = u_deriv(f, K)
    if not fp:
        return K.zero
    steps = []  # (degree, leading coefficient) of f' and each nonzero remainder
    if _slot_div(len(fp), K):
        a, b = pack_slots(f), pack_slots(fp)
        while b:
            db = (b.bit_length() - 1) >> 3
            steps.append((db, b >> (db << 3)))
            a, b = b, _slot_divmod(a, b, K.p, False)[1]
    else:
        a, b = f, fp
        while b:
            steps.append((u_deg(b), b[-1]))
            a, b = b, u_rem(a, b, K)
    if steps[-1][0]:
        return K.zero  # gcd(f, f') is the last remainder, of positive degree
    res = K.pow(f[-1], n - 1 - steps[0][0])
    da = n
    # the last step is Res(a, c) = c^(deg a): a remainder "of degree 0" after it
    for (db, lc), dr in zip(steps, [d for d, _ in steps[1:]] + [0]):
        res = K.mul(res, K.pow(lc, da - dr))
        if da * db & 1:
            res = K.neg(res)
        da = db
    if n * (n - 1) // 2 & 1:
        res = K.neg(res)
    return K.mul(res, K.inv(f[-1]))


def u_is_irreducible(f, K):
    """Irreducibility in GF(q)[x]: f is squarefree and the first part of
    its distinct-degree split has the degree of f, so the test stops at the
    first factor of lower degree, which makes reducible inputs cheap.

    Over GF(q) with q <= ROOT_SCAN_LIMIT the roots come first: a root is a
    linear factor, so f of degree >= 2 with one is reducible, and f of
    degree 2 or 3 without one is irreducible, since a proper factor would
    be linear (von zur Gathen & Gerhard, Modern Computer Algebra, §14).
    Only degree >= 4 without a root goes on to the squarefree test and
    the powers.

    For odd q the squarefree test is u_discriminant, and its value is a
    second certificate: a squarefree f of degree n with r irreducible
    factors has a square discriminant exactly when n - r is even
    (Stickelberger; Swan 1962, Pacific J. Math. 12).  An irreducible f has
    r = 1, so disc(f) a square for even n, or a nonsquare for odd n,
    proves f reducible before the distinct-degree split.
    """
    n = u_deg(f)
    if n <= 1:
        return n == 1
    if K.order <= ROOT_SCAN_LIMIT:
        roots = zm_roots(f, K.p) if isinstance(K, PrimeField) else \
            (a for a in K.element_box() if not u_eval(f, a, K))
        if next(roots, None) is not None:
            return False
        if n <= 3:
            return True
    if K.order & 1:
        disc = u_discriminant(f, K)
        if K.is_zero(disc):
            return False  # a p-th power, or not squarefree
        if (K.pow(disc, (K.order - 1) // 2) == K.one) != (n & 1 == 1):
            return False  # Stickelberger: n - r is odd, so r != 1
    else:
        fp = u_deriv(f, K)
        if not fp or u_deg(u_gcd(f, fp, K)) > 0:
            return False  # a p-th power, or not squarefree
    return next(u_ddf(f, K))[1] == n


# ---------------------------------------------------------------------------
# Dense univariate arithmetic over Z: int lists, index = degree, no
# trailing zeros.  The gcd is the heuristic GCDHEU (Char, Geddes and
# Gonnet 1989): evaluate at a large integer, take the integer gcd and read
# the polynomial gcd back off its balanced base-xi digits.  A candidate is
# only returned after it divides both inputs exactly, which makes it the
# gcd whenever xi >= 2*min(norms) + 2; otherwise a primitive PRS decides.
# ---------------------------------------------------------------------------

GCDHEU_TRIES = 6


def zx_content(a):
    """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
    g = 0
    for c in a:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def zx_primitive(a):
    """(content, primitive part); the sign of the leading term is kept."""
    g = zx_content(a)
    if g == 0:
        return 0, []
    if g == 1:
        return 1, list(a)
    return g, [c // g for c in a]


def zx_try_div(a, b):
    """a / b when b divides a exactly in Z[x], else None."""
    if not b:
        return None
    if not a:
        return []
    db = len(b) - 1
    if len(a) <= db:
        return None
    lc = b[-1]
    r = list(a)
    q = [0] * (len(a) - db)
    for d in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[d + db], lc)
        if rest:
            return None
        if c:
            q[d] = c
            for i in range(db):
                r[d + i] -= c * b[i]
    if any(r[:db]):
        return None
    return q


def zx_mul(a, b):
    """Schoolbook product in Z[x]."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return dense_trim(out)


def zx_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return dense_trim([x + y for x, y in zip(a, b)] + a[len(b):])


def zx_sub(a, b):
    n = max(len(a), len(b))
    return dense_trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def zx_deriv(a):
    return dense_trim([a[i] * i for i in range(1, len(a))])


def zx_eval(a, x):
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _zx_digits(h, xi):
    """The polynomial whose balanced base-xi digits make up the integer h."""
    half = xi // 2
    out = []
    while h:
        d = h % xi
        if d > half:
            d -= xi
        out.append(d)
        h = (h - d) // xi
    return out


def _zx_heu_gcd(a, b):
    """GCDHEU on primitive a, b of degree >= 1: the gcd, or None."""
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(GCDHEU_TRIES):
        # a and b cannot both vanish at xi, which exceeds 1 + min(norms), so
        # h > 0 and its top balanced digit, the lc of g, is positive
        h = math.gcd(zx_eval(a, xi), zx_eval(b, xi))
        g = zx_primitive(_zx_digits(h, xi))[1]
        if zx_try_div(a, g) is not None and zx_try_div(b, g) is not None:
            return g
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _zx_prs_gcd(a, b):
    """Primitive PRS gcd of primitive a, b of degree >= 1; lc > 0."""
    if len(a) < len(b):
        a, b = b, a
    while True:
        # pseudo-remainder of a by b, made primitive
        lc = b[-1]
        db = len(b) - 1
        r = list(a)
        while len(r) > db:
            c = r[-1]
            k = len(r) - 1 - db
            r = [lc * v for v in r]
            for i in range(db + 1):
                r[k + i] -= c * b[i]
            dense_trim(r)
        if not r:
            break
        if len(r) == 1:
            return [1]
        a, b = b, zx_primitive(r)[1]
    return b if b[-1] > 0 else [-c for c in b]


def zx_gcd(a, b):
    """gcd in Z[x] with a positive leading coefficient (zero for gcd(0, 0))."""
    if not a or not b:
        c = a or b
        return c if not c or c[-1] > 0 else [-v for v in c]
    ca, pa = zx_primitive(a)
    cb, pb = zx_primitive(b)
    cont = math.gcd(ca, cb)
    if len(pa) == 1 or len(pb) == 1:
        return [cont]
    g = _zx_heu_gcd(pa, pb)
    if g is None:
        g = _zx_prs_gcd(pa, pb)
    return g if cont == 1 else [cont * c for c in g]


# ---------------------------------------------------------------------------
# Integer primality and factorization (trial division, then Pollard rho).
# ---------------------------------------------------------------------------

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
_TRIAL_LIMIT = 1 << 20


def is_prime(n):
    """Deterministic Miller-Rabin for the sizes this package meets."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n):
    """A proper divisor of an odd composite n."""
    rng = random.Random(0xC0FFEE ^ n)
    while True:
        c = rng.randrange(1, n)
        f = lambda x: (x * x + c) % n
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = math.gcd(x - y, n)
        if d != n:
            return d


def factor_int(n):
    """Prime factorization of a positive integer as a sorted list of (p, e)."""
    if n <= 0:
        raise ZeroInputError("factor_int needs a positive integer")
    out = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < _TRIAL_LIMIT:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += wheel[i]
        i = (i + 1) % 8
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()  # > 1: a proper divisor or its cofactor
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return sorted(out.items())


def _int_nth_root(n, k):
    """Floor k-th root of a nonnegative integer."""
    if n < 0:
        raise ValueError("negative radicand")
    x = int(round(n ** (1.0 / k))) + 1
    while x ** k > n:
        x -= 1
    return x


def is_perfect_power(n, k):
    """True iff the nonnegative integer n is a perfect k-th power."""
    r = _int_nth_root(n, k)
    return r ** k == n


def _spiral(bound):
    """0, 1, -1, 2, -2, ..., bound, -bound."""
    yield 0
    for n in range(1, bound + 1):
        yield n
        yield -n


# ---------------------------------------------------------------------------
# Ring classes.
# ---------------------------------------------------------------------------

class Ring:
    """Base class for coefficient rings.  Values are raw Python objects."""

    is_field = False
    is_finite = False
    characteristic = 0
    generator_symbol = None  # 'u' for k[u], 't' for GF(p^k)

    # -- identity ----------------------------------------------------------
    def spec_string(self):
        raise NotImplementedError

    def __repr__(self):
        return self.spec_string()

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Ring) and self.spec_string() == other.spec_string()

    def __hash__(self):
        return hash(self.spec_string())

    # -- basic arithmetic ---------------------------------------------------
    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a):
        return a == self.zero

    def pow(self, a, e):
        """a^e for an int e >= 0; a negative e raises ValueError."""
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        result = self.one
        base = a
        while e > 0:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- division / gcd ------------------------------------------------------
    def try_divexact(self, a, b):
        """a/b if b divides a exactly, else None."""
        raise NotImplementedError

    def canonical_split(self, a):
        """Return (unit, c) with a = unit * c and c the canonical associate."""
        raise NotImplementedError

    def gcd(self, a, b):
        raise NotImplementedError

    def is_unit(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    # -- misc ----------------------------------------------------------------
    def from_int(self, n):
        raise NotImplementedError

    def format(self, a):
        raise NotImplementedError

    def format_needs_parens(self, a):
        """Whether format(a) must be parenthesized when juxtaposed with '*'."""
        return False

    def order_key(self, a):
        """The key by which factors compare values: over GF(p^k) the list
        of coefficients of t, low to high, else the value itself."""
        return a

    def factor_value(self, a):
        """Return (unit, [(irreducible value, multiplicity), ...])."""
        raise NotImplementedError

    def element_box(self, coeff_bound=None, deg_bound=None):
        """Finite, deterministically ordered list of candidate values."""
        raise NotImplementedError

    def element_stream(self):
        """Every element of an infinite ring once: those of
        element_box(coeff_bound=b, deg_bound=b) for b = 0, 1, 2, ..., each
        where a box first holds it, in box order."""
        seen = set()
        for b in itertools.count():
            for v in self.element_box(coeff_bound=b, deg_bound=b):
                if v not in seen:
                    seen.add(v)
                    yield v


class Field(Ring):
    """A field: every nonzero element is a unit and its own canonical
    associate is one, so gcds are 0 or 1 and a factorization is its unit."""

    is_field = True

    def canonical_split(self, a):
        if a == self.zero:
            return self.one, self.zero
        return a, self.one

    def gcd(self, a, b):
        if a == self.zero and b == self.zero:
            return self.zero
        return self.one

    def is_unit(self, a):
        return a != self.zero

    def factor_value(self, a):
        if a == self.zero:
            raise ZeroInputError("cannot factor 0")
        return a, []


class IntegerRing(Ring):
    """The rational integers."""

    def __init__(self):
        self.zero = 0
        self.one = 1

    def spec_string(self):
        return "Z"

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def try_divexact(self, a, b):
        if b == 0:
            return None
        q, r = divmod(a, b)
        return q if r == 0 else None

    def canonical_split(self, a):
        if a < 0:
            return -1, -a
        return 1, a

    def gcd(self, a, b):
        return math.gcd(a, b)

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if not self.is_unit(a):
            raise ArithmeticError(f"{a} is not a unit in Z")
        return a

    def from_int(self, n):
        return n

    def format(self, a):
        return str(a)

    def factor_value(self, a):
        if a == 0:
            raise ZeroInputError("cannot factor 0")
        unit, n = self.canonical_split(a)
        return unit, (factor_int(n) if n > 1 else [])

    def element_box(self, coeff_bound=None, deg_bound=None):
        if coeff_bound is None:
            raise ValueError("Z needs a coefficient bound to define a finite box")
        return list(_spiral(coeff_bound))


class RationalField(Field):
    """The rational numbers."""

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def spec_string(self):
        return "Q"

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def try_divexact(self, a, b):
        if b == 0:
            return None
        return a / b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return 1 / a

    def from_int(self, n):
        return Fraction(n)

    def format(self, a):
        return str(a)

    def format_needs_parens(self, a):
        return "/" in str(a)

    def element_box(self, coeff_bound=None, deg_bound=None):
        if coeff_bound is None:
            raise ValueError("Q needs a coefficient bound to define a finite box")
        return [Fraction(n) for n in _spiral(coeff_bound)]


class FiniteField(Field):
    """GF(q), q = p^k: an element is an index 0 <= i < q, its place in
    element_box, and a residue of GF(p) is the same element of GF(p^k)."""

    is_finite = True
    zero, one = 0, 1

    def from_int(self, n):
        return n % self.p

    def element_box(self, coeff_bound=None, deg_bound=None):
        return list(range(self.order))


class PrimeField(FiniteField):
    """GF(p), residues stored in [0, p)."""

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.order = p
        self.characteristic = p

    def spec_string(self):
        return f"GF({self.p})"

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def pow(self, a, e):
        return pow(a, e, self.p) if e >= 0 else super().pow(a, e)

    def try_divexact(self, a, b):
        if b == 0:
            return None
        return a * pow(b, -1, self.p) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return pow(a, -1, self.p)

    def format(self, a):
        return str(a)


# Fields of at most this order do their arithmetic by table lookup.  On a
# shared 2-core x86 machine their tables took at most about 3 ms to build
# (GF(2^8)); at a limit of 2^10 the slowest took 10 ms, at 2^12 42 ms.
EXT_TABLE_LIMIT = 1 << 8


def _digits(i, p):
    """The base-p digits of i, low to high: the coefficients of t of the
    element i of GF(p^k)."""
    out = []
    while i:
        i, c = divmod(i, p)
        out.append(c)
    return out


def _from_digits(c, p):
    """The element of GF(p^k) whose coefficients of t are c, low to high."""
    i = 0
    for d in reversed(c):
        i = i * p + d
    return i


@functools.cache
def _ext_modulus(p, k):
    """The modulus of GF(p^k) (see ExtField), searched once per (p, k)."""
    base = PrimeField(p)
    for coeffs in itertools.product(range(p), repeat=k):
        cand = list(coeffs) + [1]
        if u_is_irreducible(cand, base):
            return tuple(cand)
    raise RuntimeError("unreachable: irreducible polynomials of every degree exist")


@functools.cache
def _ext_tables(p, k):
    """Tables of GF(p^k) = GF(p)[t]/(_ext_modulus(p, k)) on element indices.

    Returns (pw, log, zech).  pw[j] is g^j for a primitive element g, listed
    over 0 <= j < 2(q-1) so that a sum of two logs needs no reduction, and
    log[a] is the log of a nonzero a.  zech[m] is the log of 1 + g^m for
    odd p (-1 where that is zero), and None for p = 2, where a sum is an
    XOR.  Built on the polynomial path once per (p, k) and cached.
    """
    modulus = list(_ext_modulus(p, k))
    K = PrimeField(p)
    q = p ** k
    n = q - 1
    orders = [n // r for r, _ in factor_int(n)]
    # the first primitive element in index order
    for g in range(p, q):
        g = _digits(g, p)
        if all(u_powmod(g, e, modulus, K) != [1] for e in orders):
            break
    pw = [1] * n
    cur = [1]
    for j in range(1, n):
        cur = u_rem(u_mul(cur, g, K), modulus, K)
        pw[j] = _from_digits(cur, p)
    log = [0] * q
    for j, a in enumerate(pw):
        log[a] = j
    zech = None
    if p != 2:
        # 1 + g^m: add one to the constant digit of the index
        zech = [-1] * n
        for m, i in enumerate(pw):
            s = i - i % p + (i + 1) % p
            zech[m] = log[s] if s else -1
    return pw + pw, log, zech


class ExtField(FiniteField):
    """GF(p^k) as GF(p)[t] / (modulus), k >= 2.

    An element is its index sum c_j p^j, where c_j is its coefficient of
    t^j (FiniteField), so t is p.  The modulus is the lexicographically
    smallest monic irreducible of degree k, coefficient vectors compared
    low to high, which pins the field down without Conway tables.

    For p = 2 a sum is the XOR of the indices.  Fields of order up to
    EXT_TABLE_LIMIT do the rest by table lookup (see _ext_tables): a
    product is one sum of logarithms, a sum for odd p one Zech logarithm.
    Larger fields run u_* on the digits, reducing products by the modulus.
    """

    generator_symbol = "t"

    def __init__(self, p, k):
        if k < 2:
            raise ValueError("extension degree must be >= 2; use PrimeField for k=1")
        self.p = p
        self.k = k
        self.base = PrimeField(p)
        self.order = p ** k
        self.characteristic = p
        self.modulus = list(_ext_modulus(p, k))
        self._pw = self._log = self._zech = None
        if self.order <= EXT_TABLE_LIMIT:
            self._pw, self._log, self._zech = _ext_tables(p, k)
            self._n = self.order - 1
            self._half = self._n // 2  # g^half = -1 for odd p

    def spec_string(self):
        return f"GF({self.p}^{self.k})"

    def _zech_add(self, x, y):
        """g^x + g^y for odd p."""
        z = self._zech[(y - x) % self._n]
        return self._pw[x + z] if z >= 0 else 0

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if self._log is None:
            return _from_digits(zm_add(_digits(a, self.p), _digits(b, self.p), self.p), self.p)
        if not a:
            return b
        if not b:
            return a
        return self._zech_add(self._log[a], self._log[b])

    def sub(self, a, b):
        if self.p == 2:
            return a ^ b
        if self._log is None:
            return self.add(a, self.neg(b))
        if not b:
            return a
        y = self._log[b] + self._half
        if not a:
            return self._pw[y]
        return self._zech_add(self._log[a], y)

    def neg(self, a):
        if self.p == 2 or not a:
            return a
        if self._log is None:
            return _from_digits(u_neg(_digits(a, self.p), self.base), self.p)
        return self._pw[self._log[a] + self._half]

    def mul(self, a, b):
        if not a or not b:
            return 0
        if self._log is None:
            prod = u_mul(_digits(a, self.p), _digits(b, self.p), self.base)
            return _from_digits(u_rem(prod, self.modulus, self.base), self.p)
        return self._pw[self._log[a] + self._log[b]]

    def pow(self, a, e):
        if self._log is None or e <= 0:
            return super().pow(a, e)
        if not a:
            return 0
        return self._pw[self._log[a] * e % self._n]

    def try_divexact(self, a, b):
        if not b:
            return None
        if self._log is None:
            return self.mul(a, self.inv(b))
        if not a:
            return 0
        return self._pw[self._log[a] - self._log[b] + self._n]

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("0 is not invertible")
        if self._log is not None:
            return self._pw[self._n - self._log[a]]
        # the modulus is irreducible, so the gcd is 1 and s * a = 1, deg s < k
        return _from_digits(u_xgcd(_digits(a, self.p), self.modulus, self.base)[1], self.p)

    def generator(self):
        return self.p

    def format(self, a):
        parts = []
        for i, c in reversed(list(enumerate(_digits(a, self.p)))):
            if c and i == 0:
                parts.append(str(c))
            elif c:
                tpow = "t" if i == 1 else f"t^{i}"
                parts.append(tpow if c == 1 else f"{c}*{tpow}")
        return " + ".join(parts) or "0"

    def format_needs_parens(self, a):
        s = self.format(a)
        return any(ch in s for ch in "+-*^ ") or s == "t"

    def order_key(self, a):
        return _digits(a, self.p)


class PolyRing(Ring):
    """k[u] for a field k: Q, GF(p) or GF(p^k).

    Elements are tuples of base-field values (coefficients of u, low to
    high, stripped).  This is a UFD whose units are the nonzero constants;
    the canonical associate is monic.
    """

    generator_symbol = "u"

    def __init__(self, base):
        if not base.is_field:
            raise ValueError("PolyRing base must be a field")
        if isinstance(base, PolyRing):
            raise ValueError("nested polynomial coefficient rings are not supported")
        self.base = base
        self.characteristic = base.characteristic
        self.zero = ()
        self.one = (base.one,)

    def spec_string(self):
        return f"{self.base.spec_string()}[u]"

    def add(self, a, b):
        return tuple(u_add(list(a), list(b), self.base))

    def neg(self, a):
        return tuple(u_neg(list(a), self.base))

    def mul(self, a, b):
        return tuple(u_mul(list(a), list(b), self.base))

    def try_divexact(self, a, b):
        if not b:
            return None
        q, r = u_divmod(list(a), list(b), self.base)
        if r:
            return None
        return tuple(q)

    def canonical_split(self, a):
        if not a:
            return self.one, self.zero
        lc, monic = u_monic(list(a), self.base)
        return (lc,), tuple(monic)

    def gcd(self, a, b):
        return tuple(u_gcd(list(a), list(b), self.base))

    def is_unit(self, a):
        return len(a) == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise ArithmeticError(f"{self.format(a)} is not a unit in {self}")
        return (self.base.inv(a[0]),)

    def from_int(self, n):
        v = self.base.from_int(n)
        return (v,) if not self.base.is_zero(v) else ()

    def generator(self):
        return (self.base.zero, self.base.one)

    def deg_u(self, a):
        return u_deg(list(a))

    def format(self, a):
        if not a:
            return "0"
        parts = []
        for i in range(len(a) - 1, -1, -1):
            c = a[i]
            if self.base.is_zero(c):
                continue
            cs = self.base.format(c)
            negative = cs.startswith("-")
            if negative:
                cs = cs[1:]
            if i == 0:
                body = f"({cs})" if self.base.format_needs_parens(c) else cs
            else:
                upow = "u" if i == 1 else f"u^{i}"
                if cs == "1":
                    body = upow
                elif not negative and self.base.format_needs_parens(c):
                    body = f"({cs})*{upow}"
                else:
                    body = f"{cs}*{upow}"
            parts.append(("-" if negative else "+", body))
        sign, body = parts[0]
        out = body if sign == "+" else f"-{body}"
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def format_needs_parens(self, a):
        if len(a) == 1:
            return False  # format parenthesizes a constant where k needs it
        s = self.format(a)
        return any(ch in s for ch in "+-*^() ") or s == "u"

    def order_key(self, a):
        return tuple(map(self.base.order_key, a))

    def factor_value(self, a):
        from . import factor as _factor  # deferred; factor builds on this module

        return _factor.factor_poly_ring_value(self, a)

    def element_box(self, coeff_bound=None, deg_bound=None):
        if deg_bound is None:
            raise ValueError(f"{self} needs a degree-in-u bound to define a finite box")
        base_box = self.base.element_box(coeff_bound=coeff_bound)
        nonzero = [v for v in base_box if not self.base.is_zero(v)]
        out = [()]
        for d in range(deg_bound + 1):
            for lead in nonzero:
                for lower in itertools.product(base_box, repeat=d):
                    out.append(tuple(lower) + (lead,))
        return out


ZZ = IntegerRing()
QQ = RationalField()


def GF(p, k=1):
    """GF(p) for k=1, GF(p^k) otherwise."""
    return PrimeField(p) if k == 1 else ExtField(p, k)


_RING_RE = re.compile(r"^\s*(Z|Q|GF\(\s*(\d+)\s*(?:\^\s*(\d+)\s*)?\))\s*(\[\s*u\s*\])?\s*$")


def parse_ring(text):
    """Parse a ring-spec string: Z, Q, GF(p), GF(p^k), GF(p)[u], GF(p^k)[u], Q[u]."""
    m = _RING_RE.match(text)
    if not m:
        raise ParseError(f"cannot parse ring spec {text!r}")
    head, p, k, poly = m.group(1), m.group(2), m.group(3), m.group(4)
    if head == "Z":
        base = ZZ
    elif head == "Q":
        base = QQ
    else:
        try:
            base = GF(int(p), int(k) if k else 1)
        except ValueError as e:
            raise ParseError(f"bad ring spec {text!r}: {e}") from None
    if poly:
        if base is ZZ:
            raise ParseError("Z[u] is not supported; the coefficient base of k[u] must be a field")
        return PolyRing(base)
    return base


# ---------------------------------------------------------------------------
# RingElement: the public wrapper used at module boundaries.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RingElement:
    """A raw value tagged with its ring."""

    ring: Ring
    value: object

    def is_zero(self):
        return self.ring.is_zero(self.value)

    def is_unit(self):
        return self.ring.is_unit(self.value)

    def __str__(self):
        return self.ring.format(self.value)


def ring_gcd(a: RingElement, b: RingElement) -> RingElement:
    """Canonical-unit-normalized gcd; gcd(0, 0) = 0."""
    if a.ring != b.ring:
        raise RingMismatchError(f"gcd across {a.ring} and {b.ring}")
    return RingElement(a.ring, a.ring.gcd(a.value, b.value))


def ring_is_unit(a: RingElement) -> bool:
    return a.ring.is_unit(a.value)


def ring_factor(a: RingElement):
    """Factor a ring element: (unit, [(irreducible, multiplicity), ...]).

    Over fields the element is its own unit and the list is empty.
    """
    unit, factors = a.ring.factor_value(a.value)
    return (RingElement(a.ring, unit),
            [(RingElement(a.ring, v), m) for v, m in factors])
