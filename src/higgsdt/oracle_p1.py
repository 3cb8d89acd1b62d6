"""Brute-force point count of twisted Higgs bundles on the projective line.

Everything here is finite linear algebra over a small field F_q.  A rank-r
bundle on the line splits as O(b_1) + ... + O(b_r), a twisted endomorphism
is a matrix whose (i, j) entry is a polynomial of degree at most
ell + b_j - b_i, and the groupoid count

    sum over splitting types  #{semistable phi} / #Aut(E)

is an exact rational number.  Only finitely many types contribute: once the
spread b_1 - b_r passes (r - 1) ell the lowest corner entry is forced to
zero, the top summand becomes invariant, and nothing is semistable.

This module is deliberately independent of the symbolic engine: it shares
no code with it beyond Python itself, so agreement between the two is
evidence, not circularity.  Rank 1 and 2 only; the rank-2 instability test
enumerates maps from every line bundle of more than half the total degree
and checks the coefficient-wise vanishing of the induced cross form.
"""

import math
import os
from fractions import Fraction as Q
from functools import lru_cache
from itertools import product

# coefficient lists (low degree first) of irreducibles over the prime field
_IRREDUCIBLE = {
    4: (2, (1, 1, 1)),       # x^2 + x + 1 over F_2
    8: (2, (1, 1, 0, 1)),    # x^3 + x + 1 over F_2
    9: (3, (1, 0, 1)),       # x^2 + 1 over F_3
}

SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9)


def _poly_digits(x, p, n):
    return tuple((x // p ** i) % p for i in range(n))


def _digits_value(ds, p):
    return sum(d * p ** i for i, d in enumerate(ds))


def _polymod(ds, mod, p):
    ds = list(ds)
    n = len(mod) - 1
    for i in range(len(ds) - 1, n - 1, -1):
        c = ds[i]
        if c:
            for k in range(len(mod)):
                ds[i - n + k] = (ds[i - n + k] - c * mod[k]) % p
    return tuple(ds[:n])


@lru_cache(maxsize=None)
def gf_tables(q):
    """(ADD, MUL, NEG) lookup tables for F_q, elements encoded as 0..q-1.

    Prime q is arithmetic mod q; prime powers use the fixed irreducible
    modulus, encoding a polynomial by its base-p digit string.
    """
    if q not in SUPPORTED_Q:
        raise ValueError("unsupported field size %d (have %s)" % (q, list(SUPPORTED_Q)))
    if q in _IRREDUCIBLE:
        p, mod = _IRREDUCIBLE[q]
        n = len(mod) - 1
        elems = [_poly_digits(x, p, n) for x in range(q)]
        add = tuple(tuple(_digits_value([(a + b) % p for a, b in zip(ea, eb)], p)
                          for eb in elems) for ea in elems)
        neg = tuple(_digits_value([(-a) % p for a in ea], p) for ea in elems)
        mul = []
        for ea in elems:
            row = []
            for eb in elems:
                prod_digits = [0] * (2 * n - 1)
                for i, a in enumerate(ea):
                    if a:
                        for j, b in enumerate(eb):
                            prod_digits[i + j] = (prod_digits[i + j] + a * b) % p
                row.append(_digits_value(_polymod(prod_digits, mod, p), p))
            mul.append(tuple(row))
        return add, tuple(mul), neg
    add = tuple(tuple((a + b) % q for b in range(q)) for a in range(q))
    mul = tuple(tuple((a * b) % q for b in range(q)) for a in range(q))
    neg = tuple((-a) % q for a in range(q))
    return add, mul, neg


def _pmul(u, v, add, mul):
    if not u or not v:
        return ()
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            arow = mul[a]
            for j, b in enumerate(v):
                if b:
                    out[i + j] = add[out[i + j]][arow[b]]
    return tuple(out)


def _sections(q, deg):
    """All coefficient tuples of H0(O(deg)); empty space when deg < 0."""
    if deg < 0:
        return ((),)
    return tuple(product(range(q), repeat=deg + 1))


def _projective_pairs(q, d1, d2, add, mul):
    """Nonzero section pairs (s1, s2) with first nonzero coefficient 1,
    stored with their three precomputed quadratic products."""
    pairs = []
    for s1 in _sections(q, d1):
        for s2 in _sections(q, d2):
            flat = s1 + s2
            lead = next((c for c in flat if c), 0)
            if lead != 1:
                continue
            pairs.append((_pmul(s1, s1, add, mul),
                          _pmul(s1, s2, add, mul),
                          _pmul(s2, s2, add, mul)))
    return tuple(pairs)


def gl_order(q, n):
    out = 1
    for k in range(n):
        out *= q ** n - q ** k
    return out


def aut_count(typ, q):
    """#Aut(O(b_1) + ... + O(b_r)): block GL factors times the unipotent
    part q^{sum over b_i > b_j of (b_i - b_j + 1)}."""
    blocks = {}
    for b in typ:
        blocks[b] = blocks.get(b, 0) + 1
    out = 1
    for n in blocks.values():
        out *= gl_order(q, n)
    hom = 0
    for bi in typ:
        for bj in typ:
            if bi > bj:
                hom += bi - bj + 1
    return out * q ** hom


def aut_count_by_enumeration(typ, q):
    """Independent recount of #Aut for rank <= 2 by enumerating endomorphisms
    and testing invertibility of the constant-term matrix.

    An endomorphism of a split bundle on the line is invertible exactly when
    its diagonal-block reduction is, and for rank <= 2 that reduces to a
    determinant in F_q.
    """
    add, mul, neg = gf_tables(q)
    if len(typ) == 1:
        return q - 1
    if len(typ) != 2:
        raise ValueError("enumeration implemented for rank <= 2")
    a1, a2 = typ
    s = a1 - a2
    count = 0
    for u in range(q):
        for w in range(q):
            for h12 in _sections(q, s):
                for h21 in _sections(q, -s if s else 0):
                    # det of the degree-0 part; off-diagonal contributes
                    # only when both homs are scalars (s = 0)
                    cross = mul[h12[0]][h21[0]] if (h12 and h21 and s == 0) else 0
                    det = add[mul[u][w]][neg[cross]]
                    if det:
                        count += 1
    return count


def _phi_degrees(typ, ell):
    """Degree bounds of the matrix entries, row-major: entry (i, j) is a map
    O(b_j) -> O(b_i + ell), a section of O(ell + b_i - b_j).  Negative means
    the space is zero."""
    return tuple(tuple(ell + bi - bj for bj in typ) for bi in typ)


def _cross_vanishes(f21, diag, f12, pair, add, mul, neg):
    """cross = f21 s1^2 + diag s1 s2 - f12 s2^2 with diag = f22 - f11;
    True when every coefficient is zero."""
    s1sq, s1s2, s2sq = pair
    t1 = _pmul(f21, s1sq, add, mul)
    t2 = _pmul(diag, s1s2, add, mul)
    t3 = _pmul(f12, s2sq, add, mul)
    n = max(len(t1), len(t2), len(t3))
    for i in range(n):
        c = t1[i] if i < len(t1) else 0
        if i < len(t2):
            c = add[c][t2[i]]
        if i < len(t3):
            c = add[c][neg[t3[i]]]
        if c:
            return False
    return True


def _count_chunk(q, e11s, e22_space, e12_space, e21_space, pairs_by_m, add, mul, neg):
    count = 0
    for f11 in e11s:
        neg_f11 = tuple(neg[c] for c in f11)
        for f22 in e22_space:
            diag = tuple(add[a][b] for a, b in zip(f22, neg_f11))
            for f12 in e12_space:
                for f21 in e21_space:
                    unstable = any(
                        _cross_vanishes(f21, diag, f12, pair, add, mul, neg)
                        for pairs in pairs_by_m for pair in pairs)
                    if not unstable:
                        count += 1
    return count


def thread_count(environ=os.environ):
    """Worker count from HIGGSDT_THREADS: unset or empty means 1, anything
    but a positive integer is refused, and the value is capped at the CPU
    count."""
    raw = environ.get("HIGGSDT_THREADS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError("HIGGSDT_THREADS must be a positive integer, got %r" % raw)
    return min(n, os.cpu_count() or 1)


def semistable_count(typ, ell, q, cap=2 ** 28):
    """#{semistable twisted endomorphisms} of the split bundle, by listing
    every matrix and testing all potentially destabilizing sub-line-bundles.

    HIGGSDT_THREADS sets the worker count (see thread_count); a process
    pool is used only for at least 2^16 matrices.
    """
    if ell < 0:
        raise ValueError("twist degree must be nonnegative")
    threads = thread_count()
    typ = tuple(sorted(typ, reverse=True))
    if len(typ) == 1:
        return q ** (ell + 1)
    if len(typ) != 2:
        raise NotImplementedError("instability test implemented for rank <= 2")
    a1, a2 = typ
    d, s = a1 + a2, a1 - a2
    if s > ell and s > 0:
        # the lower corner entry lives in H0(O(ell - s)) = 0, so the top
        # summand is invariant and its degree exceeds d/2: nothing survives
        return 0
    degs = _phi_degrees(typ, ell)
    dims = [max(0, degs[i][j] + 1) for i in range(2) for j in range(2)]
    total = q ** sum(dims)
    if total > cap:
        raise ValueError("enumeration of %d matrices exceeds the cap" % total)
    add, mul, neg = gf_tables(q)
    m_candidates = range(d // 2 + 1, a1 + 1)
    pairs_by_m = [_projective_pairs(q, a1 - m, a2 - m, add, mul)
                  for m in m_candidates]
    if not any(pairs_by_m):
        return total  # no line bundle can exceed half the degree
    e11_space = _sections(q, degs[0][0])
    e22_space = _sections(q, degs[1][1])
    e12_space = _sections(q, degs[0][1])
    e21_space = _sections(q, degs[1][0])

    if threads > 1 and total >= 1 << 16:
        from multiprocessing import Pool
        chunks = [e11_space[i::threads] for i in range(threads)]
        args = [(q, ch, e22_space, e12_space, e21_space, pairs_by_m, add, mul, neg)
                for ch in chunks if ch]
        with Pool(len(args)) as pool:
            return sum(pool.starmap(_count_chunk, args))
    return _count_chunk(q, e11_space, e22_space, e12_space, e21_space,
                        pairs_by_m, add, mul, neg)


def splitting_types(r, d, spread_cap):
    """Decreasing r-tuples with the given sum and b_1 - b_r <= spread_cap."""
    if r == 1:
        return [(d,)]
    out = []
    for s in range(d % 2 if r == 2 else 0, spread_cap + 1, 2 if r == 2 else 1):
        if r == 2 and (d + s) % 2 == 0:
            out.append(((d + s) // 2, (d - s) // 2))
    return out


def stack_volume_p1(r, d, ell, q, cap=2 ** 28):
    """Groupoid volume sum #semistable / #Aut over all contributing types.

    The spread window is validated, not assumed: the first type past the
    theoretical bound is recounted and must come out empty (the fast zero
    path is itself a proof, being forced by an empty section space).
    """
    if r == 1:
        return Q(semistable_count((d,), ell, q), aut_count((d,), q))
    if r != 2:
        raise NotImplementedError("oracle covers rank <= 2")
    bound = (r - 1) * ell
    total = Q(0)
    s = d % 2
    while s <= bound:
        typ = ((d + s) // 2, (d - s) // 2)
        total += Q(semistable_count(typ, ell, q, cap=cap), aut_count(typ, q))
        s += 2
    # boundary check: widen until an honest zero, warn if the bound lied
    widened = 0
    while True:
        typ = ((d + s) // 2, (d - s) // 2)
        c = semistable_count(typ, ell, q, cap=cap)
        if c == 0:
            break
        widened += 1
        total += Q(c, aut_count(typ, q))
        s += 2
        if widened > 4:
            raise ArithmeticError("spread window refuses to close at s = %d" % s)
    if widened:
        import warnings
        warnings.warn("spread bound %d was too small; widened %d steps"
                      % (bound, widened))
    return total


def formula_volume_p1(r, d, ell, q0):
    """The symbolic pipeline's prediction for the same groupoid volume:
    (-1)^{ell r^2} q0^{(ell r^2 + p r)/2} IDT_r(q0, 1) / (q0 - 1)."""
    from .dt import CurveParams, idt_star, omega

    if math.gcd(r, d) != 1:
        raise ValueError("comparison is only claimed for coprime rank and degree")
    cp = CurveParams(genus=0, ell=ell)
    hp = omega(cp, r).times_half_power(ell * r * r,
                                       sign=-1 if (ell * r * r) % 2 else 1)
    return hp.eval_exact(q0) / (q0 - 1)


def compare_with_formula(r, d, ell, q):
    """(oracle value, formula value, equal?) for one parameter point."""
    lhs = stack_volume_p1(r, d, ell, q)
    rhs = formula_volume_p1(r, d, ell, q)
    return lhs, rhs, lhs == rhs
