"""Point count of twisted Higgs bundles on the projective line over F_q.

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
evidence, not circularity.  The one bridge is formula_volume_p1, which
reads the engine's public volume formula, dt.moduli_volume, at q = q0.

Rank 1 and 2 only: `_check_rank` refuses a rank below 1 with ValueError and
one above 2 with NotImplementedError.  The rank-2 semistable count is a
closed form: the only saturated line subbundle of more than half the degree
is the top summand, invariant exactly when the lower corner entry vanishes
(proof in semistable_count).  semistable_count_by_enumeration, used by the
tests, recounts by listing every matrix and checking, for every line bundle
of more than half the total degree, the coefficient-wise vanishing of the
induced cross form.
"""

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


def _check_rank(r):
    if r < 1:
        raise ValueError("rank must be at least 1, got %d" % r)
    if r > 2:
        raise NotImplementedError("oracle covers rank <= 2, got %d" % r)


def _check_field(q):
    if q not in SUPPORTED_Q:
        raise ValueError("unsupported field size %d (have %s)" % (q, list(SUPPORTED_Q)))


@lru_cache(maxsize=None)
def gf_tables(q):
    """(ADD, MUL, NEG) lookup tables for F_q, elements encoded as 0..q-1.

    Prime q is arithmetic mod q; prime powers use the fixed irreducible
    modulus, encoding a polynomial by its base-p digit string.
    """
    _check_field(q)
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
    _check_field(q)
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
    _check_rank(len(typ))
    add, mul, neg = gf_tables(q)
    if len(typ) == 1:
        return q - 1
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


def semistable_count_by_enumeration(typ, ell, q, cap=2 ** 28):
    """#{semistable twisted endomorphisms} of the split bundle, by listing
    every matrix and testing all potentially destabilizing sub-line-bundles.

    The reference that semistable_count is tested against; it refuses more
    than `cap` matrices.
    """
    if ell < 0:
        raise ValueError("twist degree must be nonnegative")
    _check_field(q)
    typ = tuple(sorted(typ, reverse=True))
    _check_rank(len(typ))
    if len(typ) == 1:
        return q ** (ell + 1)
    a1, a2 = typ
    d = a1 + a2
    degs = _phi_degrees(typ, ell)
    total = q ** sum(max(0, deg + 1) for row in degs for deg in row)
    if total > cap:
        raise ValueError("enumeration of %d matrices exceeds the cap" % total)
    add, mul, neg = gf_tables(q)
    pairs = [pair for m in range(d // 2 + 1, a1 + 1)
             for pair in _projective_pairs(q, a1 - m, a2 - m, add, mul)]
    if not pairs:
        return total  # no line bundle can exceed half the degree
    count = 0
    for f11 in _sections(q, degs[0][0]):
        neg_f11 = tuple(neg[c] for c in f11)
        for f22 in _sections(q, degs[1][1]):
            diag = tuple(add[a][b] for a, b in zip(f22, neg_f11))
            for f12 in _sections(q, degs[0][1]):
                for f21 in _sections(q, degs[1][0]):
                    if not any(_cross_vanishes(f21, diag, f12, pair, add, mul, neg)
                               for pair in pairs):
                        count += 1
    return count


def semistable_count(typ, ell, q):
    """#{semistable twisted endomorphisms} of the split bundle, in closed form.

    Write E = O(a1) + O(a2) with a1 >= a2, d = a1 + a2, s = a1 - a2, and let
    D be the total dimension of the four entry spaces, so there are q^D
    fields phi.  A line subbundle L with deg L > d/2 >= a2 has
    Hom(L, O(a2)) = 0, so L lies in O(a1); if it is saturated, L = O(a1).
    When s = 0 no such L exists and every phi is semistable.  When s > 0,
    O(a1) is the only candidate, so by the uniqueness of the maximal
    destabilizing subbundle (Harder-Narasimhan) phi is unstable exactly when
    phi(O(a1)) lies in O(a1)(ell), that is when the corner entry f21, a
    section of O(ell - s), vanishes.  Hence

        #semistable = q^D - q^(D - max(0, ell - s + 1))   (s > 0),

    which is 0 once s > ell.  semistable_count_by_enumeration checks this
    against a direct listing in the tests.
    """
    if ell < 0:
        raise ValueError("twist degree must be nonnegative")
    _check_field(q)
    _check_rank(len(typ))
    if len(typ) == 1:
        return q ** (ell + 1)
    a1, a2 = sorted(typ, reverse=True)
    s = a1 - a2
    dim = sum(max(0, deg + 1) for row in _phi_degrees(typ, ell) for deg in row)
    if s == 0:
        return q ** dim
    return q ** dim - q ** (dim - max(0, ell - s + 1))


def splitting_types(r, d, spread_cap):
    """Decreasing r-tuples (r <= 2) with the given sum and b_1 - b_r <= spread_cap."""
    _check_rank(r)
    if r == 1:
        return [(d,)]
    return [((d + s) // 2, (d - s) // 2) for s in range(d % 2, spread_cap + 1, 2)]


def stack_volume_p1(r, d, ell, q):
    """Groupoid volume sum #semistable / #Aut over all contributing types.

    The spread window is validated, not assumed: the first type past the
    bound (r - 1) ell is recounted and must come out empty.
    """
    _check_rank(r)
    if r == 1:
        return Q(semistable_count((d,), ell, q), aut_count((d,), q))
    total = sum((Q(semistable_count(typ, ell, q), aut_count(typ, q))
                 for typ in splitting_types(2, d, ell)), Q(0))
    # the spreads ell + 1 and ell + 2 hold exactly one type of parity d
    boundary = splitting_types(2, d, ell + 2)[-1]
    if semistable_count(boundary, ell, q):
        raise ArithmeticError("type %s past the spread bound %d counts semistable fields"
                              % (boundary, ell))
    return total


def formula_volume_p1(r, d, ell, q0):
    """The symbolic pipeline's prediction for the same groupoid volume: the
    public volume polynomial dt.moduli_volume on the line at q = q0, over
    q0 - 1.

    That is (-1)^{ell r^2} q0^{(ell r^2 + p r)/2} IDT_r(q0, 1) / (q0 - 1):
    with ell = p + 2g - 2, (ell r^2 + p r)/2 = (g - 1) r^2 + p r(r + 1)/2
    and (-1)^{ell r^2} = (-1)^{p r}.  moduli_volume refuses a rank and
    degree with a common factor.
    """
    from .dt import CurveParams, moduli_volume

    volume = moduli_volume(CurveParams(genus=0, ell=ell), r, d)
    return Q(volume.eval([q0, 1]), q0 - 1)   # [q, t]; the volume is t-free


def compare_with_formula(r, d, ell, q):
    """(oracle value, formula value, equal?) for one parameter point."""
    lhs = stack_volume_p1(r, d, ell, q)
    rhs = formula_volume_p1(r, d, ell, q)
    return lhs, rhs, lhs == rhs
