"""Curve L-polynomials and exact specialization of the invariants.

A genus-g curve over F_{q0} enters the engine through its L-polynomial

    L(t) = prod_i (1 - a_i t)(1 - (q0 / a_i) t) = sum_{k=0}^{2g} c_k t^k,

whose Frobenius eigenvalues a_i have absolute value sqrt(q0).  L has integer
coefficients with c_0 = 1 and c_{2g-k} = q0^{g-k} c_k, so c_1..c_g fix the
curve's data.  Point counts over all extensions follow from the trace formula

    #X(F_{q0^n}) = 1 + q0^n - S_n,   S_n = sum_i (a_i^n + (q0 / a_i)^n),

with the power sums S_n read off L by Newton's identities.  ZetaData.from_lpoly
accepts c_1..c_g only if every beta_i = a_i + q0 / a_i is real with
|beta_i| <= 2 sqrt(q0), which is |a_i| = sqrt(q0) (a Sturm count, in exact
rationals, of the beta_i^2 in [0, 4 q0]), and 0 <= N_1 <= N_m for m <= g;
both are necessary for a curve, not sufficient.  Invariants of the
curve are symmetric in the eigenvalue pairs and invariant under
a_i -> q a_i^{-1} (`weil_table(g, "q")`), so polynomials in q and the
coefficients of the symbolic L-polynomial; specialize_integer rewrites them
so on orbit representatives and substitutes q0 and c_1..c_g, all exactly.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import compress, zip_longest

from .algebra import LaurentPoly
from .dt import zeta_factor
from .weil import weil_table


def _primes_below(n):
    """The primes below n >= 2, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return list(compress(range(n), sieve))


_SMALL_PRIMES = _primes_below(1000)
_MR_BASES = _SMALL_PRIMES[:13]            # 2, 3, 5, ..., 41
_MR_LIMIT = 3317044064679887385961981     # those bases decide every n below it


def is_prime_power(n):
    """True when n = p^k for a prime p and k >= 1, decided exactly.

    Trial division by the primes below 1000 settles every n with a small
    prime factor.  Otherwise n = p^k with p > 1000 and p not a perfect
    power, k the largest exponent with an integer k-th root, and p is tested
    by Miller-Rabin with the 13 prime bases up to 41, which is a proof for
    p < 3317044064679887385961981 (Sorenson and Webster).  A larger p that
    passes every base is neither accepted nor refused: ValueError.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    # no prime factor below 1000, so n = p^k needs 1000^k <= n
    p = n
    for k in range(n.bit_length() // 9, 1, -1):
        r = _iroot(n, k)
        if r ** k == n:
            p = r
            break
    if p < 1000 * 1000 or not any(_mr_witness(p, a) for a in _MR_BASES):
        if p < _MR_LIMIT:
            return True
        raise ValueError("cannot decide whether %d is a prime power: %d passes "
                         "every Miller-Rabin base up to 41, which proves "
                         "primality only below %d" % (n, p, _MR_LIMIT))
    return False


def _iroot(n, k):
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _mr_witness(n, a):
    """True when a proves the odd n > a composite (strong probable prime test)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _weil_squares(q0, coeffs):
    """prod_i (z - beta_i^2), beta_i = a_i + q0 / a_i, from c_1..c_g (g >= 1);
    ascending integer coefficients.

    With x = T + q0/T, T^m + (q0/T)^m = D_m(x), where D_0 = 2, D_1 = x and
    D_m = x D_{m-1} - q0 D_{m-2}.  So T^{2g} L(1/T) = T^g h(T + q0/T) for the
    real Weil polynomial h(x) = prod_i (x - beta_i) = c_g + sum_{j<g} c_j
    D_{g-j}(x), and writing h(x) = E(x^2) + x O(x^2), h(x) h(-x) =
    E(x^2)^2 - x^2 O(x^2)^2 = (-1)^g prod_i (x^2 - beta_i^2).
    """
    g, c = len(coeffs), (1,) + tuple(coeffs)
    h, d_prev, d = [c[g]] + [0] * g, [2], [0, 1]
    for m in range(1, g + 1):
        for i, x in enumerate(d):
            h[i] += c[g - m] * x
        d_prev, d = d, [b - q0 * a for a, b in zip(d_prev + [0, 0], [0] + d)]
    ee, oo = _poly_mul(h[0::2], h[0::2]), [0] + _poly_mul(h[1::2], h[1::2])
    return [(-1) ** g * (a - b) for a, b in zip_longest(ee, oo, fillvalue=0)]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod(a, b):
    """Quotient and remainder of ascending coefficient lists, b's last entry
    nonzero; both come back without trailing zeros."""
    rem, quo = [Q(x) for x in a], [Q(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        f = rem[-1] / b[-1]
        quo[len(rem) - len(b)] = f
        for i, x in enumerate(b[:-1]):
            rem[len(rem) - len(b) + i] -= f * x
        rem.pop()
        while rem and not rem[-1]:
            rem.pop()
    return quo, rem


def _sturm_chain(p):
    """p, p' and the negated remainders down to gcd(p, p'), which ends it."""
    chain = [p, [k * x for k, x in enumerate(p)][1:]]
    while True:
        rem = _poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            return chain
        chain.append([-x for x in rem])


def _real_roots(p, lo, hi):
    """(distinct roots of p in [lo, hi], distinct complex roots of p), for a
    nonconstant ascending coefficient list p.

    Sturm's theorem on the squarefree part s = p / gcd(p, p'): the sign
    changes of s's chain at lo, less those at hi, count its roots in
    (lo, hi], zeros skipped.
    """
    s = _poly_divmod(p, _sturm_chain(p)[-1])[0]
    chain = _sturm_chain(s)

    def value(f, x):
        return sum(c * x ** k for k, c in enumerate(f))

    def changes(x):
        signs = [v > 0 for v in (value(f, x) for f in chain) if v]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    return changes(lo) - changes(hi) + (value(s, lo) == 0), len(s) - 1


@dataclass(frozen=True)
class ZetaData:
    """Frobenius data of one curve: q0 and c_1..c_g of its L-polynomial."""

    genus: int
    q0: int
    lpoly: tuple

    @classmethod
    def from_lpoly(cls, q0, coeffs):
        """Curve over F_q0 whose L-polynomial begins 1 + c_1 t + ... + c_g t^g.

        ValueError when q0 is not a prime power or the coefficients fail
        one of the necessary conditions for a curve (module docstring).
        """
        if not is_prime_power(q0):
            raise ValueError("q0 must be a prime power, got %d" % q0)
        coeffs = tuple(map(operator.index, coeffs))  # integers only
        g = len(coeffs)
        for k, c in enumerate(coeffs, start=1):
            # c_k sums C(2g, k) products of k eigenvalues of modulus sqrt(q0)
            if c * c > math.comb(2 * g, k) ** 2 * q0 ** k:
                raise ValueError("c_%d = %d violates |c_k| <= C(2g, k) q0^(k/2) "
                                 "at genus %d, q0 = %d" % (k, c, g, q0))
        zd = cls(genus=g, q0=q0, lpoly=coeffs)
        if g:
            # beta_i = a_i + q0/a_i is real with beta_i^2 <= 4 q0 exactly
            # when |a_i| = sqrt(q0), and beta_i^2 is real and nonnegative
            # only for real beta_i
            inside, roots = _real_roots(_weil_squares(q0, coeffs), 0, 4 * q0)
            if inside < roots:
                raise ValueError("L-polynomial coefficients %s at q0 = %d are no "
                                 "curve's: some a_i + q0/a_i is not real in "
                                 "[-2 sqrt(q0), 2 sqrt(q0)]"
                                 % (list(coeffs), q0))
            counts = zd.point_counts(g)
            if counts[0] < 0 or min(counts) < counts[0]:
                raise ValueError("L-polynomial coefficients %s at q0 = %d are no "
                                 "curve's: point counts %s break "
                                 "0 <= N_1 <= N_m" % (list(coeffs), q0, counts))
        return zd

    @classmethod
    def from_trace(cls, q0, trace):
        """Genus-1 curve with #X(F_q0) = q0 + 1 - trace (the bound is Hasse's)."""
        return cls.from_lpoly(q0, (-trace,))

    def lpoly_coeffs(self):
        """c_0..c_2g, the upper half from the functional equation."""
        c = (1,) + self.lpoly
        return list(c) + [self.q0 ** (self.genus - k) * c[k]
                          for k in range(self.genus - 1, -1, -1)]

    def point_counts(self, nmax):
        """#X(F_{q0^n}) for n = 1..nmax."""
        c = self.lpoly_coeffs() + [0] * nmax
        s = [0]
        for m in range(1, nmax + 1):
            # Newton's identity for the power sums of L's reciprocal roots
            s.append(-m * c[m] - sum(c[k] * s[m - k] for k in range(1, m)))
        return [1 + self.q0 ** m - s[m] for m in range(1, nmax + 1)]


@dataclass(frozen=True)
class CountingSequence:
    """Values of one invariant over F_{q0^n} for n = 1..len(entries).

    Addition and multiplication are pointwise (disjoint union and product of
    the underlying counts); adams(m) reindexes n -> m n.
    """

    entries: tuple

    def __len__(self):
        return len(self.entries)

    def __add__(self, other):
        k = min(len(self), len(other))
        return CountingSequence(tuple(a + b for a, b in
                                      zip(self.entries[:k], other.entries[:k])))

    def __mul__(self, other):
        k = min(len(self), len(other))
        return CountingSequence(tuple(a * b for a, b in
                                      zip(self.entries[:k], other.entries[:k])))

    def adams(self, m):
        if m < 1:
            raise ValueError("adams index must be positive")
        return CountingSequence(tuple(self.entries[m * n - 1]
                                      for n in range(1, len(self) // m + 1)))


def counting_sequence(poly, zd, nmax):
    """Evaluate an invariant polynomial over F_{q0^n} for n = 1..nmax."""
    return CountingSequence(tuple(specialize_integer(poly.adams(n), zd)
                                  for n in range(1, nmax + 1)))


def specialize_integer(poly, zd):
    """Exact value of a curve invariant at a curve over F_q0; demands eigenvalue
    symmetry first.

    Only polynomials invariant under permuting the eigenvalue pairs and under
    a_i -> q a_i^{-1} define numbers independent of labeling choices, so
    anything else is rejected rather than silently evaluated.  poly is the
    whole polynomial, or its representatives over weil_table(g, "q"), which
    hold an invariant polynomial by construction.  Such a
    polynomial is one in q and G_k = (-1)^k C_k, k = 1..g, where C_k is the
    t^k coefficient of the symbolic L-polynomial: G_k is the k-th elementary
    symmetric function of a_1..a_g, q/a_1..q/a_g, its lex-leading a-part is
    a_1...a_k with coefficient 1, and G_k takes the value (-1)^k c_k.  The
    lex-leading a-part of a symmetric polynomial is a_1^l_1...a_g^l_g with
    l_1 >= ... >= l_g >= 0, a representative; subtracting its q-coefficient
    times prod_k G_k^(l_k - l_{k+1}) lowers it, and only finitely many such
    parts lie below it, so the reduction runs on representatives.
    """
    g, wt = zd.genus, weil_table(zd.genus, "q")
    if poly.table not in (wt, wt.full):
        raise ValueError("need a polynomial over the variables of a genus-%d "
                         "curve, got %r" % (g, poly.table))
    if poly.uses_var("t"):
        raise ValueError("invariant still involves t; specialize it first")
    if poly.table == wt.full:
        if not wt.is_invariant(poly):
            raise ValueError("polynomial is not symmetric in the eigenvalue pairs")
        poly = wt.restrict(poly)
    t1, q1 = wt.exps(t=1), wt.exps(q=1)
    L = wt.product(lambda u: zeta_factor(wt.full, t1, u))
    gens = [LaurentPoly(wt, {e - k * t1: (-1) ** k * c for e, c in L.terms.items()
                             if wt.digit(e, 1) == k})
            for k in range(1, g + 1)]
    vals = [(-1) ** k * c for k, c in enumerate(zd.lpoly, start=1)]
    value = 0
    while poly:
        apart = {e: e - wt.digit(e, 0) * q1 for e in poly.terms}
        lead = max(apart.values())
        coeff = LaurentPoly(wt, {e - lead: c for e, c in poly.terms.items()
                                 if apart[e] == lead})
        lam = wt.unpack(lead)[2:] + (0,)
        step, v = coeff, coeff.eval([zd.q0] + [1] * (g + 1))
        for k in range(g):
            step = step * gens[k] ** (lam[k] - lam[k + 1])
            v *= vals[k] ** (lam[k] - lam[k + 1])
        poly, value = poly - step, value + v
    if value.denominator != 1:
        raise ValueError("value %s is not an integer" % value)
    return value.numerator
