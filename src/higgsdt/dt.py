"""Partition-indexed hook-product series and the invariants extracted from it.

For a curve of genus g with a twisting line bundle of degree ell (write
p = ell - 2g + 2 > 0, or p = 0 in canonical mode), the engine builds

    Z(T) = sum_lambda [(-1)^|la| q^{n(la')} t^{n(la)}]^p
           * prod_{i=1..g} N_la(a_i^{-1}, q, t) / N_la(1, q, t) * T^|la|

with the hook product

    N_la(u, q, t) = prod_{s in la} (q^{arm} - u t^{leg+1}) (q^{arm+1} - u^{-1} t^{leg}),

takes (q - 1)(1 - t) * Log Z, and clears every T^r coefficient to an honest
polynomial with integer coefficients.  Those polynomials at t = 1 give the
rank-r invariants; a half-integral power of q relating them to stack volumes
is carried symbolically by HalfPowerValue.

The alternative form H(T) replaces the genus factor by zeta values at hook
monomials and is related to Z by the substitution q -> qt, t -> t^{-1}.
"""

import math
from dataclasses import dataclass

from .algebra import (AlgebraError, Fraction, LaurentPoly, NotDivisibleError,
                      binomial_product, over_binomials, var_table)
from .partitions import Partition, enumerate_partitions
from .series import TruncSeries, scaled_pleth_log


class IntegralityError(AlgebraError):
    """A series coefficient failed to clear to an integer polynomial."""


@dataclass(frozen=True)
class CurveParams:
    """Genus and twist degree; mode selects twisted (p > 0) or canonical (p = 0)."""

    genus: int
    ell: int
    mode: str = "twisted"

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if self.mode == "twisted":
            if self.p <= 0:
                raise ValueError("twisted mode needs ell > 2g - 2 (got p = %d)" % self.p)
        elif self.mode == "canonical":
            if self.genus < 1:
                raise ValueError("canonical mode needs genus >= 1")
            if self.ell != 2 * self.genus - 2:
                raise ValueError("canonical mode needs ell = 2g - 2")
        else:
            raise ValueError("mode must be 'twisted' or 'canonical'")

    @property
    def p(self):
        return self.ell - 2 * self.genus + 2

    def table(self):
        return var_table(genus=self.genus)


def _hook_pairs(table, lam, u_exps):
    """The 2|la| binomials of N_la(u, q, t) as pairs: each box contributes
    (q^a - u t^{l+1})(q^{a+1} - u^{-1} t^l), u = x^u_exps."""
    pairs = []
    for a, l in lam.arm_legs():
        pairs += [(table.exps(q=a), table.exps(t=l + 1) + u_exps),
                  (table.exps(q=a + 1), table.exps(t=l) - u_exps)]
    return pairs


def n_lambda(table, lam, u_exps=None):
    """Hook product N_la(u, q, t), expanded from `_hook_pairs`.

    u_exps is the packed exponent of an invertible monomial standing for u
    (None means u = 1).  As a denominator, `zstar_term` hands the same pairs
    at u = 1 to `over_binomials`, so N_la(1, q, t) is never expanded.
    """
    if u_exps is None:
        u_exps = table.zero_exps()
    return binomial_product(table, _hook_pairs(table, lam, u_exps))


def zstar_term(cp, lam):
    """One partition's term of the main series (without T^|la|)."""
    table = cp.table()
    p = cp.p
    w = lam.weight
    nl = lam.n_stat()
    nlc = lam.conjugate().n_stat()
    sign = -1 if (p * w) % 2 else 1
    num = table.monomial(table.exps(q=p * nlc, t=p * nl), sign)
    for i in range(1, cp.genus + 1):
        num = num * n_lambda(table, lam, table.exps(**{"a%d" % i: -1}))
    return over_binomials(num, _hook_pairs(table, lam, table.zero_exps()))


def partition_series(cp, order, term):
    """Series to T^order whose coefficient r sums term(cp, la) over |la| = r."""
    table = cp.table()
    s = TruncSeries.one(table, order)
    for r in range(1, order + 1):
        acc = Fraction.zero(table)
        for lam in enumerate_partitions(r):
            acc = acc + term(cp, lam)
        s.coeffs[r] = acc
    return s


def zstar_series(cp, order):
    """Main series to T^order: coefficient r sums zstar_term over |la| = r."""
    return partition_series(cp, order, zstar_term)


def _clear_log(series, order, clearer, what):
    """Coefficients r = 1..order of clearer * Log(series) as integer polynomials.

    Clears clearer * r * Log_r (integer numerators) and then divides every
    coefficient by r; a nonzero remainder is exactly a non-integer
    coefficient of clearer * Log_r.
    """
    R = scaled_pleth_log(series)
    out = {}
    for r in range(1, order + 1):
        try:
            poly = R.coeffs[r].mul_poly(clearer).clear_denominator()
        except NotDivisibleError as e:
            raise IntegralityError("%s coefficient r=%d is not polynomial: %s"
                                   % (what, r, e)) from e
        try:
            out[r] = poly.divide_coefficients(r)
        except NotDivisibleError as e:
            raise IntegralityError("%s coefficient r=%d has non-integer "
                                   "coefficients: %s" % (what, r, e)) from e
    return out


def idt_star(cp, order, series=None):
    """Integer DT polynomials: map r -> coefficient r of (q-1)(1-t) Log Z.

    Raises IntegralityError when a coefficient fails to clear; that failure
    is meaningful (it falsifies the integrality property), never masked.
    """
    Z = series if series is not None else zstar_series(cp, order)
    table = cp.table()
    one = table.one()
    clearer = (table.var("q") - one) * (one - table.var("t"))
    return _clear_log(Z, order, clearer, "idt")


def rank_one_idt(cp):
    """Closed form of the r = 1 coefficient:
    (-1)^p prod_i (1 - a_i^{-1} t)(q - a_i)."""
    table = cp.table()
    pairs = []
    for i in range(1, cp.genus + 1):
        ai = "a%d" % i
        pairs += [(table.zero_exps(), table.exps(t=1, **{ai: -1})),
                  (table.exps(q=1), table.exps(**{ai: 1}))]
    out = binomial_product(table, pairs)
    return -out if cp.p % 2 else out


def zeta_numerator(table, m):
    """prod_i (1 - x^m a_i)(1 - x^m q a_i^{-1}): the numerator of the curve's
    zeta function Z_X(s) at s = x^m (m packed)."""
    pairs = []
    for i in range(1, table.genus + 1):
        ai = "a%d" % i
        pairs += [(table.zero_exps(), m + table.exps(**{ai: 1})),
                  (table.zero_exps(), m + table.exps(q=1, **{ai: -1}))]
    return binomial_product(table, pairs)


def jacobian_poly(table):
    """prod_i (1 - a_i)(1 - q a_i^{-1}): the Jacobian point-count polynomial."""
    return zeta_numerator(table, table.zero_exps())


@dataclass(frozen=True)
class HalfPowerValue:
    """sign * q^{half/2} * body, keeping half-integral q powers symbolic."""

    sign: int
    half: int
    body: LaurentPoly

    def __repr__(self):
        return "%sq^(%d/2) * (%r)" % ("-" if self.sign < 0 else "", self.half, self.body)


def omega(cp, r, idt_poly=None):
    """Rank-r invariant as a half-power value over IDT_r(q, 1).

    Twisted mode: q^{pr/2} * IDT_r(q, 1); canonical mode: q * IDT_r(q, 1).
    The value is independent of the degree d.  idt_poly may be IDT_r or
    already its value at t = 1.
    """
    if idt_poly is None:
        idt_poly = idt_star(cp, r)[r]
    body = idt_poly.set_var_one("t")
    half = cp.p * r if cp.mode == "twisted" else 2
    return HalfPowerValue(1, half, body)


def moduli_volume(cp, r, d, idt_poly=None):
    """Volume polynomial of the smooth coprime moduli space:
    (-1)^{pr} q^{(g-1)r^2 + p r(r+1)/2} * IDT_r(q, 1).

    idt_poly may be IDT_r or already its value at t = 1.
    """
    if cp.mode != "twisted":
        raise ValueError("volume formula applies in twisted mode")
    if math.gcd(r, d) != 1:
        raise ValueError("rank and degree must be coprime, got (%d, %d)" % (r, d))
    if idt_poly is None:
        idt_poly = idt_star(cp, r)[r]
    g, p = cp.genus, cp.p
    e = (g - 1) * r * r + p * (r * (r + 1) // 2)
    sign = -1 if (p * r) % 2 else 1
    body = idt_poly.set_var_one("t")
    return body.mono_mul(body.table.exps(q=e), sign)


# -- alternative formulation ------------------------------------------------


def alt_h_term(cp, lam):
    """One partition's term of the zeta-value form of the series.

    prod_s (-t^{a-l} q^a)^p * t^{(1-g)(2l+1)} * Z_X(t^h q^a), with
    Z_X(s) = prod_i (1 - a_i s)(1 - a_i^{-1} q s) / ((1 - s)(1 - q s)).
    """
    table = cp.table()
    p, g = cp.p, cp.genus
    w = lam.weight
    sign = -1 if (p * w) % 2 else 1
    qexp = p * lam.conjugate().n_stat()
    texp = (p * (lam.conjugate().n_stat() - lam.n_stat())
            + (1 - g) * (2 * lam.n_stat() + w))
    num = table.monomial(table.exps(q=qexp, t=texp), sign)
    den = []
    for a, l in lam.arm_legs():
        m = table.exps(q=a, t=a + l + 1)  # t^h q^a, h the hook length
        num = num * zeta_numerator(table, m)
        den += [(table.zero_exps(), m), (table.zero_exps(), m + table.exps(q=1))]
    return over_binomials(num, den)


def alt_h_series(cp, order):
    """Zeta-value series to T^order: coefficient r sums alt_h_term over |la| = r."""
    return partition_series(cp, order, alt_h_term)


def alt_idt(cp, order, series=None):
    """Coefficients of (1 - t)(1 - qt) Log H, cleared; integer Laurent in t."""
    H = series if series is not None else alt_h_series(cp, order)
    table = cp.table()
    one = table.one()
    clearer = (one - table.monomial(table.exps(q=1, t=1))) * (one - table.var("t"))
    return _clear_log(H, order, clearer, "alt-idt")


def substitution_identity_check(cp, max_weight):
    """Termwise check that H under q -> qt, t -> t^{-1} recovers the main term.

    Returns a list of (partition, bool); the monomial substitution sends
    q^A t^B to q^A t^{A-B}.
    """
    table = cp.table()
    images = {table.index["q"]: table.exps(q=1, t=1),
              table.index["t"]: table.exps(t=-1)}
    out = []
    for w in range(max_weight + 1):
        for lam in enumerate_partitions(w):
            lhs = alt_h_term(cp, lam).substitute_monomials(images)
            rhs = zstar_term(cp, lam)
            out.append((lam, lhs == rhs))
    return out


def weil_symmetry_check(poly):
    """Invariance under a_i <-> a_j and under a_i -> q a_i^{-1}."""
    table = poly.table
    g = table.genus
    for i in range(1, g + 1):
        for j in range(i + 1, g + 1):
            images = {table.index["a%d" % i]: table.unit_exps("a%d" % j),
                      table.index["a%d" % j]: table.unit_exps("a%d" % i)}
            if poly.substitute_monomials(images) != poly:
                return False
    for i in range(1, g + 1):
        images = {table.index["a%d" % i]: table.exps(q=1, **{"a%d" % i: -1})}
        if poly.substitute_monomials(images) != poly:
            return False
    return True
