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

Every term of Z is invariant under the Weil group, generated by permuting
the a_i and by sigma_i: a_i -> qt/a_i.  Permutations only reorder the
product over i.  At u = 1/a_i, sigma_i sends the box factor
q^a - a_i^{-1} t^{l+1} to q^{-1} (q^{a+1} - a_i t^l) and the second one to
q (q^a - a_i^{-1} t^{l+1}), so it swaps the two binomials of N_la(1/a_i) up
to the factors q^{-1} and q, whose product is 1.  The group acts by monomial
maps fixing q and t, which commute with every Adams operation, so Log Z and
every IDT_r are invariant too.  Every denominator of the main pipeline is
free of the a_i, so the whole pipeline keeps one a-exponent slice per orbit
(see `weil`; at genus 0 that is the whole polynomial).  A term's numerator
is prod_i f(a_i) with f(u) = N_la(1/u), whose slice alpha is
prod_i [u^alpha_i] f(u): `zstar_orbit_term` builds the representative
slices alone.  `idt_orbits` returns the cleared representatives and
`idt_star` expands them; t = 1 maps them onto representatives of the orbits
of a_i -> q/a_i (`weil.WeilTable.at_t_one`), which is how `cli` renders
the t = 1 values.  `alt_idt` builds and clears on those orbits: a_i -> q/a_i
swaps the two factors of each (1 - a_i s)(1 - q s/a_i) in H, and fixes
IDT_r at t = 1.

Inside one `shared` block (`verify` runs its suites in one) each of these
is built once per key and then served: `zstar_orbit_term(cp, la)`, the
zeta-value term on the representatives of weil_table(g, "q") that
`substitution_identity_check` and `alt_idt` read, and `idt_orbits(cp, r)`,
a lower order being read off the longest table built and a higher one
rebuilding it.  The block's memo is emptied when it exits, also on an
exception, and outside a block nothing is kept: the cache is scoped to a
run, not to the process, because tests patch kernel internals and then
call these functions directly, and because a long-lived process would
otherwise keep every table it ever built.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

from .algebra import (AlgebraError, LaurentPoly, NotDivisibleError,
                      binomial_product, fraction_sum, over_binomials, var_table)
from .partitions import Partition, enumerate_partitions
from .series import TruncSeries, check_order, scaled_pleth_log
from .weil import weil_table


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


# -- run-scoped sharing (module docstring) ---------------------------------


@dataclass
class Shared:
    """The memo of one `shared` block and what it built and served."""

    terms: dict = field(default_factory=dict)    # (kind, cp, la) -> Fraction
    tables: dict = field(default_factory=dict)   # cp -> {r: IDT_r orbits}
    terms_built: int = 0
    terms_served: int = 0
    tables_built: int = 0
    tables_served: int = 0


_shared = None   # the open block's Shared, or None


@contextmanager
def shared():
    """Share series terms and IDT tables inside the block; yields its
    `Shared`, whose counts outlive the block and whose memo does not."""
    global _shared
    outer, memo = _shared, Shared()
    _shared = memo
    try:
        yield memo
    finally:
        _shared = outer
        memo.terms.clear()
        memo.tables.clear()


def _shared_term(key, build):
    """build(), or inside `shared` the term built for key before."""
    memo = _shared
    if memo is None:
        return build()
    term = memo.terms.get(key)
    if term is None:
        term = memo.terms[key] = build()
        memo.terms_built += 1
    else:
        memo.terms_served += 1
    return term


def _hook_pairs(table, lam, u_exps):
    """The 2|la| binomials of N_la(u, q, t) as pairs: each box contributes
    (q^a - u t^{l+1})(q^{a+1} - u^{-1} t^l), u = x^u_exps.  The monomials
    are multiples of the packed q and t; `binomial_product` and
    `canonical_binomial` range-check every pair."""
    q, t = table.unit_exps("q"), table.unit_exps("t")
    pairs = []
    for a, l in lam.arm_legs():
        pairs += [(a * q, (l + 1) * t + u_exps), ((a + 1) * q, l * t - u_exps)]
    return pairs


def n_lambda(table, lam, u_exps):
    """Hook product N_la(u, q, t), expanded from `_hook_pairs`.

    u_exps is the packed exponent of an invertible monomial standing for u.
    As a denominator, `zstar_term` hands the same pairs at u = 1 to
    `over_binomials`, so N_la(1, q, t) is never expanded.
    """
    return binomial_product(table, _hook_pairs(table, lam, u_exps))


def _zstar_term(cp, lam, table):
    """zstar_term over cp.table() or over its representatives on
    weil_table(g): the numerator is table.product of f(u) = N_la(1/u)."""
    full = cp.table()
    p = cp.p
    sign = -1 if (p * lam.weight) % 2 else 1
    num = table.product(lambda u: n_lambda(full, lam, -u))
    prefactor = table.exps(q=p * lam.conjugate().n_stat(), t=p * lam.n_stat())
    num = num.mono_mul(prefactor, sign)
    return over_binomials(num, _hook_pairs(table, lam, table.zero_exps()))


def zstar_term(cp, lam):
    """One partition's term of the main series (without T^|la|)."""
    return _zstar_term(cp, lam, cp.table())


def zstar_orbit_term(cp, lam):
    """zstar_term on the representatives of weil_table(g), built without
    the whole numerator (`weil.WeilTable.product`); shared inside `shared`."""
    return _shared_term(("zstar", cp, lam),
                        lambda: _zstar_term(cp, lam, weil_table(cp.genus)))


def partition_series(table, order, term):
    """Series over table to T^order whose coefficient r sums term(la) over
    |la| = r (`fraction_sum`, in the order of `enumerate_partitions`)."""
    s = TruncSeries.one(table, order)
    for r in range(1, order + 1):
        s.coeffs[r] = fraction_sum(map(term, enumerate_partitions(r)), table)
    return s


def zstar_series(cp, order):
    """Main series to T^order: coefficient r sums zstar_term over |la| = r."""
    return partition_series(cp.table(), order, lambda lam: zstar_term(cp, lam))


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


def idt_orbits(cp, order):
    """IDT_r on the representatives of weil_table(g): map r -> the
    representative terms of coefficient r of (q-1)(1-t) Log Z.

    Each series term is built on the representatives (`zstar_orbit_term`),
    and inside `shared` the table is built once per curve: the longest
    order built serves every lower one.  The series, its log and the
    cleared coefficients are kept by Weil orbit representatives
    (`weil.WeilTable`), exact by the module docstring.

    Raises IntegralityError when a coefficient fails to clear; that failure
    is meaningful (it falsifies the integrality property), never masked.
    A negative order is refused before the memo is read.
    """
    check_order(order)
    memo = _shared
    if memo is None:
        return _idt_orbits(cp, order)
    held = memo.tables.get(cp)
    if held is not None and len(held) >= order:
        memo.tables_served += 1
    else:
        held = memo.tables[cp] = _idt_orbits(cp, order)
        memo.tables_built += 1
    return {r: held[r] for r in range(1, order + 1)}


def _idt_orbits(cp, order, series=None):
    """idt_orbits, built, or cleared from the series given to `idt_star`."""
    table = weil_table(cp.genus)
    if series is None:
        Z = partition_series(table, order, lambda lam: zstar_orbit_term(cp, lam))
    else:
        check_order(order)
        if series.order < order or not all(table.is_invariant(c.num) for c in series.coeffs):
            raise ValueError("series= must be the main series of %r to T^%d: it is "
                             "shorter or not Weil-invariant" % (cp, order))
        Z = TruncSeries(table, series.order,
                        [table.restrict_fraction(c) for c in series.coeffs])
    one = table.one()
    clearer = (table.var("q") - one) * (one - table.var("t"))
    return _clear_log(Z, order, clearer, "idt")


def idt_star(cp, order, series=None):
    """Integer DT polynomials: map r -> coefficient r of (q-1)(1-t) Log Z,
    every monomial of `idt_orbits` (same refusals).  series, if given, must
    be the main series of cp (`zstar_series`) to at least T^order; a shorter
    or not Weil-invariant one is refused, and its terms are restricted."""
    table = weil_table(cp.genus)
    reps = idt_orbits(cp, order) if series is None else _idt_orbits(cp, order, series)
    return {r: table.expand(p) for r, p in reps.items()}


def rank_one_idt(cp):
    """Closed form of the r = 1 coefficient:
    (-1)^p prod_i (1 - a_i^{-1} t)(q - a_i)."""
    table = cp.table()
    t, q = table.exps(t=1), table.exps(q=1)
    out = table.product(lambda u: binomial_product(table, [(0, t - u), (q, u)]))
    return -out if cp.p % 2 else out


def zeta_factor(table, m, u):
    """(1 - x^m u)(1 - x^m q / u), m and u packed: one eigenvalue pair's
    factor of the curve's zeta numerator at s = x^m."""
    return binomial_product(table, [(0, m + u), (0, m + table.exps(q=1) - u)])


def zeta_numerator(table, m):
    """prod_i (1 - x^m a_i)(1 - x^m q a_i^{-1}): the numerator of the curve's
    zeta function Z_X(s) at s = x^m (m packed)."""
    return table.product(lambda u: zeta_factor(table, m, u))


def jacobian_poly(table):
    """prod_i (1 - a_i)(1 - q a_i^{-1}): the Jacobian point-count polynomial."""
    return zeta_numerator(table, table.zero_exps())


@dataclass(frozen=True)
class HalfPowerValue:
    """q^{half/2} * body, keeping half-integral q powers symbolic.  Its sign
    is always 1 (`omega`'s values), a constant the json output reports."""

    sign = 1
    half: int
    body: LaurentPoly

    def __repr__(self):
        return "q^(%d/2) * (%r)" % (self.half, self.body)


def _check_rank(r):
    if r < 1:
        raise ValueError("rank must be at least 1, got %d" % r)


def _at_t_one(poly):
    """IDT_r at t = 1, from IDT_r whole, from its representatives over
    weil_table(g) (`weil.WeilTable.at_t_one`, which gives those over
    weil_table(g, "q")), or from either form of its value at t = 1."""
    table = poly.table
    if table == weil_table(table.genus):
        return table.at_t_one(poly)
    return poly.set_var_one("t")


def omega(cp, r, idt_poly=None):
    """Rank-r invariant as a half-power value over IDT_r(q, 1).

    Twisted mode: q^{pr/2} * IDT_r(q, 1); canonical mode: q * IDT_r(q, 1).
    The value is independent of the degree d.  idt_poly may be IDT_r or
    already its value at t = 1, whole or on Weil representatives (as
    `idt_orbits` and `weil.WeilTable.at_t_one` give them); the body is then
    the representatives of IDT_r(q, 1) over weil_table(g, "q").  A rank
    below 1 is refused.
    """
    _check_rank(r)
    if idt_poly is None:
        idt_poly = idt_star(cp, r)[r]
    half = cp.p * r if cp.mode == "twisted" else 2
    return HalfPowerValue(half, _at_t_one(idt_poly))


def moduli_volume(cp, r, d, idt_poly=None):
    """Volume polynomial of the smooth coprime moduli space:
    (-1)^{pr} q^{(g-1)r^2 + p r(r+1)/2} * IDT_r(q, 1).

    idt_poly may be IDT_r or already its value at t = 1, whole or on Weil
    representatives, as in `omega`; t = 1 and the q-power shift act slice
    by slice, so the volume is then on the representatives over
    weil_table(g, "q").  A rank below 1 is refused.
    """
    _check_rank(r)
    if cp.mode != "twisted":
        raise ValueError("volume formula applies in twisted mode")
    if math.gcd(r, d) != 1:
        raise ValueError("rank and degree must be coprime, got (%d, %d)" % (r, d))
    if idt_poly is None:
        idt_poly = idt_star(cp, r)[r]
    g, p = cp.genus, cp.p
    e = (g - 1) * r * r + p * (r * (r + 1) // 2)
    sign = -1 if (p * r) % 2 else 1
    body = _at_t_one(idt_poly)
    return body.mono_mul(body.table.exps(q=e), sign)


# -- alternative formulation ------------------------------------------------


def _alt_h_term(cp, lam, table):
    """alt_h_term over cp.table() or over its representatives on
    weil_table(g, "q"): the numerator is table.product of
    f(u) = prod_s (1 - u t^h q^a)(1 - q t^h q^a / u)."""
    full = cp.table()
    p, g = cp.p, cp.genus
    w = lam.weight
    sign = -1 if (p * w) % 2 else 1
    qexp = p * lam.conjugate().n_stat()
    texp = (p * (lam.conjugate().n_stat() - lam.n_stat())
            + (1 - g) * (2 * lam.n_stat() + w))
    hooks = [table.exps(q=a, t=a + l + 1) for a, l in lam.arm_legs()]  # t^h q^a
    num = table.product(lambda u: math.prod((zeta_factor(full, m, u) for m in hooks),
                                            start=full.one()))
    num = num.mono_mul(table.exps(q=qexp, t=texp), sign)
    return over_binomials(num, [(table.zero_exps(), m + d) for m in hooks
                                for d in (table.zero_exps(), table.exps(q=1))])


def alt_h_term(cp, lam):
    """One partition's term of the zeta-value form of the series.

    prod_s (-t^{a-l} q^a)^p * t^{(1-g)(2l+1)} * Z_X(t^h q^a), with
    Z_X(s) = prod_i (1 - a_i s)(1 - a_i^{-1} q s) / ((1 - s)(1 - q s)).
    """
    return _alt_h_term(cp, lam, cp.table())


def _alt_orbit_term(cp, lam):
    """_alt_h_term on the representatives of weil_table(g, "q"), shared
    inside `shared`."""
    return _shared_term(("alt", cp, lam),
                        lambda: _alt_h_term(cp, lam, weil_table(cp.genus, "q")))


def alt_idt(cp, order):
    """Coefficients of (1 - t)(1 - qt) Log H, built and cleared on orbits of
    a_i -> q/a_i."""
    table = weil_table(cp.genus, "q")
    H = partition_series(table, order, lambda lam: _alt_orbit_term(cp, lam))
    one = table.one()
    clearer = (one - table.monomial(table.exps(q=1, t=1))) * (one - table.var("t"))
    return {r: table.expand(p)
            for r, p in _clear_log(H, order, clearer, "alt-idt").items()}


def substitution_identity_check(cp, max_weight):
    """Termwise check that H under sigma: q -> qt, t -> t^{-1} recovers the
    main term, on Weil orbit representatives.

    Returns a list of (partition, bool).  The zeta-value term is built on
    the representatives of weil_table(g, "q") and sent through sigma
    (`weil.WeilTable.sigma`), which sends q^A t^B to q^A t^{A-B}, keeps
    every a-exponent and so lands on the representatives of
    `zstar_orbit_term`.
    """
    wq = weil_table(cp.genus, "q")
    return [(lam, wq.sigma(_alt_orbit_term(cp, lam)) == zstar_orbit_term(cp, lam))
            for w in range(max_weight + 1) for lam in enumerate_partitions(w)]
