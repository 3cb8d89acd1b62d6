"""Positive (nilpotent-cone side) series and the stabilization comparison.

The extra ingredient over the main series is a symmetrized rational function
f in auxiliary variables z_1..z_n:

    f(z; q, a) = prod_i prod_k (1 - a_k^{-1}) / (1 - a_k^{-1} z_i)
        * sum_{sigma in S_n} sigma( prod_{i>j} [ (1 - z_i/z_j)^{-1}
              * prod_k (1 - a_k^{-1} z_i/z_j) / (1 - q a_k^{-1} z_i/z_j) ]
          * prod_{i>j+1} (1 - q z_i/z_j) * prod_{i>=2} (1 - z_i) )

evaluated at z_i = q^{i-n} t^{lambda_i}.  Each sigma-term is specialized
before summation, so only distinct-monomial denominators ever appear.  The
prefactor and each sigma-term list their numerator and denominator
binomials as pairs, expanded by `binomial_product` and divided by
`over_binomials` into one Fraction; like every Fraction it is reduced,
which lets the sum skip the factors coprimality rules out.  The n!
sigma-terms are added pairwise in a tree (`fraction_sum`), in the order of
`itertools.permutations`, and the sum is multiplied by the prefactor once.
`_f_terms` is the one builder of the prefactor and the sigma-terms, and
f_sum is the prefactor times the sum of the terms: the series, the formal
f and the other property checks call f_sum.  The check at vanishing
a_k^{-1}, with the inverse eigenvalues deformed to t a_k^{-1}, reads the
prefactor and each sigma-term at t = 0 before it adds them, and never
forms the sigma-sum or f: each is a power series in t, and t = 0 is
additive and multiplicative on power series.  MAX_SN caps n, since the
sum has n! terms.

The degree-d slices of (q - 1) Log of the resulting T-series stabilize, for
d large, to the d-independent invariant of the main pipeline; `t_expand`
reads the slices off and refuses a negative t-degree that survives.
"""

from dataclasses import dataclass
from itertools import permutations

from .algebra import (Fraction, NotDivisibleError, ZeroDenominatorError,
                      binomial_product, fraction_sum, over_binomials, t_expand,
                      var_table)
from .series import pleth_log
from .dt import _check_rank, idt_star, partition_series, zstar_term

MAX_SN = 4  # n! symmetrization terms; raise deliberately, not by accident


def _f_terms(table, values, ainv=None):
    """(prefactor, sigma-terms) of the symmetrized sum with w_i = x^values[i]
    (monomials, pairwise distinct): the terms are an iterator of n!
    Fractions, in the order of `itertools.permutations`.

    ainv holds the packed inverse eigenvalues, a_k^{-1} for k = 1..genus of
    the table unless given (alpha_zero_check deforms them to t a_k^{-1}).
    """
    n = len(values)
    if n > MAX_SN:
        raise ValueError("n = %d exceeds the S_n cap %d" % (n, MAX_SN))
    values = list(values)
    if len(set(values)) != n:
        raise ZeroDenominatorError("specialized z-values must be pairwise distinct")
    zero = table.zero_exps()
    qe = table.exps(q=1)
    if ainv is None:
        ainv = [table.exps(**{"a%d" % k: -1}) for k in range(1, table.genus + 1)]

    # prefactor prod_i prod_k (1 - a_k^{-1}) / (1 - a_k^{-1} w_i)
    pref = over_binomials(
        binomial_product(table, [(zero, ak) for w in values for ak in ainv]),
        [(zero, ak + w) for w in values for ak in ainv])

    def term(sigma):
        w = [values[s] for s in sigma]
        num, den = [], []
        for i in range(n):
            for j in range(i):
                ratio = w[i] - w[j]
                den.append((zero, ratio))
                for ak in ainv:
                    num.append((zero, ak + ratio))
                    den.append((zero, qe + ak + ratio))
                if i > j + 1:
                    num.append((zero, qe + ratio))
        num += [(zero, w[i]) for i in range(1, n)]
        return over_binomials(binomial_product(table, num), den)

    return pref, map(term, permutations(range(n)))


def f_sum(table, values, ainv=None):
    """The symmetrized sum with w_i = x^values[i] (monomials, pairwise
    distinct): the prefactor of `_f_terms` (same arguments) times the
    `fraction_sum` of its sigma-terms."""
    pref, terms = _f_terms(table, values, ainv)
    return pref * fraction_sum(terms, table)


def f_symbolic(n, genus):
    """f with formal z_1..z_n; returns (table, Fraction)."""
    table = var_table(genus=genus, nz=n)
    values = [table.unit_exps("z%d" % i) for i in range(1, n + 1)]
    return table, f_sum(table, values)


def f_lambda(cp, lam, n=None):
    """f specialized at z_i = q^{i-n} t^{lambda_i} (parts padded with zeros).

    Independent of the choice of n >= len(lam).
    """
    table = cp.table()
    if n is None:
        n = lam.length
    if n < lam.length:
        raise ValueError("n must be at least the number of parts")
    parts = lam.parts + (0,) * (n - lam.length)
    values = [table.exps(q=i - n, t=parts[i - 1]) for i in range(1, n + 1)]
    return f_sum(table, values)


def inductive_property_check(n, genus):
    """f(1, z_1..z_n) == f(q z_1, ..., q z_n), checked symbolically.

    The left side has n + 1 arguments, so n is at most MAX_SN - 1.
    """
    table = var_table(genus=genus, nz=n)
    zs = [table.unit_exps("z%d" % i) for i in range(1, n + 1)]
    lhs = f_sum(table, [table.zero_exps()] + zs)
    qe = table.exps(q=1)
    rhs = f_sum(table, [qe + z for z in zs])
    return lhs == rhs


def laurent_property_check(n, genus):
    """f times prod_k [prod_i (1 - a_k^{-1} z_i) prod_{i != j} (1 - q a_k^{-1} z_i/z_j)]
    clears to a Laurent polynomial (all difference denominators cancel).

    f takes the bracket of one k at a time, so that its factors cancel
    before the next bracket multiplies in and the numerator stays small.
    """
    table, f = f_symbolic(n, genus)
    zero = table.zero_exps()
    qe = table.exps(q=1)
    zs = [table.unit_exps("z%d" % i) for i in range(1, n + 1)]
    for k in range(1, genus + 1):
        ak = table.exps(**{"a%d" % k: -1})
        pairs = []
        for i in range(n):
            pairs.append((zero, ak + zs[i]))
            pairs += [(zero, qe + ak + zs[i] - zs[j]) for j in range(n) if i != j]
        f = f.mul_poly(binomial_product(table, pairs))
    try:
        f.clear_denominator()
        return True
    except NotDivisibleError:
        return False


def alpha_zero_check(n, genus):
    """f equals 1 when every a_k^{-1} is set to 0.

    Implemented honestly by deforming a_k^{-1} to t a_k^{-1} (t is free in
    the z-table) and reading f at t = 0, factor by factor and term by term:
    f = P * S with P the prefactor and S the sum of the sigma-terms
    (`_f_terms`), and the check is P(0) * sum_sigma term(0) == 1, where X(0)
    is the t^0 coefficient `t_expand(X, 0)[0]`.  That is f(0) == 1, without
    forming f or S:

    * every t-factor of P or of a sigma-term, 1 - t a_k^{-1} w_i or
      1 - q t a_k^{-1} w_i/w_j, is a unit of the power series ring in t, and
      the other factors are t-free, so P and each sigma-term are power
      series in t (`t_expand` refuses exactly the fractions with a pole at
      t = 0, and the check is then False), with P(0) = 1;
    * on power series, t = 0 is a ring map, so S(0) is the sum of the
      term(0) and f(0) = P(0) * S(0).

    So the n! terms are summed after truncation, with the t-free
    denominators of term(0) alone, where the sum of the whole terms carries
    every t-factor of each.
    """
    table = var_table(genus=genus, nz=n)
    te = table.exps(t=1)
    values = [table.unit_exps("z%d" % i) for i in range(1, n + 1)]
    ainv = [te + table.exps(**{"a%d" % k: -1}) for k in range(1, genus + 1)]
    pref, terms = _f_terms(table, values, ainv)
    try:
        total = fraction_sum((t_expand(s, 0)[0] for s in terms), table)
        return t_expand(pref, 0)[0] * total == Fraction.one(table)
    except NotDivisibleError:
        return False


def zplus_series(cp, order):
    """Positive series: the main term times f_{lambda'} per partition."""
    if cp.mode != "twisted":
        raise ValueError("positive series is defined in twisted mode")

    def term(lam):
        return zstar_term(cp, lam) * f_lambda(cp, lam.conjugate())

    return partition_series(cp.table(), order, term)


def omega_plus(cp, order, depth):
    """Degree table of the positive invariants: {r: [c_0, ..., c_depth]} for
    r = 1..order, where c_d is the t^d coefficient of (q - 1) Log_r, a
    Fraction in q and the Weil variables.

    Entries carry the normalization q^{-p r/2}: the honest degree-d invariant
    is q^{p r / 2} times the entry.  (q - 1) Log_r reads the series only up
    to T^r, so a table of any order >= r has the same rank-r list.
    NotDivisibleError means a negative power of t survives in some
    (q - 1) Log_r.  ValueError refuses an order below 1 or a negative depth
    before anything is built.
    """
    _check_rank(order)
    if depth < 0:
        raise ValueError("depth must be nonnegative, got %d" % depth)
    L = pleth_log(zplus_series(cp, order))
    table = cp.table()
    qminus1 = table.monomial(table.exps(q=1)) - table.one()
    return {r: t_expand(L.coeffs[r].mul_poly(qminus1), depth)
            for r in range(1, order + 1)}


@dataclass
class StabilizationReport:
    r: int
    depth: int
    stable_from: int   # least degree from which all later entries coincide
    matches: bool      # the stable value equals q^{-pr/2} * Omega_r
    target: object

    def ok(self):
        return self.stable_from >= 0 and self.matches


def stabilization_check(cp, order, depth=8):
    """One report per rank r = 1..order, from one `omega_plus(cp, order,
    depth)` and one `idt_star(cp, order)`: locate the degree from which the
    rank-r entries become constant and compare the constant with the main
    invariant at t = 1.  ValueError refuses an order below 1 or a negative
    depth before anything is built."""
    tab = omega_plus(cp, order, depth)
    main = idt_star(cp, order)
    reports = []
    for r, entries in tab.items():
        target = Fraction(main[r].set_var_one("t"))
        stable_from = depth
        while stable_from > 0 and entries[stable_from - 1] == entries[depth]:
            stable_from -= 1
        if stable_from == depth:   # one trailing value is no evidence of stability
            stable_from = -1
        matches = stable_from >= 0 and entries[depth] == target
        reports.append(StabilizationReport(r, depth, stable_from, matches, target))
    return reports
