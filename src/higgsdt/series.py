"""Truncated power series in one external variable T over the fraction field.

The coefficient ring is the localized Laurent ring of `algebra`; T itself is
not a table variable.  Adams operations act on T-degree and on every table
variable at once, which is exactly the lambda-ring structure the plethystic
exponential and logarithm are defined against.  Both run one pair of integer
recurrences (`scaled_pleth_log`, backwards in `pleth_exp`) and divide by r
once per coefficient (`Fraction.divide`), so int numerators stay ints.
"""

from .algebra import Fraction, TableMismatchError, fraction_sum


def mobius(n):
    """Moebius function by trial factorization; n stays tiny here."""
    if n < 1:
        raise ValueError("n must be positive")
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def check_order(order):
    """Refuse a negative truncation order."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative, got %d" % order)


class TruncSeries:
    """Series sum_{d=0}^{order} c_d T^d with Fraction coefficients."""

    __slots__ = ("table", "order", "coeffs")

    def __init__(self, table, order, coeffs=None):
        check_order(order)
        self.table = table
        self.order = order
        if coeffs is None:
            coeffs = [Fraction.zero(table) for _ in range(order + 1)]
        if len(coeffs) != order + 1:
            raise ValueError("expected %d coefficients" % (order + 1))
        self.coeffs = coeffs

    @classmethod
    def one(cls, table, order):
        s = cls(table, order)
        s.coeffs[0] = Fraction.one(table)
        return s

    @classmethod
    def from_terms(cls, table, order, terms):
        """Series with the given degree -> coefficient entries, rest zero."""
        s = cls(table, order)
        for d, c in terms.items():
            s.coeffs[s._degree(d)] = c
        return s

    def coefficient(self, d):
        return self.coeffs[self._degree(d)]

    def _degree(self, d):
        if not 0 <= d <= self.order:
            raise ValueError("degree %d outside 0..%d, the truncation order"
                             % (d, self.order))
        return d

    def _check(self, other):
        if self.table != other.table or self.order != other.order:
            raise TableMismatchError("series mismatch (table or truncation order)")

    def __add__(self, other):
        self._check(other)
        return TruncSeries(self.table, self.order,
                           [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        return TruncSeries(self.table, self.order, [
            fraction_sum([a[i] * b[m - i] for i in range(m + 1)
                          if not a[i].is_zero() and not b[m - i].is_zero()], self.table)
            for m in range(self.order + 1)])

    def adams(self, n):
        """psi_n: T -> T^n and every table variable exponent scaled by n >= 1."""
        if n < 1:
            raise ValueError("Adams operations need n >= 1, got %d" % n)
        out = [Fraction.zero(self.table) for _ in range(self.order + 1)]
        for d, c in enumerate(self.coeffs):
            if n * d > self.order:
                break
            if not c.is_zero():
                out[n * d] = c.adams(n)
        return TruncSeries(self.table, self.order, out)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.table == other.table and self.order == other.order
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    __hash__ = None

    def __repr__(self):
        return "TruncSeries(order=%d, %s)" % (
            self.order, "; ".join("T^%d: %r" % (d, c) for d, c in enumerate(self.coeffs)))


def _adams_sum(coeffs, table, weight):
    """Coefficients of sum_n weight(n) * psi_n(A), A = sum_d coeffs[d] T^d,
    for an int weight with weight(1) = 1 (mu for Log, 1 for Exp): entry r
    adds coeffs[r] and weight(n) * psi_n(coeffs[r/n]) over the divisors
    n >= 2 of r with weight(n) != 0."""
    return [fraction_sum([c] + [coeffs[r // n].adams(n).scale(w)
                                for n in range(2, r + 1)
                                if r % n == 0 and (w := weight(n))], table)
            for r, c in enumerate(coeffs)]


def pleth_exp(series):
    """Plethystic exponential Exp[A] = exp(sum_n psi_n(A)/n), for A_0 = 0:
    with R_r = r * A_r, M = sum_n psi_n(R) is r times log B, B = Exp[A],
    and r * B_r = sum_{k=1}^r M_k * B_{r-k} (scaled_pleth_log backwards)."""
    if not series.coeffs[0].is_zero():
        raise ValueError("pleth_exp needs a zero constant term")
    R, table = series.order, series.table
    M = _adams_sum([c.scale(r) for r, c in enumerate(series.coeffs)], table, lambda n: 1)
    B = [Fraction.one(table)]
    for r in range(1, R + 1):
        B.append(fraction_sum([M[k] * B[r - k] for k in range(1, r + 1)
                               if not M[k].is_zero() and not B[r - k].is_zero()],
                              table).divide(r))
    return TruncSeries(table, R, B)


def scaled_pleth_log(series):
    """The series R with R_r = r * Log_r, where Log is the plethystic log.

    With M_r = r * L_r for the ordinary log L = log B, the relation B L' = B'
    reads M_r = r * B_r - sum_{k<r} M_k * B_{r-k}, and Log = sum_n mu(n)/n *
    psi_n(L) becomes R_r = sum_{n | r} mu(n) * psi_n(M_{r/n}).  Neither
    recurrence divides, so integer numerators in B give integer numerators
    in R.  Requires constant term 1.
    """
    if series.coeffs[0] != Fraction.one(series.table):
        raise ValueError("pleth_log needs constant term 1")
    R, table = series.order, series.table
    B = series.coeffs
    M = [Fraction.zero(table)]
    for r in range(1, R + 1):
        M.append(fraction_sum([B[r].scale(r)] + [-(M[k] * B[r - k]) for k in range(1, r)
                                                 if not M[k].is_zero()
                                                 and not B[r - k].is_zero()], table))
    return TruncSeries(table, R, _adams_sum(M, table, mobius))


def pleth_log(series):
    """Plethystic logarithm, inverse of pleth_exp; requires constant term 1.

    Log[B] = sum_n mu(n)/n * psi_n(log B).  The coefficients are those of
    scaled_pleth_log, each divided by r once at the end (`Fraction.divide`);
    nothing before that leaves the numerators' coefficient ring.
    """
    R = scaled_pleth_log(series)
    return TruncSeries(R.table, R.order,
                       [c if r < 2 else c.divide(r) for r, c in enumerate(R.coeffs)])
