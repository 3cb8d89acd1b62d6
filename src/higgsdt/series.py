"""Truncated power series in one external variable T over the fraction field.

The coefficient ring is the localized Laurent ring of `algebra`; T itself is
not a table variable.  Adams operations act on T-degree and on every table
variable at once, which is exactly the lambda-ring structure the plethystic
exponential and logarithm are defined against.
"""

from fractions import Fraction as Q

from .algebra import Fraction, TableMismatchError


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


class TruncSeries:
    """Series sum_{d=0}^{order} c_d T^d with Fraction coefficients."""

    __slots__ = ("table", "order", "coeffs")

    def __init__(self, table, order, coeffs=None):
        if order < 0:
            raise ValueError("truncation order must be nonnegative, got %d" % order)
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
            s.coeffs[d] = c
        return s

    def coefficient(self, d):
        return self.coeffs[d]

    def _check(self, other):
        if self.table != other.table or self.order != other.order:
            raise TableMismatchError("series mismatch (table or truncation order)")

    def __add__(self, other):
        self._check(other)
        return TruncSeries(self.table, self.order,
                           [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        self._check(other)
        out = [Fraction.zero(self.table) for _ in range(self.order + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncSeries(self.table, self.order, out)

    def scale(self, c):
        return TruncSeries(self.table, self.order, [f.scale(c) for f in self.coeffs])

    def adams(self, n):
        """psi_n: T -> T^n and every table variable exponent scaled by n."""
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


def _exp(series):
    """Ordinary exp of a series with zero constant term, via E' = B'E."""
    R = series.order
    E = [Fraction.one(series.table)]
    for r in range(1, R + 1):
        acc = Fraction.zero(series.table)
        for k in range(1, r + 1):
            b = series.coeffs[k]
            if not b.is_zero() and not E[r - k].is_zero():
                acc = acc + (b * E[r - k]).scale(k)
        E.append(acc.scale(Q(1, r)))
    return TruncSeries(series.table, R, E)


def pleth_exp(series):
    """Plethystic exponential Exp[A] = exp(sum_n psi_n(A)/n).

    Requires a zero constant term.
    """
    if not series.coeffs[0].is_zero():
        raise ValueError("pleth_exp needs a zero constant term")
    R = series.order
    acc = series
    for n in range(2, R + 1):
        acc = acc + series.adams(n).scale(Q(1, n))
    return _exp(acc)


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
    R = series.order
    B = series.coeffs
    M = [Fraction.zero(series.table)]
    for r in range(1, R + 1):
        acc = B[r].scale(r)
        for k in range(1, r):
            b = B[r - k]
            if not M[k].is_zero() and not b.is_zero():
                acc = acc - M[k] * b
        M.append(acc)
    out = list(M)
    for n in range(2, R + 1):
        m = mobius(n)
        if m:
            for d in range(1, R // n + 1):
                if not M[d].is_zero():
                    out[n * d] = out[n * d] + M[d].adams(n).scale(m)
    return TruncSeries(series.table, R, out)


def pleth_log(series):
    """Plethystic logarithm, inverse of pleth_exp; requires constant term 1.

    Log[B] = sum_n mu(n)/n * psi_n(log B).  The coefficients are those of
    scaled_pleth_log, each divided by r once at the end; nothing before
    that leaves the numerators' coefficient ring.
    """
    R = scaled_pleth_log(series)
    return TruncSeries(R.table, R.order,
                       [c if r < 2 else c.scale(Q(1, r))
                        for r, c in enumerate(R.coeffs)])
