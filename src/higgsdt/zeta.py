"""Curve zeta functions and numeric specialization of the invariants.

A genus-g curve over F_{q0} enters the engine only through its Frobenius
eigenvalues: g complex numbers a_1..a_g of absolute value sqrt(q0), the
other half of each conjugate pair being q0 / a_i.  Point counts over all
extensions follow from the trace formula

    #X(F_{q0^n}) = 1 + q0^n - sum_i (a_i^n + (q0 / a_i)^n)

and any invariant produced by the symbolic pipeline specializes to a number
by substituting q -> q0, a_i -> the chosen eigenvalues.  Invariants of the
curve itself are symmetric in the eigenvalue pairs and invariant under
a_i -> q0 / a_i, so the specialized values come out as real integers; the
numeric layer checks both to a tolerance instead of trusting float noise.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction as Q

from .algebra import Fraction, t_expand, var_table
from .dt import weil_symmetry_check, zeta_numerator

TOL = 1e-6  # float-to-integer certification tolerance


class NumericDriftError(ArithmeticError):
    """A value that must be a real integer failed the tolerance check."""


def is_prime_power(n):
    """True when n = p^k for a prime p and k >= 1."""
    if n < 2:
        return False
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    while n % p == 0:
        n //= p
    return n == 1


@dataclass(frozen=True)
class ZetaData:
    """Frobenius data of one curve: None q0 means the symbolic curve."""

    genus: int
    q0: object = None
    alphas: tuple = ()

    @classmethod
    def symbolic(cls, genus):
        return cls(genus=genus)

    @classmethod
    def numeric(cls, q0, alphas):
        if not is_prime_power(q0):
            raise ValueError("q0 must be a prime power, got %d" % q0)
        alphas = tuple(complex(a) for a in alphas)
        for a in alphas:
            if abs(abs(a) * abs(a) - q0) > TOL * q0:
                raise ValueError("|alpha|^2 = %r is not q0 = %r" % (abs(a) ** 2, q0))
        return cls(genus=len(alphas), q0=q0, alphas=alphas)

    @classmethod
    def from_trace(cls, q0, trace):
        """Genus-1 curve with #X(F_q0) = q0 + 1 - trace."""
        if trace * trace > 4 * q0:
            raise ValueError("trace %d violates |trace| <= 2 sqrt(%d)" % (trace, q0))
        a = complex(trace, math.sqrt(4 * q0 - trace * trace)) / 2
        return cls.numeric(q0, (a,))

    @property
    def is_numeric(self):
        return self.q0 is not None

    def table(self):
        return var_table(genus=self.genus)

    def frobenius_values(self, n=1):
        """Evaluation vector (q, t, a_1..a_g) at the F_{q0^n} point; t is set
        to 1 and callers must reject polynomials that still involve t."""
        if not self.is_numeric:
            raise ValueError("symbolic curve has no numeric Frobenius values")
        return [Q(self.q0) ** n, Q(1)] + [a ** n for a in self.alphas]

    def point_counts(self, nmax):
        """#X(F_{q0^n}) for n = 1..nmax, verified real integers."""
        if not self.is_numeric:
            raise ValueError("point counts need a numeric curve")
        out = []
        for n in range(1, nmax + 1):
            v = 1 + self.q0 ** n
            for a in self.alphas:
                v -= a ** n + (self.q0 / a) ** n
            out.append(_as_integer(v, TOL * self.q0 ** n))
        return out


def _as_integer(value, tol):
    """The integer a float computation stands for.  From 2^53 on a double no
    longer holds every integer, so no tolerance can certify the value."""
    value = complex(value)
    if abs(value) >= 2 ** 53:
        raise NumericDriftError("%r is too large to certify in floating point" % value)
    r = round(value.real)
    if abs(value.imag) > tol or abs(value.real - r) > tol:
        raise NumericDriftError("%r is not an integer within %g" % (value, tol))
    return r


def zx_fraction(table):
    """The zeta function of the symbolic curve, with t as series variable:

        Z(t) = prod_i (1 - a_i t)(1 - q a_i^{-1} t) / ((1 - t)(1 - q t))
    """
    f = Fraction(zeta_numerator(table, table.exps(t=1)))
    f = f.div_binomial(table.zero_exps(), table.exps(t=1))
    f = f.div_binomial(table.zero_exps(), table.exps(q=1, t=1))
    return f


def zx_series(zd, order):
    """Coefficients of Z(t) up to t^order.

    Symbolic curve: list of Laurent polynomials in q and the eigenvalue
    variables.  Numeric curve: list of integers (the n-th one counts the
    degree-n effective divisors on the curve).
    """
    if not zd.is_numeric:
        table = zd.table()
        coeffs = t_expand(zx_fraction(table), order)
        return [c.clear_denominator() for c in coeffs]
    counts = zd.point_counts(order if order > 0 else 1)
    out = [Q(1)]
    for n in range(1, order + 1):
        # exp of the logarithmic series: n b_n = sum_m N_m b_{n-m}
        s = Q(0)
        for m in range(1, n + 1):
            s += counts[m - 1] * out[n - m]
        out.append(s / n)
    return [_as_integer(b, TOL * float(max(1, abs(b)))) for b in out]


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

    def rounded(self):
        return CountingSequence(tuple(
            _as_integer(v, TOL * max(1.0, abs(complex(v)))) for v in self.entries))


def counting_sequence(poly, zd, nmax):
    """Evaluate an invariant polynomial over F_{q0^n} for n = 1..nmax."""
    if poly.uses_var("t"):
        raise ValueError("invariant still involves t; specialize it first")
    if poly.table.genus != zd.genus:
        raise ValueError("genus mismatch between polynomial and curve")
    vals = [poly.eval(zd.frobenius_values(n)) for n in range(1, nmax + 1)]
    return CountingSequence(tuple(vals)).rounded()


def specialize_integer(poly, zd):
    """Numeric value of a curve invariant; demands eigenvalue symmetry first.

    Only polynomials invariant under permuting the eigenvalue pairs and under
    a_i -> q a_i^{-1} define numbers independent of labeling choices, so
    anything else is rejected rather than silently evaluated.
    """
    if poly.uses_var("t"):
        raise ValueError("invariant still involves t; specialize it first")
    if not weil_symmetry_check(poly):
        raise ValueError("polynomial is not symmetric in the eigenvalue pairs")
    return _as_integer(poly.eval(zd.frobenius_values(1)), TOL)
