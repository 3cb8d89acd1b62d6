"""Exact arithmetic kernel.

Everything downstream works in the Laurent polynomial ring
Q[q^{+-1}, t^{+-1}, a_1^{+-1}, ..., a_g^{+-1}, ...] and in the localization
obtained by inverting differences of monomials.  Two representation choices
drive the whole module and are relied on by callers:

* rational functions are stored as an expanded numerator over a *multiset of
  binomial factors*, never as an expanded denominator, so cancellation is a
  sequence of exact divisions rather than a multivariate gcd;
* every denominator factor is kept in a canonical form (monomial content
  removed, larger monomial first in lexicographic order), which makes multiset
  intersection meaningful and keeps signs deterministic.

Coefficients are exact rationals; no floats enter the kernel.  On the
symbolic pipeline they stay Python ints end to end: the hook-product series
has integer numerators, `series.scaled_pleth_log` carries r * Log_r instead
of Log_r, and exact division by a binomial only forms running sums.  The
single division by r happens per cleared coefficient in `dt` (checked by
`LaurentPoly.divide_coefficients`), or once per coefficient in
`series.pleth_log` when the true Log is asked for.  fractions.Fraction
coefficients still work everywhere, for hand-built inputs.
"""

import math
from fractions import Fraction as Q
from functools import lru_cache
from operator import add, sub
from typing import NamedTuple


class AlgebraError(Exception):
    pass


class NotDivisibleError(AlgebraError):
    """Exact division failed: the divisor is not a factor of the dividend."""


class TableMismatchError(AlgebraError):
    """Operands live over different variable tables."""


class ZeroDenominatorError(AlgebraError):
    """A denominator factor degenerated to zero under substitution."""


class VarTable:
    """Ordered variable table shared by all objects of one computation.

    Order is fixed as q, t, (u), a1..ag, z1..zn; the induced lexicographic
    order on exponent tuples is the monomial order used to orient binomial
    factors.  Tables compare by their name tuple, and `var_table` memoizes
    construction so identical requests share one instance.
    """

    __slots__ = ("names", "index", "arity", "genus", "nz", "with_u")

    def __init__(self, genus=0, nz=0, with_u=False):
        names = ["q", "t"]
        if with_u:
            names.append("u")
        names += ["a%d" % i for i in range(1, genus + 1)]
        names += ["z%d" % i for i in range(1, nz + 1)]
        self.names = tuple(names)
        self.index = {nm: i for i, nm in enumerate(self.names)}
        self.arity = len(self.names)
        self.genus = genus
        self.nz = nz
        self.with_u = with_u

    def __eq__(self, other):
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "VarTable(%s)" % ", ".join(self.names)

    def exps(self, **kw):
        """Exponent tuple with the named exponents set, all others zero."""
        e = [0] * self.arity
        for nm, v in kw.items():
            e[self.index[nm]] = v
        return tuple(e)

    def zero_exps(self):
        return (0,) * self.arity

    def unit_exps(self, name):
        return self.exps(**{name: 1})

    def zero(self):
        return LaurentPoly(self, {})

    def one(self):
        return LaurentPoly(self, {self.zero_exps(): 1})

    def monomial(self, exps, coeff=1):
        if not coeff:
            return self.zero()
        return LaurentPoly(self, {tuple(exps): coeff})

    def var(self, name):
        return self.monomial(self.unit_exps(name))

    def format_exps(self, exps):
        """Render an exponent tuple as e.g. 'q^2 t a1^-1'; constant is '1'."""
        bits = [nm if e == 1 else "%s^%d" % (nm, e)
                for nm, e in zip(self.names, exps) if e]
        return " ".join(bits) if bits else "1"


@lru_cache(maxsize=None)
def var_table(genus=0, nz=0, with_u=False):
    return VarTable(genus, nz, with_u)


def _check_tables(a, b):
    if a.table != b.table:
        raise TableMismatchError("operands use different variable tables: %r vs %r"
                                 % (a.table, b.table))


class LaurentPoly:
    """Laurent polynomial: dict from exponent tuple to nonzero rational."""

    __slots__ = ("table", "terms")

    def __init__(self, table, terms):
        self.table = table
        self.terms = terms

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_one(self):
        return self.terms == {self.table.zero_exps(): 1}

    def constant_term(self):
        return self.terms.get(self.table.zero_exps(), 0)

    def has_integer_coefficients(self):
        return all(isinstance(c, int) or c.denominator == 1
                   for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    __hash__ = None

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        _check_tables(self, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return LaurentPoly(self.table, out)

    def __neg__(self):
        return LaurentPoly(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _check_tables(self, other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return self.table.zero()
        rows = iter(a.items())
        ea, ca = next(rows)
        # the first row cannot collide with itself: no lookups needed
        out = {tuple(map(add, ea, eb)): ca * cb for eb, cb in b.items()}
        get = out.get
        for ea, ca in rows:
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                out[e] = get(e, 0) + ca * cb
        return LaurentPoly(self.table, {e: c for e, c in out.items() if c})

    def scale(self, c):
        if not c:
            return self.table.zero()
        return LaurentPoly(self.table, {e: co * c for e, co in self.terms.items()})

    def divide_coefficients(self, n):
        """Divide every coefficient by the nonzero integer n, exactly.

        Raises NotDivisibleError naming a monomial whose quotient is not an
        integer; the result has int coefficients.
        """
        out = {}
        for e, c in self.terms.items():
            quo, rem = divmod(c, n)
            if rem:
                raise NotDivisibleError("coefficient %s of %s is not divisible by %d"
                                        % (c, self.table.format_exps(e), n))
            out[e] = quo
        return LaurentPoly(self.table, out)

    def mono_mul(self, exps, coeff=1):
        """Multiply by coeff * x^exps (a single monomial)."""
        if not coeff:
            return self.table.zero()
        if coeff == 1 and not any(exps):
            return self
        return LaurentPoly(self.table,
                           {tuple(map(add, e, exps)): c * coeff
                            for e, c in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = self.table.one()
        for _ in range(n):
            out = out * self
        return out

    # -- structure maps ---------------------------------------------------

    def adams(self, n):
        """Adams operation: every variable exponent is multiplied by n."""
        if n == 1:
            return self
        return LaurentPoly(self.table,
                           {tuple(n * x for x in e): c for e, c in self.terms.items()})

    def substitute_monomials(self, images):
        """Substitute variables by monomials.

        images maps a variable index to the exponent tuple of its image;
        unmapped variables stay themselves.  Images are monomials with
        coefficient 1, which keeps the map a ring homomorphism on the
        Laurent ring.
        """
        arity = self.table.arity
        out = {}
        for e, c in self.terms.items():
            new = [0] * arity
            for i, ei in enumerate(e):
                if not ei:
                    continue
                img = images.get(i)
                if img is None:
                    new[i] += ei
                else:
                    for j, fj in enumerate(img):
                        if fj:
                            new[j] += ei * fj
            k = tuple(new)
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return LaurentPoly(self.table, out)

    def set_var_one(self, name):
        return self.substitute_monomials({self.table.index[name]: self.table.zero_exps()})

    def eval(self, values):
        """Evaluate at a full vector of values (exact rationals or complex).

        Integer values are coerced to Fraction so negative exponents stay exact.
        """
        if len(values) != self.table.arity:
            raise ValueError("expected %d values" % self.table.arity)
        values = [Q(v) if isinstance(v, int) else v for v in values]
        total = 0
        for e, c in self.terms.items():
            acc = c
            for x, ei in zip(values, e):
                if ei:
                    acc = acc * x ** ei
            total = total + acc
        return total

    # -- inspection -------------------------------------------------------

    def var_range(self, name):
        """(min, max) exponent of one variable over the support; (0, 0) if absent."""
        i = self.table.index[name]
        if not self.terms:
            return (0, 0)
        es = [e[i] for e in self.terms]
        return (min(es), max(es))

    def uses_var(self, name):
        i = self.table.index[name]
        return any(e[i] for e in self.terms)

    def sorted_terms(self):
        """Deterministic descending-lex term order, for printing and hashing."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            bits.append("%s*%s" % (c, self.table.format_exps(e)))
        return " + ".join(bits)


class BinomialFactor(NamedTuple):
    """Canonical difference of monomials m1 - m2.

    Invariants: m1 != m2, componentwise min(m1, m2) == 0 (no monomial
    content), and m1 > m2 lexicographically.
    """

    m1: tuple
    m2: tuple

    def to_poly(self, table):
        return LaurentPoly(table, {self.m1: 1, self.m2: -1})

    def adams(self, n):
        # scaling by n > 0 preserves both canonicality conditions
        return BinomialFactor(tuple(n * x for x in self.m1),
                              tuple(n * x for x in self.m2))


def canonical_binomial(e1, e2):
    """Decompose x^e1 - x^e2 as sign * x^unit * (m1 - m2) with (m1, m2) canonical.

    Returns (factor, unit_exps, sign).  Raises ZeroDenominatorError when the
    two monomials coincide.
    """
    e1, e2 = tuple(e1), tuple(e2)
    if e1 == e2:
        raise ZeroDenominatorError("binomial degenerated: %s - %s" % (e1, e2))
    unit = tuple(min(a, b) for a, b in zip(e1, e2))
    r1 = tuple(a - u for a, u in zip(e1, unit))
    r2 = tuple(b - u for b, u in zip(e2, unit))
    if r1 > r2:
        return BinomialFactor(r1, r2), unit, 1
    return BinomialFactor(r2, r1), unit, -1


def exact_divide(poly, factor):
    """Divide a LaurentPoly by a canonical BinomialFactor, exactly.

    The terms of the dividend are grouped into classes modulo the direction
    v = m1 - m2; each class is a univariate Laurent polynomial in X = x^v and
    the factor is m2*(X - 1), so the class divides iff its coefficients sum
    to zero, with the quotient given by running sums.  Linear time, no
    term-order descent, valid for genuinely Laurent supports.
    """
    m1, m2 = factor
    v = tuple(map(sub, m1, m2))
    i0 = next(i for i, x in enumerate(v) if x)
    vi = v[i0]
    terms = poly.terms
    if not terms:
        return poly
    lead = [e[i0] for e in terms]
    # j -> j * v for every class index that can occur, shared by all classes
    multiples = {j: tuple(j * x for x in v)
                 for j in range(min(lead) // vi, max(lead) // vi + 1)}
    classes = {}
    for e, c in terms.items():
        j = e[i0] // vi
        key = tuple(map(sub, e, multiples[j]))
        col = classes.get(key)
        if col is None:
            classes[key] = {j: c}
        else:
            col[j] = c
    # most trial divisions fail: refuse before building any of the quotient
    for key, col in classes.items():
        if sum(col.values()):
            raise NotDivisibleError("remainder in class %s" % (key,))
    # keys have their i0 entry in [0, vi), so distinct (key, j) pairs give
    # distinct quotient exponents and each one is written exactly once
    out = {}
    for key, col in classes.items():
        base = tuple(map(sub, key, m2))
        d = 0
        for j in range(min(col), max(col)):
            c = col.get(j)
            if c is not None:
                d -= c
            if d:
                out[tuple(map(add, base, multiples[j]))] = d
    return LaurentPoly(poly.table, out)


@lru_cache(maxsize=None)
def _direction(factor):
    """Primitive direction of m1 - m2 (its first nonzero entry is positive)."""
    v = tuple(map(sub, factor.m1, factor.m2))
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def _reduce_fraction(num, den):
    """Cancel denominator factors that divide the numerator exactly."""
    if not num.terms:
        return num, ()
    kept = []
    for f in den:
        try:
            num = exact_divide(num, f)
        except NotDivisibleError:
            kept.append(f)
    return num, tuple(kept)


def _multiset_diff(a, b):
    """Multiset difference of two sorted factor tuples."""
    out = list(a)
    for f in b:
        out.remove(f)
    return out


class Fraction:
    """Rational function: expanded numerator over a factored denominator.

    den is a sorted tuple of BinomialFactor; the represented value is
    num / prod(f for f in den).  Construction cancels exactly divisible
    factors, so a Fraction with empty den is an honest Laurent polynomial.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(), reduce=True):
        if reduce and den:
            num, den = _reduce_fraction(num, tuple(den))
        self.num = num
        self.den = tuple(sorted(den))

    @property
    def table(self):
        return self.num.table

    @classmethod
    def zero(cls, table):
        return cls(table.zero())

    @classmethod
    def one(cls, table):
        return cls(table.one())

    @classmethod
    def from_poly(cls, poly):
        return cls(poly)

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        """Sum over the least common denominator, reduced.

        With lcd = C + A + B (C the common multiset, A and B the factors of
        one side only), the sum is (na * prod B + nb * prod A) / lcd.  A
        factor f of A that has no factor of B in its primitive direction is
        never tried, because it cannot divide that numerator:

        * f divides nb * prod A, so f | sum-numerator iff f | na * prod B;
        * up to a unit, f = X^k - 1 with X = x^w, w primitive; its
          irreducible factors are the cyclotomic Phi_d(X), which are
          irreducible in the Laurent ring and differ from those of any
          binomial of another primitive direction, so f is coprime to
          prod B and f | na * prod B iff f | na;
        * f is not cancelled from self, so f does not divide na.

        The same holds for B with the roles swapped.  "Not cancelled" holds
        for every Fraction built with reduce=True, and scale, mono_mul, neg
        and adams (the reduce=False paths) multiply by units or apply an
        injective ring map, which keeps it.  (A Fraction built directly
        with reduce=False around a cancellable factor may keep that factor
        through a sum; the value is unaffected.)  Skipped factors leave the
        numerator alone, so the tried ones see exactly the divisions they
        would see anyway and the result is the one trying every factor
        gives.
        """
        _check_tables(self, other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return Fraction(self.num + other.num, self.den)
        common = []
        da = list(self.den)
        for f in other.den:
            if f in da:
                da.remove(f)
                common.append(f)
        # lcd = common + (self.den - common) + (other.den - common)
        only_a = da
        only_b = _multiset_diff(other.den, tuple(common))
        na = self.num
        for f in only_b:
            na = na * f.to_poly(self.table)
        nb = other.num
        for f in only_a:
            nb = nb * f.to_poly(self.table)
        num = na + nb
        if not num.terms:
            return Fraction(num)
        dirs_a = {_direction(f) for f in only_a}
        dirs_b = {_direction(f) for f in only_b}
        tried, kept = list(common), []
        for f in only_a:
            (tried if _direction(f) in dirs_b else kept).append(f)
        for f in only_b:
            (tried if _direction(f) in dirs_a else kept).append(f)
        num, left = _reduce_fraction(num, tuple(tried))
        return Fraction(num, left + tuple(kept), reduce=False)

    def __neg__(self):
        return Fraction(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _check_tables(self, other)
        if self.is_zero() or other.is_zero():
            return Fraction.zero(self.table)
        return Fraction(self.num * other.num, self.den + other.den)

    def mul_poly(self, poly):
        return Fraction(self.num * poly, self.den)

    def scale(self, c):
        return Fraction(self.num.scale(c), self.den, reduce=False)

    def mono_mul(self, exps, coeff=1):
        return Fraction(self.num.mono_mul(exps, coeff), self.den, reduce=False)

    def mul_binomial(self, e1, e2):
        """Multiply by (x^e1 - x^e2)."""
        b = self.table.monomial(e1) + self.table.monomial(e2).scale(-1)
        return Fraction(self.num * b, self.den)

    def div_binomial(self, e1, e2):
        """Divide by (x^e1 - x^e2)."""
        factor, unit, sign = canonical_binomial(e1, e2)
        num = self.num.mono_mul(tuple(-u for u in unit), sign)
        return Fraction(num, self.den + (factor,))

    def __eq__(self, other):
        if not isinstance(other, Fraction):
            return NotImplemented
        if self.table != other.table:
            return False
        # strip the common denominator multiset, then cross-multiply
        da, db = list(self.den), []
        for f in other.den:
            if f in da:
                da.remove(f)
            else:
                db.append(f)
        left = self.num
        for f in db:
            left = left * f.to_poly(self.table)
        right = other.num
        for f in da:
            right = right * f.to_poly(self.table)
        return left == right

    __hash__ = None

    # -- structure maps ---------------------------------------------------

    def adams(self, n):
        return Fraction(self.num.adams(n),
                        tuple(f.adams(n) for f in self.den), reduce=False)

    def substitute_monomials(self, images):
        num = self.num.substitute_monomials(images)
        den = []
        for f in self.den:
            i1 = _image_exps(f.m1, images, self.table.arity)
            i2 = _image_exps(f.m2, images, self.table.arity)
            g, unit, sign = canonical_binomial(i1, i2)
            num = num.mono_mul(tuple(-u for u in unit), sign)
            den.append(g)
        return Fraction(num, den)

    def specialize_var_zero(self, name):
        """Set one variable to 0.

        Numerator terms with positive exponent drop; a negative exponent is an
        error.  A denominator factor with the variable on one side collapses
        to the monomial on the other side (canonical factors never carry the
        variable on both sides).
        """
        i = self.table.index[name]
        terms = {}
        for e, c in self.num.terms.items():
            if e[i] < 0:
                raise ZeroDenominatorError("negative %s-exponent at %s = 0"
                                           % (name, name))
            if e[i] == 0:
                terms[e] = c
        num = LaurentPoly(self.table, terms)
        den = []
        for f in self.den:
            d1, d2 = f.m1[i], f.m2[i]
            if d1 == 0 and d2 == 0:
                den.append(f)
            elif d1 > 0:
                # factor value at 0 is -m2
                num = num.mono_mul(tuple(-x for x in f.m2), -1)
            else:
                num = num.mono_mul(tuple(-x for x in f.m1), 1)
        return Fraction(num, den)

    def clear_denominator(self):
        """Return the numerator as a LaurentPoly; the denominator must cancel."""
        if self.den:
            # construction already reduced once; a retry is still cheap and
            # catches fractions built with reduce=False
            num, den = _reduce_fraction(self.num, self.den)
            if den:
                raise NotDivisibleError(
                    "denominator does not clear: %d factor(s) remain, e.g. %s"
                    % (len(den), den[0],))
            return num
        return self.num

    def as_poly(self):
        return self.clear_denominator()

    def eval(self, values):
        top = self.num.eval(values)
        for f in self.den:
            b = LaurentPoly(self.table, {f.m1: 1, f.m2: -1}).eval(values)
            if not b:
                raise ZeroDivisionError("denominator factor vanishes at the given point")
            top = top / b
        return top

    def __repr__(self):
        if not self.den:
            return repr(self.num)
        return "(%r) / %s" % (self.num, list(self.den))


def _image_exps(e, images, arity):
    new = [0] * arity
    for i, ei in enumerate(e):
        if not ei:
            continue
        img = images.get(i)
        if img is None:
            new[i] += ei
        else:
            for j, fj in enumerate(img):
                if fj:
                    new[j] += ei * fj
    return tuple(new)


def t_expand(frac, depth, lo=0):
    """t-adic expansion of a Fraction: coefficients of t^lo .. t^depth.

    Precondition: every denominator factor, restricted to t = 0, is a nonzero
    monomial in the remaining variables or stays t-free entirely.  Canonical
    factors satisfy this automatically unless both sides carry t, which means
    the factor vanishes at t = 0 and the expansion does not exist.

    Returns a list of Fractions in the same table (t absent from every term);
    index i holds the coefficient of t^(lo + i).  t-free denominator factors
    survive into the coefficient Fractions.
    """
    table = frac.table
    ti = table.index["t"]
    tfree, mixed = [], []
    for f in frac.den:
        d1, d2 = f.m1[ti], f.m2[ti]
        if d1 == 0 and d2 == 0:
            tfree.append(f)
        elif d1 > 0 and d2 > 0:
            raise ZeroDenominatorError("denominator factor vanishes at t = 0: %s" % (f,))
        else:
            mixed.append(f)
    # seed: numerator split by t-degree, t stripped from the exponent
    cur = {}
    for e, c in frac.num.terms.items():
        d = e[ti]
        e0 = tuple(0 if i == ti else x for i, x in enumerate(e))
        lev = cur.setdefault(d, {})
        s = lev.get(e0, 0) + c
        if s:
            lev[e0] = s
        elif e0 in lev:
            del lev[e0]
    for f in mixed:
        d1, d2 = f.m1[ti], f.m2[ti]
        if d2 == 0:
            # 1/(m1 - m2) = -(1/m2) * sum_j (m1/m2)^j, t-degree step d1
            sign, pref, step, dstep = -1, f.m2, tuple(a - b for a, b in zip(f.m1, f.m2)), d1
        else:
            # 1/(m1 - m2) = (1/m1) * sum_j (m2/m1)^j, t-degree step d2
            sign, pref, step, dstep = 1, f.m1, tuple(b - a for a, b in zip(f.m1, f.m2)), d2
        pref = tuple(-x for x in pref)
        step0 = tuple(0 if i == ti else x for i, x in enumerate(step))
        nxt = {}
        for d, level in cur.items():
            jmax = (depth - d) // dstep
            for j in range(jmax + 1):
                nd = d + j * dstep
                shift = tuple(p + j * s for p, s in zip(pref, step0))
                lev = nxt.setdefault(nd, {})
                for e0, c in level.items():
                    e = tuple(x + y for x, y in zip(e0, shift))
                    s = lev.get(e, 0) + c * sign
                    if s:
                        lev[e] = s
                    elif e in lev:
                        del lev[e]
        cur = nxt
    out = []
    tfree = tuple(tfree)
    for d in range(lo, depth + 1):
        level = cur.get(d)
        if level:
            out.append(Fraction(LaurentPoly(table, dict(level)), tfree))
        else:
            out.append(Fraction.zero(table))
    return out
