"""Weil orbit form: invariant polynomials stored by one slice per orbit.

A Weil group W_g = (Z/2)^g x| S_g fixes q and t; S_g permutes a_1..a_g and
sigma_i sends a_i to m / a_i: m = q t fixes the main series and every IDT_r,
m = q the t = 1 values and the zeta-value series.  A slice of a polynomial
is its part with one a-exponent vector alpha.  The group maps the slice
alpha to the slice of a signed permutation beta of alpha, times m^c with c
the sum of the entries whose sign flips, so on packed monomials it adds one
offset per image slice.  An invariant polynomial is therefore known from its
representative slices, those with alpha >= 0 and non-increasing: one per
orbit.  At genus 0 the group is trivial: there are no a-variables, the one
slice is a-free, and `restrict` and `expand` only change the table.

Two ways into the orbit form skip the whole polynomial.  A product
prod_{i=1..g} f(a_i) of one function f of one variable has the slice
alpha prod_i [u^alpha_i] f(u), so `product` builds its representatives from
the slices k >= 0 of f alone.  And t = 1 keeps every a-exponent and turns
q t / a_i into q / a_i, so it maps the representatives of a polynomial
invariant under the q t flip, slice by slice, onto those of its value at
t = 1 under the q flip (`at_t_one`).  The other way, sigma: q -> q t,
t -> 1/t keeps every a-exponent and turns q / a_i into q t / a_i, so it maps
the representatives of a Fraction invariant under the q flip onto those of
its image under the q t flip (`sigma`).
"""

from functools import lru_cache
from itertools import permutations, product

from .algebra import (DIGIT_BITS, EXP_BITS, EXP_LIMIT, AlgebraError, ExponentRangeError,
                      Fraction, LaurentPoly, TableMismatchError, VarTable, var_table)


class WeilTable(VarTable):
    """The variables of `var_table(genus)`, for polynomials invariant under
    the Weil group of `flip`, stored by their representative slices.

    A LaurentPoly over this table holds the representative terms of an
    invariant polynomial; `restrict` and `expand` convert from and to `full`,
    the ordinary table.  Whatever acts slice by slice acts on the
    representatives unchanged: sums, scaling, Adams operations, shifts by
    a-free monomials, and products with and exact division by a-free
    polynomials.  Other maps (substitution, evaluation, var_range) see only
    the representatives.  The product of two invariant polynomials is the one
    operation that mixes slices; `mul_terms` computes only its representative
    slices, so `LaurentPoly.__mul__` serves both forms, and a table mismatch
    keeps the two apart.

    Representative terms are in range like any stored term; the images of a
    slice are checked by `_images` before an offset is added.

    At genus >= 1 the table is `slicewise`: the exponent bounds of a product
    (see `algebra`) are the sums of its factors' only when one factor is
    a-free, the case `mul_terms` multiplies as it is.
    """

    __slots__ = ("full", "flip", "slicewise", "_flip", "_amask", "_abias", "_reps",
                 "_orbits")

    def __init__(self, genus, flip="qt"):
        if flip not in ("qt", "q"):
            raise ValueError("flip must be one of qt, q, got %r" % (flip,))
        super().__init__(genus)
        self.full = var_table(genus)
        self.flip = flip
        self.slicewise = genus > 0
        self._flip = self.exps(**{v: 1 for v in flip})
        self._amask = (1 << DIGIT_BITS * genus) - 1   # the a digits are the lowest
        self._abias = self._bias & self._amask
        self._reps = {}      # a-part -> whether it is a representative
        self._orbits = {}    # representative a-part -> its images, cached

    def __eq__(self, other):
        return super().__eq__(other) and self.flip == other.flip

    __hash__ = VarTable.__hash__

    def __repr__(self):
        return "%s; a_i -> %s/a_i" % (super().__repr__(), self.flip)

    @staticmethod
    def _check(poly, table):
        if poly.table != table:
            raise TableMismatchError("expected a polynomial over %r, got %r"
                                     % (table, poly.table))

    def _slices(self, terms):
        """terms split by slice: {packed a-part: {e: c}}."""
        bias, mask, abias = self._bias, self._amask, self._abias
        out = {}
        for e, c in terms.items():
            k = ((e + bias) & mask) - abias
            s = out.get(k)
            if s is None:
                out[k] = {e: c}
            else:
                s[e] = c
        return out

    def _is_rep(self, k):
        rep = self._reps.get(k)
        if rep is None:
            alpha = self.unpack(k)[2:]
            rep = self._reps[k] = all(x >= y for x, y in zip(alpha, alpha[1:] + (0,)))
        return rep

    def _orbit(self, k):
        """((a-part, offset), ...) of every image slice of the representative
        slice k, identity first: a term e of slice k maps to e + offset."""
        orbit = self._orbits.get(k)
        if orbit is None:
            alpha = self.unpack(k)[2:]
            shifts = self._shifts[2:]
            images = {}
            for perm in sorted(set(permutations(alpha)), reverse=True):
                for signs in product(*[(1, -1) if x else (1,) for x in perm]):
                    beta = sum(s * x << sh for s, x, sh in zip(signs, perm, shifts))
                    flipped = sum(x for s, x in zip(signs, perm) if s < 0)
                    images[beta] = beta - k + flipped * self._flip
            orbit = self._orbits[k] = tuple(images.items())
        return orbit

    def _images(self, k, terms):
        """`_orbit(k)` once every image of the slice's terms is known to be in
        range.  An image adds c <= |alpha| to the q and t exponents (only to
        q's with the q flip) and keeps each |a_i|, so the top q, t decide."""
        if not self._is_rep(k):
            raise AlgebraError("slice %s is not a Weil orbit representative"
                               % self.format_exps(k))
        reach = sum(self.unpack(k)[2:])
        if reach and max(self.digit(max(terms), 0),
                         self.digit_range(terms, 1)[1]) + reach >= EXP_LIMIT:
            raise ExponentRangeError("an image of the slice %s leaves the exponent "
                                     "range [-2^%d, 2^%d)"
                                     % (self.format_exps(k), EXP_BITS, EXP_BITS))
        return self._orbit(k)

    def mul_terms(self, a, b):
        """Representative terms of the product: slice beta of one factor
        times slice gamma of the other lands on beta + gamma, so every pair of
        image slices whose sum is a representative adds the product of the two
        stored slices, shifted by the sum of their offsets.  A factor with
        only the a-free slice, and every factor at genus 0, is multiplied as
        it is.  As there, a coefficient that sums to zero is deleted."""
        if not self.genus:
            return super().mul_terms(a, b)
        sa = self._slices(a)
        if list(sa) == [0]:
            return super().mul_terms(a, b)
        sb = self._slices(b)
        if list(sb) == [0]:
            return super().mul_terms(a, b)
        right = [(tb, self._images(kb, tb)) for kb, tb in sb.items()]
        is_rep = self._is_rep
        out = {}
        get = out.get
        for ka, ta in sa.items():
            left = self._images(ka, ta)
            for tb, orbit_b in right:
                shifts = [oa + ob for xa, oa in left for xb, ob in orbit_b
                          if is_rep(xa + xb)]
                if not shifts:
                    continue
                terms = super().mul_terms(*sorted((ta, tb), key=len))
                for s in shifts:
                    for e, c in terms.items():
                        e += s
                        c += get(e, 0)
                        if c:
                            out[e] = c
                        else:
                            del out[e]
        return out

    def product(self, f):
        """The representative terms of prod_{i=1..g} f(a_i).

        f maps the packed exponent of a monomial u to f(u), a polynomial over
        `full` in q, t and u; it is called once, at u = a_1, and never at
        genus 0, where the product is 1.  The slice alpha of the product is
        prod_i [u^alpha_i] f(u) (module docstring), so only the slices
        k >= 0 of f are read, and the representatives alpha_1 >= ... >=
        alpha_g >= 0 are built a factor at a time, each prefix
        alpha_1..alpha_j once for all of its extensions.

        Where f(u) has bounds, every slice takes its q and t bounds, and the
        result the hull of its prefixes' in q and t and, in each a_i, the
        least and the largest k read: (k, ..., k) is a representative.
        """
        if not self.genus:
            return self.one()
        u = self.unit_exps("a1")
        fu = f(u)
        slices = {}
        for e, c in fu.terms.items():
            k = self.digit(e, 2)
            if k >= 0:
                slices.setdefault(k, {})[e - k * u] = c
        qt = fu.bounds and fu.bounds[:2]
        if qt and None in qt:
            qt = None
        flat = qt and qt + ((0, 0),) * self.genus
        slices = [(k, LaurentPoly(self.full, slices[k], flat)) for k in sorted(slices)]
        # (last alpha_j, prod_{i<=j} [u^alpha_i] f, packed a-part) per prefix
        level = [(k, s, k * u) for k, s in slices]
        for j in range(1, self.genus):
            unit = self.unit_exps("a%d" % (j + 1))
            level = [(k, prefix * s, apart + k * unit)
                     for top, prefix, apart in level
                     for k, s in slices if k <= top]
        bounds = None
        if qt and level:
            ends = [p.bounds[:2] for _, p, _ in level]
            bounds = (tuple((min(b[i][0] for b in ends), max(b[i][1] for b in ends))
                            for i in range(2))
                      + ((slices[0][0], slices[-1][0]),) * self.genus)
        return LaurentPoly(self, {e + apart: c for _, p, apart in level
                                  for e, c in p.terms.items()}, bounds)

    def restrict(self, poly):
        """The representative terms of a Weil-invariant poly over `full`."""
        self._check(poly, self.full)
        if not self.genus:
            return LaurentPoly(self, poly.terms, poly.bounds)
        return LaurentPoly(self, {e: c for k, ts in self._slices(poly.terms).items()
                                  if self._is_rep(k) for e, c in ts.items()}, poly.bounds)

    def restrict_fraction(self, frac):
        """`restrict` of a Fraction over `full` whose denominator is a-free.

        An a-free factor divides an invariant numerator iff it divides each
        representative slice, so the factors that the constructor tries
        again all fail when frac is reduced."""
        if any((m + self._bias) & self._amask != self._abias for f in frac.den for m in f):
            raise ValueError("restrict_fraction needs an a-free denominator")
        return Fraction(self.restrict(frac.num), frac.den)

    def expand(self, poly):
        """The whole invariant polynomial, over `full`, whose representative
        terms poly holds."""
        self._check(poly, self)
        if not self.genus:
            return LaurentPoly(self.full, poly.terms)
        out = {}
        for k, ts in self._slices(poly.terms).items():
            for _, o in self._images(k, ts):
                for e, c in ts.items():
                    out[e + o] = c
        return LaurentPoly(self.full, out)

    def at_t_one(self, poly):
        """The representatives over `weil_table(genus, "q")` of the value at
        t = 1 of the invariant polynomial whose representatives over this
        table, the q t flip's, poly holds (module docstring)."""
        self._check(poly, self)
        if self.flip != "qt":
            raise ValueError("t = 1 maps representatives of the qt flip, not of %r"
                             % self.flip)
        return LaurentPoly(weil_table(self.genus, "q"), poly.set_var_one("t").terms)

    def sigma(self, frac):
        """The representatives over `weil_table(genus)`, the q t flip's, of
        the image under sigma: q -> q t, t -> 1/t of the invariant Fraction
        whose representatives over this table, the q flip's, frac holds
        (module docstring)."""
        self._check(frac.num, self)
        if self.flip != "q":
            raise ValueError("sigma maps representatives of the q flip, not of %r"
                             % self.flip)
        image = frac.substitute_monomials({self.index["q"]: self.exps(q=1, t=1),
                                           self.index["t"]: self.exps(t=-1)})
        return Fraction(LaurentPoly(weil_table(self.genus), image.num.terms), image.den)

    def is_invariant(self, poly):
        """Whether poly over `full` is invariant: its representatives give it back."""
        return self.expand(self.restrict(poly)) == poly


# memoized on positional arguments, so every spelling of a request shares one instance
_weil_table = lru_cache(maxsize=None)(WeilTable)


def weil_table(genus, flip="qt"):
    """The memoized `WeilTable` of a genus >= 0 and a flip, "qt" or "q"."""
    if genus < 0:
        raise ValueError("genus must be nonnegative, got %d" % genus)
    return _weil_table(genus, flip)
