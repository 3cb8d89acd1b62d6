"""Exact arithmetic kernel.

Everything downstream works in the Laurent polynomial ring
Q[q^{+-1}, t^{+-1}, a_1^{+-1}, ..., a_g^{+-1}, ...] and in the localization
obtained by inverting differences of monomials.  Three representation choices
drive the whole module and are relied on by callers:

* rational functions are stored as an expanded numerator over a *multiset of
  binomial factors*, never as an expanded denominator, so cancellation is a
  sequence of exact divisions rather than a multivariate gcd; a sum's common
  denominator matches factors of one direction by divisibility (x^aw - 1
  divides x^bw - 1 when a | b) rather than taking the multiset union, and
  a factor that coprimality rules out (binomials of distinct primitive
  directions share no factor) is never tried, nor is any factor on a
  numerator whose coefficients do not sum to zero (every factor vanishes
  where all variables are 1, `_trial_divide`); most trial divisions
  still fail, and `exact_divide` refuses most of those from two line sums;
  exact division never refuses in-range input: it returns the quotient or
  raises NotDivisibleError;
* a canonical factor x^m2 (x^v - 1) whose v = m1 - m2 is primitive is
  prime in the Laurent ring, so it divides a product iff it divides one
  of the factors: a product of Fractions (`_reduced_product`, behind
  `Fraction.__mul__` and `mul_poly`) tries such a factor of one
  denominator on the other numerator before multiplying, and only the
  factors X^k - 1 with k > 1 on the product;
* every denominator factor is kept in a canonical form (monomial content
  removed, larger monomial first in lexicographic order), which makes multiset
  intersection meaningful and keeps signs deterministic;
* every Fraction is reduced: no denominator factor divides the numerator,
  and a zero Fraction has no denominator.  `Fraction(num, den)` cancels;
  only this module skips that, and only where the result is reduced
  already, so a Fraction left with a denominator is not a polynomial;
* the product or sum of two Fractions with no denominator has none, so it
  is reduced: `_reduced_product` and `Fraction.__add__` multiply or add
  the numerators and try nothing (no prime dict, no lcd, no coefficient
  sum), and `sums` hands such a pair of summands to `Fraction.__add__`.

A sum of many Fractions goes through `fraction_sum`, which adds them
pairwise in a balanced tree: a left-to-right fold carries one growing
partial sum through every addition, so every cofactor product and trial
division would be paid on the largest operand.

* Row-packed sums (module `sums`, which makes each addition of the tree,
  `sums._add`): a summand is a reduced Fraction or its numerator, with int
  coefficients, held as q-rows over its den (`sums._Rows`), one
  int X_r = N_r(2^W) per monomial r in the variables other than q, N_r
  the row's polynomial in q.  Evaluation at q = 2^W is a ring map, so
  lifts, sums and the row divisions are exact integer arithmetic, and the
  one invariant is: every int that is decoded or decides anything is the
  image of a polynomial with coefficients in (-2^(W-1), 2^(W-1)), which
  that image determines (its balanced base-2^W digits).  Each partial sum
  carries a proven coefficient bound (a leaf's largest |c|, times the
  cofactor's l1 norm on lifting, added on summing, times the line length
  per quotient) and is re-measured exactly or widened before any step
  whose bound would reach 2^(W-1).  The proofs are in `sums`; the sum is
  the Fraction `Fraction.__add__` gives, factor for factor.

A product of binomials prod (x^e1 - x^e2) is given once, as its list of
pairs (e1, e2): `binomial_product` expands it into a numerator, and
`over_binomials` divides a numerator by it, putting each pair in canonical
form and folding its sign and monomial unit into the numerator.  Term
builders list their pairs and hand them to one of the two; only this module
sees the canonical form.

Monomials are packed: the exponent vector (e_0, ..., e_{n-1}) of a table with
n variables is the single Python int sum_i e_i * 2^(32 (n - 1 - i)), that is
base 2^32 with balanced (signed) digits and q as the most significant digit.
Integer order on packed monomials is the lexicographic order on exponent
vectors, and the packing is linear, so multiplying monomials adds their
packed ints, an Adams operation multiplies them, and a monomial substitution
is a linear map.  `VarTable` owns the format: `exps`, `pack`, `unpack`, the
digit readers `digit`, `digits` and `digit_range`, and the unit steps
`unit_exps` are the way in and out, and `tails` gives the packed part from
one variable on.  `VarTable` is the only reader of the digit layout: `sums`
reads its row keys and `weil.WeilTable` its a-slices through these.  It
also owns printed order: `format_terms` formats a polynomial given as
groups of terms with image offsets (`orbit_groups`), leading term first.

Every stored exponent lies in [-2^30, 2^30) (`EXP_LIMIT`).  `exps` and `pack`
refuse anything outside with `ExponentRangeError`, and so does every kernel
operation whose result would leave the range: products, monomial shifts,
Adams operations, substitutions and t-expansions check their results (or,
for Adams operations, their inputs) before anything is stored.  A digit never
carries into its neighbour silently: the sum or difference of two in-range
exponents still has digits within +-2^31, where the check is exact.
Outside this module only `VarTable` refuses the range: `check_range` scans
packed keys and `check_exponents` single exponents, such as the top image
of a Weil slice or a q-range of `sums`' rows.

Every LaurentPoly carries exponent bounds, so that these checks and the
ranges `exact_divide` walks need no scan of the terms.  Only those two
decide anything from stored bounds: the range scan that a product, shift or
Adams operation skips when `VarTable.fits` proves it, and the dividend range
of `exact_divide`; everything else only carries them.  `bounds` is None
(nothing known) or a tuple with one entry per variable: None (unknown) or a
pair (lo, hi), -EXP_LIMIT <= lo <= hi < EXP_LIMIT, that contains that
variable's exponent in every term.
* A product's bounds are the sums of its factors': over a domain the
  extreme terms of a product do not cancel, its Newton polytope is the
  Minkowski sum of the factors', so the sums are exact where the factors'
  bounds are.  On a `slicewise` table (`weil.WeilTable` at genus >= 1) a
  product mixes slices, and that holds only when one factor is a-free.
* A shift adds the shift's exponents, an Adams operation multiplies by n,
  negation and scaling keep the bounds, and an exact quotient shrinks them
  (`exact_divide`); all of these are exact where the operand's are.  A sum
  takes the hull, which is loose where extreme terms cancel.
* `one`, `monomial`, `binomial_product`, a factor's `to_poly` and
  `weil.WeilTable.product` fill them in; every other constructor leaves
  them unknown, and `exact_divide` fills in the one entry it reads.
A product, shift or Adams operation whose bounds prove its result in range
(`VarTable.fits`) stores it without the scan; otherwise it scans as it
would without bounds, so every refusal is the scan's, and the bounds of
what passes are cut to the range.  `var_range` and the pole test of
`t_expand` still read the terms.

Coefficients are exact rationals; no floats enter the kernel.  On the
symbolic pipeline they stay Python ints end to end: the hook-product series
has integer numerators, `series.scaled_pleth_log` carries r * Log_r instead
of Log_r, and exact division by a binomial only forms running sums.  The
one division by r per coefficient is exact: per cleared coefficient in `dt`
(`LaurentPoly.divide_coefficients`), in `series.pleth_log` and
`series.pleth_exp` through `Fraction.divide` (lambda-ring integrality, and
Gauss's lemma: binomials are primitive).  fractions.Fraction coefficients
still work everywhere, for hand-built inputs.
"""

import math
from fractions import Fraction as Q
from functools import lru_cache
from typing import NamedTuple

DIGIT_BITS = 32                 # width of one packed exponent
EXP_BITS = 30
EXP_LIMIT = 1 << EXP_BITS       # stored exponents lie in [-EXP_LIMIT, EXP_LIMIT)
_HALF = 1 << (DIGIT_BITS - 1)   # balanced digits are exact in [-_HALF, _HALF)
_DIGIT_MASK = (1 << DIGIT_BITS) - 1
PIECE_TERMS = 4096              # `VarTable.format_terms` closes a piece at this many terms


class _Memo(dict):
    """A dict that computes fn(key) on its first lookup of key."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class AlgebraError(Exception):
    pass


class NotDivisibleError(AlgebraError):
    """Exact division failed: the divisor is not a factor of the dividend.

    Given a table and a packed monomial, the message ends with that monomial,
    formatted only when the text is read: nearly every failed division is a
    trial division whose error is caught and never shown.
    """

    def __init__(self, message, table=None, exps=None):
        super().__init__(message)
        self.table, self.exps = table, exps

    def __str__(self):
        text = super().__str__()
        if self.table is None:
            return text
        return "%s %s" % (text, self.table.format_exps(self.exps))


class TableMismatchError(AlgebraError):
    """Operands live over different variable tables."""


class ZeroDenominatorError(AlgebraError):
    """A denominator factor degenerated to zero under substitution."""


class ExponentRangeError(AlgebraError):
    """An exponent would leave the packed range [-EXP_LIMIT, EXP_LIMIT)."""


class VarTable:
    """Ordered variable table shared by all objects of one computation.

    Order is fixed as q, t, a1..ag, z1..zn; the induced lexicographic
    order on exponent vectors is the monomial order used to orient binomial
    factors, and it is the integer order of packed monomials.  Tables compare
    by their class and name tuple, and `var_table` memoizes construction so
    identical requests share one instance.
    """

    __slots__ = ("names", "index", "arity", "genus", "nz",
                 "_shifts", "_bias", "_guards")

    # whether a product mixes the a-slices of its factors, so that its
    # bounds are the sums of theirs only when one factor is a-free
    # (`weil.WeilTable` at genus >= 1)
    slicewise = False

    def __init__(self, genus=0, nz=0):
        for what, n in (("genus", genus), ("nz", nz)):
            if n < 0:
                raise ValueError("%s must be nonnegative, got %d" % (what, n))
        names = (["q", "t"] + ["a%d" % i for i in range(1, genus + 1)]
                 + ["z%d" % i for i in range(1, nz + 1)])
        self.names = tuple(names)
        self.index = {nm: i for i, nm in enumerate(self.names)}
        self.arity = len(self.names)
        self.genus = genus
        self.nz = nz
        self._shifts = tuple(DIGIT_BITS * (self.arity - 1 - i)
                             for i in range(self.arity))
        # adding _bias turns balanced digits into plain base-2^32 digits
        self._bias = self._spread(_HALF)
        self._guards = {}

    def __eq__(self, other):
        # tables are memoized, so most comparisons meet the same instance
        return self is other or type(other) is type(self) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(self.names))

    # -- the packed format ------------------------------------------------

    def _spread(self, digit):
        """The packed int with every digit equal to `digit`."""
        return sum(digit << s for s in self._shifts)

    def pack(self, exps):
        """Packed monomial of an exponent vector; refuses out-of-range entries."""
        exps = tuple(exps)
        if len(exps) != self.arity:
            raise ValueError("expected %d exponents, got %d" % (self.arity, len(exps)))
        for e in exps:
            if not -EXP_LIMIT <= e < EXP_LIMIT:     # tested inline: pack is hot
                self.check_exponents(e)
        return sum(e << s for e, s in zip(exps, self._shifts))

    def check_exponents(self, *exps):
        """Refuse, with `pack`'s message, an exponent of exps out of range;
        the two ends of an interval stand for all of it."""
        for e in exps:
            if not -EXP_LIMIT <= e < EXP_LIMIT:
                raise ExponentRangeError("exponent %d outside [-2^%d, 2^%d)"
                                         % (e, EXP_BITS, EXP_BITS))

    def unpack(self, e):
        """Exponent vector of a packed monomial."""
        x = e + self._bias
        return tuple((x >> s & _DIGIT_MASK) - _HALF for s in self._shifts)

    def digit(self, e, i):
        """Exponent of variable i in the packed monomial e."""
        return ((e + self._bias) >> self._shifts[i] & _DIGIT_MASK) - _HALF

    def digits(self, keys, i):
        """Exponent of variable i in every packed monomial of keys, in order."""
        bias, s = self._bias, self._shifts[i]
        return [((e + bias) >> s & _DIGIT_MASK) - _HALF for e in keys]

    def digit_range(self, keys, i):
        """(min, max) exponent of variable i over the nonempty collection keys."""
        if i == 0:
            # the leading exponent grows with the packed int
            return self.digit(min(keys), 0), self.digit(max(keys), 0)
        # digit i and the ones below it, unsigned: ordered by digit i first
        s = self._shifts[i]
        off, low = sum(_HALF << t for t in self._shifts[i:]), (1 << s + DIGIT_BITS) - 1
        xs = [(e + off) & low for e in keys]
        return (min(xs) >> s) - _HALF, (max(xs) >> s) - _HALF

    def tails(self, keys, i):
        """The packed part in variables i, i + 1, ... of every key, in order."""
        low = (1 << DIGIT_BITS * (self.arity - i)) - 1
        bias, off = self._bias, self._bias & low
        return [((e + bias) & low) - off for e in keys]

    def check_range(self, keys, scale=1):
        """Refuse unless scale * e stays in range for every key e of keys.

        keys is a collection (it is read twice on failure).  For scale 1 the
        test is exact on any packed value whose digits lie within +-2^31,
        such as a sum or difference of two in-range monomials; a larger
        scale demands |e_i| below EXP_LIMIT / 2^ceil(log2 scale).
        """
        bits = EXP_BITS - (scale - 1).bit_length()
        guard = self._guards.get(bits)
        if guard is None:
            # in range iff e + bias has no bit at or above `bits + 1` in any digit
            high = _DIGIT_MASK ^ ((2 << bits) - 1)
            guard = self._guards[bits] = (self._spread(1 << bits), self._spread(high))
        bias, mask = guard
        seen = 0
        for e in keys:
            seen |= e + bias
        if seen & mask:
            bad = next(e for e in keys if (e + bias) & mask)
            raise ExponentRangeError(
                "exponent range [-2^%d, 2^%d) exceeded%s at %s"
                % (EXP_BITS, EXP_BITS, " after scaling by %d" % scale if scale != 1 else "",
                   self.unpack(bad)))

    def exact_bounds(self, keys):
        """The exact bounds (module docstring) of a few packed monomials."""
        return tuple((min(d), max(d)) for d in zip(*map(self.unpack, keys)))

    def fits(self, bounds, scale=1):
        """Whether bounds prove that check_range(keys, scale) passes for
        every collection keys they contain: every entry is known and lies
        where that check demands the digits to lie."""
        if bounds is None:
            return False
        lim = 1 << (EXP_BITS - (scale - 1).bit_length())
        return all(b is not None and -lim <= b[0] and b[1] < lim for b in bounds)

    def exps(self, **kw):
        """Packed monomial with the named exponents set, all others zero."""
        e = [0] * self.arity
        for nm, v in kw.items():
            e[self.index[nm]] = v
        return self.pack(e)

    def zero_exps(self):
        return 0

    def unit_exps(self, name):
        return 1 << self._shifts[self.index[name]]

    def format_exps(self, exps):
        """Render a packed monomial as e.g. 'q^2 t a1^-1'; constant is '1'."""
        return self._part_texts(self.names, "%s^%d")[0](exps, range(self.arity)) or "1"

    def _part_texts(self, names, power):
        """(text, bare, spaced) in names and the power format: text(e, idx)
        is the part of the packed monomial e in the variables idx, "" if
        they all have exponent 0; bare maps an a-part (`tails(keys, 2)`) to
        its text, "1" for 1, and spaced to " " and its text, "" for 1, each
        formatted on its first lookup."""
        shifts, bias, rest = self._shifts, self._bias, range(2, self.arity)

        def text(e, idx):
            x, bits = e + bias, []
            for i in idx:
                d = (x >> shifts[i] & _DIGIT_MASK) - _HALF
                if d:
                    bits.append(names[i] if d == 1 else power % (names[i], d))
            return " ".join(bits)
        return (text, _Memo(lambda a: text(a, rest) or "1"),
                _Memo(lambda a: " " + text(a, rest) if a else ""))

    def orbit_groups(self, poly):
        """The (terms, offsets) groups of the polynomial that poly stands
        for: its terms are the images e + o of every term e and offset o of
        a group, all distinct.  Here that is poly itself, one group at
        offset 0; `weil.WeilTable` gives one group per representative
        slice."""
        return ((poly.terms, (0,)),)

    def format_terms(self, groups, names=None, power="%s^%d"):
        """The terms of the polynomial given by (terms, offsets) groups
        (`orbit_groups`), leading term first: an iterator of pieces
        (monomials, coefficients), two flat lists of the `format_exps` texts
        of the images and of str() of their coefficients.

        The (q, t) part of an image e + o is the sum of e's and o's, and so
        is its a-part, its part in the other variables (`tails`).  The
        packed order takes the (q, t) part first, so the images are bucketed
        by it and the buckets taken in descending order, each with its
        a-parts sorted descending.  A piece is a run of whole buckets, closed
        once it holds at least PIECE_TERMS terms, so only one piece's texts
        and one bucket's images are held at a time.  Without a-parts (arity
        2, as at genus 0) every image is a bucket of its own, and the images
        are sorted at once instead.  Each (q, t) part, distinct a-part and
        distinct coefficient is formatted once.  names (default: the
        table's) and the power format, applied to a name and an exponent
        other than 0 and 1, set the style.
        """
        text, bare, spaced = self._part_texts(names or self.names, power)
        coeffs = _Memo(str)
        if self.arity == 2:
            # one sort and no bucket index: the buckets would hold one image each
            images = {e + o: c for terms, offsets in groups for o in offsets
                      for e, c in terms.items()}
            keys = sorted(images, reverse=True)
            for i in range(0, len(keys), PIECE_TERMS):
                piece = keys[i:i + PIECE_TERMS]
                yield ([text(e, (0, 1)) or "1" for e in piece],
                       [coeffs[images[e]] for e in piece])
            return
        # (q, t) part -> [coefficient text, a-part, a-parts of offsets, ...]
        buckets = {}
        for terms, offsets in groups:
            shifts = {}     # an offset's (q, t) part -> the a-parts at it
            for o, a in zip(offsets, self.tails(offsets, 2)):
                shifts.setdefault(o - a, []).append(a)
            for (e, c), a in zip(terms.items(), self.tails(terms, 2)):
                c = coeffs[c]
                for d, tails in shifts.items():
                    b = buckets.get(e - a + d)
                    if b is None:
                        buckets[e - a + d] = [c, a, tails]
                    else:
                        b += (c, a, tails)
        monos, texts = [], []
        for qt in sorted(buckets, reverse=True):
            row = {}
            flat = iter(buckets.pop(qt))
            for c, a, tails in zip(flat, flat, flat):
                for t in tails:
                    row[a + t] = c
            keys = sorted(row, reverse=True)
            texts += map(row.__getitem__, keys)
            hi = text(qt, (0, 1))
            if hi:
                monos += map(hi.__add__, map(spaced.__getitem__, keys))
            else:
                monos += map(bare.__getitem__, keys)
            if len(monos) >= PIECE_TERMS:
                yield monos, texts
                monos, texts = [], []
        if monos:
            yield monos, texts

    # -- constructors -----------------------------------------------------

    def zero(self):
        return LaurentPoly(self, {})

    def one(self):
        return LaurentPoly(self, {0: 1}, ((0, 0),) * self.arity)

    def monomial(self, exps, coeff=1):
        if not coeff:
            return self.zero()
        self.check_range((exps,))
        return LaurentPoly(self, {exps: coeff}, self.exact_bounds((exps,)))

    def var(self, name):
        return self.monomial(self.unit_exps(name))

    def product(self, f):
        """prod_{i=1..g} f(a_i), g the genus: f maps the packed exponent of a
        monomial u to f(u), a polynomial over this table in u and the
        a-free variables.  `weil.WeilTable` builds the same product on
        orbit representatives."""
        out = self.one()
        for i in range(1, self.genus + 1):
            out = out * f(self.unit_exps("a%d" % i))
        return out

    def mul_terms(self, a, b):
        """Terms of the product of the term dicts a and b, a the shorter and
        nonempty, both without zero coefficients; a coefficient that sums
        to zero is deleted where it does, so none is stored."""
        rows = iter(a.items())
        ea, ca = next(rows)
        # the first row cannot collide with itself: no lookups needed
        out = {ea + eb: ca * cb for eb, cb in b.items()}
        get = out.get
        for ea, ca in rows:
            for eb, cb in b.items():
                e = ea + eb
                c = get(e, 0) + ca * cb
                if c:
                    out[e] = c
                else:
                    # ca * cb != 0, so a zero sum met a stored term
                    del out[e]
        return out


# memoized on positional arguments, so every spelling of a request shares one instance
_var_table = lru_cache(maxsize=None)(VarTable)


def var_table(genus=0, nz=0):
    return _var_table(genus, nz)


def _check_tables(a, b):
    if a.table != b.table:
        raise TableMismatchError("operands use different variable tables: %r vs %r"
                                 % (a.table, b.table))


def _substitute(table, keys, images):
    """Packed images of the monomials in keys under a monomial substitution.

    images maps a variable index to the packed image of that variable;
    unmapped variables stay themselves.  The substitution is linear on
    exponents, so the image of e is e + sum over mapped i of
    e_i * (image_i - x_i): one digit read per mapped variable and term.
    """
    keys = list(keys)
    out = keys
    # |digit j of an image| <= bound[j]; below 2^31 the range check is exact
    bound = [0 if i in images else EXP_LIMIT for i in range(table.arity)]
    for i, img in images.items():
        d = table.digits(keys, i)
        reach = max(map(abs, d), default=0)
        for j, c in enumerate(table.unpack(img)):
            bound[j] += reach * abs(c)
        step = img - table.unit_exps(table.names[i])
        out = [e + x * step for e, x in zip(out, d)]
    if max(bound) >= _HALF:
        raise ExponentRangeError("substitution may leave the exponent range "
                                 "[-2^%d, 2^%d)" % (EXP_BITS, EXP_BITS))
    table.check_range(out)
    return out


def _clamped(bounds):
    """bounds cut to the stored range, once a scan has shown every term in it."""
    return bounds and tuple(b and (max(b[0], -EXP_LIMIT), min(b[1], EXP_LIMIT - 1))
                            for b in bounds)


def _hull(a, b):
    """The bounds of a sum of two nonzero polynomials with bounds a and b."""
    return a and b and tuple(x and y and (min(x[0], y[0]), max(x[1], y[1]))
                             for x, y in zip(a, b))


def _product_bounds(x, y):
    """The bounds of the product of the LaurentPolys x and y: the sums of
    theirs, or None where they are not known to hold."""
    a, b = x.bounds, y.bounds
    if a is None or b is None:
        return None
    table = x.table
    if table.slicewise and not any(
            all(e == (0, 0) for e in ab[2:2 + table.genus]) for ab in (a, b)):
        return None
    return tuple(u and w and (u[0] + w[0], u[1] + w[1]) for u, w in zip(a, b))


class LaurentPoly:
    """Laurent polynomial: dict from packed monomial to nonzero rational,
    with the exponent bounds of the module docstring (None: none known)."""

    __slots__ = ("table", "terms", "bounds")

    def __init__(self, table, terms, bounds=None):
        self.table = table
        self.terms = terms
        self.bounds = bounds

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

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
        bounds = (_hull(self.bounds, other.bounds) if self.terms and other.terms
                  else self.bounds if self.terms else other.bounds)
        return LaurentPoly(self.table, out, bounds)

    def __neg__(self):
        return LaurentPoly(self.table, {e: -c for e, c in self.terms.items()}, self.bounds)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _check_tables(self, other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return self.table.zero()
        table = self.table
        out = table.mul_terms(a, b)
        bounds = _product_bounds(self, other)
        if not table.fits(bounds):
            table.check_range(out)
            bounds = _clamped(bounds)
        return LaurentPoly(table, out, bounds)

    def scale(self, c):
        if not c:
            return self.table.zero()
        return LaurentPoly(self.table, {e: co * c for e, co in self.terms.items()},
                           self.bounds)

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
        return LaurentPoly(self.table, out, self.bounds)

    def mono_mul(self, exps, coeff=1):
        """Multiply by coeff * x^exps (a single monomial)."""
        if not exps:
            return self if coeff == 1 else self.scale(coeff)
        if not coeff:
            return self.table.zero()
        table = self.table
        table.check_range((exps,))
        out = {e + exps: c * coeff for e, c in self.terms.items()}
        bounds = self.bounds and tuple(b and (b[0] + d, b[1] + d)
                                       for b, d in zip(self.bounds, table.unpack(exps)))
        if not table.fits(bounds):
            table.check_range(out)
            bounds = _clamped(bounds)
        return LaurentPoly(table, out, bounds)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = self.table.one()
        for _ in range(n):
            out = out * self
        return out

    # -- structure maps ---------------------------------------------------

    def adams(self, n):
        """Adams operation: every variable exponent is multiplied by n >= 1."""
        if n == 1:
            return self
        if n < 1:
            raise ValueError("Adams operations need n >= 1, got %d" % n)
        bounds = self.bounds and tuple(b and (n * b[0], n * b[1]) for b in self.bounds)
        if not self.table.fits(self.bounds, scale=n):
            self.table.check_range(self.terms, scale=n)
            bounds = _clamped(bounds)
        return LaurentPoly(self.table, {n * e: c for e, c in self.terms.items()}, bounds)

    def substitute_monomials(self, images):
        """Substitute variables by monomials.

        images maps a variable index to the packed monomial of its image;
        unmapped variables stay themselves.  Images are monomials with
        coefficient 1, which keeps the map a ring homomorphism on the
        Laurent ring.
        """
        out = {}
        for k, c in zip(_substitute(self.table, self.terms, images),
                        self.terms.values()):
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return LaurentPoly(self.table, out)

    def set_var_one(self, name):
        if not self.uses_var(name):
            return self
        return self.substitute_monomials({self.table.index[name]: 0})

    def eval(self, values):
        """Evaluate at a full vector of exact rational values.

        Integer values are coerced to Fraction so negative exponents stay
        exact; the value is a Fraction, also for a zero or constant poly.
        """
        if len(values) != self.table.arity:
            raise ValueError("expected %d values" % self.table.arity)
        values = [Q(v) if isinstance(v, int) else v for v in values]
        total = Q(0)
        for e, c in self.terms.items():
            acc = c
            for x, ei in zip(values, self.table.unpack(e)):
                if ei:
                    acc = acc * x ** ei
            total = total + acc
        return total

    # -- inspection -------------------------------------------------------

    def var_range(self, name):
        """(min, max) exponent of one variable over the support; (0, 0) if absent."""
        if not self.terms:
            return (0, 0)
        return self.table.digit_range(self.terms, self.table.index[name])

    def uses_var(self, name):
        return any(self.table.digits(self.terms, self.table.index[name]))

    def __repr__(self):
        pieces = self.table.format_terms(((self.terms, (0,)),))
        return " + ".join(c + "*" + m for monos, coeffs in pieces
                          for m, c in zip(monos, coeffs)) or "0"


class BinomialFactor(NamedTuple):
    """Canonical difference of monomials m1 - m2, both packed.

    Invariants: m1 != m2, componentwise min(m1, m2) == 0 (no monomial
    content), and m1 > m2 lexicographically (as packed ints).
    """

    m1: int
    m2: int

    def to_poly(self, table):
        return LaurentPoly(table, {self.m1: 1, self.m2: -1}, table.exact_bounds(self))


def canonical_binomial(table, e1, e2):
    """Decompose x^e1 - x^e2 as sign * x^unit * (m1 - m2) with (m1, m2) canonical.

    Returns (factor, unit_exps, sign), all packed over table.  Raises
    ZeroDenominatorError when the two monomials coincide.
    """
    table.check_range((e1, e2))
    if e1 == e2:
        raise ZeroDenominatorError("binomial degenerated: %s - %s"
                                   % (table.format_exps(e1), table.format_exps(e2)))
    unit = table.pack(map(min, table.unpack(e1), table.unpack(e2)))
    r1, r2 = e1 - unit, e2 - unit
    table.check_range((r1, r2))
    if r1 > r2:
        return BinomialFactor(r1, r2), unit, 1
    return BinomialFactor(r2, r1), unit, -1


def binomial_product(table, pairs):
    """prod (x^e1 - x^e2) over pairs, expanded: the twin of `over_binomials`.

    A pair with e1 == e2 makes the product zero.  The factors are multiplied
    in the order given.
    """
    out = table.one()
    for e1, e2 in pairs:
        table.check_range((e1, e2))
        out = out * (LaurentPoly(table, {e1: 1, e2: -1}, table.exact_bounds((e1, e2)))
                     if e1 != e2 else table.zero())
    return out


def over_binomials(num, pairs):
    """num / prod (x^e1 - x^e2) over pairs as a reduced Fraction, nothing
    expanded: the twin of `binomial_product`.

    x^e1 - x^e2 = sign * x^unit * (m1 - m2) with (m1, m2) canonical, so each
    pair adds m1 - m2 to the denominator and its sign and x^-unit to the
    numerator.  A pair with e1 == e2 raises ZeroDenominatorError.
    """
    table = num.table
    sign, unit, factors = 1, table.zero_exps(), []
    for e1, e2 in pairs:
        f, u, s = canonical_binomial(table, e1, e2)
        sign *= s
        unit += u
        factors.append(f)
    return Fraction(num.mono_mul(-unit, sign), factors)


def exact_divide(poly, factor):
    """Divide a LaurentPoly by a canonical BinomialFactor, exactly.

    With v = m1 - m2 the factor is x^m2 * (x^v - 1), so p = quotient * factor
    reads quo(e - m2) = quo(e - m1) - p(e) along every line e + Z*v: the
    quotient is the negated running sum of the dividend's coefficients along
    each line, and the division is exact iff every line sums to zero.
    Linear time, no term-order descent, valid for genuinely Laurent supports.
    The result is the quotient or NotDivisibleError, for any in-range
    dividend: exact division never refuses.

    Lines are measured in the coordinate i0 where |v_i| is largest (the
    first such): a line leaves the dividend once its digit there leaves
    [lo, hi], the dividend's bounds in i0, so a walk from a term meets the
    dividend again within steps = (hi - lo) // |v_i0| steps of v, or never.
    The bounds are read from poly.bounds; only a missing entry i0 is
    computed, by one scan of that digit, and stored there for the next
    factor tried on the same dividend.  Known bounds lie in the stored
    range, so a superset of the support's range only lengthens the lines
    walked.  With the largest step, steps * max|v_i| = steps * |v_i0| <=
    hi - lo < 2^31, so every point tested (a term plus or minus one step,
    or plus at most steps steps) differs from each term by less than 2^32 in
    every digit, where packed ints are equal only if their exponent vectors
    are: every membership test is exact.

    Most divisions the kernel tries fail, so when the dividend has more
    terms than steps, two lines are probed first: the ones through the
    first and the last stored term, each summed whole in at most steps + 1
    dict lookups.  A nonzero sum is a remainder, so the refusal is exact;
    zero sums prove nothing and the walk below decides.

    The empty points that carried sums cross are charged to a budget of
    len(terms), once per gap.  When it runs out, every line is summed over
    its terms in one pass (`_sum_lines`), which refuses exactly or proves
    the division exact, and the walk then finishes uncharged.  So a
    refusal walks at most len(terms) empty points, and a carry crosses
    more only in an exact division, where every one of them is a quotient
    term.  While the budget lasts, a carry that finds no run within steps
    refuses as it stands.

    The sums are taken run by run, a run being a maximal stretch e, e + v,
    ..., e + k*v of the support, walked from its lowest term.  A run whose
    sum is not zero carries it through the gap to the next run of its line,
    which must exist within steps of it.  Runs start in increasing packed
    order, which is increasing along each line (v > 0 as a packed int), so
    a carried sum always reaches a run that has not been walked yet.

    The quotient of an exact division needs no range check, and its bounds
    are the dividend's, shrunk: the Newton polytope of the dividend is the
    quotient's plus the factor's segment from 0 (the factor's smaller end,
    the factor being canonical) to |v| per variable, and over a domain the
    extreme terms of a product do not cancel, so the quotient's range in
    variable i is [lo_i, hi_i - |v_i|], exact when the dividend's is.
    """
    terms = poly.terms
    if not terms:
        return poly
    table = poly.table
    m1, m2 = factor
    v = m1 - m2
    vs = table.unpack(v)
    i0 = max(range(table.arity), key=lambda i: abs(vs[i]))
    bounds = poly.bounds or (None,) * table.arity
    if bounds[i0] is None:
        bounds = poly.bounds = (bounds[:i0] + (table.digit_range(terms, i0),)
                                + bounds[i0 + 1:])
    lo, hi = bounds[i0]
    vi = abs(vs[i0])
    steps = (hi - lo) // vi
    get = terms.get
    if steps < len(terms):
        for e in (next(iter(terms)), next(reversed(terms))):
            # the whole line through e, every point of it within [lo, hi]
            d = table.digit(e, i0)
            back, ahead = (d - lo) // vi, (hi - d) // vi
            if vs[i0] < 0:
                back, ahead = ahead, back
            if sum(get(e + j * v, 0) for j in range(-back, ahead + 1)):
                raise NotDivisibleError("remainder on the line through", table, e)
    starts = sorted([e for e in terms if e - v not in terms])
    out = {}
    joined = set()    # run starts reached by a carried sum
    budget = len(terms)    # empty points carried sums may cross unproven
    for e in starts:
        if e in joined:
            continue
        d, c = 0, terms[e]
        while True:
            # c is the coefficient at e; the lookup of the next point both
            # tests it for the support and reads what the next step subtracts
            d -= c
            nxt = e + v
            c = get(nxt)
            if d:
                out[e - m2] = d
                if c is None:
                    # the next run starts within steps of e, or never
                    for k in range(min(steps - 1, budget)):
                        out[nxt - m2] = d
                        nxt += v
                        c = get(nxt)
                        if c is not None:
                            budget -= k + 1
                            break
                    else:
                        if budget >= steps - 1:
                            raise NotDivisibleError("remainder on the line through",
                                                    table, e)
                        # the budget ran out: unless a line sums to a
                        # remainder, the division is exact and the next run
                        # is there
                        _sum_lines(table, terms, i0, lo, vi, v if vs[i0] > 0 else -v)
                        budget = math.inf
                        while c is None:
                            out[nxt - m2] = d
                            nxt += v
                            c = get(nxt)
                    joined.add(nxt)
            elif c is None:
                break
            e = nxt
    return LaurentPoly(table, out, tuple(b and (b[0], b[1] - abs(d))
                                         for b, d in zip(bounds, vs)))


def _sum_lines(table, terms, i0, lo, vi, w):
    """Sum every line of `exact_divide` over its terms in one pass; raise
    NotDivisibleError naming the first term of a line with a nonzero sum.

    w = +-v has digit i0 equal to vi > 0.  A term f goes back
    (f_i0 - lo) // vi <= steps steps, to its line's one point with digit i0
    in [lo, lo + vi); two such points are equal only if their exponent
    vectors are, each differing from its term, and terms from each other,
    by less than 2^31 in every digit."""
    first, lines = {}, {}
    for (f, c), d in zip(terms.items(), table.digits(terms, i0)):
        e = first.setdefault(f - (d - lo) // vi * w, f)
        lines[e] = lines.get(e, 0) + c
    for e, line in lines.items():
        if line:
            raise NotDivisibleError("remainder on the line through", table, e)


@lru_cache(maxsize=None)
def _direction(table, factor):
    """Primitive direction of m1 - m2 (its first nonzero entry is positive)."""
    v = factor.m1 - factor.m2
    return v // math.gcd(*table.unpack(v))


@lru_cache(maxsize=None)
def _binomial_quotient(table, big, small):
    """big / small for canonical factors of one direction, small's k dividing
    big's: x^(big.m2 - small.m2) (1 + X^a + ... + X^(b - a)), b/a terms."""
    return exact_divide(big.to_poly(table), small)


def _lcd_parts(table, only_a, only_b):
    """The factors of one side only, matched by divisibility.

    Returns (tried, kept, mul_a, mul_b).  tried + kept is the matched common
    multiple of prod(only_a) and prod(only_b), tried holding its factors in
    the directions both lists share; mul_a and mul_b are polynomials whose
    products are that multiple over prod(only_a) and over prod(only_b).  A
    factor is x^neg(kw) (X^k - 1) with X = x^w, w = _direction.  Within a
    direction, taken largest k first, a factor is matched with the largest
    unmatched factor of the other list whose k divides its own and stands in
    for both: the other side takes the quotient, 1 + X^a + ... up to a
    monomial, instead of the whole binomial.
    """
    by_dir = {}
    for side, fs in enumerate((only_a, only_b)):
        for f in fs:
            w = _direction(table, f)
            by_dir.setdefault(w, []).append(((f.m1 - f.m2) // w, side, f))
    tried, kept, mul = [], [], ([], [])
    for group in by_dir.values():
        group.sort(reverse=True)
        out = tried if len({side for _, side, _ in group}) == 2 else kept
        matched = set()
        for i, (k, side, f) in enumerate(group):
            if i in matched:
                continue
            out.append(f)
            j = next((j for j in range(i + 1, len(group)) if j not in matched
                      and group[j][1] != side and k % group[j][0] == 0), None)
            if j is None:
                mul[1 - side].append(f.to_poly(table))
            else:
                matched.add(j)
                mul[1 - side].append(_binomial_quotient(table, f, group[j][2]))
    return tried, kept, mul[0], mul[1]


def _lcd(table, da, db):
    """(tried, kept, mul_a, mul_b) of the lcd of the dens da and db, as
    `Fraction.__add__` takes it: the factors the sum tries (the common ones,
    then `_lcd_parts`'s tried), those it keeps untried, and the cofactors
    that lift each numerator."""
    if da == db:
        return list(da), (), (), ()
    common, only_a, only_b = [], list(da), []
    for f in db:
        if f in only_a:
            only_a.remove(f)
            common.append(f)
        else:
            only_b.append(f)
    tried, kept, mul_a, mul_b = _lcd_parts(table, only_a, only_b)
    return common + tried, kept, mul_a, mul_b


def _lifted_sum(na, nb, lcd):
    """na / prod(da) + nb / prod(db) over their lcd (`_lcd`), reduced."""
    tried, kept, mul_a, mul_b = lcd
    for p in mul_a:
        na = na * p
    for p in mul_b:
        nb = nb * p
    num, left = _reduce_fraction(na + nb, tried)
    return Fraction._reduced(num, left + tuple(kept))


def _quotient(num, f):
    """num / f, or None if f does not divide num."""
    try:
        return exact_divide(num, f)
    except NotDivisibleError:
        return None


def _zero_sum(num):
    return not sum(num.terms.values())


def _trial_divide(num, den, divide, zero_sum):
    """(num with the factors of den that divide it divided out, the factors
    left), on dicts or rows: divide(num, f) is the quotient or None, and
    zero_sum(num) is False only where num's coefficients sum to nonzero.

    One pass suffices: a factor that does not divide num divides no quotient
    of it.  A numerator whose coefficients do not sum to zero is divisible
    by no factor, so nothing is tried on it (this covers a monomial, a unit):

    * every canonical factor m1 - m2 vanishes at the point 1 where every
      variable is 1, and evaluation there is a ring map of the Laurent
      ring, so f | N gives N(1) = (N / f)(1) * f(1) = 0; N(1) is the sum of
      N's coefficients;
    * over a `weil.WeilTable` at genus >= 1 the stored terms are the
      representative slices N_alpha of an invariant N, whose sum is not
      N(1).  But every Fraction over such a table has a-free factors (the
      term builders, `restrict_fraction` and `sigma` make no other kind,
      and sums, products, Adams operations and `t_expand` keep, drop or
      scale factors), and an a-free factor divides slice by slice: f | N gives
      N_alpha = f * Q_alpha for every alpha, so the stored coefficients sum
      to sum_alpha N_alpha(1) = 0 just the same.

    So the factors are tried once each, in den order, and once a quotient
    provably fails the test the remaining factors are kept untried.
    """
    if num.is_zero():
        return num, ()
    if not zero_sum(num):
        return num, tuple(den)
    kept = []
    factors = iter(den)
    for f in factors:
        y = divide(num, f)
        if y is None:
            kept.append(f)
        elif not zero_sum(num := y):
            kept.extend(factors)
    return num, tuple(kept)


def _reduce_fraction(num, den):
    """Cancel the factors of den that divide num: `_trial_divide` on dicts."""
    return _trial_divide(num, den, _quotient, _zero_sum)


def _reduced_product(na, da, nb, db):
    """(na / prod da) * (nb / prod db), both reduced, as a reduced Fraction:
    the product of `Fraction.__mul__` and of `mul_poly` (db empty).

    The result is Fraction(na * nb, sorted(da + db)), which multiplies
    first and tries every factor on the product, but a prime factor of one
    denominator is tried on the other numerator alone, before the product
    exists.  A canonical factor x^m2 (x^v - 1) whose v = m1 - m2 is its
    primitive direction (`_direction`) is prime:

    * a change of variables in GL_n(Z) taking the primitive v to the first
      basis vector is a ring automorphism of the Laurent ring, and it sends
      x^v - 1 to y - 1, which is prime;
    * so a prime f of da divides na * nb iff it divides na or nb, and it
      does not divide na, the fraction being reduced: f | na * nb iff
      f | nb, and dividing nb by f divides the product by f;
    * every other factor of f's direction w is X^k - 1, X = x^w, with
      k > 1 and a larger m1, so in sorted order the primes come first in
      their direction; a factor of another direction shares no prime
      factor with f (the cyclotomic Phi_d(X) are irreducible and differ
      between directions), so no factor tried before f changes whether
      f divides.

    The same holds for db and na; if f is in both denominators it divides
    neither numerator.  The factors X^k - 1 with k > 1 are tried on the
    product, in sorted order, after the primes: their cyclotomic parts may
    divide na and nb in turn, as in (q + 1)/(q^2 - 1) * (q - 1)/(t - 1) =
    1/(t - 1).  So every factor sees the divisions it would see in
    Fraction(na * nb, sorted(da + db)), and the result is that one.
    """
    _check_tables(na, nb)
    if not (da or db):
        return Fraction._reduced(na * nb, ())
    table = na.table
    prime = {f: _direction(table, f) == f.m1 - f.m2 for f in da + db}
    nb, kept_a = _reduce_fraction(nb, [f for f in da if prime[f]])
    na, kept_b = _reduce_fraction(na, [f for f in db if prime[f]])
    num, kept = _reduce_fraction(na * nb, sorted(f for f in da + db if not prime[f]))
    return Fraction._reduced(num, kept_a + kept_b + kept)


class Fraction:
    """Rational function: expanded numerator over a factored denominator.

    den is a sorted tuple of BinomialFactor; the represented value is
    num / prod(f for f in den).  Every Fraction is reduced: construction
    cancels the factors that divide the numerator, so no factor of den
    divides num, a zero Fraction has den == (), and the value is a Laurent
    polynomial exactly when den is empty.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=()):
        self.num, den = _reduce_fraction(num, den)
        self.den = tuple(sorted(den))

    @classmethod
    def _reduced(cls, num, den):
        """num / prod(den), known to be reduced unless num is zero (then den
        is dropped); nothing is tried."""
        out = cls.__new__(cls)
        out.num = num
        out.den = tuple(sorted(den)) if num.terms else ()
        return out

    @property
    def table(self):
        return self.num.table

    @classmethod
    def zero(cls, table):
        return cls(table.zero())

    @classmethod
    def one(cls, table):
        return cls(table.one())

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        """Sum over a divisibility-matched common denominator, reduced.

        With C the common multiset of the two denominators and A, B the
        factors of one side only, the lcd is C + L, L from `_lcd_parts`:
        within a primitive direction w a factor is x^neg(kw) (X^k - 1),
        X = x^w, and X^a - 1 divides X^b - 1 when a | b, so a factor of A
        and one of B whose k divide one another are matched and L keeps
        only the larger; unmatched factors enter L whole.  The sum is
        (na * L/A + nb * L/B) / lcd, where L/A is the product of the
        quotients of the pairs whose smaller factor is in A and of the
        unmatched factors of B.  C and the factors of L in a direction that
        both A and B have are tried.  A factor f of L in a direction that
        only A has is never tried, because it cannot divide that numerator:

        * f is an unmatched factor of A, so f divides L/B, and
          f | sum-numerator iff f | na * L/A;
        * up to a unit, f = X^k - 1 with X = x^w, w primitive; its
          irreducible factors are the cyclotomic Phi_d(X), which are
          irreducible in the Laurent ring and differ from those of any
          binomial of another primitive direction; every factor of L/A,
          a whole binomial or a quotient 1 + X'^a + ..., lies in a
          direction of B, so f is coprime to L/A and f | na * L/A iff
          f | na;
        * every Fraction is reduced, so f does not divide na.

        The same holds for B with the roles swapped.  Skipped factors leave
        the numerator alone, so the tried ones see exactly the divisions
        they would see anyway and the result is the one trying every factor
        of C + L gives.
        """
        _check_tables(self, other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if not (self.den or other.den):
            return Fraction._reduced(self.num + other.num, ())
        return _lifted_sum(self.num, other.num, _lcd(self.table, self.den, other.den))

    def __neg__(self):
        return Fraction._reduced(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return _reduced_product(self.num, self.den, other.num, other.den)

    def mul_poly(self, poly):
        return _reduced_product(self.num, self.den, poly, ())

    def scale(self, c):
        return Fraction._reduced(self.num.scale(c), self.den)

    def divide(self, n):
        """self / n, n > 0: exact on int coefficients, else scaled by 1/n."""
        if all(type(c) is int for c in self.num.terms.values()):
            return Fraction._reduced(self.num.divide_coefficients(n), self.den)
        return self.scale(Q(1, n))

    def mono_mul(self, exps, coeff=1):
        return Fraction._reduced(self.num.mono_mul(exps, coeff), self.den)

    def __eq__(self, other):
        """Equal values.  Both are reduced, so over one den they are equal
        iff their numerators are; otherwise the difference is zero."""
        if not isinstance(other, Fraction):
            return NotImplemented
        if self.table != other.table:
            return False
        if self.den == other.den:
            return self.num.terms == other.num.terms
        return not (self - other)

    __hash__ = None

    # -- structure maps ---------------------------------------------------

    def adams(self, n):
        if n == 1:
            return self
        num = self.num.adams(n)
        self.table.check_range([m for f in self.den for m in f], scale=n)
        # scaling by n > 0 keeps every factor canonical, and psi_n is an
        # injective ring map whose image is a direct summand, so no factor
        # starts to divide the numerator
        return Fraction._reduced(
            num, [BinomialFactor(n * f.m1, n * f.m2) for f in self.den])

    def substitute_monomials(self, images):
        return over_binomials(self.num.substitute_monomials(images),
                              [_substitute(self.table, f, images) for f in self.den])

    def clear_denominator(self):
        """The value as a LaurentPoly; refuses a Fraction with a denominator.

        Every Fraction is reduced, so a factor left in den does not divide
        the numerator and the value is not a Laurent polynomial.
        """
        if self.den:
            raise NotDivisibleError(
                "denominator does not clear: %d factor(s) remain, e.g. %s - %s"
                % (len(self.den), self.table.format_exps(self.den[0].m1),
                   self.table.format_exps(self.den[0].m2)))
        return self.num

    def eval(self, values):
        top = self.num.eval(values)
        for f in self.den:
            b = f.to_poly(self.table).eval(values)
            if not b:
                raise ZeroDivisionError("denominator factor vanishes at the given point")
            top = top / b
        return top

    def __repr__(self):
        if not self.den:
            return repr(self.num)
        return "(%r) / [%s]" % (self.num, ", ".join(
            "%s - %s" % (self.table.format_exps(f.m1), self.table.format_exps(f.m2))
            for f in self.den))


def fraction_sum(fracs, table):
    """The sum of the Fractions fracs over table, added pairwise in a tree.

    The tree is the one that adds adjacent pairs level by level, an odd last
    one passing up unchanged: the first 2^k terms, 2^k < n the largest such,
    form a perfect tree, the rest the same tree of their own, and the root
    adds the two.  It is built as the terms arrive: the stack holds the sums
    of perfect subtrees, of decreasing sizes, a new term merges with each
    top of its size, and the stack is added up from the right at the end.
    So the n - 1 additions of a left-to-right fold are kept, but no operand
    before the root sums more than half the terms, and at most log2(n) + 1
    partial sums are alive: a fold drags its growing partial sum, with its
    numerator and its common denominator, through every addition.  An empty
    input sums to zero over table.  Each addition is one `sums._add`, which
    adds on row-packed numerators where they pay: a summand is encoded when
    it is first added on rows, and a root on rows is decoded once, here.
    """
    add = _sums._add
    stack = []       # (terms, sum) per perfect subtree
    for f in fracs:
        n = 1
        while stack and stack[-1][0] == n:
            f, n = add(stack.pop()[1], f), 2 * n
        stack.append((n, f))
    if not stack:
        return Fraction.zero(table)
    total = stack.pop()[1]
    while stack:
        total = add(stack.pop()[1], total)
    if total.table != table:
        raise TableMismatchError("summands use %r, expected %r" % (total.table, table))
    if type(total) is _sums._Rows:
        total = Fraction._reduced(_sums._row_decode(total), total.den)
    return total


def t_expand(frac, depth):
    """t-adic expansion of a Fraction: coefficients of t^0 .. t^depth.

    A canonical factor carries no common power of t, so it is t-free or, at
    t = 0, a nonzero monomial in the remaining variables: the expansion
    always exists as a Laurent series in t, and it starts at the lowest
    t-degree of the numerator, whose terms divided by the factors' values at
    t = 0 make a nonzero coefficient.  So a numerator term of negative
    t-degree means the value is not a power series in t: NotDivisibleError
    names the lowest such degree.  Expanding a factor only raises the
    t-degree, so numerator terms of t-degree above depth are dropped before
    anything is expanded.

    Each factor with t is inverted as one truncated geometric series, a
    LaurentPoly of the terms of t-degree at most depth, and multiplied in;
    the product's terms of t-degree above depth are dropped before the next
    factor.  Products are range-checked whole, so ExponentRangeError may
    also come from a term that the truncation would drop.

    Returns a list of Fractions in the same table (t absent from every term);
    index i holds the coefficient of t^i.  t-free denominator factors
    survive into the coefficient Fractions.  A negative depth is refused.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative, got %d" % depth)
    table = frac.table
    ti = table.index["t"]

    def truncated(poly):
        terms = poly.terms
        return LaurentPoly(table, {e: c for (e, c), d in zip(
            terms.items(), table.digits(terms, ti)) if d <= depth})

    low = frac.num.var_range("t")[0]
    if low < 0:
        raise NotDivisibleError("coefficient of t^%d is nonzero: not a power "
                                "series in t" % low)
    num = truncated(frac.num)
    tfree = []
    for f in frac.den:
        d1, d2 = table.digit(f.m1, ti), table.digit(f.m2, ti)
        if d1 == 0 and d2 == 0:
            tfree.append(f)
            continue
        if d2 == 0:
            # 1/(m1 - m2) = -(1/m2) * sum_j (m1/m2)^j, t-degree step d1
            sign, pref, step, dstep = -1, f.m2, f.m1 - f.m2, d1
        else:
            # 1/(m1 - m2) = (1/m1) * sum_j (m2/m1)^j, t-degree step d2
            sign, pref, step, dstep = 1, f.m1, f.m2 - f.m1, d2
        series = {}
        for j in range(depth // dstep + 1):
            # terms advance by less than 2^30 a digit, so the first one out
            # of range is still exactly packed and this check is exact
            term = j * step - pref
            table.check_range((term,))
            series[term] = sign
        num = truncated(num * LaurentPoly(table, series))
    levels = [{} for _ in range(depth + 1)]
    tu = table.unit_exps("t")
    for (e, c), d in zip(num.terms.items(), table.digits(num.terms, ti)):
        levels[d][e - d * tu] = c
    tfree = tuple(tfree)
    return [Fraction(LaurentPoly(table, level), tfree) for level in levels]


# sums builds on everything above
from . import sums as _sums  # noqa: E402
