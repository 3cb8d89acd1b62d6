"""The additions of `fraction_sum`'s tree, on row-packed numerators.

`algebra.fraction_sum` adds its summands pairwise in a balanced tree, one
`_add` per addition.  A summand is a reduced Fraction or a `_Rows`: its
numerator N, with int coefficients, held as q-rows over its den,
N = q^q0 sum_r x^r N_r(q), r over packed monomials with q-digit 0, each
N_r a polynomial in q of degree below span, stored as the one int
X_r = N_r(2^W), W the width.  This module is the only one that knows the
row format; it reads packed monomials through `algebra.VarTable`'s digit
readers and steps along q by its unit, and never the packed layout itself.

Evaluation at q = 2^W is a ring map Z[q] -> Z, so lifting by a cofactor
is shifts, products and adds per row (a term c x^s q^k sends X_r into
row r + s as c X_r 2^(kW)), a sum adds rows, and the divisions below are
recurrences on ints.  The one invariant: every int that is decoded or
decides anything is the image of a polynomial whose coefficients lie in
(-2^(W-1), 2^(W-1)).  Such an image determines the polynomial: adding
sum_j 2^(W-1) 2^(jW) makes every digit c_j + 2^(W-1) an unsigned base-2^W
digit, so the image is 0 iff every c_j is, the digits decode exactly,
and the top nonzero digit is bit_length // W, the lowest the trailing
zero count // W.  So each _Rows carries a proven bound B on its
coefficients: a leaf's largest |c|, measured when it is encoded; B times
the cofactor's l1 norm after a lift; B_a + B_b after a sum; B times L
after a quotient, L the most terms a line partial sum adds.  Before any
step whose bound would reach 2^(W-1) the operand's bound is measured
(`_row_fit`): its rows' digits are read in place, as a decode reads them,
and the largest |c| replaces the bound on the same _Rows, its rows left as
they are.  Only a measured bound that still needs more width is decoded
and encoded again, at twice the width while it needs it.  A bound is only
ever replaced by a smaller proven one, and a measurement reads digits only
while the stored bound is still below 2^(W-1), so the digits it reads are
exact: nothing is decoded or decided at a width the bound does not prove.
An operand fitted for a trial division that fails keeps its measured
bound for the next factor tried.
* The all-ones rule reads sum_r X_r modulo 2^W - 1, which is N(1) modulo
  2^W - 1 (2^W = 1 there).  A nonzero residue proves N(1) != 0 at any
  width; a zero one only lets the trial divisions run, and they decide,
  so at worst (N(1) a nonzero multiple of 2^W - 1) a factor is tried
  that the dict path skips, and fails.
* A canonical factor has q-digit 0 in m2 (its q-digits are >= 0 with
  minimum 0, and m1 >= m2 there), so it is x^m2 (q^vq x^u - 1) with
  vq >= 0 and u the non-q part of v.  For u = 0 (m2 = 0, q^vq - 1) each
  row is one divmod by 2^(vq W) - 1: X_r = (2^(vq W) - 1) S(2^W) +
  R(2^W), R_j the sum of N_r's coefficients of degree j mod vq, so
  |R_j| <= L B < 2^(W-1) with L = ceil(span / vq), |R(2^W)| < 2^(vq W) - 1,
  and the remainder is 0 iff R = 0, that is iff q^vq - 1 divides N_r.
* For u != 0 the quotient Q satisfies Q[r - m2] = (Q[r - m2 - u] << W vq)
  - X[r] along every line r + Z u of rows, walked from its least row:
  Q[.] is a line partial sum of N's coefficients, of at most L terms (the
  rows of the line; with vq > 0 also ceil(span / vq)), and the division
  is exact iff every line ends with Q = 0.  A quotient's q-degrees lie
  below span - vq (its Newton polytope plus the factor's is N's), so a Q
  whose bit length reaches W (span - vq) refuses.  Rows are grouped into
  lines first, so a carry crosses a gap of empty rows at once: with vq > 0
  the bit-length test bounds it before it is stored, with vq = 0 the gap's
  quotient rows, all equal to the carry, are stored only after every line
  has ended with 0.
A sum on rows runs the dict path's trial-division loop,
`algebra._trial_divide`, with `_row_divide` and the all-ones rule as its
steps, so it tries the same factors in the same order and decides each
exactly: it is the same reduced Fraction.  A lift refuses an exponent out
of range exactly where the dict product does: the row keys are scanned,
and the q-digits read exactly when their range is not proved, both
through `VarTable`, the one owner of the range.  Additions too narrow or
too wide along q for rows to pay stay on dicts (`_row_sum`), as do
coefficients that are not ints; products, `Fraction(num, den)` and
`exact_divide` keep the dict walk, which its line sums and the run walk
make cheaper where most of their numerators are sparse along q.
"""

import sys
from array import array
from functools import lru_cache

from .algebra import (ExponentRangeError, Fraction, LaurentPoly, _check_tables, _lcd,
                      _lifted_sum, _trial_divide)


ROW_WIDTH = 64       # bits per q-digit of a fresh encoding; a multiple of 64
# An addition stays on dicts when the lifted numerators would span fewer than
# ROW_MIN_SPAN or more than ROW_MAX_SPAN q-digits (`_row_sum`).  Each addition
# was timed both ways (the least of three, in process, 2-vCPU host) over
# `verify` and idt_orbits at (0,1,8), (1,1,6), (3,5,3) and (2,3,4): the
# verify sums took 0.257 s on dicts, 0.248 s on rows and 0.224 s under these
# rules; the idt_orbits sums 0.817 s on dicts and 0.316 s under them.  A span
# of 12 sends the `fprops` sums over z-variables (span 8, six digits per row,
# rows no faster than dicts before their encoding and decoding) to dicts and
# costs the idt_orbits sums nothing.  The widest row of idt_orbits at
# (0,1,12) spans 228 q-digits, and 4096 at width 64 is 32 KiB a row.
ROW_MIN_SPAN = 12    # q-digits a sum must span to be added on rows
ROW_MAX_SPAN = 4096  # q-digits a sum may span to be added on rows


@lru_cache(maxsize=None)
def _spread_digit(width, n):
    """sum_{j<n} 2^(width - 1) * 2^(width j): the bias of n balanced digits."""
    return ((1 << width * n) - 1) // ((1 << width) - 1) << (width - 1)


class _Rows:
    """A numerator with int coefficients as q-rows (module docstring).

    The stored value is sum_r x^r q^q0 X_r(q), r over packed monomials with
    q-digit 0, and `rows` maps r to the int X_r(2^width) (never 0).  Every
    X_r is a polynomial in q with its degrees in [0, span) and its
    coefficients at most `bound` in absolute value, bound < 2^(width - 1).
    A summand of `fraction_sum` on rows is the reduced Fraction of this
    numerator over `den`, sorted; the steps that make one leave den empty.
    """

    __slots__ = ("table", "width", "q0", "span", "rows", "bound", "den")

    def __init__(self, table, width, q0, span, rows, bound):
        self.table, self.width, self.q0, self.span = table, width, q0, span
        self.rows, self.bound, self.den = rows, bound, ()

    def is_zero(self):
        return not self.rows


def _row_encode(poly, bound=None, width=ROW_WIDTH, need=1):
    """The nonzero poly, its coefficients ints, as _Rows at the least width
    >= width, doubled, where need * bound < 2^(width - 1), bound measured
    unless given."""
    terms = poly.terms
    if bound is None:
        bound = max(map(abs, terms.values()))
    while (need * bound) >> (width - 1):
        width *= 2
    table = poly.table
    unit = table.unit_exps("q")
    lo, hi = table.digit_range(terms, 0)
    steps = {qd: (qd * unit, width * (qd - lo)) for qd in range(lo, hi + 1)}
    rows = {}
    get = rows.get
    for (e, c), qd in zip(terms.items(), table.digits(terms, 0)):
        step, shift = steps[qd]
        r = e - step
        rows[r] = get(r, 0) + (c << shift)
    return _Rows(table, width, lo, hi - lo + 1, rows, bound)


def _row_digits(X, width):
    """The balanced digits of the row X, lowest first: read off X + spread,
    whose digits c + 2^(width - 1) are unsigned."""
    n = X.bit_length() // width + 1
    s = _spread_digit(width, n)
    if width == 64:
        # the unsigned digit c + 2^63 with its top bit flipped is c as a
        # signed 64-bit word
        digits = array("q")
        digits.frombytes(((X + s) ^ s).to_bytes(8 * n, sys.byteorder))
        return digits
    k, h = width // 8, 1 << (width - 1)
    b = (X + s).to_bytes(k * n, "little")
    return [int.from_bytes(b[i:i + k], "little") - h for i in range(0, k * n, k)]


def _row_decode(x):
    """The LaurentPoly x holds, with exact bounds."""
    table = x.table
    width = x.width
    unit = table.unit_exps("q")
    h = 1 << (width - 1)
    terms = {}
    for r, X in x.rows.items():
        e = r + x.q0 * unit
        if -h < X < h:
            terms[e] = X
            continue
        for c in _row_digits(X, width):
            if c:
                terms[e] = c
            e += unit
    return LaurentPoly(table, terms, _row_bounds(x))


def _row_measure(x):
    """The largest |coefficient| of x, read off its rows' digits."""
    width = x.width
    h = 1 << (width - 1)
    bound = 0
    for X in x.rows.values():
        if -h < X < h:
            c = abs(X)
        else:
            digits = _row_digits(X, width)
            c = max(max(digits), -min(digits))
        if c > bound:
            bound = c
    return bound


def _row_bounds(x):
    """The exact bounds of x's terms."""
    if not x.rows:
        return None
    width = x.width
    lo = min((X & -X).bit_length() - 1 for X in x.rows.values()) // width
    hi = max(X.bit_length() for X in x.rows.values()) // width
    table = x.table
    return ((x.q0 + lo, x.q0 + hi),) + tuple(table.digit_range(x.rows, i)
                                             for i in range(1, table.arity))


def _row_remeasure(x, need=1, width=None):
    """x with its bound measured, at the least width >= width (default
    x's), doubled, where need * bound < 2^(width - 1).  The measured bound
    replaces x.bound on x itself, and x is returned when its width still
    holds it; only a widening decodes x and encodes it again."""
    x.bound = _row_measure(x)
    width = width or x.width
    if width == x.width and not (need * x.bound) >> (width - 1):
        return x
    return _row_encode(_row_decode(x), x.bound, width, need)


def _row_fit(x, need):
    """x, re-measured or widened if need * bound may reach 2^(width - 1)."""
    if (need * x.bound) >> (x.width - 1):
        return _row_remeasure(x, need)
    return x


def _row_lift(x, poly):
    """x times the LaurentPoly poly: poly's terms with the same non-q part
    s make one int P_s(2^W), and row r adds X_r P_s to row r + s.  Over a
    slicewise table poly is a cofactor of factors that are all a-free
    (`algebra._reduce_fraction`), so it is a-free, and an a-free product
    is made slice by slice, as here (`weil.WeilTable.mul_terms`)."""
    table, terms = x.table, poly.terms
    unit = table.unit_exps("q")
    parts = {}
    for (e, c), qd in zip(terms.items(), table.digits(terms, 0)):
        parts.setdefault(e - qd * unit, []).append((qd, c))
    qmin, qmax = table.digit_range(terms, 0)
    norm = sum(map(abs, terms.values()))
    x = _row_fit(x, norm)
    width = x.width
    ints = [(s, sum(c << width * (qd - qmin) for qd, c in ps)) for s, ps in parts.items()]
    out = {}
    get = out.get
    for r, X in x.rows.items():
        for s, P in ints:
            k = r + s
            y = get(k, 0) + X * P
            if y:
                out[k] = y
            else:
                del out[k]
    lifted = _Rows(table, width, x.q0 + qmin, x.span + qmax - qmin, out, x.bound * norm)
    _row_check_range(lifted)
    return lifted


def _row_check_range(x):
    """Refuse, as a scan of the terms would, a term out of range; the exact
    q-range is read only when [q0, q0 + span) is not in range."""
    table = x.table
    table.check_range(x.rows)
    if x.rows:
        try:
            table.check_exponents(x.q0, x.q0 + x.span - 1)
        except ExponentRangeError:
            table.check_exponents(*_row_bounds(x)[0])


def _row_add(x, y):
    """x + y, both nonzero: the rows of the one with the larger q0 shifted
    by the difference, at the wider width."""
    if x.width != y.width:
        width = max(x.width, y.width)
        x, y = (z if z.width == width else _row_remeasure(z, 1, width) for z in (x, y))
    bound = x.bound + y.bound
    if bound >> (x.width - 1):
        return _row_add(_row_remeasure(x, 2), _row_remeasure(y, 2))
    if x.q0 > y.q0:
        x, y = y, x
    span = max(x.span, y.q0 - x.q0 + y.span)
    shift = x.width * (y.q0 - x.q0)
    out = dict(x.rows)
    get = out.get
    for r, Y in y.rows.items():
        z = get(r, 0) + (Y << shift)
        if z:
            out[r] = z
        else:
            del out[r]
    return _Rows(x.table, x.width, x.q0, span, out, bound)


def _row_zero_sum(x):
    """False when x's coefficients provably do not sum to zero: the sum
    of the rows is N(1) modulo 2^width - 1."""
    return not sum(x.rows.values()) % ((1 << x.width) - 1)


def _row_divide(x, factor):
    """x / factor for a canonical factor, or None if it does not divide
    (module docstring)."""
    table = x.table
    m1, m2 = factor
    v = m1 - m2
    vq = table.digit(v, 0)
    u = v - vq * table.unit_exps("q")
    if vq >= x.span:
        return None
    if not u:
        # q^vq - 1 and m2 = 0: one exact division per row
        need = (x.span - 1) // vq + 1
        x = _row_fit(x, need)
        m = (1 << x.width * vq) - 1
        out = {}
        for r, X in x.rows.items():
            y, rem = divmod(X, m)
            if rem:
                return None
            out[r] = y
        return _Rows(table, x.width, x.q0, x.span - vq, out, x.bound * need)
    us = table.unpack(u)
    i0 = max(range(1, table.arity), key=lambda i: abs(us[i]))
    ui, step_i0 = us[i0], abs(us[i0])
    rows = x.rows
    ds = table.digits(rows, i0)
    lo = min(ds)
    # a row r = base + k u, k >= 0 counted from where digit i0 is least
    lines = {}
    sign = 1 if ui > 0 else -1
    for r, d in zip(rows, ds):
        k = (d - lo) // step_i0 * sign
        line = lines.get(r - k * u)
        if line is None:
            lines[r - k * u] = [k]
        else:
            line.append(k)
    need = max(map(len, lines.values()))
    if vq:
        need = min(need, (x.span - 1) // vq + 1)
    x = _row_fit(x, need)
    width, rows, span = x.width, x.rows, x.span - vq
    if span <= 0:
        return None
    step, limit = width * vq, width * span
    out, gaps = {}, []
    for base, ps in lines.items():
        ps.sort()
        d, prev = 0, None
        for p in ps:
            if d:
                gap = p - prev - 1
                if gap:
                    if step:
                        if d.bit_length() + step * gap >= limit:
                            return None
                        for k in range(prev + 1, p):
                            d <<= step
                            out[base + k * u - m2] = d
                    else:
                        gaps.append((base + (prev + 1) * u - m2, gap, d))
                d <<= step
            r = base + p * u
            d -= rows[r]
            if d:
                if d.bit_length() >= limit:
                    return None
                out[r - m2] = d
            prev = p
        if d:
            return None
    for r, gap, d in gaps:
        for _ in range(gap):
            out[r] = d
            r += u
    return _Rows(table, width, x.q0, span, out, x.bound * need)


def _row_sum(a, b, lcd):
    """a + b on rows for two nonzero summands of `fraction_sum` over their
    lcd (`_lcd`): the _Rows of the sum, its den the one `Fraction.__add__`
    would leave, reduced by the loop that `Fraction.__add__` runs.

    None, before anything is encoded or lifted, when the addition is one for
    dicts: a summand has a coefficient that is not an int, or the lifted
    numerators would span fewer than ROW_MIN_SPAN q-digits or more than
    ROW_MAX_SPAN.  This is the one test: the range is read off the support,
    every row of the sum lies inside it, and a division only narrows it, so
    no step after it leaves the rows."""
    tried, kept, mul_a, mul_b = lcd
    # the q-digits of the lifted numerators lie in [lo_a, hi_a) and [lo_b, hi_b)
    lo_a, hi_a = _lifted_q_range(a, mul_a)
    lo_b, hi_b = _lifted_q_range(b, mul_b)
    if not ROW_MIN_SPAN <= max(hi_a, hi_b) - min(lo_a, lo_b) <= ROW_MAX_SPAN:
        return None
    for node in (a, b):
        if type(node) is Fraction and not all(type(c) is int for c in node.num.terms.values()):
            return None
    xa, xb = (x if type(x) is _Rows else _row_encode(x.num) for x in (a, b))
    for p in mul_a:
        xa = _row_lift(xa, p)
    for p in mul_b:
        xb = _row_lift(xb, p)
    num, left = _trial_divide(_row_add(xa, xb), tried, _row_divide, _row_zero_sum)
    num.den = tuple(sorted(left + tuple(kept))) if num.rows else ()
    return num


def _add(a, b):
    """a + b for two summands of `fraction_sum`, each a reduced Fraction or
    the _Rows of one: made on rows when `_row_sum` takes it, on dicts over
    the same lcd otherwise.  Two Fractions without denominators add by
    `Fraction.__add__`, which adds their numerators."""
    if type(a) is Fraction and type(b) is Fraction and not (a.den or b.den):
        return a + b
    _check_tables(a, b)
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    lcd = _lcd(a.table, a.den, b.den)
    s = _row_sum(a, b, lcd)
    if s is not None:
        return s
    na, nb = (_row_decode(x) if type(x) is _Rows else x.num for x in (a, b))
    return _lifted_sum(na, nb, lcd)


def _lifted_q_range(node, polys):
    """[lo, hi) holding the q-exponents of a nonzero summand's numerator
    times polys: a _Rows' own span, otherwise read off the terms."""
    if type(node) is _Rows:
        lo, hi = node.q0, node.q0 + node.span - 1
    else:
        lo, hi = node.table.digit_range(node.num.terms, 0)
    for p in polys:
        plo, phi = p.table.digit_range(p.terms, 0)
        lo, hi = lo + plo, hi + phi
    return lo, hi + 1
