"""Row-packed numerators in `fraction_sum` (module `sums`).

A partial sum of `fraction_sum` holds its numerator as q-rows: one Python int
per monomial in the variables other than q, the row's q-polynomial evaluated
at q = 2^width.  These tests hold the row path to the dict path it replaces:
the same tree of `Fraction.__add__` must give the same num and den.
"""

import random
import time
import tracemalloc
from fractions import Fraction as Q

import pytest

from higgsdt import dt, positive, series, sums
from higgsdt.algebra import (EXP_LIMIT, ExponentRangeError, Fraction, LaurentPoly,
                             NotDivisibleError, TableMismatchError, canonical_binomial,
                             exact_divide, fraction_sum, over_binomials, var_table)
from higgsdt.weil import weil_table


def rows_throughout(monkeypatch):
    """Add every sum of int numerators on rows, however narrow."""
    monkeypatch.setattr(sums, "ROW_MIN_SPAN", 0)


def tree_sum(fracs, table):
    """The tree of `fraction_sum`, every addition a `Fraction.__add__`."""
    stack = []
    for f in fracs:
        n = 1
        while stack and stack[-1][0] == n:
            f, n = stack.pop()[1] + f, 2 * n
        stack.append((n, f))
    if not stack:
        return Fraction.zero(table)
    total = stack.pop()[1]
    while stack:
        total = stack.pop()[1] + total
    return total


def same(a, b):
    """Identical num terms and den, not only equal values."""
    return a.num.terms == b.num.terms and a.den == b.den


def rand_exps(rng, table, span=3):
    """An exponent vector over table; over a Weil table the a-part is a
    representative (non-increasing, >= 0)."""
    head = [rng.randint(-span, span) for _ in range(2)]
    rest = [rng.randint(-span, span) for _ in range(table.arity - 2)]
    if hasattr(table, "flip"):
        rest = sorted((abs(x) for x in rest), reverse=True)
    return table.pack(head + rest)


def rand_num(rng, table, nterms=8, coeffs=(-3, -2, -1, 1, 2, 5)):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        terms[rand_exps(rng, table)] = rng.choice(coeffs)
    return LaurentPoly(table, terms)


def rand_pairs(rng, table, n):
    """Binomial pairs (e1, e2), a-free over a Weil table."""
    pairs = []
    while len(pairs) < n:
        e1 = [rng.randint(-2, 2) for _ in range(table.arity)]
        e2 = [rng.randint(-2, 2) for _ in range(table.arity)]
        if hasattr(table, "flip") or rng.random() < 0.5:
            e1[2:] = e2[2:] = [0] * (table.arity - 2)
        if e1 != e2:
            pairs.append((table.pack(e1), table.pack(e2)))
    return pairs


def rand_summands(rng, table, n):
    """Fractions that share denominator factors often, so that sums lift,
    cancel and divide."""
    pool = rand_pairs(rng, table, 4)
    q = table.exps(q=1)
    # (q + 1)/(q^2 - 1) is reduced and equals 1/(q - 1): the split form
    split = over_binomials(table.one() + table.monomial(q), [(2 * q, 0)])
    out = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.1:
            out.append(split)
        elif kind < 0.15:
            out.append(Fraction.zero(table))
        elif kind < 0.25 and out:
            out.append(-rng.choice(out))
        else:
            num = rand_num(rng, table)
            pairs = rng.sample(pool, rng.randint(0, 3)) + rand_pairs(rng, table, rng.randint(0, 1))
            out.append(over_binomials(num, pairs))
    return out


TABLES = [var_table(0), var_table(1), var_table(2), weil_table(1), weil_table(2)]
TABLE_IDS = ["genus0", "genus1", "genus2", "weil1", "weil2"]


@pytest.mark.parametrize("throughout", [False, True], ids=["default", "rows-throughout"])
@pytest.mark.parametrize("table", TABLES, ids=TABLE_IDS)
def test_random_sums_are_the_dict_sums(table, throughout, monkeypatch):
    # with the size rules as they stand and with every addition made on
    # rows, the sum is the dict tree's, term for term and factor for factor
    if throughout:
        rows_throughout(monkeypatch)
    rng = random.Random(2600 + table.arity + 7 * hasattr(table, "flip"))
    sums = 0
    for _ in range(40):
        fracs = rand_summands(rng, table, rng.randint(2, 9))
        got = fraction_sum(fracs, table)
        want = tree_sum(fracs, table)
        assert same(got, want)
        assert got.table == table
        sums += bool(got.den)
    assert sums >= 10


def test_the_split_denominator_sums_as_the_dict_path():
    # (q + 1)/(q^2 - 1) + 1/(q - 1): the lcd matches q - 1 into q^2 - 1
    t = var_table(1)
    q = t.exps(q=1)
    split = over_binomials(t.one() + t.monomial(q), [(2 * q, 0)])
    plain = over_binomials(t.one(), [(q, 0)])
    for fracs in ([split, plain], [plain, split], [split, -plain], [split, split, plain]):
        assert same(fraction_sum(fracs, t), tree_sum(fracs, t))
    assert fraction_sum([split, -plain], t).is_zero()


def test_rational_coefficients_keep_the_dict_path():
    rng = random.Random(2601)
    t = var_table(1)
    for _ in range(30):
        fracs = rand_summands(rng, t, rng.randint(2, 6))
        fracs[rng.randrange(len(fracs))] = over_binomials(
            rand_num(rng, t, coeffs=(Q(1, 2), Q(-2, 3), 1)), rand_pairs(rng, t, 1))
        assert same(fraction_sum(fracs, t), tree_sum(fracs, t))


@pytest.mark.parametrize("table", TABLES[:2] + TABLES[3:4], ids=["genus0", "genus1", "weil1"])
def test_pipeline_style_sums_are_the_dict_sums(table, monkeypatch):
    # dense q-rows: numerators times many q-binomials, as in the series
    rows_throughout(monkeypatch)
    rng = random.Random(2602)
    q, tq = table.exps(q=1), table.exps(q=1, t=1)
    for _ in range(10):
        fracs = []
        for _ in range(rng.randint(2, 8)):
            ks = rng.sample(range(1, 6), rng.randint(1, 3))
            pairs = [(k * q, 0) for k in ks] + [(tq, 0)] * rng.randint(0, 1)
            fracs.append(over_binomials(rand_num(rng, table), pairs))
        assert same(fraction_sum(fracs, table), tree_sum(fracs, table))


@pytest.mark.parametrize("throughout", [False, True], ids=["default", "rows-throughout"])
@pytest.mark.parametrize("genus,ell,order", [(0, 1, 5), (1, 1, 3), (2, 3, 2)])
def test_pipeline_sums_are_the_dict_sums(genus, ell, order, throughout, monkeypatch):
    # every sum of idt_orbits, num and den identical to the dict tree's
    from higgsdt.dt import CurveParams, idt_orbits
    if throughout:
        rows_throughout(monkeypatch)
    checked = []

    def checking(fracs, table):
        fracs = list(fracs)
        got = fraction_sum(fracs, table)
        assert same(got, tree_sum(fracs, table))
        checked.append(len(got.num.terms))
        return got

    for module in (dt, series, positive):
        monkeypatch.setattr(module, "fraction_sum", checking)
    idt_orbits(CurveParams(genus=genus, ell=ell), order)
    assert len(checked) >= 5 and max(checked) >= 50


# -- bounds and widths -------------------------------------------------------


@pytest.mark.parametrize("top", [2 ** 62, 2 ** 126, 2 ** 200, 2 ** 254])
def test_large_coefficients_force_a_remeasure_or_a_widening(top, monkeypatch):
    # leaves with coefficients near +-top are encoded at the least width w
    # with top < 2^(w - 1); sums of them reach 2^(w - 1) whenever top is
    # near 2^(w - 2), so those sums re-measure their operands or widen them
    # before they add.  The result is still the dict tree's
    rows_throughout(monkeypatch)
    encoded, remeasured = [], []
    encode, remeasure = sums._row_encode, sums._row_remeasure

    def encoding(poly, bound=None, width=64, need=1):
        out = encode(poly, bound, width, need)
        encoded.append(out.width)
        return out

    def counting(x, need=1, width=None):
        out = remeasure(x, need, width)
        remeasured.append((x.width, out.width))
        return out

    monkeypatch.setattr(sums, "_row_encode", encoding)
    monkeypatch.setattr(sums, "_row_remeasure", counting)
    t = var_table(1)
    q, tt = t.exps(q=1), t.exps(t=1)
    rng = random.Random(top % 1000)
    for _ in range(12):
        fracs = []
        for _ in range(rng.randint(2, 6)):
            terms = {t.pack((rng.randint(-1, 3), rng.randint(0, 2), rng.randint(0, 1))):
                     rng.choice((top, -top, top - 1, 1 - top, top + 1, 3)) for _ in range(5)}
            pairs = rng.sample([(q, 0), (2 * q, 0), (tt, 0), (q + tt, 0)], rng.randint(0, 2))
            fracs.append(over_binomials(LaurentPoly(t, terms), pairs))
        assert same(fraction_sum(fracs, t), tree_sum(fracs, t))
    width = 64
    while top + 1 >= 1 << (width - 1):
        width *= 2
    assert min(encoded) == width
    if top >> (width - 3):
        assert any(b > a for a, b in remeasured)


H64 = 1 << 63


def _wide_rows(rng, t, coeffs, nterms=12):
    """Rows at width 64 over var_table(1) encoded with the loosest bound
    the width holds, 2^63 - 1; some rows of one digit."""
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        qd = rng.randint(0, 6) if rng.random() < 0.7 else 0
        terms[t.pack((qd, rng.randint(-2, 2), rng.randint(0, 1)))] = rng.choice(coeffs)
    return sums._row_encode(LaurentPoly(t, terms), H64 - 1)


def _largest(x):
    return max(map(abs, sums._row_decode(x).terms.values()))


def test_a_measured_bound_is_the_largest_decoded_coefficient():
    # at width 64 the digits read in place give the largest |c| of the
    # decoded rows: digits at +-(2^63 - 1), rows of one digit, negative rows
    # and rows whose top digit is the largest
    t = var_table(1)
    q, tt = t.exps(q=1), t.exps(t=1)
    for top in (H64 - 1, 1 - H64, -2, 3):
        for lower in ({0: 1}, {0: -5, tt: 7}, {tt: 1 - H64 if top > 0 else H64 - 1}):
            poly = LaurentPoly(t, {**lower, 3 * q: top})
            x = sums._row_encode(poly, H64 - 1)
            assert sums._row_measure(x) == max(map(abs, poly.terms.values()))
    rng = random.Random(2701)
    signs = {"one digit": 0, "negative": 0}
    for _ in range(300):
        x = _wide_rows(rng, t, (H64 - 1, 1 - H64, -1, 1, 5, rng.randint(1 - H64, H64 - 1)))
        assert x.width == 64
        assert sums._row_measure(x) == _largest(x)
        signs["one digit"] += any(-H64 < X < H64 for X in x.rows.values())
        signs["negative"] += any(X < -H64 for X in x.rows.values())
    assert min(signs.values()) >= 50, signs


def test_a_remeasure_tightens_the_bound_in_place():
    # at an unchanged width the re-measure returns x itself, its rows the
    # same object and its bound never raised; a bound that still needs more
    # width widens into new rows
    t = var_table(1)
    rng = random.Random(2702)
    for _ in range(100):
        x = _wide_rows(rng, t, (-3, -1, 1, 2, 1 << 20, -(1 << 40)))
        rows, before = x.rows, x.bound
        largest = _largest(x)
        need = rng.randint(1, (H64 - 1) // largest)
        assert sums._row_remeasure(x, need) is x
        assert x.rows is rows and x.bound == largest <= before
        assert sums._row_remeasure(x) is x and x.bound == largest
        wide = sums._row_remeasure(x, H64 // largest + 1)
        assert wide is not x and wide.width == 128 and wide.bound == largest
        assert x.rows is rows and x.bound == largest


def test_a_failed_trial_division_keeps_its_measured_bound():
    # (q - 1)(1 + q + ... + q^11) + t over q - 1 fails; the operand, fitted
    # for the division, keeps the bound it was measured at for the next
    # factor tried on it, which then needs no re-measure
    t = var_table(1)
    num = LaurentPoly(t, {t.exps(q=12): 1, 0: -1, t.exps(t=1): 1})
    x = sums._row_encode(num, H64 - 1)
    f = _factor(t, (1, 0, 0), (0, 0, 0))
    assert sums._row_divide(x, f) is None
    assert x.bound == 1
    g = _factor(t, (0, 1, 0), (0, 0, 0))
    assert sums._row_divide(x, g) is None and x.bound == 1


def test_pipeline_remeasures_read_the_digits_in_place(monkeypatch):
    # idt_orbits at (0,1,8) re-measures a bound 11 times when each
    # re-measure decodes and encodes again into new rows; read in place, a
    # fitted operand keeps its bound and no re-measure decodes
    from higgsdt.dt import CurveParams, idt_orbits
    remeasure, decode = sums._row_remeasure, sums._row_decode
    calls, inside = [], []

    def remeasuring(x, need=1, width=None):
        calls.append(x.width)
        inside.append(x)
        try:
            return remeasure(x, need, width)
        finally:
            inside.pop()

    def decoding(x):
        assert not inside, "a re-measure decoded its rows"
        return decode(x)

    monkeypatch.setattr(sums, "_row_remeasure", remeasuring)
    monkeypatch.setattr(sums, "_row_decode", decoding)
    idt_orbits(CurveParams(genus=0, ell=1), 8)
    assert 0 < len(calls) < 11, calls


@pytest.mark.parametrize("table", TABLES, ids=TABLE_IDS)
def test_rows_decode_to_what_they_encode(table):
    # balanced digits at every width: the extreme coefficients of a width,
    # negative exponents, and the exact bounds of the terms
    rng = random.Random(2603)
    for width in (64, 128, 256):
        h = 1 << (width - 1)
        for _ in range(20):
            poly = rand_num(rng, table, nterms=12,
                            coeffs=(h - 1, 1 - h, h // 2, -1, 1, 7))
            x = sums._row_encode(poly, None, width)
            assert x.width == width and x.bound < h
            back = sums._row_decode(x)
            assert back.terms == poly.terms
            assert back.bounds == table.exact_bounds(poly.terms)
        # a coefficient of 2^(width - 1) does not fit: the encoding widens
        poly = LaurentPoly(table, {0: h, table.exps(q=1): -h})
        x = sums._row_encode(poly, None, width)
        assert x.width == 2 * width
        assert sums._row_decode(x).terms == poly.terms


# -- the division walk ---------------------------------------------------------


def _factor(table, e1, e2):
    return canonical_binomial(table, table.pack(e1), table.pack(e2))[0]


@pytest.mark.parametrize("table", TABLES[:3] + [var_table(1, 2)],
                         ids=["genus0", "genus1", "genus2", "z"])
def test_row_division_is_exact_division(table):
    # quotient or refusal as exact_divide gives it, for every direction:
    # q^k - 1, directions with and without q, negative steps, loose spans,
    # gaps and coefficients that widen
    rng = random.Random(2604 + table.arity)
    seen = {"divides": 0, "refused": 0, "q only": 0, "widened": 0}
    for _ in range(400):
        while True:
            e1 = [rng.randint(-3, 3) for _ in range(table.arity)]
            e2 = [rng.randint(-3, 3) for _ in range(table.arity)]
            if rng.random() < 0.2:
                e1[1:] = e2[1:] = [0] * (table.arity - 1)
            if e1 != e2:
                break
        f = _factor(table, e1, e2)
        a = rand_num(rng, table, coeffs=rng.choice(((1, -2, 3), (2 ** 70, -1))))
        num = a * f.to_poly(table)
        if rng.random() < 0.5:
            num = num + rand_num(rng, table, nterms=2, coeffs=(1, -1))
        if not num.terms:
            continue
        try:
            want = exact_divide(num, f)
        except NotDivisibleError:
            want = None
        x = sums._row_encode(num)
        x.span += rng.randint(0, 2)      # a span that is only a bound
        y = sums._row_divide(x, f)
        assert (y is None) == (want is None)
        if want is not None:
            got = sums._row_decode(y)
            assert got.terms == want.terms
            assert got.bounds == table.exact_bounds(want.terms)
            seen["widened"] += y.width > 64
        seen["divides" if want is not None else "refused"] += 1
        seen["q only"] += not (f.m1 - f.m2) % table.unit_exps("q")
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("through_q", [False, True], ids=["t-1", "qt-1"])
def test_a_carry_across_a_wide_gap_is_refused_at_once(through_q, monkeypatch):
    # 1 - q t^N over t - 1 (or q t - 1): the line of t^0 and t^N along t
    # carries -1 across N - 1 empty positions and ends with a remainder.
    # The walk jumps the gap, so the refusal neither steps through it nor
    # stores it, and a sum with that numerator keeps its factor
    t = var_table(0)
    n = 10 ** 6
    num = t.one() - t.monomial(t.exps(q=1, t=n))
    f = _factor(t, (1, 1) if through_q else (0, 1), (0, 0))
    x = sums._row_encode(num)
    tracemalloc.start()
    start = time.perf_counter()
    assert sums._row_divide(x, f) is None
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 0.05 and peak < 100_000
    rows_throughout(monkeypatch)
    half = over_binomials(t.monomial(0, 1), [(f.m1, f.m2)])
    other = over_binomials(-t.monomial(t.exps(q=1, t=n)), [(f.m1, f.m2)])
    start = time.perf_counter()
    got = fraction_sum([half, other], t)
    assert time.perf_counter() - start < 0.05
    assert got.num == num and got.den == (f,)


def test_a_divisible_gap_is_filled():
    # (1 - t^N)/(1 - t) = 1 + t + ... + t^(N-1): the carry crosses the gap
    # and the quotient has every position of it
    t = var_table(0)
    n = 2000
    num = t.one() - t.monomial(t.exps(q=2, t=n))
    f = _factor(t, (0, 1), (0, 0))
    assert sums._row_divide(sums._row_encode(num), f) is None
    num = t.monomial(t.exps(q=2)) - t.monomial(t.exps(q=2, t=n))
    y = sums._row_divide(sums._row_encode(num), f)
    assert sums._row_decode(y).terms == exact_divide(num, f).terms
    assert len(y.rows) == n


def test_a_sum_spread_wide_along_q_leaves_the_rows(monkeypatch):
    # rows of q^1000 and q^0 would span 1001 q-digits, over a limit of 64
    # here: a sum or a lift that would get that wide is added on dicts, and
    # nothing is encoded for it, while a sum that fits is added on rows
    rows_throughout(monkeypatch)
    monkeypatch.setattr(sums, "ROW_MAX_SPAN", 64)
    spans, on_dicts = [], []
    encode, add = sums._row_encode, sums._lifted_sum

    def encoding(poly, bound=None, width=64, need=1):
        out = encode(poly, bound, width, need)
        spans.append(out.span)
        return out

    monkeypatch.setattr(sums, "_row_encode", encoding)
    monkeypatch.setattr(sums, "_lifted_sum", lambda x, y, lcd: on_dicts.append(1) or add(x, y, lcd))
    t = var_table(1)
    big, q, tt = t.exps(q=1000), t.exps(q=1), t.exps(t=1)
    wide = over_binomials(t.monomial(big) + t.one(), [(q, 0)])
    small = over_binomials(t.var("t"), [(2 * q, 0)])
    far = over_binomials(t.monomial(big), [(tt, 0)])
    near = over_binomials(-t.one(), [(tt, 0)])
    lifted = over_binomials(t.one(), [(big, 0), (tt, 0)])
    for fracs in ([wide, small], [far, near], [small, far, near, wide], [near, lifted]):
        on_dicts.clear()
        got = fraction_sum(fracs, t)
        assert on_dicts
        assert same(got, tree_sum(fracs, t))
    assert not spans
    # t/(q^2 - 1) - 1/(t - 1) spans 3 q-digits: added on rows
    on_dicts.clear()
    assert same(fraction_sum([small, near], t), tree_sum([small, near], t))
    assert not on_dicts
    assert spans and max(spans) <= 64
    # at 2^29 q-digits the rows would take gigabytes: refused in little memory
    monkeypatch.setattr(sums, "ROW_MAX_SPAN", 4096)
    far = over_binomials(t.monomial(t.exps(q=2 ** 29)), [(tt, 0)])
    tracemalloc.start()
    got = fraction_sum([far, near], t)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert same(got, tree_sum([far, near], t)) and peak < 1_000_000


# -- the exponent range ---------------------------------------------------------


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except ExponentRangeError:
        return ExponentRangeError
    return out.num.terms, out.den


@pytest.mark.parametrize("var", ["q", "t", "a1"])
def test_a_lift_out_of_range_is_refused_as_the_dict_path_refuses(var, monkeypatch):
    # x^(L - 1 - s)/(q - 1) + 1/(q^2 - 1) lifts the first numerator by q + 1
    # (by t + 1 and a1 + 1 with t or a1 in place of q): the lift leaves
    # [-2^30, 2^30) at s = 0 and stays inside at s = 1, and with negative
    # exponents at the bottom of the range the same
    rows_throughout(monkeypatch)
    t = var_table(1)
    x = t.exps(**{var: 1})
    seen = set()
    for top in (True, False):
        for s in (0, 1):
            e = (EXP_LIMIT - 1 - s) * x if top else (-EXP_LIMIT + s) * x
            a = over_binomials(t.monomial(e), [(x, 0)])
            b = over_binomials(t.monomial(x if top else -2 * x), [(2 * x, 0)])
            got = _outcome(fraction_sum, [a, b], t)
            assert got == _outcome(tree_sum, [a, b], t)
            seen.add(got is ExponentRangeError)
    assert seen == {True, False}


def test_a_lift_past_the_top_of_q_is_refused_on_rows(monkeypatch):
    # q^(2^30 - 2)/(q^20 - 1) + q^(2^30 - 30)/(q^3 - 1): the lifted
    # numerators span 32 q-digits, so the sum is admitted on rows, and the
    # first lift, by q^3 - 1, reaches q^(2^30 + 1); the dicts refuse it too
    t = var_table(0)
    a = over_binomials(t.monomial(t.exps(q=EXP_LIMIT - 2)), [(t.exps(q=20), 0)])
    b = over_binomials(t.monomial(t.exps(q=EXP_LIMIT - 30)), [(t.exps(q=3), 0)])
    spans = []
    lift = sums._row_lift
    monkeypatch.setattr(sums, "_row_lift",
                        lambda x, poly: spans.append(x.span) or lift(x, poly))
    with pytest.raises(ExponentRangeError,
                       match=r"^exponent %d outside \[-2\^30, 2\^30\)$" % (EXP_LIMIT + 1)):
        fraction_sum([a, b], t)
    assert spans
    monkeypatch.setattr(sums, "ROW_MIN_SPAN", EXP_LIMIT)
    assert _outcome(fraction_sum, [a, b], t) is ExponentRangeError
    assert _outcome(tree_sum, [a, b], t) is ExponentRangeError


def test_a_factor_longer_than_the_rows_is_kept_unread(monkeypatch):
    # (1 - q^15)/(q^20 - 1) + t (q^2 - q^13)/(q^20 - 1) spans 16 q-digits,
    # so q^20 - 1 cannot divide it: the one trial division keeps the factor
    # by its degree, and fits no row to try it
    t = var_table(0)
    q = lambda k, e=0: t.monomial(t.exps(q=k, t=e))
    den = [(t.exps(q=20), 0)]
    a = over_binomials(t.one() - q(15), den)
    b = over_binomials(q(2, 1) - q(13, 1), den)
    trials, fits = [], []
    divide, fit = sums._row_divide, sums._row_fit
    monkeypatch.setattr(sums, "_row_fit", lambda x, need: fits.append(need) or fit(x, need))

    def trial(x, factor):
        before = len(fits)
        out = divide(x, factor)
        trials.append((x.span, t.digit(factor.m1 - factor.m2, 0), out, len(fits) - before))
        return out

    monkeypatch.setattr(sums, "_row_divide", trial)
    got = fraction_sum([a, b], t)
    assert trials == [(16, 20, None, 0)]
    assert same(got, tree_sum([a, b], t))
    assert got.den == canonical_binomial(t, t.exps(q=20), 0)[:1]


@pytest.mark.parametrize("spread", [0, 20], ids=["dicts", "rows"])
def test_summands_over_two_tables_are_refused(spread):
    # 1 + q^spread over var_table(0) and over var_table(1), both over q - 1:
    # spread over 20 q-digits the pair would be added on rows
    sums_of = []
    for table in (var_table(0), var_table(1)):
        num = table.one() + table.monomial(table.exps(q=spread))
        sums_of.append(over_binomials(num, [(table.exps(q=1), 0)]))
    for fracs in (sums_of, sums_of[::-1]):
        with pytest.raises(TableMismatchError):
            fraction_sum(fracs, fracs[0].table)


# -- equality ----------------------------------------------------------------------


def test_fraction_equality_with_one_denominator_compares_numerators(monkeypatch):
    # reduced Fractions over one den are equal iff their numerators are:
    # no subtraction; with different dens the difference decides
    t = var_table(1)
    q = t.exps(q=1)
    a = over_binomials(t.var("q") + t.var("t"), [(q, 0), (t.exps(t=1), 0)])
    b = over_binomials(t.var("t") + t.var("q"), [(q, 0), (t.exps(t=1), 0)])
    c = over_binomials(t.var("q") - t.var("t"), [(q, 0), (t.exps(t=1), 0)])
    split = over_binomials(t.one() + t.var("q"), [(2 * q, 0)])
    plain = over_binomials(t.one(), [(q, 0)])
    subtractions = []
    sub = Fraction.__sub__
    monkeypatch.setattr(Fraction, "__sub__",
                        lambda x, y: subtractions.append(1) or sub(x, y))
    assert a == b and a != c
    assert not subtractions
    assert split == plain and split != a
    assert len(subtractions) == 2
    assert Fraction.zero(t) == Fraction.zero(t) and Fraction.one(t) != Fraction.zero(t)
    assert Fraction.one(t) != Fraction.one(var_table(0))
