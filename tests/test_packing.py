"""Packed monomials: format, range guard, and the kernel against tuple references."""

import random

import pytest

from higgsdt.algebra import (EXP_LIMIT, BinomialFactor, ExponentRangeError, Fraction,
                             LaurentPoly, NotDivisibleError, binomial_product,
                             canonical_binomial, exact_divide, over_binomials,
                             t_expand, var_table)

TABLES = [var_table(), var_table(genus=1), var_table(genus=3),
          var_table(genus=3, nz=4)]
WIDE = TABLES[-1]   # q, t, a1, a2, a3, z1..z4


def rand_exps(rng, arity):
    """Exponent vectors mixing small entries with entries near the limit."""
    out = []
    for _ in range(arity):
        kind = rng.random()
        if kind < 0.4:
            out.append(rng.randint(-3, 3))
        elif kind < 0.7:
            out.append(rng.randint(-EXP_LIMIT, EXP_LIMIT - 1))
        else:
            out.append(rng.choice((-EXP_LIMIT, -EXP_LIMIT + 1, EXP_LIMIT - 2,
                                   EXP_LIMIT - 1, -1, 0, 1)))
    return tuple(out)


# -- the format ---------------------------------------------------------------


@pytest.mark.parametrize("table", TABLES, ids=lambda t: "arity%d" % t.arity)
def test_pack_round_trip_and_order(table):
    rng = random.Random(table.arity)
    vecs = [rand_exps(rng, table.arity) for _ in range(400)]
    vecs += [tuple(rng.randint(-2, 2) for _ in range(table.arity)) for _ in range(200)]
    packed = [table.pack(v) for v in vecs]
    for v, e in zip(vecs, packed):
        assert table.unpack(e) == v
        assert [table.digit(e, i) for i in range(table.arity)] == list(v)
    for i in range(table.arity):
        assert table.digits(packed, i) == [v[i] for v in vecs]
        assert table.digit_range(packed, i) == (min(v[i] for v in vecs),
                                                max(v[i] for v in vecs))
        assert table.digit_range(packed[:1], i) == (vecs[0][i], vecs[0][i])
    for _ in range(3000):
        a, b = rng.randrange(len(vecs)), rng.randrange(len(vecs))
        assert (packed[a] < packed[b]) == (vecs[a] < vecs[b])
        assert (packed[a] == packed[b]) == (vecs[a] == vecs[b])
    assert sorted(packed) == [table.pack(v) for v in sorted(vecs)]


@pytest.mark.parametrize("table", TABLES, ids=lambda t: "arity%d" % t.arity)
def test_packing_is_linear(table):
    rng = random.Random(100 + table.arity)
    half = EXP_LIMIT // 2
    for _ in range(300):
        a = tuple(rng.randint(-half, half - 1) for _ in range(table.arity))
        b = tuple(rng.randint(-half, half - 1) for _ in range(table.arity))
        n = rng.randint(-1, 1) or 1
        assert table.pack(a) + table.pack(b) == table.pack(x + y for x, y in zip(a, b))
        assert table.pack(a) - table.pack(b) == table.pack(x - y for x, y in zip(a, b))
        assert n * table.pack(a) == table.pack(n * x for x in a)


def test_named_exponents_and_rendering():
    t = WIDE
    e = t.exps(q=2, a1=-1, z4=EXP_LIMIT - 1)
    assert t.unpack(e) == (2, 0, -1, 0, 0, 0, 0, 0, EXP_LIMIT - 1)
    assert t.format_exps(e) == "q^2 a1^-1 z4^%d" % (EXP_LIMIT - 1)
    assert t.format_exps(t.zero_exps()) == "1"
    assert t.unit_exps("a2") == t.exps(a2=1)
    assert t.unpack(t.zero_exps()) == (0,) * t.arity


def format_by_columns(table, keys, names, power):
    """format_monomials a variable at a time: one text per exponent column."""
    cols = []
    for i, nm in enumerate(names):
        col = table.digits(keys, i)
        if any(col):
            text = {e: nm if e == 1 else power % (nm, e) for e in set(col) if e}
            cols.append([text.get(e) for e in col])
    if not cols:
        return ["1"] * len(keys)
    return [" ".join(filter(None, bits)) or "1" for bits in zip(*cols)]


def test_format_monomials_matches_the_column_reference():
    # the (q, t) and the other parts are formatted once each and joined
    rng = random.Random(20)
    t = WIDE
    keys = [t.zero_exps()]
    for _ in range(5000):
        if rng.random() < 0.8:
            exps = [rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(t.arity)]
        else:
            exps = rand_exps(rng, t.arity)
        keys.append(t.pack(exps))
    latex = ["\\%s_{%s}" % (nm[0], nm[1:]) if len(nm) > 1 else nm for nm in t.names]
    for names, power in ((t.names, "%s^%d"), (latex, "%s^{%d}")):
        got = t.format_monomials(keys, names, power)
        assert got == format_by_columns(t, keys, names, power)
    assert got[0] == "1"
    assert t.format_monomials(iter(keys)) == format_by_columns(t, keys, t.names, "%s^%d")
    for table in TABLES:
        assert table.format_monomials([0, table.exps(t=-2)]) == ["1", "t^-2"]


# -- the range guard ----------------------------------------------------------


@pytest.mark.parametrize("table", TABLES, ids=lambda t: "arity%d" % t.arity)
def test_pack_refuses_out_of_range(table):
    for i in range(table.arity):
        for bad in (EXP_LIMIT, -EXP_LIMIT - 1, 2 ** 40):
            v = [0] * table.arity
            v[i] = bad
            with pytest.raises(ExponentRangeError):
                table.pack(v)
            with pytest.raises(ExponentRangeError):
                table.exps(**{table.names[i]: bad})
        for good in (EXP_LIMIT - 1, -EXP_LIMIT):
            v = [0] * table.arity
            v[i] = good
            assert table.unpack(table.pack(v)) == tuple(v)
            assert table.exps(**{table.names[i]: good}) == table.pack(v)
    with pytest.raises(ValueError):
        table.pack([0] * (table.arity + 1))


def test_monomial_refuses_a_packed_sum_past_the_limit():
    t = WIDE
    over = t.exps(a1=EXP_LIMIT - 1) + t.exps(a1=1)
    with pytest.raises(ExponentRangeError):
        t.monomial(over)
    with pytest.raises(ExponentRangeError):
        t.one().mono_mul(over)
    with pytest.raises(ExponentRangeError):
        binomial_product(t, [(0, over)])


@pytest.mark.parametrize("name", ["q", "t", "a1", "a2", "z4"])
def test_products_refuse_to_leave_the_range(name):
    t = WIDE
    i = t.index[name]

    def mono(e):
        # e in variable `name`, and digits of both signs around it
        v = [3 if k % 2 else -1 for k in range(t.arity)]
        v[i] = e
        return t.pack(v)

    step = t.monomial(t.unit_exps(name))
    with pytest.raises(ExponentRangeError):
        t.monomial(mono(EXP_LIMIT - 1)) * step
    with pytest.raises(ExponentRangeError):
        t.monomial(mono(EXP_LIMIT - 1)).mono_mul(t.unit_exps(name))
    with pytest.raises(ExponentRangeError):
        t.monomial(mono(-EXP_LIMIT)) * t.monomial(-t.unit_exps(name))
    with pytest.raises(ExponentRangeError):
        (t.monomial(t.exps(**{name: EXP_LIMIT // 2})) + t.one()) ** 2
    # right at the edge nothing spills into a neighbouring variable
    assert t.monomial(mono(EXP_LIMIT - 2)) * step == t.monomial(mono(EXP_LIMIT - 1))
    low = t.monomial(t.exps(**{name: -EXP_LIMIT // 2})) ** 2
    assert low == t.monomial(t.exps(**{name: -EXP_LIMIT}))


def test_adams_refuses_to_leave_the_range():
    t = WIDE
    p = t.monomial(t.exps(a1=EXP_LIMIT // 2, q=1)) + t.one()
    with pytest.raises(ExponentRangeError):
        p.adams(2)
    with pytest.raises(ExponentRangeError):
        t.monomial(t.exps(z2=-EXP_LIMIT // 2 - 1)).adams(2)
    ok = t.monomial(t.exps(a1=EXP_LIMIT // 2 - 1, q=1)).adams(2)
    assert ok == t.monomial(t.exps(a1=EXP_LIMIT - 2, q=2))
    # a denominator factor is scaled too
    f = over_binomials(t.one(), [(t.exps(t=EXP_LIMIT // 2), t.zero_exps())])
    with pytest.raises(ExponentRangeError):
        f.adams(2)
    with pytest.raises(ValueError):
        t.one().adams(0)


def test_substitution_refuses_to_leave_the_range():
    t = WIDE
    p = t.monomial(t.exps(q=EXP_LIMIT - 1, a1=-1))
    # a1 -> q a1^-1 sends q^(L-1) a1^-1 to q^(L-2) a1, but q^(L-1) a1 to q^L a1^-1
    assert (p.substitute_monomials({t.index["a1"]: t.exps(q=1, a1=-1)})
            == t.monomial(t.exps(q=EXP_LIMIT - 2, a1=1)))
    p = t.monomial(t.exps(q=EXP_LIMIT - 1, a1=1))
    with pytest.raises(ExponentRangeError):
        p.substitute_monomials({t.index["a1"]: t.exps(q=1, a1=-1)})
    # a1 -> a1^4 takes a1^(L-1) to a1^(4L-4), which would wrap to a1^-4 times
    # one more u were it packed unchecked
    p = t.monomial(t.exps(a1=EXP_LIMIT - 1))
    with pytest.raises(ExponentRangeError):
        p.substitute_monomials({t.index["a1"]: t.exps(a1=4)})


def test_t_expand_refuses_to_leave_the_range():
    # 1/(a1^K - t) = sum_j t^j a1^(-(j+1) K); at j = 8 the a1 digit would wrap
    t = var_table(genus=1)
    k = EXP_LIMIT // 2
    f = over_binomials(t.one(), [(t.exps(a1=k), t.exps(t=1))])
    assert t_expand(f, 1) == [Fraction(t.monomial(t.exps(a1=-k))),
                              Fraction(t.monomial(t.exps(a1=-2 * k)))]
    for depth in (2, 8):
        with pytest.raises(ExponentRangeError):
            t_expand(f, depth)
    # every shift in range, but a numerator term pushed out by one
    g = over_binomials(t.monomial(t.exps(a1=-k)), [(t.exps(a1=k // 2), t.exps(t=1))])
    assert t_expand(g, 1)[1] == Fraction(t.monomial(t.exps(a1=-2 * k)))
    with pytest.raises(ExponentRangeError):
        t_expand(g, 2)


def test_exact_divide_measures_lines_along_the_largest_step():
    # the q-spread 21 times the t-step 2^28 passes 2^31; measured along t,
    # the largest step, every line is at most 2 steps long: divided exactly,
    # a remainder refused and the factor kept
    t = var_table()
    for k in (2 ** 28, 2 ** 20):
        f, _, _ = canonical_binomial(t, t.exps(q=1), t.exps(t=k))
        a = t.one() + t.monomial(t.exps(q=1, t=-k)) + t.monomial(t.exps(q=20))
        num = a * f.to_poly(t)
        assert exact_divide(num, f) == a
        bad = num + t.monomial(t.exps(q=7))
        with pytest.raises(NotDivisibleError):
            exact_divide(bad, f)
        frac = Fraction(bad, [f])
        assert frac.den == (f,) and frac.num == bad


# -- the kernel against tuple-keyed references --------------------------------


def tuple_poly(rng, arity, nterms, span):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        e = tuple(rng.randint(-span, span) for _ in range(arity))
        terms[e] = terms.get(e, 0) + rng.randint(-6, 6)
    return {e: c for e, c in terms.items() if c}


def tuple_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def tuple_exact_divide(terms, m1, m2):
    """Class-by-class division by x^m1 - x^m2 on exponent tuples."""
    v = tuple(x - y for x, y in zip(m1, m2))
    i0 = next(i for i, x in enumerate(v) if x)
    classes = {}
    for e, c in terms.items():
        j = e[i0] // v[i0]
        key = tuple(x - j * y for x, y in zip(e, v))
        classes.setdefault(key, {})[j] = c
    out = {}
    for key, col in classes.items():
        if sum(col.values()):
            raise NotDivisibleError("remainder")
        d = 0
        for j in range(min(col), max(col)):
            d -= col.get(j, 0)
            if d:
                out[tuple(k - y + j * x for k, x, y in zip(key, v, m2))] = d
    return out


def packed(table, terms):
    return LaurentPoly(table, {table.pack(e): c for e, c in terms.items()})


def unpacked(poly):
    return {poly.table.unpack(e): c for e, c in poly.terms.items()}


def offset(terms, shift):
    return {tuple(x + s for x, s in zip(e, shift)): c for e, c in terms.items()}


def test_mul_matches_tuple_reference():
    rng = random.Random(7)
    t = WIDE
    for trial in range(150):
        a = tuple_poly(rng, t.arity, 8, 3)
        b = tuple_poly(rng, t.arity, 8, 3)
        if trial % 2:
            # far from zero, with digits of both signs next to each other
            a = offset(a, [rng.choice((-1, 1)) * (EXP_LIMIT // 2 - 8) for _ in range(t.arity)])
            b = offset(b, [rng.randint(-5, 5) for _ in range(t.arity)])
        assert unpacked(packed(t, a) * packed(t, b)) == tuple_mul(a, b)


def test_exact_divide_matches_tuple_reference():
    rng = random.Random(8)
    t = WIDE
    done = refused = 0
    while done < 150:
        a = tuple_poly(rng, t.arity, 8, 3)
        while True:
            e1 = tuple(rng.randint(-2, 2) for _ in range(t.arity))
            e2 = tuple(rng.randint(-2, 2) for _ in range(t.arity))
            if e1 != e2:
                break
        if done % 2:
            shift = [rng.choice((-1, 1)) * (EXP_LIMIT // 4) for _ in range(t.arity)]
            a = offset(a, shift)
        fac, _, _ = canonical_binomial(t, t.pack(e1), t.pack(e2))
        m1, m2 = t.unpack(fac.m1), t.unpack(fac.m2)
        num = tuple_mul(a, {m1: 1, m2: -1})
        assert unpacked(exact_divide(packed(t, num), fac)) == tuple_exact_divide(num, m1, m2) == a
        if a:
            extra = dict(num)
            e = next(iter(a))
            extra[e] = extra.get(e, 0) + 1
            extra = {k: c for k, c in extra.items() if c}
            with pytest.raises(NotDivisibleError):
                tuple_exact_divide(extra, m1, m2)
            with pytest.raises(NotDivisibleError):
                exact_divide(packed(t, extra), fac)
            refused += 1
        done += 1
    assert refused > 100


def test_factor_orientation_matches_tuple_order():
    rng = random.Random(9)
    t = WIDE
    for _ in range(300):
        e1, e2 = rand_exps(rng, t.arity), rand_exps(rng, t.arity)
        e1 = tuple(x // 2 for x in e1)
        e2 = tuple(x // 2 for x in e2)
        if e1 == e2:
            continue
        fac, unit, sign = canonical_binomial(t, t.pack(e1), t.pack(e2))
        lo = tuple(map(min, e1, e2))
        r1 = tuple(x - u for x, u in zip(e1, lo))
        r2 = tuple(x - u for x, u in zip(e2, lo))
        want = (r1, r2, 1) if r1 > r2 else (r2, r1, -1)
        assert (t.unpack(fac.m1), t.unpack(fac.m2), sign) == want
        assert t.unpack(unit) == lo
        assert isinstance(fac, BinomialFactor)


def test_substitution_matches_tuple_reference():
    rng = random.Random(10)
    t = WIDE
    images = {t.index["q"]: (1, 1, 0, 0, 0, 0, 0, 0, 0),
              t.index["t"]: (0, -1, 0, 0, 0, 0, 0, 0, 0),
              t.index["a2"]: (0, 0, 0, 0, 1, 0, 0, 0, 0),
              t.index["a3"]: (1, 0, 0, -1, 0, 0, 0, 0, 2),
              t.index["a1"]: (0,) * t.arity}
    for _ in range(100):
        a = tuple_poly(rng, t.arity, 8, 3)
        want = {}
        for e, c in a.items():
            new = [0] * t.arity
            for i, x in enumerate(e):
                img = images.get(i)
                if img is None:
                    new[i] += x
                else:
                    for j, y in enumerate(img):
                        new[j] += x * y
            k = tuple(new)
            want[k] = want.get(k, 0) + c
        want = {k: c for k, c in want.items() if c}
        got = packed(t, a).substitute_monomials({i: t.pack(img)
                                                 for i, img in images.items()})
        assert unpacked(got) == want


def test_exact_divide_carries_sums_across_gaps():
    # quotients sparse along the direction give dividends with long gaps on
    # each line; a sum carried across them must land on the next run
    rng = random.Random(11)
    t = WIDE
    for _ in range(100):
        while True:
            e1 = tuple(rng.randint(0, 2) for _ in range(t.arity))
            e2 = tuple(rng.randint(0, 2) for _ in range(t.arity))
            if e1 != e2:
                break
        fac, _, _ = canonical_binomial(t, t.pack(e1), t.pack(e2))
        m1, m2 = t.unpack(fac.m1), t.unpack(fac.m2)
        v = tuple(x - y for x, y in zip(m1, m2))
        a = {}
        for _ in range(rng.randint(1, 4)):
            base = tuple(rng.randint(-3, 3) for _ in range(t.arity))
            for k in rng.sample(range(12), rng.randint(1, 4)):
                e = tuple(b + k * x for b, x in zip(base, v))
                a[e] = a.get(e, 0) + rng.choice((-2, -1, 1, 3))
        a = {e: c for e, c in a.items() if c}
        num = tuple_mul(a, {m1: 1, m2: -1})
        assert unpacked(exact_divide(packed(t, num), fac)) == a
        if num:
            far = tuple(x + 20 * y for x, y in zip(next(iter(num)), v))
            with pytest.raises(NotDivisibleError):
                exact_divide(packed(t, {**num, far: 1}), fac)


def test_exact_divide_walks_the_longest_gap():
    # x^(k v) - 1 over x^v - 1: one line whose only gap spans the support
    t = WIDE
    for v in (t.exps(q=1), t.exps(t=2, a1=-1), t.exps(z3=1, z4=-3)):
        f, _, _ = canonical_binomial(t, v, t.zero_exps())
        for k in range(1, 6):
            num = t.monomial(k * f.m1) - t.monomial(k * f.m2)
            want = LaurentPoly(t, {j * f.m1 + (k - 1 - j) * f.m2: 1 for j in range(k)})
            assert exact_divide(num, f) == want
            with pytest.raises(NotDivisibleError):
                exact_divide(num + t.monomial((k + 1) * f.m1), f)


def line_key(e, v):
    """The point of the line e + Z*v whose first v-coordinate is in [0, v_i0)."""
    i0 = next(i for i, x in enumerate(v) if x)
    j = e[i0] // v[i0]
    return tuple(x - j * y for x, y in zip(e, v))


def agrees_with_line_sums(t, fac, num):
    """exact_divide of num by fac matches tuple_exact_divide; True if it divides."""
    m1, m2 = t.unpack(fac.m1), t.unpack(fac.m2)
    dividend = packed(t, num)
    try:
        want = tuple_exact_divide(num, m1, m2)
    except NotDivisibleError:
        with pytest.raises(NotDivisibleError):
            exact_divide(dividend, fac)
        return False
    quo = exact_divide(dividend, fac)
    assert unpacked(quo) == want
    assert quo * fac.to_poly(t) == dividend
    return True


def wide_step_case(rng, t):
    """A factor whose largest step, 2^26 to 2^27 of either sign, sits at a
    random coordinate i0 among steps of at most 2, and a dividend whose
    quotient has two to four terms on each of its lines, the lines drawn
    through points in [-60, 60] off i0.  Returns (factor, dividend terms, i0)."""
    while True:
        v = [rng.randint(-2, 2) for _ in range(t.arity)]
        i0 = rng.randrange(t.arity)
        v[i0] = rng.choice((-1, 1)) * rng.randint(2 ** 26, 2 ** 27)
        fac, _, _ = canonical_binomial(t, t.pack([max(x, 0) for x in v]),
                                       t.pack([max(-x, 0) for x in v]))
        m1, m2 = t.unpack(fac.m1), t.unpack(fac.m2)
        v = tuple(x - y for x, y in zip(m1, m2))
        a = {}
        for _ in range(rng.randint(1, 3)):
            base = [rng.randint(-60, 60) for _ in range(t.arity)]
            base[i0] = rng.randint(-4, 4)
            for k in rng.sample(range(-3, 4), rng.randint(2, 4)):
                e = tuple(b + k * x for b, x in zip(base, v))
                a[e] = a.get(e, 0) + rng.choice((-2, -1, 1, 3))
        num = tuple_mul({e: c for e, c in a.items() if c}, {m1: 1, m2: -1})
        if num:
            return fac, num, i0


def test_exact_divide_agrees_with_summing_every_line():
    # dividends with gaps, negative exponents and several directions, some
    # divisible, some with a remainder on the line of the first or last stored
    # term and some with it on a line in between only, which the line-sum
    # probe cannot see and the run walk must find
    rng = random.Random(12)
    counts = {"divides": 0, "ends": 0, "middle": 0, "random": 0}
    for trial in range(600):
        t = TABLES[trial % len(TABLES)]
        while True:
            e1 = tuple(rng.randint(-2, 2) for _ in range(t.arity))
            e2 = tuple(rng.randint(-2, 2) for _ in range(t.arity))
            if e1 != e2:
                break
        fac, _, _ = canonical_binomial(t, t.pack(e1), t.pack(e2))
        m1, m2 = t.unpack(fac.m1), t.unpack(fac.m2)
        v = tuple(x - y for x, y in zip(m1, m2))
        a = {}
        for _ in range(rng.randint(2, 4)):
            base = tuple(rng.randint(-4, 4) for _ in range(t.arity))
            for k in rng.sample(range(-6, 10), rng.randint(1, 4)):
                e = tuple(b + k * x for b, x in zip(base, v))
                a[e] = a.get(e, 0) + rng.choice((-2, -1, 1, 3))
        a = {e: c for e, c in a.items() if c}
        num = tuple_mul(a, {m1: 1, m2: -1})
        kind = rng.choice(("divides", "ends", "middle", "random"))
        if kind == "random":
            num = tuple_poly(rng, t.arity, 8, 3)
        elif kind != "divides" and len(num) > 2:
            items = list(num.items())
            ends = {line_key(items[0][0], v), line_key(items[-1][0], v)}
            if kind == "ends":
                e = rng.choice((items[0][0], items[-1][0]))
            else:
                e = next((e for e, _ in items[1:-1] if line_key(e, v) not in ends), None)
                if e is None:
                    continue
            # move the perturbed term within its line, keeping it in the middle
            # of the dict when it is new
            e = tuple(x + rng.randint(-3, 3) * y for x, y in zip(e, v))
            c = num.get(e, 0) + rng.choice((-1, 1))
            items = [kv for kv in items if kv[0] != e]
            items.insert(len(items) // 2, (e, c))
            num = {k: x for k, x in items if x}
        elif kind != "divides":
            continue
        divides = agrees_with_line_sums(t, fac, num)
        if kind != "random":
            assert divides == (kind == "divides")
        counts[kind] += 1
    assert min(counts.values()) > 100
    # wide steps: the largest step off the first nonzero coordinate of v or
    # negative, and a spread in that first coordinate times the largest step
    # past 2^31, which measuring lines along the first coordinate could not
    # test exactly
    rng = random.Random(13)
    seen = {"divides": 0, "remainder": 0, "off lead": 0, "negative": 0, "past 2^31": 0}
    for trial in range(200):
        t = TABLES[trial % len(TABLES)]
        fac, num, i0 = wide_step_case(rng, t)
        v = t.unpack(fac.m1 - fac.m2)
        lead = next(i for i, x in enumerate(v) if x)
        col = [e[lead] for e in num]
        seen["off lead"] += i0 != lead
        seen["negative"] += v[i0] < 0
        seen["past 2^31"] += (max(col) - min(col)) // v[lead] * abs(v[i0]) > 2 ** 31
        if trial % 2:
            # one coefficient moved by 1 at a point of a stored term's line
            items = list(num.items())
            e = rng.choice(items)[0]
            e = tuple(x + rng.randint(-3, 3) * y for x, y in zip(e, v))
            c = num.get(e, 0) + rng.choice((-1, 1))
            items = [kv for kv in items if kv[0] != e]
            items.insert(rng.randint(0, len(items)), (e, c))
            num = {k: x for k, x in items if x}
        divides = agrees_with_line_sums(t, fac, num)
        assert divides == (trial % 2 == 0)
        seen["divides" if divides else "remainder"] += 1
    assert min(seen.values()) > 20, seen


def test_exact_divide_divides_a_gapless_dividend_spread_wide():
    # (q - t^(2^28)) (1 + q^20): 21 q-steps of 2^28 in t, but measured along
    # t, the largest step, it is two lines of one step each: probed and divided
    t = var_table()
    f, _, _ = canonical_binomial(t, t.exps(q=1), t.exps(t=2 ** 28))
    a = t.one() + t.monomial(t.exps(q=20))
    assert exact_divide(a * f.to_poly(t), f) == a
