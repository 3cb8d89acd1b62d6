import ast
import functools
import math
import pathlib
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction as Q

import pytest

from higgsdt import algebra, sums
from higgsdt.algebra import (EXP_LIMIT, BinomialFactor, ExponentRangeError, Fraction,
                             LaurentPoly, NotDivisibleError, TableMismatchError,
                             ZeroDenominatorError, _lcd_parts,
                             binomial_product, canonical_binomial,
                             exact_divide, fraction_sum, over_binomials, t_expand,
                             var_table)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "higgsdt"

T2 = var_table(genus=1)   # q, t, a1
T4 = var_table(genus=2)   # q, t, a1, a2


def rand_poly(rng, table=T2, nterms=4, span=3):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        e = table.pack(rng.randint(-span, span) for _ in range(table.arity))
        terms[e] = terms.get(e, 0) + rng.randint(-5, 5)
    return LaurentPoly(table, {e: c for e, c in terms.items() if c})


def rand_binomial(rng, table=T2, span=2):
    while True:
        e1 = table.pack(rng.randint(-span, span) for _ in range(table.arity))
        e2 = table.pack(rng.randint(-span, span) for _ in range(table.arity))
        if e1 != e2:
            return e1, e2


# -- Laurent polynomial ring axioms -----------------------------------------


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(400):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + T2.zero() == a
        assert a * T2.one() == a
        assert a - a == T2.zero()


def test_pow_and_adams():
    rng = random.Random(12)
    for _ in range(100):
        a = rand_poly(rng)
        assert a ** 3 == a * a * a
        assert a ** 0 == T2.one()
        # adams is a ring map and scales evaluation points
        b = rand_poly(rng)
        n = rng.randint(2, 4)
        assert (a * b).adams(n) == a.adams(n) * b.adams(n)
        assert (a + b).adams(n) == a.adams(n) + b.adams(n)


def test_eval_matches_adams():
    rng = random.Random(13)
    vals = [Q(3), Q(5), Q(2, 7)]
    for _ in range(60):
        a = rand_poly(rng)
        n = rng.randint(2, 3)
        assert a.adams(n).eval(vals) == a.eval([v ** n for v in vals])


def test_eval_of_a_constant_is_a_fraction():
    vals = [Q(3), Q(5), Q(2, 7)]
    for p in (T2.zero(), T2.one(), T2.monomial(T2.zero_exps(), 5)):
        assert isinstance(p.eval(vals), Q)
    assert T2.zero().eval(vals) / 2 == 0
    assert not isinstance(T2.zero().eval(vals) / 2, float)
    assert T2.one().eval(vals) / 2 == Q(1, 2)


def test_mono_mul_and_scale():
    rng = random.Random(14)
    for _ in range(60):
        a = rand_poly(rng)
        e = T2.pack(rng.randint(-2, 2) for _ in range(T2.arity))
        assert a.mono_mul(e, 3) == a * T2.monomial(e, 3)
        assert a.scale(Q(1, 2)).scale(2) == a


def test_substitute_monomials_is_simultaneous():
    # q -> t, t -> q must swap, not collapse
    p = T2.monomial(T2.exps(q=2, t=1))
    swapped = p.substitute_monomials({T2.index["q"]: T2.unit_exps("t"),
                                      T2.index["t"]: T2.unit_exps("q")})
    assert swapped == T2.monomial(T2.exps(q=1, t=2))


def test_table_mismatch_rejected():
    other = var_table(genus=2)
    with pytest.raises(TableMismatchError):
        T2.one() + other.one()


def test_table_refuses_a_negative_genus():
    # a table of genus -1 would have no a-variables and equal var_table(0)
    for make in (var_table, algebra.VarTable):
        with pytest.raises(ValueError, match="genus must be nonnegative, got -1"):
            make(-1)
        with pytest.raises(ValueError, match="genus must be nonnegative, got -2"):
            make(genus=-2, nz=1)


def test_table_refuses_a_negative_nz():
    for make in (var_table, algebra.VarTable):
        with pytest.raises(ValueError, match="nz must be nonnegative, got -3"):
            make(0, -3)
        with pytest.raises(ValueError, match="nz must be nonnegative, got -1"):
            make(genus=2, nz=-1)
    assert var_table(0, 0).names == ("q", "t")


# -- canonical binomial factors ----------------------------------------------


def test_canonical_binomial_properties():
    rng = random.Random(15)
    for _ in range(300):
        e1, e2 = rand_binomial(rng)
        fac, unit, sign = canonical_binomial(T2, e1, e2)
        # componentwise minimum of the pair is zero and orientation is fixed
        assert all(min(x, y) == 0 for x, y in zip(T2.unpack(fac.m1), T2.unpack(fac.m2)))
        assert fac.m1 > fac.m2
        assert sign in (1, -1)
        # sign * x^unit * (x^m1 - x^m2) reproduces x^e1 - x^e2
        lhs = T2.monomial(e1) - T2.monomial(e2)
        rhs = fac.to_poly(T2).mono_mul(unit, sign)
        assert lhs == rhs


def test_canonical_binomial_rejects_equal():
    with pytest.raises(ZeroDenominatorError):
        canonical_binomial(T2, T2.pack((1, 0, 0)), T2.pack((1, 0, 0)))


def test_degenerate_binomial_via_fraction():
    with pytest.raises(ZeroDenominatorError):
        over_binomials(T2.one(), [(T2.exps(q=1), T2.exps(q=1))])


def test_binomial_product_is_the_loop_of_monomial_differences():
    # same terms in the same dict order, so products multiply as before;
    # a pair with e1 == e2 is a zero factor
    rng = random.Random(16)
    for _ in range(100):
        pairs = [rand_binomial(rng) for _ in range(rng.randint(0, 4))]
        if pairs and rng.random() < 0.2:
            e = rng.choice(pairs)[0]
            pairs.insert(rng.randrange(len(pairs)), (e, e))
        want = T2.one()
        for e1, e2 in pairs:
            want = want * (T2.monomial(e1) - T2.monomial(e2))
        got = binomial_product(T2, pairs)
        assert list(got.terms.items()) == list(want.terms.items())


# -- exact division -----------------------------------------------------------


def test_exact_divide_roundtrip_random():
    rng = random.Random(16)
    done = 0
    while done < 300:
        a = rand_poly(rng)
        if a.is_zero():
            continue
        e1, e2 = rand_binomial(rng)
        fac, _, _ = canonical_binomial(T2, e1, e2)
        prod = a * fac.to_poly(T2)
        assert exact_divide(prod, fac) == a
        done += 1


def test_exact_divide_hand_case():
    # (q^2 - t^2) / (q - t) = q + t
    num = T2.monomial(T2.exps(q=2)) - T2.monomial(T2.exps(t=2))
    fac, _, _ = canonical_binomial(T2, T2.exps(q=1), T2.exps(t=1))
    assert exact_divide(num, fac) == T2.var("q") + T2.var("t")


def test_exact_divide_detects_failure():
    fac, _, _ = canonical_binomial(T2, T2.exps(q=1), T2.exps(t=1))
    with pytest.raises(NotDivisibleError) as err:
        exact_divide(T2.one(), fac)
    assert str(err.value) == "remainder on the line through 1"
    with pytest.raises(NotDivisibleError) as err:
        exact_divide(T2.var("q") + T2.one(), fac)
    assert str(err.value) == "remainder on the line through q"


@pytest.mark.parametrize("k", [24, 29])
def test_a_probe_along_a_long_line_sums_only_its_terms(k):
    # q^(2^k) + 1 + q t over q^2 - 1: the line of 1 has 2^(k-1) + 1 points
    # and two terms; its carry spends the budget of three empty points, so
    # the lines are summed over their terms and the line of 1 refuses
    fac, _, _ = canonical_binomial(T2, T2.exps(q=2), 0)
    num = LaurentPoly(T2, {T2.exps(q=2 ** k): 1, 0: 1, T2.exps(q=1, t=1): 1})
    start = time.perf_counter()
    with pytest.raises(NotDivisibleError):
        exact_divide(num, fac)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("k", [22, 29])
def test_a_carry_across_a_long_gap_is_refused_before_it_is_walked(k):
    # 1 + q^3 t - q^(2^k) over q^2 - 1: the line of 1 sums to zero, and its
    # carried -1 would cross 2^(k-1) - 1 empty points; after three, the
    # budget, the lines are summed over their terms, and the line of q^3 t
    # refuses
    fac, _, _ = canonical_binomial(T2, T2.exps(q=2), 0)
    num = LaurentPoly(T2, {0: 1, T2.exps(q=3, t=1): 1, T2.exps(q=2 ** k): -1})
    tracemalloc.start()
    start = time.perf_counter()
    with pytest.raises(NotDivisibleError) as err:
        exact_divide(num, fac)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 0.05 and peak < 1_000_000
    assert str(err.value) == "remainder on the line through q^3 t"


def _lines_over_t_minus_one(n, top, bad=None):
    """sum_{k<n} q^k (1 - t^top) over t - 1, plus 7 q^bad t after q^bad."""
    terms = {}
    for k in range(n):
        terms[T2.exps(q=k)] = 1
        if k == bad:
            terms[T2.exps(q=k, t=1)] = 7
        terms[T2.exps(q=k, t=top)] = -1
    return LaurentPoly(T2, terms), canonical_binomial(T2, T2.exps(t=1), 0)[0]


@pytest.mark.parametrize("n,top", [(500, 900), (1000, 1900)])
def test_carries_across_many_gaps_spend_one_budget(n, top):
    # the lines through the first and the last term sum to zero, and each
    # line's carry crosses top - 1 empty points: the lines before q^250 spend
    # the budget of one empty point per term, the lines are summed, and the
    # line of q^250 refuses without the walk of every line before it; timed
    # untraced, as tracing each allocation is slower than the refusal
    num, fac = _lines_over_t_minus_one(n, top, bad=250)
    start = time.perf_counter()
    with pytest.raises(NotDivisibleError) as err:
        exact_divide(num, fac)
    assert time.perf_counter() - start < 0.05
    assert str(err.value) == "remainder on the line through q^250"
    num, fac = _lines_over_t_minus_one(n, top, bad=250)
    tracemalloc.start()
    with pytest.raises(NotDivisibleError):
        exact_divide(num, fac)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1_000_000


def test_an_exact_division_past_the_budget_is_walked_whole():
    # 200 lines q^k (1 - t^900) over t - 1: the first carry spends the
    # budget, every line sums to zero, and the walk fills 900 quotient terms
    # a line
    num, fac = _lines_over_t_minus_one(200, 900)
    quo = exact_divide(num, fac)
    assert len(quo.terms) == 200 * 900
    assert quo * fac.to_poly(T2) == num


def test_a_long_gap_of_an_exact_division_is_filled():
    # (1 + q^3 t)(1 - q^(2^13)) over q^2 - 1: each line carries its sum
    # across a gap of 2^12 - 1 points, every one a term of the quotient
    fac, _, _ = canonical_binomial(T2, T2.exps(q=2), 0)
    num = (T2.one() + T2.monomial(T2.exps(q=3, t=1))) * (T2.one() - T2.monomial(T2.exps(q=2 ** 13)))
    quo = exact_divide(num, fac)
    assert len(quo.terms) == 2 ** 13
    assert quo * fac.to_poly(T2) == num


def test_a_dict_sum_spread_far_along_q_tries_its_factors_at_once(monkeypatch):
    # (q^(2^29) + 1)/(q - 1) - 4t/(q^2 - 1) on dicts: the lifted numerator's
    # coefficients sum to zero, so q^2 - 1 is tried on a line of 2^28 points
    monkeypatch.setattr(sums, "ROW_MIN_SPAN", EXP_LIMIT)
    q = T2.exps(q=1)
    a = over_binomials(T2.monomial(T2.exps(q=2 ** 29)) + T2.one(), [(q, 0)])
    b = over_binomials(T2.monomial(T2.exps(t=1), -4), [(2 * q, 0)])
    start = time.perf_counter()
    got = fraction_sum([a, b], T2)
    assert time.perf_counter() - start < 0.05
    assert got.den == canonical_binomial(T2, 2 * q, 0)[:1]
    assert len(got.num.terms) == 5


def test_probes_over_the_terms_decide_as_the_walk_does():
    # dividends spread far along the factor's direction, so that the lines
    # are longer than the terms: a product divides, a product plus a
    # monomial does not, and plus m - m X^j (X the factor's x^v) divides
    rng = random.Random(2702)
    for _ in range(200):
        e1, e2 = rand_binomial(rng)
        fac, _, _ = canonical_binomial(T2, e1, e2)
        v = fac.m1 - fac.m2
        a = rand_poly(rng)
        if a.is_zero():
            continue
        prod = a * fac.to_poly(T2)
        m = T2.monomial(T2.pack(rng.randint(-3, 3) for _ in range(3)))
        far = m * T2.monomial(rng.randint(40, 400) * v)
        want = exact_divide(prod + m - far, fac)
        assert want * fac.to_poly(T2) == prod + m - far
        with pytest.raises(NotDivisibleError):
            exact_divide(prod + m, fac)
        with pytest.raises(NotDivisibleError):
            exact_divide(prod + far, fac)


# -- fractions ----------------------------------------------------------------


def rand_fraction(rng, nden=2, table=T2):
    num = rand_poly(rng, table)
    return over_binomials(num, [rand_binomial(rng, table)
                                for _ in range(rng.randint(0, nden))])


def test_fraction_field_axioms_random():
    rng = random.Random(17)
    for _ in range(150):
        a, b, c = (rand_fraction(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Fraction.zero(T2) == a
        assert a * Fraction.one(T2) == a
        assert a - a == Fraction.zero(T2)


def test_fraction_cancellation():
    rng = random.Random(18)
    for _ in range(150):
        a = rand_fraction(rng)
        e1, e2 = rand_binomial(rng)
        b = T2.monomial(e1) - T2.monomial(e2)
        recip = over_binomials(T2.one(), [(e1, e2)])
        assert a.mul_poly(b) * recip == a
        assert (a * recip).mul_poly(b) == a


def test_fraction_eval_consistency():
    rng = random.Random(19)
    vals = [Q(4), Q(3), Q(5, 2)]
    for _ in range(80):
        a, b = rand_fraction(rng), rand_fraction(rng)
        try:
            va, vb = a.eval(vals), b.eval(vals)
        except ZeroDivisionError:
            continue
        assert (a + b).eval(vals) == va + vb
        assert (a * b).eval(vals) == va * vb


def test_clear_denominator():
    # (q^2 - t^2) / (q - t) clears; 1 / (q - t) does not
    num = T2.monomial(T2.exps(q=2)) - T2.monomial(T2.exps(t=2))
    f = over_binomials(num, [(T2.exps(q=1), T2.exps(t=1))])
    assert f.clear_denominator() == T2.var("q") + T2.var("t")
    g = over_binomials(T2.one(), [(T2.exps(q=1), T2.exps(t=1))])
    with pytest.raises(NotDivisibleError):
        g.clear_denominator()


def test_clear_denominator_tries_no_division(monkeypatch):
    # the Fraction is reduced, so a denominator is refused as it stands
    g = over_binomials(T2.one(), [(T2.exps(q=1), T2.exps(t=1))])

    def no_division(poly, factor):
        raise AssertionError("clear_denominator tried a division")
    monkeypatch.setattr(algebra, "exact_divide", no_division)
    with pytest.raises(NotDivisibleError, match="1 factor"):
        g.clear_denominator()
    assert Fraction(T2.var("q")).clear_denominator() == T2.var("q")


def test_t_expand_at_depth_zero():
    # (1 + t a1) / (q - t) at t = 0 gives 1 / q
    num = T2.one() + T2.monomial(T2.exps(t=1, a1=1))
    f = over_binomials(num, [(T2.exps(q=1), T2.exps(t=1))])
    assert t_expand(f, 0) == [Fraction(T2.monomial(T2.exps(q=-1)))]
    # a negative exponent of t is a pole: a nonzero t^-1 coefficient, refused
    g = Fraction(T2.monomial(T2.exps(t=-1, q=1)))
    with pytest.raises(NotDivisibleError, match=r"t\^-1"):
        t_expand(g, 0)


def test_t_expand_refuses_a_negative_depth():
    # a depth of -1 would return no coefficients at all
    f = Fraction(T2.one() + T2.var("t"))
    with pytest.raises(ValueError, match="depth must be nonnegative, got -1"):
        t_expand(f, -1)
    assert t_expand(f, 0) == [Fraction.one(T2)]


def test_t_expand_refuses_a_pole():
    # q/t + 1 and (q/t) / (q - t) = 1/t + q^-1 + ... are not power series in t
    q_over_t = T2.monomial(T2.exps(q=1, t=-1))
    for f in (Fraction(q_over_t + T2.one()),
              over_binomials(q_over_t, [(T2.exps(q=1), T2.exps(t=1))])):
        with pytest.raises(NotDivisibleError, match=r"t\^-1 "):
            t_expand(f, 1)
    # the refusal names the lowest degree: (t^-1 + t^-3 a1) / (1 - t)
    f = over_binomials(T2.monomial(T2.exps(t=-1)) + T2.monomial(T2.exps(t=-3, a1=1)),
                       [(0, T2.exps(t=1))])
    with pytest.raises(NotDivisibleError, match=r"t\^-3 "):
        t_expand(f, 2)


def test_fraction_equality_is_a_zero_difference():
    # q/(q - t) == q^2/(q^2 - q t), one form after canonicalization
    a = over_binomials(T2.var("q"), [(T2.exps(q=1), T2.exps(t=1))])
    b = over_binomials(T2.monomial(T2.exps(q=2)), [(T2.exps(q=2), T2.exps(q=1, t=1))])
    assert a == b
    # (q + 1)/(q^2 - 1) == 1/(q - 1): both reduced, in different forms
    c = over_binomials(T2.var("q") + T2.one(), [(T2.exps(q=2), 0)])
    d = over_binomials(T2.one(), [(T2.exps(q=1), 0)])
    assert (c.num, c.den) != (d.num, d.den)
    assert c == d and d == c
    assert c != a and a != Fraction.zero(T2)
    assert Fraction.zero(T2) == Fraction.zero(T2)
    assert a != Fraction.one(var_table(genus=2))


# -- geometric expansion in t -------------------------------------------------


def test_t_expand_geometric():
    # 1 / (q - t) = q^{-1} + q^{-2} t + q^{-3} t^2 + ...
    f = over_binomials(T2.one(), [(T2.exps(q=1), T2.exps(t=1))])
    coeffs = t_expand(f, 4)
    for d in range(5):
        assert coeffs[d] == Fraction(T2.monomial(T2.exps(q=-d - 1)))


def test_t_expand_keeps_t_free_factors():
    # 1 / ((q - 1)(1 - t)): every t-coefficient is 1 / (q - 1)
    f = over_binomials(T2.one(), [(T2.exps(q=1), T2.zero_exps()),
                                  (T2.zero_exps(), T2.exps(t=1))])
    coeffs = t_expand(f, 3)
    want = over_binomials(T2.one(), [(T2.exps(q=1), T2.zero_exps())])
    assert all(c == want for c in coeffs)


@pytest.mark.parametrize("table", [T2, T4], ids=["genus1", "genus2"])
@pytest.mark.parametrize("depth", [0, 1, 5, 7])
def test_t_expand_defining_property(table, depth):
    # multiplying the truncation back by the denominator must reproduce the
    # numerator through t-degree <= depth
    rng = random.Random(20)
    ti = table.index["t"]
    done = 0
    while done < 60:
        f = rand_fraction(rng, nden=3, table=table)
        if f.num.is_zero():
            continue
        # shifted to t-degree >= 0, so the value is a power series in t
        f = f.mono_mul(table.exps(t=-min(0, f.num.var_range("t")[0])))
        coeffs = t_expand(f, depth)
        trunc = Fraction.zero(table)
        for i, c in enumerate(coeffs):
            trunc = trunc + c.mono_mul(table.exps(t=i), 1)
        den_poly = table.one()
        for fac in f.den:
            den_poly = den_poly * fac.to_poly(table)
        diff = trunc.mul_poly(den_poly) - Fraction(f.num)
        # diff's denominator is t-free, so the numerator decides the order
        if not diff.num.is_zero():
            assert all(table.digit(f2.m1, ti) == 0 and table.digit(f2.m2, ti) == 0
                       for f2 in diff.den)
            assert diff.num.var_range("t")[0] > depth
        done += 1


def test_t_expand_hand_series():
    # t / ((1 - t)(1 - q t)) has coefficients 1 + q + ... + q^{d-1} at t^d
    num = T2.var("t")
    f = over_binomials(num, [(T2.zero_exps(), T2.exps(t=1)),
                             (T2.zero_exps(), T2.exps(q=1, t=1))])
    coeffs = t_expand(f, 4)
    assert coeffs[0].is_zero()
    for d in range(1, 5):
        want = Fraction(LaurentPoly(T2, {T2.exps(q=k): 1 for k in range(d)}))
        assert coeffs[d] == want


# -- exact division and the addition skip on wider tables --------------------


def test_exact_divide_laurent_three_coordinate_direction():
    rng = random.Random(1234)
    fac, _, _ = canonical_binomial(T4, T4.pack((2, -1, 0, 1)), T4.pack((0, 0, 1, -2)))
    assert sum(1 for a, b in zip(T4.unpack(fac.m1), T4.unpack(fac.m2)) if a != b) == 4
    fac3, _, _ = canonical_binomial(T4, T4.pack((1, 0, -2, 0)), T4.pack((0, 1, 0, 0)))
    v = tuple(a - b for a, b in zip(T4.unpack(fac3.m1), T4.unpack(fac3.m2)))
    assert sum(1 for x in v if x) == 3
    for f in (fac3, fac):
        for _ in range(25):
            a = rand_poly(rng, T4, nterms=8, span=4)
            prod = a * f.to_poly(T4)
            assert exact_divide(prod, f) == a
            if not a.is_zero():
                assert any(x < 0 for e in prod.terms for x in T4.unpack(e))
                with pytest.raises(NotDivisibleError):
                    exact_divide(prod + T4.monomial(T4.pack((-3, 1, 2, -1))), f)


def _lcd_sum(a, b):
    """a + b over the least common denominator, trying every factor."""
    ca, cb = Counter(a.den), Counter(b.den)
    na = a.num
    for f in (cb - ca).elements():
        na = na * f.to_poly(a.table)
    nb = b.num
    for f in (ca - cb).elements():
        nb = nb * f.to_poly(a.table)
    return Fraction(na + nb, tuple((ca | cb).elements()))


def test_fraction_add_skip_matches_trying_every_factor():
    rng = random.Random(99)
    # parallel directions (q - 1, q^2 - 1, q^3 - 1) mixed with other ones
    pool = [canonical_binomial(T4, T4.pack(e1), T4.pack(e2))[0] for e1, e2 in (
        ((1, 0, 0, 0), (0, 0, 0, 0)), ((2, 0, 0, 0), (0, 0, 0, 0)),
        ((3, 0, 0, 0), (0, 0, 0, 0)), ((0, 1, 0, 0), (0, 0, 0, 0)),
        ((1, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 0, 0), (0, 2, 0, 0)),
        ((0, 0, 1, 0), (0, 1, 0, 1)), ((2, 0, 0, 0), (0, 2, 0, 0)))]

    def rand_frac():
        num = rand_poly(rng, T4, nterms=5, span=2)
        for f in rng.sample(pool, rng.randint(0, 2)):
            num = num * f.to_poly(T4)
        return Fraction(num, [rng.choice(pool) for _ in range(rng.randint(0, 4))])

    cancelled = 0
    for _ in range(300):
        a, b = rand_frac(), rand_frac()
        got, want = a + b, _lcd_sum(a, b)
        assert got.den == want.den
        assert got.num == want.num
        lcd = Counter(a.den) | Counter(b.den)
        cancelled += len(got.den) < sum(lcd.values())
    assert cancelled >= 20


# -- products: prime factors cancel before multiplying ------------------------

def _factor(e1, e2=0):
    return canonical_binomial(T2, e1, e2)[0]


# shared directions: q - 1 | q^2 - 1 | q^4 - 1, t - 1 | t^2 - 1 and
# q - t | q^2 - t^2, with the primes q - t^2 and q t - a1 alone in theirs
MUL_POOL = ([_factor(T2.exps(q=k)) for k in (1, 2, 4)]
            + [_factor(T2.exps(t=k)) for k in (1, 2)]
            + [_factor(T2.exps(q=k), T2.exps(t=k)) for k in (1, 2)]
            + [_factor(T2.exps(q=1), T2.exps(t=2)), _factor(T2.exps(q=1, t=1), T2.exps(a1=1))])
MUL_Q, MUL_T, MUL_ONE = T2.var("q"), T2.var("t"), T2.one()
# X^k - 1 with k > 1 from the pool, as a product of two numerator parts
MUL_SPLITS = [
    (_factor(T2.exps(q=2)), MUL_Q + MUL_ONE, MUL_Q - MUL_ONE),
    (_factor(T2.exps(q=4)), MUL_Q * MUL_Q + MUL_ONE, MUL_Q * MUL_Q - MUL_ONE),
    (_factor(T2.exps(q=4)), MUL_Q + MUL_ONE, (MUL_Q * MUL_Q + MUL_ONE) * (MUL_Q - MUL_ONE)),
    (_factor(T2.exps(t=2)), MUL_T + MUL_ONE, MUL_T - MUL_ONE),
    (_factor(T2.exps(q=2), T2.exps(t=2)), MUL_Q + MUL_T, MUL_Q - MUL_T)]
MUL_PARTS = [f.to_poly(T2) for f in MUL_POOL] + [p for _, p, _ in MUL_SPLITS]


def _is_prime_factor(f):
    return math.gcd(*T2.unpack(f.m1 - f.m2)) == 1


def _divides(num, f):
    try:
        exact_divide(num, f)
    except NotDivisibleError:
        return False
    return True


def _product_trying_every_factor(num, den):
    """(num, den) of num / prod(den) once every factor of sorted(den) has
    been tried on num, in that order."""
    kept = []
    for f in sorted(den):
        try:
            num = exact_divide(num, f)
        except NotDivisibleError:
            kept.append(f)
    return num, tuple(kept)


def _rand_pool_poly(rng):
    """A polynomial with pool factors and cyclotomic parts of them, some
    repeated."""
    num = rand_poly(rng, nterms=3, span=1)
    for _ in range(rng.randint(0, 3)):
        num = num * rng.choice(MUL_PARTS)
    return num


def _rand_pool_pair(rng):
    """Two reduced Fractions over denominators drawn from the pool with
    repeats; in a third of the pairs the first denominator has a factor
    X^k - 1, k > 1, that each numerator holds a part of."""
    nums = [_rand_pool_poly(rng), _rand_pool_poly(rng)]
    dens = [[rng.choice(MUL_POOL) for _ in range(rng.randint(0, 3))] for _ in nums]
    if rng.random() < 1 / 3:
        f, part, rest = rng.choice(MUL_SPLITS)
        dens[0].append(f)
        nums = [nums[0] * part, nums[1] * rest]
    return [Fraction(num, den) for num, den in zip(nums, dens)]


def test_fraction_mul_matches_trying_every_factor():
    rng = random.Random(24)
    prime_cancels = split_cancels = 0
    for _ in range(400):
        a, b = _rand_pool_pair(rng)
        p = _rand_pool_poly(rng)
        want = _product_trying_every_factor(a.num * b.num, a.den + b.den)
        for got, (num, den) in ((a * b, want), (b * a, want),
                                (a.mul_poly(p), _product_trying_every_factor(a.num * p, a.den))):
            assert got.num == num
            assert got.den == den
        # what cancelled in a * b: a prime, which divides one numerator, or
        # a factor X^k - 1, k > 1, whose parts were split between the two
        gone = Counter(a.den + b.den) - Counter((a * b).den)
        prime_cancels += any(map(_is_prime_factor, gone))
        split_cancels += any(not _is_prime_factor(f) and not _divides(a.num, f)
                             and not _divides(b.num, f) for f in gone)
    assert prime_cancels >= 40
    assert split_cancels >= 20


def test_fraction_mul_cancels_a_factor_split_between_the_numerators():
    # (q + 1)/(q^2 - 1) * (q - 1)/(t - 1) = 1/(t - 1)
    q, one = T2.var("q"), T2.one()
    a = over_binomials(q + one, [(T2.exps(q=2), 0)])
    b = over_binomials(q - one, [(T2.exps(t=1), 0)])
    for got in (a * b, b * a):
        assert got.num == one
        assert got.den == (canonical_binomial(T2, T2.exps(t=1), 0)[0],)
    got = a.mul_poly(q - one)
    assert (got.num, got.den) == (one, ())


def test_fraction_mul_tries_primes_on_the_numerators_only(monkeypatch):
    # every factor is prime, so no trial division sees the product
    q, t, a1, one = T2.var("q"), T2.var("t"), T2.var("a1"), T2.one()
    seen = []
    divide = algebra.exact_divide

    def recording(poly, factor):
        seen.append(poly)
        return divide(poly, factor)

    qt, t1 = [(T2.exps(q=1), T2.exps(t=1))], [(T2.exps(t=1), 0)]
    cases = [
        # both primes divide the other numerator: nothing is left
        (over_binomials((t - one) * (one + a1), qt),
         over_binomials((q - t) * (one + a1 + a1 * a1), t1), 0, 2),
        # neither does, though both numerators sum to zero: both stay
        (over_binomials(one + a1 - q - t, qt),
         over_binomials(one + a1 * t - t * t - q, t1), 2, 2),
        # numerators summing to 3 are divisible by no factor: nothing is tried
        (over_binomials(one + a1 + q, qt), over_binomials(one + a1 * t + t * t, t1), 2, 0)]
    for a, b, left, tried in cases:
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(algebra, "exact_divide", recording)
            got = a * b
        assert len(got.den) == left
        assert len(seen) == tried
        assert all(p == a.num or p == b.num for p in seen)
        assert got == Fraction(a.num * b.num, a.den + b.den)


# -- products store no zero; exponent bounds ---------------------------------


def _accumulated(a, b):
    """Every coefficient of the product of the term dicts a and b, summed
    in a dict without removing any."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return out


def test_products_store_no_zero_coefficient():
    # (1 + x)(1 - x) = 1 - x^2, (1 + x + y)(1 - x + y) and (x^2 + y)(x^2 - y)
    # have cancelling cross terms, in the plain table and, with
    # x = a1 + q t / a1, on the representatives of weil_table(1)
    from higgsdt.weil import weil_table
    w = weil_table(1)
    a_sum = T2.var("a1") + T2.monomial(T2.exps(q=1, t=1, a1=-1))
    for table, x, y in ((T2, a_sum, T2.var("t")), (w, w.restrict(a_sum), w.var("q"))):
        one = table.one()
        for f, g in ((one + x, one - x), (one + x + y, one - x + y),
                     (x * x + y, x * x - y)):
            prod = f * g
            assert 0 not in table.mul_terms(f.terms, g.terms).values()
            assert 0 not in prod.terms.values()
            if table is w:
                assert w.expand(prod) == w.expand(f) * w.expand(g)
            else:
                full = _accumulated(f.terms, g.terms)
                assert 0 in full.values()
                assert prod.terms == {e: c for e, c in full.items() if c}


def _support_bounds(poly):
    table = poly.table
    return tuple(table.digit_range(poly.terms, i) for i in range(table.arity))


def _contains(bounds, exact):
    return all(b is None or b[0] <= lo and hi <= b[1] for b, (lo, hi) in zip(bounds, exact))


@pytest.mark.parametrize("genus,ell,order", [(0, 1, 5), (1, 1, 3), (2, 3, 2)])
def test_bounds_contain_the_support_and_products_add_them(monkeypatch, genus, ell, order):
    # every known bound contains its support; a product of two polynomials
    # with exact bounds has exact bounds wherever they are promised (over a
    # slicewise table, when a factor is a-free), and so has a quotient
    from higgsdt.dt import CurveParams, idt_orbits
    made = []
    exact = {"product": 0, "quotient": 0, "row quotient": 0, "slicewise": 0}
    init, mul, divide = LaurentPoly.__init__, LaurentPoly.__mul__, algebra.exact_divide
    row_divide = sums._row_divide

    def recording_init(self, table, terms, bounds=None):
        init(self, table, terms, bounds)
        made.append(self)

    def checked(a, b, out, kind):
        # entry i of the result is exact where entry i of both operands is
        if not (a.terms and b.terms and out.terms and a.bounds and b.bounds):
            return
        if out.table.slicewise and not any(
                all(e == (0, 0) for e in x.bounds[2:]) for x in (a, b)):
            assert out.bounds is None
            return
        assert out.bounds is not None
        for ea, eb, eo, sa, sb, so in zip(a.bounds, b.bounds, out.bounds, _support_bounds(a),
                                          _support_bounds(b), _support_bounds(out)):
            if ea == sa and eb == sb:
                assert eo == so
                exact[kind] += 1
                exact["slicewise"] += out.table.slicewise

    def checking_mul(self, other):
        out = mul(self, other)
        checked(self, other, out, "product")
        return out

    def checking_divide(poly, factor):
        out = divide(poly, factor)
        checked(poly, factor.to_poly(poly.table), out, "quotient")
        return out

    def checking_row_divide(x, factor):
        # a quotient of the row walk inside a sum, decoded with its bounds
        out = row_divide(x, factor)
        if out is not None:
            dividend, quo = sums._row_decode(x), sums._row_decode(out)
            assert quo * factor.to_poly(x.table) == dividend
            checked(dividend, factor.to_poly(x.table), quo, "row quotient")
        return out

    monkeypatch.setattr(LaurentPoly, "__init__", recording_init)
    monkeypatch.setattr(LaurentPoly, "__mul__", checking_mul)
    monkeypatch.setattr(algebra, "exact_divide", checking_divide)
    monkeypatch.setattr(sums, "_row_divide", checking_row_divide)
    # cofactor quotients cached by earlier tests would skip their divisions;
    # every sum is added on rows, so that their quotients are seen too
    algebra._binomial_quotient.cache_clear()
    _rows_throughout(monkeypatch)
    idt_orbits(CurveParams(genus=genus, ell=ell), order)
    known = [p for p in made if p.terms and p.bounds and any(p.bounds)]
    assert len(known) >= 50
    for p in known:
        assert _contains(p.bounds, _support_bounds(p))
        assert all(-EXP_LIMIT <= b[0] and b[1] < EXP_LIMIT for b in p.bounds if b)
    assert exact["product"] >= 50 and exact["quotient"] >= 20
    assert exact["row quotient"] >= 5
    assert exact["slicewise"] >= (20 if genus else 0)


def _rows_throughout(monkeypatch):
    """Make `fraction_sum` add every sum of int numerators on rows."""
    monkeypatch.setattr(sums, "ROW_MIN_SPAN", 0)


def _bare(poly):
    """poly without its bounds: every operation scans it."""
    return LaurentPoly(poly.table, dict(poly.terms))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ExponentRangeError:
        return ExponentRangeError


def test_refusals_near_the_limit_are_unchanged_by_bounds():
    # products, shifts and Adams operations of polynomials with known
    # bounds near 2^30 raise exactly when the scan of the bare polynomial
    # does; for products and shifts that is when a stored exponent would
    # leave the range
    one = T2.one()
    outcomes = Counter()

    def same(op, fn, bare_fn, *args):
        got = _outcome(fn, *args)
        assert got == _outcome(bare_fn, *args)
        outcomes[op, got is ExponentRangeError] += 1
        return got

    for k in (1, 2, 3, 4, 5, 6, 7, 8):
        edge = EXP_LIMIT - k
        x = T2.monomial(T2.exps(q=edge // 2, a1=-(edge // 3))) + one
        for y in (T2.monomial(T2.exps(q=edge // 2 + j, t=1)) - one for j in range(-2, 3)):
            for a, b in ((x, y), (y, x)):
                assert a.bounds and b.bounds
                got = same("mul", a.__mul__, _bare(a).__mul__, b)
                top = T2.digit(max(a.terms), 0) + T2.digit(max(b.terms), 0)
                assert (got is ExponentRangeError) == (top >= EXP_LIMIT)
        z = T2.monomial(T2.exps(q=edge, a1=-edge)) + one
        for j in range(-2, k + 3):
            for shift in (T2.exps(q=j), T2.exps(a1=-j - 1), T2.exps(q=j, a1=-j)):
                got = same("shift", z.mono_mul, _bare(z).mono_mul, shift)
                assert (got is ExponentRangeError) == (j >= k)
        for n in (2, 3, 4, 5):
            same("adams", x.adams, _bare(x).adams, n)
    # every operation both raised and went through
    assert all(outcomes[op, raised] for op in ("mul", "shift", "adams")
               for raised in (True, False))


def test_loose_bounds_of_a_cancelled_sum_refuse_nothing():
    # the extreme terms of a + b cancel, so its bounds reach 2^29 + 10 in q
    # while its support is q + 1: products, shifts and Adams operations
    # that the support allows still go through
    far = T2.monomial(T2.exps(q=(1 << 29) + 10))
    s = (far + T2.var("q")) + (T2.one() - far)
    assert s == T2.var("q") + T2.one()
    assert s.bounds[0] == (0, (1 << 29) + 10)
    for got in (s * s * s * s, s.mono_mul(T2.exps(q=(1 << 29) + 20)), s.adams(2),
                s.adams(3), s * s.mono_mul(T2.exps(q=(1 << 29) + 5))):
        assert got == _bare(got)
        assert _contains(got.bounds, _support_bounds(got))
        assert all(-EXP_LIMIT <= b[0] and b[1] < EXP_LIMIT for b in got.bounds)
    assert s * s == _bare(s) * _bare(s)


# -- the all-ones rule --------------------------------------------------------


def _weil_invariant(rng, wt):
    """A random polynomial over wt.full invariant under a1 -> q t / a1."""
    p = rand_poly(rng, table=wt.full, nterms=5, span=2)
    return p + p.substitute_monomials({wt.index["a1"]: wt.exps(q=1, t=1, a1=-1)})


def test_nonzero_coefficient_sum_rules_out_every_factor():
    # a numerator whose coefficients do not sum to zero is divisible by no
    # factor of the pool; one that a factor divides sums to zero and still
    # divides, also on the representatives of weil_table(1) with a-free
    # factors
    from higgsdt.weil import weil_table
    wt = weil_table(1)
    afree = [f for f in MUL_POOL if not T2.digit(f.m1, 2) and not T2.digit(f.m2, 2)]
    rng = random.Random(2025)
    ruled_out = divided = 0
    for _ in range(300):
        num = rand_poly(rng, nterms=6, span=2)
        whole = _weil_invariant(rng, wt)
        reps = wt.restrict(whole)
        for poly, pool in ((num, MUL_POOL), (reps, afree)):
            if sum(poly.terms.values()):
                ruled_out += 1
                for f in pool:
                    with pytest.raises(NotDivisibleError):
                        exact_divide(poly, f)
                    assert Fraction(poly, [f]).den == (f,)
        f = rng.choice(MUL_POOL)
        prod = num * f.to_poly(T2)
        g = rng.choice(afree)
        rprod = wt.restrict(whole * g.to_poly(T2))
        for poly, fac, quo in ((prod, f, num), (rprod, g, reps)):
            assert sum(poly.terms.values()) == 0
            if poly:
                assert exact_divide(poly, fac) == quo
                got = Fraction(poly, [fac])
                assert (got.num, got.den) == (quo, ())
                divided += 1
    assert ruled_out >= 200 and divided >= 200


def test_weil_fractions_have_a_free_factors(monkeypatch):
    # the all-ones rule on representatives needs a-free factors: every
    # factor tried or kept over a slicewise table is a-free
    from higgsdt.dt import CurveParams, alt_idt, idt_orbits, substitution_identity_check
    # (the constructor's and products' `_reduce_fraction`, and the sums'
    # `_row_reduce` on row-packed numerators); and every cofactor a sum on
    # rows lifts by is a-free, as the row lift needs
    reduce, row_reduce, seen, row_seen = algebra._reduce_fraction, sums._row_reduce, [], []
    row_lift, lifted = sums._row_lift, []

    def check(table, den, record):
        if table.slicewise:
            record.append(len(den))
            for f in den:
                assert not any(table.unpack(f.m1)[2:]) and not any(table.unpack(f.m2)[2:])

    def checking(num, den):
        den = tuple(den)
        check(num.table, den, seen)
        return reduce(num, den)

    def row_checking(x, den):
        den = tuple(den)
        check(x.table, den, row_seen)
        return row_reduce(x, den)

    def lift_checking(x, poly):
        table = x.table
        if table.slicewise:
            lifted.append(len(poly.terms))
            assert not any(any(table.digits(poly.terms, i)) for i in range(2, 2 + table.genus))
        return row_lift(x, poly)

    monkeypatch.setattr(algebra, "_reduce_fraction", checking)
    monkeypatch.setattr(sums, "_row_reduce", row_checking)
    monkeypatch.setattr(sums, "_row_lift", lift_checking)
    _rows_throughout(monkeypatch)
    for genus, ell in ((1, 1), (2, 3)):
        cp = CurveParams(genus=genus, ell=ell)
        idt_orbits(cp, 3)
        alt_idt(cp, 2)
        assert all(ok for _, ok in substitution_identity_check(cp, 2))
    assert len(seen) >= 100 and sum(seen) >= 100
    assert len(row_seen) >= 10 and sum(row_seen) >= 40
    assert len(lifted) >= 10, lifted


# -- the divisibility-matched common denominator ------------------------------

# divisibility chains in three directions: q^k - 1, q^k - t^k and, with
# negative entries, q^k - t^2k a1^k
MATCH_POOL = [canonical_binomial(T2, e1, e2)[0] for e1, e2 in
              [(T2.exps(q=k), 0) for k in (1, 2, 3, 4, 6)]
              + [(T2.exps(q=k), T2.exps(t=k)) for k in (1, 2, 3)]
              + [(T2.exps(q=k), T2.exps(t=2 * k, a1=k)) for k in (1, 2)]]


def _prod(table, factors):
    out = table.one()
    for f in factors:
        out = out * f.to_poly(table)
    return out


def _dir_k(f):
    """(primitive direction, k) of a canonical factor x^neg(kw) (x^kw - 1)."""
    v = T2.unpack(f.m1 - f.m2)
    k = math.gcd(*v)
    return tuple(x // k for x in v), k


def _rand_matched_fraction(rng):
    num = rand_poly(rng, nterms=5, span=2)
    for f in rng.sample(MATCH_POOL, rng.randint(0, 2)):
        num = num * f.to_poly(T2)
    return Fraction(num, [rng.choice(MATCH_POOL) for _ in range(rng.randint(0, 4))])


def test_fraction_add_matched_lcd_is_the_sum():
    rng = random.Random(2027)
    vals = [Q(3), Q(5, 7), Q(-2, 3)]
    divisible_pairs = 0
    for _ in range(300):
        a, b = _rand_matched_fraction(rng), _rand_matched_fraction(rng)
        got = a + b
        # cross-multiplied over den(a) + den(b), no common denominator at all
        want = Fraction(a.num * _prod(T2, b.den) + b.num * _prod(T2, a.den),
                        a.den + b.den)
        assert got == want
        assert got.eval(vals) == a.eval(vals) + b.eval(vals)
        assert got - b == a
        for f in a.den:
            for g in b.den:
                (wf, kf), (wg, kg) = _dir_k(f), _dir_k(g)
                divisible_pairs += wf == wg and kf != kg and (kf % kg == 0 or kg % kf == 0)
    assert divisible_pairs >= 100


def test_matched_lcd_is_a_common_multiple_no_larger_than_the_union():
    rng = random.Random(2028)
    smaller = 0
    for _ in range(300):
        only_a = [rng.choice(MATCH_POOL) for _ in range(rng.randint(0, 4))]
        only_b = [f for f in (rng.choice(MATCH_POOL) for _ in range(rng.randint(0, 4)))
                  if f not in only_a]
        tried, kept, mul_a, mul_b = _lcd_parts(T2, only_a, only_b)
        lcd = _prod(T2, tried + kept)
        pa, pb = _prod(T2, only_a), _prod(T2, only_b)
        for p in mul_a:
            pa = pa * p
        for p in mul_b:
            pb = pb * p
        assert pa == lcd and pb == lcd

        def degree(factors):
            return sum(abs(x) for f in factors for x in T2.unpack(f.m1 - f.m2))
        assert degree(tried + kept) <= degree(only_a + only_b)
        smaller += degree(tried + kept) < degree(only_a + only_b)
        # a factor is tried exactly when both lists have its direction
        shared = ({_dir_k(f)[0] for f in only_a} & {_dir_k(f)[0] for f in only_b})
        assert all(_dir_k(f)[0] in shared for f in tried)
        assert not any(_dir_k(f)[0] in shared for f in kept)
    assert smaller >= 50


def test_over_binomials_is_the_canonical_factor_form():
    # over_binomials(p, pairs) is p with every pair's sign and unit folded in,
    # over the canonical factors, reduced; dividing p times the product of
    # the pairs leaves p
    rng = random.Random(20)
    q, t, a1 = T2.exps(q=1), T2.exps(t=1), T2.exps(a1=1)
    # binomials in a few shared directions, with multiples of each other
    pool = [(k * x, 0) for k in (1, 2, 3, 4, 6) for x in (q, t, q - t, a1 - t)]
    pool += [(0, k * (q - a1)) for k in (1, 2)]

    cancelled = 0
    for _ in range(150):
        p = rand_poly(rng, span=2) or T2.one()
        pairs = []
        for _ in range(rng.randint(1, 10)):
            e1, e2 = rng.choice(pool) if rng.random() < 0.8 else rand_binomial(rng)
            if rng.random() < 0.3:
                # a multiple of the factor in the numerator, so it cancels
                k = rng.randint(1, 3)
                p = p * (T2.monomial(k * e1) - T2.monomial(k * e2))
            pairs.append((e1, e2))
        sign, unit, factors = 1, T2.zero_exps(), []
        for e1, e2 in pairs:
            factor, u, s = canonical_binomial(T2, e1, e2)
            sign, unit = sign * s, unit + u
            factors.append(factor)
        want = Fraction(p.mono_mul(-unit, sign), factors)
        got = over_binomials(p, pairs)
        assert (got.num, got.den) == (want.num, want.den)
        cancelled += len(pairs) - len(got.den)
        whole = over_binomials(p * binomial_product(T2, pairs), pairs)
        assert whole == Fraction(p) and whole.den == ()
    assert cancelled > 100
    # (1 - q^2) / (1 - q) = 1 + q
    f = over_binomials(T2.one() - T2.monomial(2 * q), [(0, q)])
    assert (f.num, f.den) == (T2.one() + T2.var("q"), ())
    # zero stays zero, and scaling by 0 drops the denominator
    z = over_binomials(T2.one(), [(0, q)]).scale(0)
    assert z.den == ()
    assert over_binomials(T2.zero(), [(0, q)]).den == ()
    h = z * over_binomials(T2.one(), [(0, t)])
    assert h.is_zero() and h.den == ()


# -- balanced summation ---------------------------------------------------------

TZ = var_table(genus=1, nz=2)   # q, t, a1, z1, z2


def _fold(fracs, table):
    """The left-to-right sum fraction_sum replaces."""
    acc = Fraction.zero(table)
    for f in fracs:
        acc = acc + f
    return acc


def test_fraction_sum_of_nothing_and_of_one():
    rng = random.Random(23)
    for table in (var_table(0), T2, TZ):
        s = fraction_sum([], table)
        assert s.table == table and s.is_zero() and s.den == ()
        a = rand_fraction(rng, table=table)
        assert fraction_sum([a], table) is a
        assert fraction_sum(iter([a]), table) is a
    with pytest.raises(TableMismatchError):
        fraction_sum([Fraction.one(T2)], T4)


@pytest.mark.parametrize("table", [var_table(0), T2, TZ], ids=["genus0", "genus1", "z"])
def test_fraction_sum_is_the_left_to_right_sum(table, monkeypatch):
    _check_left_to_right(table, False, monkeypatch)


@pytest.mark.parametrize("table", [var_table(0), T2, TZ], ids=["genus0", "genus1", "z"])
def test_fraction_sum_on_rows_is_the_left_to_right_sum(table, monkeypatch):
    _check_left_to_right(table, True, monkeypatch)


def _check_left_to_right(table, throughout, monkeypatch):
    # every addition of the tree is one sums._add, made on rows when
    # sums._row_sum returns a sum; with the size rules of sums at 0
    # (throughout) every sum of int numerators is added on rows
    if throughout:
        _rows_throughout(monkeypatch)
    rng = random.Random(24 + table.arity)
    adds = []
    add, row_sum = sums._add, sums._row_sum

    def counted_row_sum(a, b, lcd):
        out = row_sum(a, b, lcd)
        if out is not None:
            adds.append(2)
        return out

    monkeypatch.setattr(sums, "_add", lambda a, b: adds.append(1) or add(a, b))
    monkeypatch.setattr(sums, "_row_sum", counted_row_sum)
    rows = 0
    for _ in range(40):
        fracs = [rand_fraction(rng, table=table) for _ in range(rng.randint(0, 8))]
        shared = [rand_binomial(rng, table) for _ in range(rng.randint(1, 2))]
        fracs += [over_binomials(rand_poly(rng, table), shared) for _ in range(2)]
        fracs += [Fraction.zero(table)] * rng.randint(0, 2)
        if rng.random() < 0.5:
            fracs.append(-rng.choice(fracs))
        rng.shuffle(fracs)
        del adds[:]
        got = fraction_sum(fracs, table)
        assert adds.count(1) == len(fracs) - 1
        rows += adds.count(2)
        assert got == _fold(fracs, table)
        assert got.table == table
    assert rows >= (20 if throughout else 0)


class _Leaf:
    """A summand that records the tree it is added in."""

    table = T2

    def __init__(self, shape):
        self.shape = shape


def test_fraction_sum_adds_adjacent_pairs_level_by_level(monkeypatch):
    # every addition of the tree is one sums._add: a combiner in its place
    # records which partial sums each addition pairs
    monkeypatch.setattr(sums, "_add", lambda a, b: _Leaf((a.shape, b.shape)))
    for n in range(1, 40):
        level = list(range(n))
        while len(level) > 1:
            odd = level[len(level) & ~1:]
            level = [(a, b) for a, b in zip(level[::2], level[1::2])] + odd
        assert fraction_sum(map(_Leaf, range(n)), T2).shape == level[0], n


def accumulate_sites(source):
    """(line, text) of every statement inside a loop that adds to or
    subtracts from its own target, unless what it adds is a literal
    constant or list (counters and pair lists)."""
    out = []
    for loop in ast.walk(ast.parse(source)):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            if (isinstance(node, ast.AugAssign)
                    and isinstance(node.op, (ast.Add, ast.Sub))):
                added = node.value
            elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                  and isinstance(node.value, ast.BinOp)
                  and isinstance(node.value.op, (ast.Add, ast.Sub))
                  and ast.unparse(node.value.left) == ast.unparse(node.targets[0])):
                added = node.value.right
            else:
                continue
            if not isinstance(added, (ast.Constant, ast.List, ast.ListComp)):
                out.append((node.lineno, ast.unparse(node)))
    return sorted(set(out))


def test_guard_sees_every_accumulate_loop():
    source = ("for lam in parts:\n"
              "    acc = acc + term(lam)\n"
              "    acc = acc - m * b\n"
              "    out[i + j] = out[i + j] + a * b\n"
              "    total += f\n"
              "    d += 1\n"
              "    pairs += [(zero, w)]\n"
              "    both = one + other\n"
              "acc = acc + last\n"
              "while r:\n"
              "    s -= x\n")
    assert [line for line, _ in accumulate_sites(source)] == [2, 3, 4, 5, 11]


def test_no_fraction_fold_outside_fraction_sum():
    # many Fractions are added by algebra.fraction_sum, pairwise in a tree;
    # none of the modules that sum series terms folds them in a loop
    found = {name: accumulate_sites((SRC / name).read_text())
             for name in ("dt.py", "series.py", "positive.py")}
    assert found == {"dt.py": [], "series.py": [], "positive.py": []}


# -- Fractions without denominators ---------------------------------------------


def _den_free(rng, table, rational):
    """A Fraction with no denominator: a sum of monomials (bounds known) or,
    half the time, the same terms with no bounds; int coefficients, or
    fractions.Fraction ones when rational."""
    num = table.zero()
    for _ in range(rng.randint(0, 5)):
        e = table.pack(rng.randint(-3, 3) for _ in range(table.arity))
        c = rng.randint(-4, 4)
        num = num + table.monomial(e, Q(c, rng.randint(1, 3)) if rational else c)
    if rng.random() < 0.5:
        num = LaurentPoly(table, dict(num.terms))
    return Fraction(num)


def _bounded(f):
    assert f.den == ()
    if f.num.terms and f.num.bounds:
        assert _contains(f.num.bounds, _support_bounds(f.num))


@pytest.mark.parametrize("throughout", [False, True], ids=["default", "rows-throughout"])
@pytest.mark.parametrize("rational", [False, True], ids=["int", "rational"])
@pytest.mark.parametrize("genus", [0, 1, 2])
def test_den_free_products_and_sums_are_the_general_ones(genus, rational, throughout,
                                                         monkeypatch):
    # the product and sum of two Fractions with no denominator add or
    # multiply the numerators and try nothing: equal to Fraction(na * nb)
    # and to the sum over the lcd, term for term, with bounds that contain
    # their support
    if throughout:
        _rows_throughout(monkeypatch)
    table = var_table(genus)
    rng = random.Random(3200 + 2 * genus + rational)
    reduce_fraction = algebra._reduce_fraction

    def general_sum(x, y):
        # Fraction.__add__'s path for operands with denominators
        return algebra._lifted_sum(x.num, y.num, algebra._lcd(table, x.den, y.den))

    for _ in range(60):
        a, b = _den_free(rng, table, rational), _den_free(rng, table, rational)
        poly = _den_free(rng, table, rational).num
        general_products = Fraction(a.num * b.num), Fraction(a.num * poly)
        fracs = [_den_free(rng, table, rational) for _ in range(rng.randint(1, 9))]
        general_total = functools.reduce(general_sum, fracs)
        monkeypatch.setattr(algebra, "_reduce_fraction",
                            lambda *args: pytest.fail("a den-free operand was reduced"))
        got = (a * b, a.mul_poly(poly), a + b, fraction_sum(fracs, table))
        monkeypatch.setattr(algebra, "_reduce_fraction", reduce_fraction)
        for f, want in zip(got, general_products + (general_sum(a, b), general_total)):
            assert f.num.terms == want.num.terms and want.den == ()
            _bounded(f)
        assert fraction_sum(fracs, table) == _fold(fracs, table)


def test_a_den_free_summand_with_a_denominator_takes_the_lcd(monkeypatch):
    # only two den-free operands skip the common denominator
    rng = random.Random(3210)
    lcds = []
    lcd = algebra._lcd
    counting = lambda *args: lcds.append(1) or lcd(*args)
    monkeypatch.setattr(algebra, "_lcd", counting)
    monkeypatch.setattr(sums, "_lcd", counting)
    for _ in range(30):
        a = _den_free(rng, T2, False)
        if not a:
            continue
        b = over_binomials(rand_poly(rng) + T2.one(), [rand_binomial(rng)])
        del lcds[:]
        assert a + b == b + a == fraction_sum([a, b], T2) == fraction_sum([b, a], T2)
        assert len(lcds) == 4
        assert a + b == Fraction(a.num * b.den[0].to_poly(T2) + b.num, b.den)
        del lcds[:]
        a + a.scale(2)
        fraction_sum([a, a], T2)
        assert lcds == []
