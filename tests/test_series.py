import random
from fractions import Fraction as Q

import pytest

from higgsdt.algebra import Fraction, LaurentPoly, over_binomials, var_table
from higgsdt.series import (TruncSeries, mobius, pleth_exp, pleth_log,
                            scaled_pleth_log)

T = var_table(genus=0)


def test_mobius_values():
    want = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0,
            10: 1, 12: 0, 30: -1, 36: 0}
    for n, v in want.items():
        assert mobius(n) == v
    with pytest.raises(ValueError):
        mobius(0)


def test_exp_of_t_is_geometric():
    s = TruncSeries.from_terms(T, 8, {1: Fraction.one(T)})
    e = pleth_exp(s)
    assert all(e.coefficient(d) == Fraction.one(T) for d in range(9))


def test_exp_of_two_letters():
    # Exp[(1 + q) T] coefficient at T^d lists the d + 1 monomials q^0..q^d
    qp1 = Fraction(T.one() + T.monomial(T.exps(q=1)))
    e = pleth_exp(TruncSeries.from_terms(T, 5, {1: qp1}))
    for d in range(6):
        want = Fraction(LaurentPoly(T, {T.exps(q=k): 1 for k in range(d + 1)}))
        assert e.coefficient(d) == want


def test_log_of_one_plus_t():
    s = TruncSeries.from_terms(T, 6, {0: Fraction.one(T), 1: Fraction.one(T)})
    lg = pleth_log(s)
    assert lg.coefficient(1) == Fraction.one(T)
    assert lg.coefficient(2) == Fraction(T.monomial(T.zero_exps(), -1))
    # the higher coefficients vanish: 1 + T = Exp[T - T^2]
    assert all(lg.coefficient(d).is_zero() for d in range(3, 7))


def rand_series(rng, order=6):
    coeffs = {}
    for d in range(1, order + 1):
        c = rng.randint(-3, 3)
        if c:
            coeffs[d] = Fraction(T.monomial(
                T.exps(q=rng.randint(-2, 2), t=rng.randint(0, 2)), c))
    return TruncSeries.from_terms(T, order, coeffs)


def test_roundtrip_random():
    rng = random.Random(2024)
    for _ in range(100):
        s = rand_series(rng)
        assert pleth_log(pleth_exp(s)) == s


def test_exp_additivity_random():
    rng = random.Random(2025)
    for _ in range(100):
        a, b = rand_series(rng), rand_series(rng)
        assert pleth_exp(a) * pleth_exp(b) == pleth_exp(a + b)


def test_adams_composition():
    rng = random.Random(2026)
    for _ in range(50):
        s = rand_series(rng, order=6)
        assert s.adams(2).adams(3) == s.adams(6)
        assert s.adams(3).adams(2) == s.adams(6)
        assert s.adams(1) == s


def test_adams_is_ring_map_on_series():
    rng = random.Random(2027)
    for _ in range(50):
        a, b = rand_series(rng), rand_series(rng)
        assert (a + b).adams(2) == a.adams(2) + b.adams(2)
        one = TruncSeries.one(T, 6)
        assert ((one + a) * (one + b)).adams(2) == \
            (one + a).adams(2) * (one + b).adams(2)


@pytest.mark.parametrize("n", [0, -1])
def test_adams_refuses_n_below_one_on_any_series(n):
    # a series with no nonzero coefficient once returned the zero series
    for s in (TruncSeries(var_table(0), 2), TruncSeries.one(T, 3)):
        with pytest.raises(ValueError, match="Adams operations need n >= 1, got %d" % n):
            s.adams(n)


def test_series_refuses_negative_order():
    for make in (TruncSeries, TruncSeries.one):
        with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
            make(T, -1)


@pytest.mark.parametrize("degree", [-1, 4, 5])
def test_degrees_outside_the_order_are_refused(degree):
    # a list index once stored degree -1 at T^3, read it back from there,
    # and failed past the top with a bare IndexError
    c = Fraction.one(T)
    msg = "degree %d outside 0..3, the truncation order" % degree
    with pytest.raises(ValueError, match=msg):
        TruncSeries.from_terms(T, 3, {degree: c})
    with pytest.raises(ValueError, match=msg):
        TruncSeries.from_terms(T, 3, {3: c}).coefficient(degree)
    assert TruncSeries.from_terms(T, 3, {0: c, 3: c}).coefficient(3) == c


def test_exp_needs_zero_constant():
    s = TruncSeries.one(T, 4)
    with pytest.raises(ValueError):
        pleth_exp(s)


def test_log_needs_unit_constant():
    s = TruncSeries(T, 4)
    with pytest.raises(ValueError):
        pleth_log(s)


def test_exp_with_fraction_coefficients():
    # Exp survives denominators: A = T / (q - 1) has Exp with the expected
    # second coefficient (psi_2(A)/2 + A^2/2)
    qm1 = over_binomials(T.one(), [(T.exps(q=1), T.zero_exps())])
    s = TruncSeries.from_terms(T, 3, {1: qm1})
    e = pleth_exp(s)
    psi2 = qm1.adams(2)
    from fractions import Fraction as Q
    assert e.coefficient(2) == (psi2 + qm1 * qm1).scale(Q(1, 2))


def _rand_series(rng, order, rational):
    coeffs = {0: Fraction.one(T)}
    for d in range(1, order + 1):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            c = rng.randint(-4, 4)
            if rational:
                c = Q(c, rng.randint(1, 4))
            e = T.exps(q=rng.randint(-2, 2), t=rng.randint(0, 2))
            terms[e] = terms.get(e, 0) + c
        pairs = [(T.zero_exps(), T.exps(q=rng.randint(1, 2)))] if rng.random() < 0.5 else []
        coeffs[d] = over_binomials(LaurentPoly(T, {e: c for e, c in terms.items() if c}),
                                   pairs)
    return TruncSeries.from_terms(T, order, coeffs)


@pytest.mark.parametrize("rational", [False, True])
def test_scaled_log_is_r_times_log(rational):
    rng = random.Random(7 + rational)
    for _ in range(15):
        s = _rand_series(rng, 6, rational)
        scaled = scaled_pleth_log(s)
        lg = pleth_log(s)
        assert scaled.coefficient(0).is_zero()
        for r in range(1, 7):
            assert lg.coefficient(r).scale(r) == scaled.coefficient(r)
        # independent of the implementation: M_r = sum_{n | r} psi_n(R_{r/n})
        # is r times the ordinary log, so r B_r = sum_{k=1}^r M_k B_{r-k}
        M = [None] + [sum((scaled.coefficient(r // n).adams(n)
                           for n in range(1, r + 1) if r % n == 0),
                          Fraction.zero(T)) for r in range(1, 7)]
        for r in range(1, 7):
            rhs = Fraction.zero(T)
            for k in range(1, r + 1):
                rhs = rhs + M[k] * s.coefficient(r - k)
            assert rhs == s.coefficient(r).scale(r)


def test_scaled_log_keeps_integer_coefficients():
    rng = random.Random(11)
    for _ in range(10):
        scaled = scaled_pleth_log(_rand_series(rng, 5, False))
        for c in scaled.coeffs:
            assert all(type(v) is int for v in c.num.terms.values())


def test_scaled_log_needs_unit_constant():
    s = TruncSeries.from_terms(T, 3, {0: Fraction(T.monomial(T.exps(q=1)))})
    with pytest.raises(ValueError):
        scaled_pleth_log(s)


def test_scaled_log_matches_pointwise_recurrence():
    # denominators from divisibility chains in two directions, so the sums
    # of the log match factors; checked at a rational point, where psi_n is
    # evaluation at the n-th powers and no fraction is added symbolically
    pool = [(T.exps(q=k), T.zero_exps()) for k in (1, 2, 3, 4, 6)] + [
        (T.exps(q=k), T.exps(t=k)) for k in (1, 2, 3)]
    point = (Q(3), Q(5, 7))
    rng = random.Random(31)
    order = 5
    for _ in range(6):
        coeffs = {0: Fraction.one(T)}
        for d in range(1, order + 1):
            num = LaurentPoly(T, {T.exps(q=rng.randint(-2, 2),
                                         t=rng.randint(0, 2)): rng.randint(1, 4)})
            coeffs[d] = over_binomials(num, [rng.choice(pool)
                                             for _ in range(rng.randint(0, 3))])
        s = TruncSeries.from_terms(T, order, coeffs)
        scaled = scaled_pleth_log(s)
        # M_r(x) = r B_r(x) - sum_{k<r} M_k(x) B_{r-k}(x) at x = point^n
        M = {}
        for n in range(1, order + 1):
            x = [v ** n for v in point]
            b = [c.eval(x) for c in s.coeffs]
            m = [0]
            for r in range(1, order + 1):
                m.append(r * b[r] - sum(m[k] * b[r - k] for k in range(1, r)))
            M[n] = m
        for r in range(1, order + 1):
            want = sum(mobius(n) * M[n][r // n] for n in range(1, r + 1) if r % n == 0)
            assert scaled.coefficient(r).eval(list(point)) == want


def _int_series(rng, table, order, constant):
    """A series with the given constant term and, above it, int numerators
    over products of up to two binomials x^k - 1, x a variable or q t."""
    directions = [table.unit_exps(v) for v in table.names] + [table.exps(q=1, t=1)]
    coeffs = {0: constant}
    for d in range(1, order + 1):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            e = table.pack(rng.randint(-2, 2) for _ in range(table.arity))
            terms[e] = terms.get(e, 0) + rng.choice((-4, -3, -1, 1, 2, 5))
        pairs = [(rng.randint(1, 3) * rng.choice(directions), 0)
                 for _ in range(rng.randint(0, 2))]
        coeffs[d] = over_binomials(LaurentPoly(table, {e: c for e, c in terms.items() if c}),
                                   pairs)
    return TruncSeries.from_terms(table, order, coeffs)


@pytest.mark.parametrize("genus", [0, 1])
def test_exp_and_log_keep_integer_coefficients(genus):
    # lambda-ring integrality: Exp and Log of a series with int numerators
    # over binomials have int numerators, so each division by r is exact
    table = var_table(genus)
    rng = random.Random(2900 + genus)
    for _ in range(50):
        a = _int_series(rng, table, 4, Fraction.zero(table))
        b = _int_series(rng, table, 4, Fraction.one(table))
        e = pleth_exp(a)
        assert pleth_log(e) == a
        for s in (e, pleth_log(b)):
            for c in s.coeffs:
                assert all(type(v) is int for v in c.num.terms.values())
