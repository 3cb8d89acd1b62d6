import pytest

from higgsdt.algebra import var_table
from higgsdt.dt import CurveParams, idt_star
from higgsdt.zeta import (CountingSequence, NumericDriftError, ZetaData,
                          counting_sequence, specialize_integer, zx_series)


def test_from_trace_enforces_hasse_bound():
    with pytest.raises(ValueError):
        ZetaData.from_trace(2, 3)
    with pytest.raises(ValueError):
        ZetaData.from_trace(5, -5)
    ZetaData.from_trace(2, 2)  # boundary is allowed


def test_numeric_validates_eigenvalue_modulus():
    with pytest.raises(ValueError):
        ZetaData.numeric(2, (1 + 0j,))
    with pytest.raises(ValueError):
        ZetaData.numeric(1, ())
    zd = ZetaData.numeric(4, (2j,))
    assert zd.genus == 1 and zd.is_numeric


def test_symbolic_curve_has_no_numeric_side():
    zd = ZetaData.symbolic(2)
    assert not zd.is_numeric
    with pytest.raises(ValueError):
        zd.frobenius_values()
    with pytest.raises(ValueError):
        zd.point_counts(3)


def test_point_counts_across_traces():
    # genus 1 over F_2: first count is 3 - trace
    for tr in range(-2, 3):
        zd = ZetaData.from_trace(2, tr)
        assert zd.point_counts(1) == [3 - tr]


def test_point_counts_supersingular_tower():
    # trace -2 over F_2: eigenvalue -1+i, counts stall before jumping
    zd = ZetaData.from_trace(2, -2)
    assert zd.point_counts(4) == [5, 5, 5, 25]


def test_divisor_counts_match_recurrence():
    zd = ZetaData.from_trace(3, 1)
    assert zx_series(zd, 5) == [1, 3, 12, 39, 120, 363]


def test_symbolic_divisor_coefficient():
    zd = ZetaData.symbolic(1)
    table = zd.table()
    coeffs = zx_series(zd, 2)
    assert coeffs[0] == table.one()
    # degree-1 coefficient is the universal point count 1 + q - a1 - q/a1
    want = (table.one() + table.monomial(table.exps(q=1))
            - table.monomial(table.exps(a1=1))
            - table.monomial(table.exps(q=1, a1=-1)))
    assert coeffs[1] == want


def test_symbolic_and_numeric_series_agree():
    zd = ZetaData.from_trace(3, 1)
    sym = zx_series(ZetaData.symbolic(1), 4)
    num = zx_series(zd, 4)
    for c, b in zip(sym, num):
        v = c.eval(zd.frobenius_values(1))
        assert abs(complex(v) - b) < 1e-9


def test_sequence_arithmetic():
    s = CountingSequence((1, 2, 3, 4, 5, 6))
    assert s.adams(2).entries == (2, 4, 6)
    assert s.adams(3).entries == (3, 6)
    assert (s + s).entries == (2, 4, 6, 8, 10, 12)
    assert (s * s).entries == (1, 4, 9, 16, 25, 36)
    t = CountingSequence((1, 1))
    assert (s + t).entries == (2, 3)
    with pytest.raises(ValueError):
        s.adams(0)


def test_sequence_rounding_guards_drift():
    assert CountingSequence((3.0000000001,)).rounded().entries == (3,)
    with pytest.raises(NumericDriftError):
        CountingSequence((2.5,)).rounded()
    with pytest.raises(NumericDriftError):
        CountingSequence((3 + 1j,)).rounded()


def test_counting_sequence_rank_one():
    # rank-1 invariant of a genus-1 curve counts -#X(F_{q0^n}) when the
    # evaluation runs over extension fields
    cp = CurveParams(genus=1, ell=1)
    poly = idt_star(cp, 1)[1].set_var_one("t")
    zd = ZetaData.from_trace(2, -1)
    seq = counting_sequence(poly, zd, 4)
    counts = zd.point_counts(4)
    assert list(seq.entries) == [-n for n in counts]


def test_counting_sequence_rejects_bad_input():
    cp = CurveParams(genus=1, ell=1)
    raw = idt_star(cp, 1)[1]
    zd = ZetaData.from_trace(2, 0)
    with pytest.raises(ValueError):
        counting_sequence(raw, zd, 2)  # still involves t
    other = var_table(genus=2)
    with pytest.raises(ValueError):
        counting_sequence(other.one(), zd, 2)  # genus mismatch


def test_specialize_integer_values():
    cp = CurveParams(genus=1, ell=1)
    poly = idt_star(cp, 1)[1].set_var_one("t")
    for tr in range(-2, 3):
        zd = ZetaData.from_trace(2, tr)
        assert specialize_integer(poly, zd) == -(3 - tr)


def test_specialize_integer_rejects_asymmetric_poly():
    table = var_table(genus=1)
    zd = ZetaData.from_trace(2, 0)
    with pytest.raises(ValueError):
        specialize_integer(table.monomial(table.exps(a1=1)), zd)
    with pytest.raises(ValueError):
        specialize_integer(table.monomial(table.exps(t=1)), zd)


def test_numeric_needs_a_prime_power():
    from higgsdt.zeta import is_prime_power
    assert [n for n in range(30) if is_prime_power(n)] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]
    assert is_prime_power(10007) and is_prime_power(134217689)
    assert is_prime_power(3 ** 20) and not is_prime_power(10007 * 10009)
    for q0 in (6, 10, 12, 100):
        with pytest.raises(ValueError, match="prime power"):
            ZetaData.from_trace(q0, 0)


def test_point_counts_refuse_values_past_double_precision():
    # q0 ~ 2^27: N_1 is exact in a double, N_2 = q0^2 + 2 q0 is not
    zd = ZetaData.from_trace(134217689, 1)
    assert zd.point_counts(1) == [134217689]
    with pytest.raises(NumericDriftError, match="too large"):
        zd.point_counts(2)
