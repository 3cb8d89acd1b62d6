import math
from fractions import Fraction as Q

import pytest

from higgsdt.algebra import over_binomials, t_expand, var_table
from higgsdt.dt import CurveParams, idt_orbits, idt_star, zeta_numerator
from higgsdt.weil import weil_table
from higgsdt.zeta import CountingSequence, ZetaData, counting_sequence, specialize_integer


def test_from_trace_enforces_hasse_bound():
    with pytest.raises(ValueError):
        ZetaData.from_trace(2, 3)
    with pytest.raises(ValueError):
        ZetaData.from_trace(5, -5)
    ZetaData.from_trace(2, 2)  # boundary is allowed


def test_numeric_validates_eigenvalue_modulus():
    # |c_k| <= C(2g, k) q0^(k/2); at genus 2 over F_2: |c_1| <= 5, |c_2| <= 12
    for c in ((6, 0), (-6, 0), (0, 13), (0, -13)):
        with pytest.raises(ValueError, match="violates"):
            ZetaData.from_lpoly(2, c)
    # (-5, 12) meets the bound, but its beta-polynomial x^2 - 5x + 8 is not
    # real-rooted; beta = 1 and 0 give a curve
    with pytest.raises(ValueError, match="no curve's"):
        ZetaData.from_lpoly(2, (-5, 12))
    zd = ZetaData.from_lpoly(2, (-1, 4))
    assert zd.genus == 2
    assert zd.lpoly_coeffs() == [1, -1, 4, -2, 4]
    with pytest.raises(ValueError, match="prime power"):
        ZetaData.from_lpoly(1, ())
    with pytest.raises(TypeError):
        ZetaData.from_lpoly(2, (1.0,))
    zd = ZetaData.from_lpoly(4, (0,))
    assert zd.genus == 1 and zd.point_counts(2) == [5, 25]


def test_from_lpoly_refuses_non_curves():
    # beta-polynomial x^2 + 1: beta = +-i
    with pytest.raises(ValueError, match="not real"):
        ZetaData.from_lpoly(2, (0, 5))
    # beta = 2, 2, 2 over F_2: real and within 2 sqrt(2), but N_1 = -3
    with pytest.raises(ValueError, match=r"point counts \[-3, 5, 21\]"):
        ZetaData.from_lpoly(2, (-6, 18, -32))
    # beta = -2, -2 over F_2: N_1 = 7 > N_2 = 5
    with pytest.raises(ValueError, match=r"point counts \[7, 5\]"):
        ZetaData.from_lpoly(2, (4, 8))
    # roots on the boundary and repeated roots are accepted: beta = 0, 0 over
    # F_3; beta = 4 = 2 sqrt(4) and 0, and beta = 2, 2 over F_4
    assert ZetaData.from_lpoly(3, (0, 6)).point_counts(2) == [4, 22]
    assert ZetaData.from_lpoly(4, (-4, 8)).point_counts(2) == [1, 17]
    assert ZetaData.from_lpoly(4, (-4, 12)).point_counts(2) == [1, 25]


@pytest.mark.parametrize("q0", [2, 3, 4, 5, 9])
def test_from_lpoly_genus_two_matches_beta_roots(q0):
    # genus 2: h(x) = x^2 + c_1 x + c_2 - 2 q0; a curve needs both roots real
    # in [-2 sqrt(q0), 2 sqrt(q0)] and 0 <= N_1 <= N_2 (floats only here)
    accepted = 0
    for c1 in range(-4 * q0, 4 * q0 + 1):
        for c2 in range(-6 * q0, 6 * q0 + 1):
            if c1 * c1 > 16 * q0 or c2 * c2 > 36 * q0 * q0:
                continue
            disc = c1 * c1 - 4 * (c2 - 2 * q0)
            real = disc >= 0 and all(abs(-c1 + s * math.sqrt(disc)) / 2
                                     <= 2 * math.sqrt(q0) + 1e-9 for s in (1, -1))
            n1 = q0 + 1 + c1
            n2 = q0 * q0 + 1 - (c1 * c1 - 2 * c2)
            want = real and 0 <= n1 <= n2
            try:
                ZetaData.from_lpoly(q0, (c1, c2))
                got = True
            except ValueError:
                got = False
            assert got == want, (q0, c1, c2)
            accepted += got
    assert accepted > 10


def test_point_counts_across_traces():
    # genus 1 over F_2: first count is 3 - trace
    for tr in range(-2, 3):
        zd = ZetaData.from_trace(2, tr)
        assert zd.point_counts(1) == [3 - tr]


def test_point_counts_supersingular_tower():
    # trace -2 over F_2: eigenvalue -1+i, counts stall before jumping
    zd = ZetaData.from_trace(2, -2)
    assert zd.point_counts(4) == [5, 5, 5, 25]


# -- the zeta function Z(t), as a reference for the L-polynomial --------------


def zx_fraction(table):
    """The zeta function of the symbolic curve, with t as series variable:

        Z(t) = prod_i (1 - a_i t)(1 - q a_i^{-1} t) / ((1 - t)(1 - q t))
    """
    return over_binomials(zeta_numerator(table, table.exps(t=1)),
                          [(table.zero_exps(), table.exps(t=1)),
                           (table.zero_exps(), table.exps(q=1, t=1))])


def zx_series(curve, order):
    """Coefficients of Z(t) up to t^order.

    The symbolic curve, given by its table: list of Laurent polynomials in q
    and the eigenvalue variables.  A curve over F_q0 (ZetaData): list of
    integers (the n-th one counts the degree-n effective divisors on it).
    """
    if isinstance(curve, ZetaData):
        # Z = L / ((1 - t)(1 - q0 t)); the second factor's t^n coefficient
        # is 1 + q0 + ... + q0^n
        c, q0 = curve.lpoly_coeffs(), curve.q0
        return [sum(ck * ((q0 ** (n - k + 1) - 1) // (q0 - 1))
                    for k, ck in enumerate(c[:n + 1]))
                for n in range(order + 1)]
    return [c.clear_denominator() for c in t_expand(zx_fraction(curve), order)]


def test_divisor_counts_match_recurrence():
    zd = ZetaData.from_trace(3, 1)
    assert zx_series(zd, 5) == [1, 3, 12, 39, 120, 363]


def test_symbolic_divisor_coefficient():
    table = var_table(genus=1)
    coeffs = zx_series(table, 2)
    assert coeffs[0] == table.one()
    # degree-1 coefficient is the universal point count 1 + q - a1 - q/a1
    want = (table.one() + table.monomial(table.exps(q=1))
            - table.monomial(table.exps(a1=1))
            - table.monomial(table.exps(q=1, a1=-1)))
    assert coeffs[1] == want


def test_symbolic_and_numeric_series_agree():
    zd = ZetaData.from_trace(3, 1)
    sym = zx_series(var_table(genus=1), 4)
    num = zx_series(zd, 4)
    for c, b in zip(sym, num):
        assert specialize_integer(c, zd) == b


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


def test_specialize_integer_reads_representatives():
    # the representatives of the t = 1 value, as `specialize` passes them,
    # give the value of the whole polynomial; those of the qt flip are refused
    for cp, zd in ((CurveParams(genus=1, ell=1), ZetaData.from_trace(5, 2)),
                   (CurveParams(genus=2, ell=3), ZetaData.from_lpoly(3, (1, 3)))):
        wt = weil_table(cp.genus)
        for r, reps in idt_orbits(cp, 2).items():
            whole = wt.expand(reps).set_var_one("t")
            assert specialize_integer(wt.at_t_one(reps), zd) == specialize_integer(whole, zd)
        with pytest.raises(ValueError, match="need a polynomial over"):
            specialize_integer(reps.set_var_one("t"), zd)


def test_specialize_integer_rejects_asymmetric_poly():
    table = var_table(genus=1)
    zd = ZetaData.from_trace(2, 0)
    with pytest.raises(ValueError, match="not symmetric"):
        specialize_integer(table.monomial(table.exps(a1=1)), zd)
    with pytest.raises(ValueError, match="involves t"):
        specialize_integer(table.monomial(table.exps(t=1)), zd)
    # genus 2: a1 + q/a1 is fixed by a_1 -> q/a_1 but not by a_1 <-> a_2;
    # adding a2 + q/a2 gives G_1 = -C_1, which takes the value -c_1
    t2 = var_table(genus=2)
    zd2 = ZetaData.from_lpoly(2, (-1, 4))
    half = t2.var("a1") + t2.monomial(t2.exps(q=1, a1=-1))
    with pytest.raises(ValueError, match="not symmetric"):
        specialize_integer(half, zd2)
    other = t2.var("a2") + t2.monomial(t2.exps(q=1, a2=-1))
    assert specialize_integer(half + other, zd2) == 1


def test_numeric_needs_a_prime_power():
    from higgsdt.zeta import is_prime_power
    assert [n for n in range(30) if is_prime_power(n)] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]
    assert is_prime_power(10007) and is_prime_power(134217689)
    assert is_prime_power(3 ** 20) and not is_prime_power(10007 * 10009)
    for q0 in (6, 10, 12, 100):
        with pytest.raises(ValueError, match="prime power"):
            ZetaData.from_trace(q0, 0)


def _trial_division_prime_power(n):
    if n < 2:
        return False
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    while n % p == 0:
        n //= p
    return n == 1


def test_small_primes_sieve_is_the_trial_division_list():
    from higgsdt.zeta import _SMALL_PRIMES, _primes_below
    want = [p for p in range(2, 1000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    assert len(want) == 168
    assert _SMALL_PRIMES == want
    for n in (2, 3, 4, 5, 25, 26, 121):
        assert _primes_below(n) == [p for p in want if p < n]


def test_is_prime_power_matches_trial_division():
    from higgsdt.zeta import is_prime_power
    assert all(is_prime_power(n) == _trial_division_prime_power(n)
               for n in range(100000))


def test_is_prime_power_hard_cases():
    from higgsdt.zeta import is_prime_power
    # Carmichael numbers, strong pseudoprimes to the bases 2, 3, 5, 7 and to
    # the 12 prime bases up to 37, and powers of them
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 3215031751,
              3215031751 ** 2, 318665857834031151167461, 10007 * 10009,
              (10007 * 10009) ** 3, 2 ** 61 - 2, 6 ** 40):
        assert not is_prime_power(n)
    # squares of 7-digit primes, Mersenne primes and their powers, 2^100
    for n in (1000003 ** 2, 9999991 ** 2, 2 ** 61 - 1, (2 ** 31 - 1) ** 2,
              (2 ** 61 - 1) ** 3, 2 ** 100, 3 ** 50, 99999999999973,
              1000003 * 1000003 * 1000003):
        assert is_prime_power(n)
    # past the proven range of the 13 bases an undecided base is never
    # guessed: the smallest strong pseudoprime to all of them, and the
    # Mersenne prime 2^89 - 1 with its square
    for n in (3317044064679887385961981, 2 ** 89 - 1, (2 ** 89 - 1) ** 2):
        with pytest.raises(ValueError, match="cannot decide"):
            is_prime_power(n)


def test_point_counts_refuse_values_past_double_precision():
    # q0 ~ 2^27: N_2 = q0^2 + 2 q0 is past 2^53 and odd, so no double holds it
    zd = ZetaData.from_trace(134217689, 1)
    assert zd.point_counts(2) == [134217689, 18014388308936099]


# -- independent references for the exact evaluation --------------------------


def _ring_mul(x, y, tr, q0):
    """(u, v) stands for u + v x in Q[x]/(x^2 - tr x + q0)."""
    (u1, v1), (u2, v2) = x, y
    return (u1 * u2 - q0 * v1 * v2, u1 * v2 + u2 * v1 + tr * v1 * v2)


def _ring_value(poly, q0, tr):
    """A genus-1 polynomial at q = q0, a1 = x, with x^-1 = (tr - x) / q0."""
    total = (Q(0), Q(0))
    for e, c in poly.terms.items():
        eq, et, ea = poly.table.unpack(e)
        assert et == 0
        base = (Q(0), Q(1)) if ea >= 0 else (Q(tr, q0), Q(-1, q0))
        term = (c * Q(q0) ** eq, Q(0))
        for _ in range(abs(ea)):
            term = _ring_mul(term, base, tr, q0)
        total = (total[0] + term[0], total[1] + term[1])
    assert total[1] == 0 and total[0].denominator == 1, (q0, tr, total)
    return total[0].numerator


GENUS_ONE_INVARIANTS = {
    r: p.set_var_one("t") for r, p in idt_star(CurveParams(genus=1, ell=1), 3).items()}


@pytest.mark.parametrize("q0", [2, 3, 4, 5, 7, 8, 9, 11, 101, 1009, 10007])
def test_specialize_matches_genus_one_ring(q0):
    bound = math.isqrt(4 * q0)
    for tr in range(-bound, bound + 1):
        zd = ZetaData.from_trace(q0, tr)
        for r, poly in GENUS_ONE_INVARIANTS.items():
            assert specialize_integer(poly, zd) == _ring_value(poly, q0, tr), (tr, r)


@pytest.mark.parametrize("q0", [2, 3, 4, 5, 7, 8, 9, 11])
def test_counting_sequence_matches_genus_one_ring(q0):
    bound = math.isqrt(4 * q0)
    for tr in range(-bound, bound + 1):
        # traces over F_{q0^n}: s_n = tr s_{n-1} - q0 s_{n-2}, s_0 = 2
        s = [2, tr]
        for n in range(2, 4):
            s.append(tr * s[-1] - q0 * s[-2])
        for r, poly in GENUS_ONE_INVARIANTS.items():
            seq = counting_sequence(poly, ZetaData.from_trace(q0, tr), 3)
            assert seq.entries == tuple(_ring_value(poly, q0 ** n, s[n])
                                        for n in range(1, 4)), (tr, r)


# real-rooted beta-polynomials prod_i (x - beta_i), beta_i = a_i + q0 / a_i,
# as integer factors of degree 1 or 2, leading coefficient dropped
BETA_FACTORS = {2: [((0,), (1,)), ((0, -2),), ((-1, -1),), ((2,), (-1,))],
                3: [((1,), (0, -2)), ((-1, -1), (2,)), ((0,), (1,), (-2,))]}


def _curve_from_beta(q0, factors):
    """(L-polynomial c_1..c_g, eigenvalues) of the factored beta-polynomial."""
    lp, alphas = [1], []
    for f in factors:
        if len(f) == 1:   # x + s: beta = -s
            lf, betas = [1, f[0], q0], [-f[0]]
        else:             # x^2 + s x + p
            s, p = f
            lf = [1, s, 2 * q0 + p, q0 * s, q0 * q0]
            d = math.sqrt(s * s - 4 * p)
            betas = [(-s + d) / 2, (-s - d) / 2]
        lp = [sum(lp[i] * lf[k - i] for i in range(len(lp)) if 0 <= k - i < len(lf))
              for k in range(len(lp) + len(lf) - 1)]
        for b in betas:
            assert b * b <= 4 * q0
            alphas.append(complex(b, math.sqrt(4 * q0 - b * b)) / 2)
    return tuple(lp[1:len(alphas) + 1]), alphas


def _complex_value(poly, q0, alphas):
    total = 0
    for e, c in poly.terms.items():
        eq, _, *ea = poly.table.unpack(e)
        v = c * q0 ** eq
        for a, k in zip(alphas, ea):
            v *= a ** k
        total += v
    return total


@pytest.mark.parametrize("genus,ell,rmax", [(2, 3, 2), (2, 2, 2), (3, 5, 1)])
def test_specialize_matches_complex_eigenvalues(genus, ell, rmax):
    mode = "canonical" if ell == 2 * genus - 2 else "twisted"
    polys = idt_star(CurveParams(genus=genus, ell=ell, mode=mode), rmax)
    for q0 in (2, 3, 4, 5, 7, 8, 9):
        for factors in BETA_FACTORS[genus]:
            lpoly, alphas = _curve_from_beta(q0, factors)
            zd = ZetaData.from_lpoly(q0, lpoly)
            for n, count in enumerate(zd.point_counts(3), start=1):
                want = 1 + q0 ** n - sum(a ** n + (q0 / a) ** n for a in alphas)
                assert abs(count - want) < 1e-6 * q0 ** n
            for r, poly in polys.items():
                exact = specialize_integer(poly.set_var_one("t"), zd)
                approx = _complex_value(poly.set_var_one("t"), q0, alphas)
                assert abs(exact - approx) < 1e-6 * max(1, abs(exact)), (q0, factors, r)
