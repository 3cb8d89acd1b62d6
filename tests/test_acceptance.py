"""End-to-end checks, one per headline property of the engine.

Run with -v to get one pass/fail line per property.  Everything is exact
rational arithmetic, the numeric specialization at a curve over F_q included.
"""

import random

from higgsdt.algebra import Fraction, var_table
from higgsdt.dt import (CurveParams, alt_idt, idt_star, jacobian_poly,
                        n_lambda, rank_one_idt, substitution_identity_check,
                        weil_symmetry_check)
from higgsdt.oracle_p1 import compare_with_formula
from higgsdt.partitions import enumerate_partitions, partitions_up_to
from higgsdt.positive import (alpha_zero_check, inductive_property_check,
                              laurent_property_check, omega_plus,
                              stabilization_check)
from higgsdt.series import TruncSeries, pleth_exp, pleth_log
from higgsdt.zeta import ZetaData, specialize_integer, zx_series


def test_cleared_invariants_have_integer_coefficients():
    # genus <= 1 goes to rank 4, the genus-2 curve to rank 3
    for g, ell, rmax in ((0, 1, 4), (0, 2, 4), (1, 1, 4), (2, 3, 3)):
        polys = idt_star(CurveParams(genus=g, ell=ell), rmax)
        for r in range(1, rmax + 1):
            assert polys[r].has_integer_coefficients(), (g, ell, r)


def test_rank_one_closed_form():
    for g in range(4):
        for ell in (2 * g + 1, 2 * g + 2):  # one odd and one even twist
            cp = CurveParams(genus=g, ell=ell)
            poly = idt_star(cp, 1)[1]
            assert poly == rank_one_idt(cp), (g, ell)
            t1 = poly.set_var_one("t")
            assert weil_symmetry_check(t1), (g, ell)
            want = jacobian_poly(cp.table())
            if cp.p % 2:
                want = -want
            assert t1 == want, (g, ell)


def test_projective_line_count_matches_formula():
    for ell in (1, 2):
        for q in (2, 3):
            lhs, rhs, ok = compare_with_formula(1, 0, ell, q)
            assert ok, (1, ell, q, lhs, rhs)
            lhs, rhs, ok = compare_with_formula(2, 1, ell, q)
            assert ok, (2, ell, q, lhs, rhs)


def test_positive_series_stabilizes_to_invariant():
    depth = 8
    for g in (0, 1):
        cp = CurveParams(genus=g, ell=1)
        tab = omega_plus(cp, 2, depth)
        for r in (1, 2):
            rep = stabilization_check(cp, r, depth=depth, table=tab)
            assert rep.ok(), (g, r, rep)
            # within the stable window the entries repeat with period r
            for d in range(rep.stable_from, depth - r + 1):
                assert tab[(r, d)] == tab[(r, d + r)], (g, r, d)


def test_zeta_value_form_matches_main_series():
    for g, ell in ((0, 1), (1, 1), (2, 3)):
        cp = CurveParams(genus=g, ell=ell)
        assert all(ok for _, ok in substitution_identity_check(cp, 4)), (g, ell)
        main = idt_star(cp, 3)
        alt = alt_idt(cp, 3)
        for r in (1, 2, 3):
            assert (main[r].set_var_one("t") == alt[r].set_var_one("t")), (g, ell, r)


def test_hook_product_and_weight_identities():
    table = var_table(genus=0, with_u=True)
    u = table.unit_exps("u")
    swap = {table.index["q"]: table.exps(t=1), table.index["t"]: table.exps(q=1)}
    for w in range(7):
        for lam in enumerate_partitions(w):
            lhs = n_lambda(table, lam, u_exps=u)
            rhs = n_lambda(table, lam.conjugate(), u_exps=u).substitute_monomials(swap)
            assert lhs == rhs, lam
    for lam in partitions_up_to(10):
        assert lam.norm_form() == 2 * lam.n_stat() + lam.weight, lam


def test_plethystic_exp_log_kernel():
    T = var_table(genus=0)

    def rand_series(rng, order=6):
        coeffs = {}
        for d in range(1, order + 1):
            c = rng.randint(-3, 3)
            if c:
                coeffs[d] = Fraction(T.monomial(
                    T.exps(q=rng.randint(-2, 2), t=rng.randint(0, 2)), c))
        return TruncSeries.from_terms(T, order, coeffs)

    rng = random.Random(61)
    for _ in range(100):
        a = rand_series(rng)
        b = rand_series(rng)
        assert pleth_log(pleth_exp(a)) == a
        assert pleth_exp(a + b) == pleth_exp(a) * pleth_exp(b)
    s = rand_series(rng)
    assert s.adams(1) == s
    assert s.adams(2).adams(3) == s.adams(6) == s.adams(3).adams(2)


def test_kernel_function_properties():
    for g in (1, 2):
        for n in (1, 2):
            assert inductive_property_check(n, g), (g, n)
            assert laurent_property_check(n, g), (g, n)
        for n in (1, 2, 3):
            assert alpha_zero_check(n, g), (g, n)


def test_numeric_specialization_matches_point_counts():
    cp = CurveParams(genus=1, ell=1)
    poly = idt_star(cp, 1)[1].set_var_one("t")
    for trace in range(-2, 3):
        zd = ZetaData.from_trace(2, trace)
        val = specialize_integer(poly, zd)
        assert val == -(3 - trace), trace
        assert abs(val) == zd.point_counts(1)[0]


def test_canonical_invariant_is_point_count_polynomial():
    cp = CurveParams(genus=1, ell=0, mode="canonical")
    polys = idt_star(cp, 3)
    want = zx_series(ZetaData.symbolic(1), 1)[1]
    assert polys[1].set_var_one("t") == want
    # the degeneration makes every rank give the same value
    for r in (2, 3):
        assert polys[r].set_var_one("t") == want
