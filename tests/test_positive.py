import pytest

from higgsdt.algebra import (Fraction, ZeroDenominatorError, binomial_product,
                             over_binomials, t_expand, var_table)
from higgsdt.partitions import Partition
from higgsdt.dt import CurveParams, idt_star
from higgsdt.positive import (_f_parts, alpha_zero_check, f_lambda, f_sum, f_symbolic,
                              laurent_property_check, omega_plus, stabilization_check,
                              zplus_series)


def test_genus_zero_kernel_is_one():
    for n in (1, 2, 3):
        table, f = f_symbolic(n, genus=0)
        assert f == Fraction.one(table)


def test_kernel_rejects_coincident_values():
    table = var_table(genus=1, nz=2)
    z1 = table.unit_exps("z1")
    with pytest.raises(ZeroDenominatorError):
        f_sum(table, [z1, z1])


def test_kernel_respects_sn_cap():
    table = var_table(genus=1, nz=5)
    vals = [table.unit_exps("z%d" % i) for i in range(1, 6)]
    with pytest.raises(ValueError):
        f_sum(table, vals)


def test_single_part_hand_value():
    # one variable: only the prefactor survives,
    # f = (1 - a1^{-1}) / (1 - a1^{-1} t) at z = t
    cp = CurveParams(genus=1, ell=1)
    table = cp.table()
    zero = table.zero_exps()
    want = over_binomials(binomial_product(table, [(zero, table.exps(a1=-1))]),
                          [(zero, table.exps(a1=-1, t=1))])
    assert f_lambda(cp, Partition((1,))) == want


def test_padding_independence():
    cp = CurveParams(genus=1, ell=1)
    for lam in (Partition((1,)), Partition((2,)), Partition((1, 1))):
        base = f_lambda(cp, lam, n=max(1, lam.length))
        for n in (lam.length + 1, lam.length + 2):
            assert f_lambda(cp, lam, n=n) == base


def test_deformed_inverse_eigenvalues_at_u_one_give_f():
    # the deformation parameter u is t, free in the z-table
    for g in (1, 2):
        for n in (1, 2, 3):
            table, f = f_symbolic(n, g)
            te = table.exps(t=1)
            values = [table.unit_exps("z%d" % i) for i in range(1, n + 1)]
            ainv = [te + table.exps(**{"a%d" % k: -1}) for k in range(1, g + 1)]
            deformed = f_sum(table, values, ainv)
            at_one = deformed.substitute_monomials({table.index["t"]: table.zero_exps()})
            assert at_one == f, (g, n)
            assert deformed.num.uses_var("t"), (g, n)


@pytest.mark.parametrize("g", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_alpha_zero_check_matches_the_whole_f_route(n, g):
    # the reference: form f = prefactor * sigma-sum whole and read its t^0
    # coefficient; the check reads the two parts at t = 0 instead
    table = var_table(genus=g, nz=n)
    te = table.exps(t=1)
    values = [table.unit_exps("z%d" % i) for i in range(1, n + 1)]
    ainv = [te + table.exps(**{"a%d" % k: -1}) for k in range(1, g + 1)]
    pref, total = _f_parts(table, values, ainv)
    f = f_sum(table, values, ainv)
    assert pref * total == f
    assert t_expand(pref, 0)[0] == Fraction.one(table)
    assert t_expand(f, 0)[0] == Fraction.one(table)
    assert alpha_zero_check(n, g)


def test_positive_series_needs_twisted_mode():
    cp = CurveParams(genus=1, ell=0, mode="canonical")
    with pytest.raises(ValueError):
        zplus_series(cp, 2)


def test_entries_stabilize_to_main_invariant():
    # twist 1 at genus 0 and 1 is the verify suite's; twist 2 is not
    cp = CurveParams(genus=0, ell=2)
    tab = omega_plus(cp, 2, 8)
    for r in (1, 2):
        rep = stabilization_check(cp, r, depth=8, table=tab)
        assert rep.ok(), (r, rep)


def test_rank_one_entries_all_degrees_genus_zero():
    # rank 1 is stable from degree 0 with constant value (-1)^p
    for ell in (1, 2):
        cp = CurveParams(genus=0, ell=ell)
        tab = omega_plus(cp, 1, 6)
        assert set(tab) == {(1, d) for d in range(7)}
        table = cp.table()
        want = Fraction(table.monomial(table.zero_exps(), (-1) ** cp.p))
        for d in range(7):
            assert tab[(1, d)] == want


def test_rank_one_entries_genus_one():
    # stable from degree 0 with value -(1 - a1^{-1})(q - a1)
    cp = CurveParams(genus=1, ell=1)
    tab = omega_plus(cp, 1, 5)
    table = cp.table()
    num = ((table.one() - table.monomial(table.exps(a1=-1)))
           * (table.monomial(table.exps(q=1)) - table.monomial(table.exps(a1=1))))
    want = Fraction(-num)
    for d in range(6):
        assert tab[(1, d)] == want


def test_nontrivial_stabilization_window():
    # genus 0 twist 2 rank 2: the degree-0 entry differs from the stable one
    cp = CurveParams(genus=0, ell=2)
    rep = stabilization_check(cp, 2, depth=8)
    assert rep.ok()
    assert rep.stable_from == 1
    tab = omega_plus(cp, 2, 8)
    assert tab[(2, 0)] != tab[(2, 1)]
    assert tab[(2, 1)] == Fraction(idt_star(cp, 2)[2].set_var_one("t"))


def test_laurent_property_check_lets_kernel_bugs_through(monkeypatch):
    # only a failed exact division means "not Laurent"; anything else is a bug
    def broken(self):
        raise RuntimeError("kernel bug")
    monkeypatch.setattr(Fraction, "clear_denominator", broken)
    with pytest.raises(RuntimeError):
        laurent_property_check(1, 1)
