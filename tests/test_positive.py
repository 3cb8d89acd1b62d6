import pytest

import higgsdt.positive as positive
from higgsdt.algebra import (Fraction, ZeroDenominatorError, binomial_product,
                             fraction_sum, over_binomials, t_expand, var_table)
from higgsdt.partitions import Partition
from higgsdt.dt import CurveParams, idt_star
from higgsdt.positive import (_f_terms, alpha_zero_check, f_lambda, f_sum, f_symbolic,
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


def _deformed(n, g):
    """The z-table of f in n variables at genus g and the packed values and
    deformed inverse eigenvalues t a_k^{-1} of alpha_zero_check."""
    table = var_table(genus=g, nz=n)
    te = table.exps(t=1)
    values = [table.unit_exps("z%d" % i) for i in range(1, n + 1)]
    ainv = [te + table.exps(**{"a%d" % k: -1}) for k in range(1, g + 1)]
    return table, values, ainv


@pytest.mark.parametrize("g", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_alpha_zero_check_matches_the_whole_f_route(n, g):
    # the reference: form f = prefactor * sigma-sum whole and read its t^0
    # coefficient; the check reads the prefactor and each sigma-term at
    # t = 0 and sums the truncated terms instead
    table, values, ainv = _deformed(n, g)
    pref, terms = _f_terms(table, values, ainv)
    terms = list(terms)
    total = fraction_sum(terms, table)
    f = f_sum(table, values, ainv)
    assert pref * total == f
    assert t_expand(pref, 0)[0] == Fraction.one(table)
    assert t_expand(f, 0)[0] == Fraction.one(table)
    truncated = fraction_sum((t_expand(s, 0)[0] for s in terms), table)
    assert truncated == t_expand(total, 0)[0]
    assert alpha_zero_check(n, g)


@pytest.mark.parametrize("g", [1, 2])
def test_alpha_zero_check_at_the_sn_cap(g):
    # n = MAX_SN: 24 sigma-terms, each read at t = 0 before the sum
    assert alpha_zero_check(4, g)


@pytest.mark.parametrize("n, g, verdict", [(2, 1, True), (3, 1, False),
                                           (2, 2, False), (3, 2, True)])
def test_alpha_zero_check_catches_a_sign_mutant(monkeypatch, n, g, verdict):
    # swapping the first pair of every product of more than three pairs
    # negates each sigma-term at n = 3 and the prefactor at g = 2; the
    # check must fail where the sign of f flips, as the whole route does
    real = positive.binomial_product

    def mutant(table, pairs):
        pairs = list(pairs)
        if len(pairs) > 3:
            pairs[0] = pairs[0][::-1]
        return real(table, pairs)

    monkeypatch.setattr(positive, "binomial_product", mutant)
    table, values, ainv = _deformed(n, g)
    whole = t_expand(f_sum(table, values, ainv), 0)[0] == Fraction.one(table)
    assert alpha_zero_check(n, g) is whole is verdict


@pytest.mark.parametrize("check, n, genus", [(positive.inductive_property_check, 1, -1),
                                             (laurent_property_check, 1, -1),
                                             (alpha_zero_check, 2, -2)])
def test_property_checks_refuse_a_negative_genus(check, n, genus):
    # these once ran at genus 0 and returned True
    with pytest.raises(ValueError, match="genus must be nonnegative, got %d" % genus):
        check(n, genus)


@pytest.mark.parametrize("order, depth", [(0, 8), (-1, 8), (1, -1), (2, -3)])
def test_rank_below_one_or_negative_depth_is_refused(order, depth, monkeypatch):
    # refused before either table is built
    def fail(*args):
        pytest.fail("a table was built")
    monkeypatch.setattr(positive, "zplus_series", fail)
    monkeypatch.setattr(positive, "idt_star", fail)
    cp = CurveParams(genus=0, ell=1)
    with pytest.raises(ValueError):
        stabilization_check(cp, order, depth=depth)
    with pytest.raises(ValueError):
        omega_plus(cp, order, depth)


def test_depth_zero_is_a_one_entry_table():
    # the least depth allowed: one entry, which is no evidence of stability
    cp = CurveParams(genus=0, ell=1)
    tab = omega_plus(cp, 1, 0)
    assert {r: len(entries) for r, entries in tab.items()} == {1: 1}
    [rep] = stabilization_check(cp, 1, depth=0)
    assert (rep.r, rep.depth, rep.stable_from, rep.ok()) == (1, 0, -1, False)


@pytest.mark.parametrize("g, ell, order, depth, want", [
    (0, 1, 3, 8, [(1, 0, True), (2, 0, True), (3, 1, True)]),
    (1, 1, 3, 8, [(1, 0, True), (2, 0, True), (3, 1, True)]),
    (0, 2, 3, 10, [(1, 0, True), (2, 1, True), (3, 4, True)]),
])
def test_one_report_per_rank(g, ell, order, depth, want):
    # the reports the one-rank-per-call check gave at each rank
    reports = stabilization_check(CurveParams(genus=g, ell=ell), order, depth=depth)
    assert [(rep.r, rep.stable_from, rep.ok()) for rep in reports] == want
    assert all(rep.depth == depth for rep in reports)


@pytest.mark.parametrize("g, ell, order, depth", [
    (0, 1, 4, 8), (1, 1, 3, 8), (0, 2, 3, 10), (1, 2, 3, 10), (2, 3, 2, 8),
    (0, 3, 3, 12), (1, 3, 3, 12), (2, 4, 2, 8), (3, 5, 2, 8),
])
def test_entries_are_constant_from_the_observed_degree(g, ell, order, depth):
    # observed, not proved: the rank-r entries are constant from degree
    # ell * C(r, 2) - r + 1 on, and not from the degree before it
    reports = stabilization_check(CurveParams(genus=g, ell=ell), order, depth=depth)
    assert [rep.r for rep in reports] == list(range(1, order + 1))
    for rep in reports:
        assert rep.stable_from == ell * rep.r * (rep.r - 1) // 2 - rep.r + 1, rep
        assert rep.ok(), rep


def test_one_check_builds_each_table_once(monkeypatch):
    calls = []
    for name in ("omega_plus", "idt_star"):
        def counted(*args, name=name, real=getattr(positive, name)):
            calls.append((name, args[1:]))
            return real(*args)
        monkeypatch.setattr(positive, name, counted)
    reports = stabilization_check(CurveParams(genus=0, ell=2), 3, depth=6)
    assert [rep.r for rep in reports] == [1, 2, 3]
    assert calls == [("omega_plus", (3, 6)), ("idt_star", (3,))]


def test_a_higher_order_table_has_the_same_lower_rank_lists():
    # (q - 1) Log_r reads the series only up to T^r
    cp = CurveParams(genus=1, ell=1)
    tab = omega_plus(cp, 3, 5)
    assert list(tab) == [1, 2, 3]
    for r in (1, 2):
        assert tab[r] == omega_plus(cp, r, 5)[r]


def test_positive_series_needs_twisted_mode():
    cp = CurveParams(genus=1, ell=0, mode="canonical")
    with pytest.raises(ValueError):
        zplus_series(cp, 2)


def test_entries_stabilize_to_main_invariant():
    # twist 1 at genus 0 and 1 is the verify suite's; twist 2 is not
    cp = CurveParams(genus=0, ell=2)
    reports = stabilization_check(cp, 2, depth=8)
    assert [rep.r for rep in reports] == [1, 2]
    for rep in reports:
        assert rep.ok(), rep


def test_rank_one_entries_all_degrees_genus_zero():
    # rank 1 is stable from degree 0 with constant value (-1)^p
    for ell in (1, 2):
        cp = CurveParams(genus=0, ell=ell)
        tab = omega_plus(cp, 1, 6)
        assert {r: len(entries) for r, entries in tab.items()} == {1: 7}
        table = cp.table()
        want = Fraction(table.monomial(table.zero_exps(), (-1) ** cp.p))
        for d in range(7):
            assert tab[1][d] == want


def test_rank_one_entries_genus_one():
    # stable from degree 0 with value -(1 - a1^{-1})(q - a1)
    cp = CurveParams(genus=1, ell=1)
    tab = omega_plus(cp, 1, 5)
    table = cp.table()
    num = ((table.one() - table.monomial(table.exps(a1=-1)))
           * (table.monomial(table.exps(q=1)) - table.monomial(table.exps(a1=1))))
    want = Fraction(-num)
    assert len(tab[1]) == 6
    for d in range(6):
        assert tab[1][d] == want


def test_nontrivial_stabilization_window():
    # genus 0 twist 2 rank 2: the degree-0 entry differs from the stable one
    cp = CurveParams(genus=0, ell=2)
    rep = stabilization_check(cp, 2, depth=8)[1]
    assert rep.r == 2
    assert rep.ok()
    assert rep.stable_from == 1
    tab = omega_plus(cp, 2, 8)
    assert tab[2][0] != tab[2][1]
    assert tab[2][1] == Fraction(idt_star(cp, 2)[2].set_var_one("t"))


def test_laurent_property_check_lets_kernel_bugs_through(monkeypatch):
    # only a failed exact division means "not Laurent"; anything else is a bug
    def broken(self):
        raise RuntimeError("kernel bug")
    monkeypatch.setattr(Fraction, "clear_denominator", broken)
    with pytest.raises(RuntimeError):
        laurent_property_check(1, 1)
