"""Self-check registry behind the `higgsdt verify` command.

SUITES is the one statement of each headline property: the tier-1 test
suite runs every suite and pins the number of counted checks in each.  A
suite is a function registered with its name by `_suite`; it returns one
tuple (label, ok[, detail]) per property checked, and run_suites turns them
into CheckResult lines under the registered name.  ok is True or False for
real assertions and None for informational lines that are reported but
never counted as failures (degree observations stay in that category until
someone proves them).

run_suites runs its suites inside one `dt.shared` block, so a series term
or IDT table that several suites read is built once per run (the `dt`
module docstring); a suite run alone gives the lines it gives in a run of
all of them.
"""

from dataclasses import dataclass
import math
import random
import time

from .algebra import Fraction, var_table
from .partitions import enumerate_partitions, partitions_up_to
from .series import TruncSeries, pleth_exp, pleth_log
from .dt import (CurveParams, IntegralityError, alt_idt, idt_star,
                 jacobian_poly, n_lambda, rank_one_idt, shared,
                 substitution_identity_check, zstar_orbit_term, zstar_term)
from .positive import (alpha_zero_check, inductive_property_check,
                       laurent_property_check, omega_plus,
                       stabilization_check)
from .weil import weil_table
from .zeta import ZetaData, specialize_integer
from .oracle_p1 import compare_with_formula, stack_volume_p1


@dataclass
class CheckResult:
    suite: str
    label: str
    ok: object          # True / False / None (informational)
    detail: str = ""


SUITES = {}


def _suite(name, description):
    def wrap(fn):
        SUITES[name] = (description, fn)
        return fn
    return wrap


@_suite("partitions", "partition bookkeeping: counts, conjugation, hooks")
def _check_partitions():
    out = []
    # p(n) by the pentagonal recurrence, independent of the enumerator
    pn = [1]
    for n in range(1, 13):
        s, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= n:
                    s += (-1) ** (k + 1) * pn[n - g]
            k += 1
        pn.append(s)
    counts_ok = all(len(enumerate_partitions(n)) == pn[n] for n in range(13))
    out.append(("enumeration count matches recurrence", counts_ok))
    invol = all(lam.conjugate().conjugate() == lam for lam in partitions_up_to(9))
    out.append(("conjugation is an involution", invol))
    # the number of standard tableaux of shape lambda is n! / prod of hooks,
    # and their squares sum to n! (Robinson-Schensted)
    hooks = True
    for n in range(9):
        dims = 0
        for lam in enumerate_partitions(n):
            hp = math.prod(a + l + 1 for a, l in lam.arm_legs())
            dims += (math.factorial(n) // hp) ** 2
        if dims != math.factorial(n):
            hooks = False
    out.append(("hook-length formula: sum of squared tableau counts is n!, n <= 8",
                hooks))
    stat = all(lam.n_stat() == sum(l for _, l in lam.arm_legs())
               for lam in partitions_up_to(9))
    out.append(("n-statistic is the total leg length, |lambda| <= 9", stat))
    return out


@_suite("explog", "plethystic exponential and logarithm")
def _check_explog():
    out = []
    table = var_table(genus=0)
    R = 6
    T = TruncSeries.from_terms(table, R, {1: Fraction.one(table)})
    geo = pleth_exp(T)
    ok = all(geo.coefficient(d) == Fraction.one(table) for d in range(R + 1))
    out.append(("Exp[T] = 1/(1 - T)", ok))
    qp1 = Fraction(table.one() + table.monomial(table.exps(q=1)))
    e2 = pleth_exp(TruncSeries.from_terms(table, 4, {1: qp1}))
    # coefficient of T^d is the size-d multiset count in two letters: d + 1
    # monomials q^0..q^d
    ok2 = all(len(e2.coefficient(d).num.terms) == d + 1 for d in range(5))
    out.append(("Exp[(1+q)T] counts two-letter multisets", ok2))
    one_plus = TruncSeries.from_terms(table, 4, {0: Fraction.one(table),
                                               1: Fraction.one(table)})
    lg = pleth_log(one_plus)
    t1 = lg.coefficient(1) == Fraction.one(table)
    t2 = lg.coefficient(2) == Fraction(table.monomial(table.zero_exps(), -1))
    out.append(("Log[1 + T] starts T - T^2", t1 and t2))
    rng = random.Random(20260816)
    ok3 = True
    for trial in range(30):
        coeffs = {d: Fraction(table.monomial(
            table.exps(q=rng.randint(-2, 2), t=rng.randint(0, 2)),
            rng.randint(-3, 3))) for d in range(1, 7)}
        s = TruncSeries.from_terms(table, 6, {d: c for d, c in coeffs.items()
                                              if not c.is_zero()})
        if pleth_log(pleth_exp(s)) != s:
            ok3 = False
            break
    out.append(("Log[Exp[A]] = A on random series", ok3))
    return out


@_suite("hooks", "hook product identities")
def _check_hooks():
    out = []
    tu = var_table(genus=1)    # u is a1
    ue = tu.exps(a1=1)
    swap = {tu.index["q"]: tu.unit_exps("t"), tu.index["t"]: tu.unit_exps("q")}
    conj_ok = True
    for lam in partitions_up_to(6):
        lhs = n_lambda(tu, lam, u_exps=ue)
        rhs = n_lambda(tu, lam.conjugate(), u_exps=ue).substitute_monomials(swap)
        if lhs != rhs:
            conj_ok = False
    out.append(("N(u,q,t) on a partition = N(u,t,q) on its conjugate", conj_ok))
    # the exponent bookkeeping behind the series prefactor: sum of squared
    # column lengths = twice the n-statistic plus the weight
    norm_ok = all(lam.norm_form() == 2 * lam.n_stat() + lam.weight
                  for lam in partitions_up_to(10))
    out.append(("norm form = 2 n(lambda) + weight", norm_ok))
    return out


@_suite("rank1", "closed form of the rank-one invariant")
def _check_rank1():
    out = []
    ok = True
    for g in range(4):
        for ell in range(2 * g - 1, 2 * g + 4):
            cp = CurveParams(genus=g, ell=ell)
            poly = idt_star(cp, 1)[1]
            want = jacobian_poly(cp.table())
            if cp.p % 2:
                want = -want
            if poly != rank_one_idt(cp) or poly.set_var_one("t") != want:
                ok = False
    out.append(("series pipeline matches the product formula and is (-1)^p #J "
                "at t = 1, g <= 3, 2g - 1 <= ell <= 2g + 3", ok))
    can_ok = True
    for g in (1, 2):
        cp = CurveParams(genus=g, ell=2 * g - 2, mode="canonical")
        if idt_star(cp, 1)[1] != rank_one_idt(cp):
            can_ok = False
    out.append(("same in canonical mode, g in {1, 2}", can_ok))
    cp = CurveParams(genus=1, ell=0, mode="canonical")
    jac = jacobian_poly(cp.table())
    polys = idt_star(cp, 3)
    can_pc = all(polys[r].set_var_one("t") == jac for r in (1, 2, 3))
    out.append(("canonical genus-1 value is the point-count polynomial, "
                "ranks 1-3", can_pc))
    return out


@_suite("integrality", "every rank clears to a polynomial and divides by r")
def _check_integrality():
    # idt_star raises IntegralityError unless each coefficient clears to a
    # polynomial and r divides every coefficient of it
    out = []
    grid = [((0, 1), 4), ((0, 2), 4), ((1, 1), 4), ((2, 3), 3)]
    for (g, ell), rmax in grid:
        try:
            idt_star(CurveParams(genus=g, ell=ell), rmax)
            ok, detail = True, ""
        except IntegralityError as e:
            ok, detail = False, str(e)
        out.append(("genus %d twist %d: ranks 1..%d clear and divide by r"
                    % (g, ell, rmax), ok, detail))
    return out


@_suite("alt", "zeta-value form of the series")
def _check_alt():
    out = []
    for g in (0, 1, 2):
        ell = 2 * g + 1
        cp = CurveParams(genus=g, ell=ell)
        pairs = substitution_identity_check(cp, 4)
        ok = all(b for _, b in pairs)
        out.append(("termwise substitution identity, genus %d" % g, ok,
                    "%d partitions" % len(pairs)))
    for g in (0, 1, 2):
        ell = 2 * g + 1
        cp = CurveParams(genus=g, ell=ell)
        a = alt_idt(cp, 3)
        b = idt_star(cp, 3)
        ok = all(a[r].set_var_one("t") == b[r].set_var_one("t") for r in (1, 2, 3))
        out.append(("both forms agree at t = 1, genus %d" % g, ok))
    return out


@_suite("stabilization", "degree table of the positive side stabilizes")
def _check_stabilization():
    out = []
    for g in (0, 1):
        cp = CurveParams(genus=g, ell=1)
        tab = omega_plus(cp, 2, 8)
        for r in (1, 2):
            rep = stabilization_check(cp, r, depth=8, table=tab)
            out.append(("genus %d twist 1 rank %d" % (g, r), rep.ok(),
                        "constant from degree %d" % rep.stable_from))
    return out


@_suite("fprops", "properties of the symmetrizer kernel")
def _check_fprops():
    out = []
    for g in (1, 2):
        ok = all(inductive_property_check(n, g) for n in (1, 2))
        out.append(("inductive identity, genus %d, n <= 2" % g, ok))
    for g in (1, 2):
        ok = all(laurent_property_check(n, g) for n in (1, 2))
        out.append(("cleared form is Laurent, genus %d, n <= 2" % g, ok))
    for g in (1, 2):
        ok = all(alpha_zero_check(n, g) for n in (1, 2, 3))
        out.append(("degenerates to 1 at vanishing inverse eigenvalues, "
                    "genus %d, n <= 3" % g, ok))
    return out


@_suite("oracle", "finite-field count on the line agrees with the formula")
def _check_oracle():
    out = []
    for q in (2, 3):
        for ell in (1, 2):
            for d in (0, 1):
                lhs, rhs, eq = compare_with_formula(1, d, ell, q)
                out.append(("rank 1 degree %d twist %d over F_%d" % (d, ell, q),
                            eq, "count %s formula %s" % (lhs, rhs)))
    for q in (2, 3):
        for ell in (1, 2):
            lhs, rhs, eq = compare_with_formula(2, 1, ell, q)
            out.append(("rank 2 degree 1 twist %d over F_%d" % (ell, q),
                        eq, "count %s formula %s" % (lhs, rhs)))
    v1 = stack_volume_p1(2, 1, 1, 2)
    v3 = stack_volume_p1(2, 3, 1, 2)
    out.append(("volume is degree-shift invariant over F_2", v1 == v3,
                "%s vs %s" % (v1, v3)))
    return out


@_suite("numeric", "specialization at explicit Frobenius eigenvalues")
def _check_numeric():
    out = []
    cp = CurveParams(genus=1, ell=1)
    body = idt_star(cp, 1)[1].set_var_one("t")
    curves = [ZetaData.from_trace(q0, tr) for q0 in (2, 1000003) for tr in range(-2, 3)]
    ok = True
    for zd in curves:
        want = -(zd.q0 + 1 + zd.lpoly[0])   # (-1)^p N_1 with p = 1
        if specialize_integer(body, zd) != want:
            ok = False
    out.append(("rank-1 value is a signed point count, q0 = 2 and 1000003", ok))
    can = CurveParams(genus=1, ell=0, mode="canonical")
    cbody = idt_star(can, 1)[1].set_var_one("t")
    ok2 = True
    for zd in curves:
        if specialize_integer(cbody, zd) != zd.point_counts(1)[0]:
            ok2 = False
    out.append(("canonical rank-1 value counts curve points", ok2))
    # the premise of idt_star's Weil orbit form, which specialization then
    # relies on: each series term's numerator is given back by its orbits,
    # and the representatives built directly are those of the whole term
    cps = [CurveParams(genus=1, ell=1), CurveParams(genus=2, ell=3),
           CurveParams(genus=1, ell=0, mode="canonical"),
           CurveParams(genus=2, ell=2, mode="canonical")]
    inv = True
    for c in cps:
        wt = weil_table(c.genus)
        for lam in partitions_up_to(3):
            term = zstar_term(c, lam)
            if (not wt.is_invariant(term.num)
                    or zstar_orbit_term(c, lam) != wt.restrict_fraction(term)):
                inv = False
    out.append(("series term numerators, |lambda| <= 3, are given back by their Weil "
                "orbit representatives, which the direct build matches: twisted "
                "(1,1), (2,3), canonical g = 1, 2", inv))
    return out


@_suite("degrees", "observed degree ranges (informational)")
def _check_degrees():
    out = []
    for (g, ell) in ((0, 1), (0, 2), (1, 1)):
        cp = CurveParams(genus=g, ell=ell)
        polys = idt_star(cp, 3)
        for r in (1, 2, 3):
            qlo, qhi = polys[r].var_range("q")
            tlo, thi = polys[r].var_range("t")
            out.append(("genus %d twist %d rank %d" % (g, ell, r), None,
                        "q range [%d, %d], t range [%d, %d]"
                        % (qlo, qhi, tlo, thi)))
    return out


def run_suites(names=None):
    """Run the named suites (all by default); returns (results, failures)."""
    results, failures, _, _ = run_suites_timed(names)
    return results, failures


def run_suites_timed(names=None):
    """run_suites, with two more values: (name, wall seconds) of each
    suite, in the order run, and the run's `dt.Shared` counts."""
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise KeyError("unknown suites: %s (have %s)"
                       % (", ".join(unknown), ", ".join(sorted(SUITES))))
    results, seconds = [], []
    with shared() as memo:
        for n in names:
            start = time.perf_counter()
            results += [CheckResult(n, *check) for check in SUITES[n][1]()]
            seconds.append((n, time.perf_counter() - start))
    failures = sum(1 for r in results if r.ok is False)
    return results, failures, seconds, memo
