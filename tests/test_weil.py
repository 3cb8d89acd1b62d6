"""Weil orbit form: representatives against the whole invariant polynomials."""

import math
import random

import pytest

from higgsdt.algebra import (EXP_LIMIT, AlgebraError, ExponentRangeError, Fraction,
                             LaurentPoly, NotDivisibleError, TableMismatchError,
                             canonical_binomial, exact_divide, over_binomials,
                             var_table)
from higgsdt import dt
from higgsdt.dt import (CurveParams, alt_h_term, idt_orbits, idt_star, n_lambda,
                        zeta_factor, zstar_orbit_term, zstar_term)
from higgsdt.partitions import Partition, enumerate_partitions
from higgsdt.weil import weil_table

GENERA = (1, 2, 3)
# the flip monomial m of a_i -> m / a_i in each form of the table
FLIPS = {"qt": dict(q=1, t=1), "q": dict(q=1)}
# every genus from 0 with either flip; the main one keeps the id "g"
BOTH_FLIPS = [pytest.param(g, flip, id="%d%s" % (g, "-q" if flip == "q" else ""))
              for flip in FLIPS for g in (0,) + GENERA]


def generators(table, qfactor=None):
    """Substitutions a_i -> qfactor / a_i (q t by default, packed) and
    a_i <-> a_j over a full table."""
    g = table.genus
    if qfactor is None:
        qfactor = table.exps(q=1, t=1)
    out = [{table.index["a%d" % i]: qfactor - table.unit_exps("a%d" % i)}
           for i in range(1, g + 1)]
    for i in range(1, g + 1):
        for j in range(i + 1, g + 1):
            a, b = "a%d" % i, "a%d" % j
            out.append({table.index[a]: table.unit_exps(b),
                        table.index[b]: table.unit_exps(a)})
    return out


# -- the premise: every term of the main series is invariant -------------------


def main_curves(genera=GENERA):
    for g in genera:
        yield CurveParams(genus=g, ell=2 * g - 1 if g else 1)
        if g:
            yield CurveParams(genus=g, ell=2 * g - 2, mode="canonical")


def test_every_term_is_weil_invariant_at_generic_t():
    # a_i -> q t / a_i and every permutation of the a_i fix each term of
    # the main series, t symbolic: what idt_star's orbit form rests on
    for cp in main_curves():
        gens = generators(cp.table())
        for w in range(4):
            for lam in enumerate_partitions(w):
                term = zstar_term(cp, lam)
                for images in gens:
                    assert term.substitute_monomials(images) == term, (cp, lam, images)


def test_q_over_a_is_not_a_symmetry_at_generic_t():
    # the involution a_i -> q / a_i holds only at t = 1, so the invariance
    # test above tells the two apart
    for cp in (CurveParams(genus=1, ell=1), CurveParams(genus=2, ell=2, mode="canonical")):
        table = cp.table()
        images = generators(table, table.exps(q=1))[0]
        term = zstar_term(cp, Partition((1,)))
        assert term.substitute_monomials(images) != term


def test_every_zeta_value_term_is_fixed_by_the_q_flip():
    # the other way round for the zeta-value form: a_i -> q / a_i and every
    # permutation fix each term, a_i -> q t / a_i does not; what alt_idt's
    # orbit form rests on
    for cp in main_curves():
        table = cp.table()
        gens = generators(table, table.exps(q=1))
        qt_flip = generators(table)[0]
        for w in range(4):
            for lam in enumerate_partitions(w):
                term = alt_h_term(cp, lam)
                for images in gens:
                    assert term.substitute_monomials(images) == term, (cp, lam, images)
                if w:
                    assert term.substitute_monomials(qt_flip) != term, (cp, lam)


# -- the orbit operations on random invariant polynomials ----------------------


def rep_vectors(rng, g, top):
    """Representative a-exponent vectors: >= 0 and non-increasing, often
    with zero or repeated entries, so that their slices have stabilizers.
    Genus 0 has the one empty vector."""
    if not g:
        return [()]
    out = {(0,) * g, (top,) * g, (top,) + (0,) * (g - 1)}
    for _ in range(6):
        out.add(tuple(sorted((rng.choice((0, 1, 1, top)) for _ in range(g)),
                             reverse=True)))
    return sorted(out)


def random_reps(rng, g, top=2, slices=4, per_slice=4, flip="qt"):
    """A random representative-form polynomial over weil_table(g, flip)."""
    wt = weil_table(g, flip)
    terms = {}
    reps = rep_vectors(rng, g, top)
    for alpha in rng.sample(reps, min(slices, len(reps))):
        for _ in range(per_slice):
            e = wt.pack((rng.randint(-2, 3), rng.randint(-2, 3)) + alpha)
            terms[e] = rng.choice((-3, -2, -1, 1, 2, 5))
    return LaurentPoly(wt, terms)


@pytest.mark.parametrize("g, flip", BOTH_FLIPS)
def test_expand_is_invariant_and_restrict_undoes_it(g, flip):
    rng = random.Random(100 + g)
    wt = weil_table(g, flip)
    for _ in range(10):
        reps = random_reps(rng, g, flip=flip)
        full = wt.expand(reps)
        assert full.table == var_table(genus=g)
        for images in generators(full.table, full.table.exps(**FLIPS[flip])):
            assert full.substitute_monomials(images) == full
        assert wt.restrict(full) == reps
        assert wt.is_invariant(full)
        if g:
            # one more term breaks the invariance: a1 alone is no orbit
            assert not wt.is_invariant(full + full.table.var("a1"))
    assert wt.expand(wt.zero()) == var_table(genus=g).zero()


def test_orbit_sizes_count_the_stabilizers():
    wt = weil_table(3)
    slices = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (1, 1, 1), (3, 2, 1))
    sizes = [len(wt.expand(LaurentPoly(wt, {wt.pack((0, 0) + alpha): 1})).terms)
             for alpha in slices]
    # |W_3| = 48 over the order of the slice's stabilizer
    assert sizes == [1, 6, 12, 24, 8, 48]


@pytest.mark.parametrize("g, flip", BOTH_FLIPS)
def test_orbit_product_is_the_restricted_product(g, flip):
    rng = random.Random(200 + g)
    wt = weil_table(g, flip)
    afree = LaurentPoly(wt, {wt.exps(q=1): 1, wt.exps(t=2): -3, 0: 2})
    for _ in range(8):
        x, y = random_reps(rng, g, flip=flip), random_reps(rng, g, top=1, slices=3, flip=flip)
        want = wt.restrict(wt.expand(x) * wt.expand(y))
        assert x * y == want and y * x == want
        assert x * afree == wt.restrict(wt.expand(x) * LaurentPoly(wt.full, afree.terms))


@pytest.mark.parametrize("g, flip", BOTH_FLIPS)
def test_exact_division_commutes_with_restriction(g, flip):
    rng = random.Random(300 + g)
    wt = weil_table(g, flip)
    full = var_table(genus=g)
    factors = [canonical_binomial(full, full.exps(q=2), 0)[0],
               canonical_binomial(full, full.exps(q=1, t=1), 0)[0],
               canonical_binomial(full, full.exps(t=3), full.exps(q=1))[0]]
    for f in factors:
        fp = f.to_poly(full)
        for _ in range(4):
            x = random_reps(rng, g, flip=flip)
            dividend = wt.expand(x) * fp
            quo = exact_divide(dividend, f)
            assert exact_divide(wt.restrict(dividend), f) == wt.restrict(quo)
            assert wt.expand(exact_divide(wt.restrict(dividend), f)) == quo
            # a remainder shows in the representatives too
            bad = wt.expand(random_reps(rng, g, slices=1, per_slice=1, flip=flip))
            with pytest.raises(NotDivisibleError):
                exact_divide(dividend + bad, f)
            with pytest.raises(NotDivisibleError):
                exact_divide(wt.restrict(dividend + bad), f)


def test_the_two_forms_do_not_mix():
    wt = weil_table(2)
    full = var_table(genus=2)
    with pytest.raises(TableMismatchError):
        wt.one() * full.one()
    with pytest.raises(TableMismatchError):
        wt.expand(full.one())
    with pytest.raises(TableMismatchError):
        wt.restrict(wt.one())
    assert wt != full and weil_table(2) is wt
    # the two flips of one genus share `full` and nothing else
    wq = weil_table(2, "q")
    assert wq != wt and wq.full == wt.full
    assert weil_table(2, "q") is wq
    with pytest.raises(TableMismatchError):
        wq.one() * wt.one()
    with pytest.raises(TableMismatchError):
        wt.expand(wq.one())
    with pytest.raises(TableMismatchError):
        wq.expand(wt.one())


def test_refusals():
    wt = weil_table(2)
    # a slice that is not a representative
    with pytest.raises(AlgebraError, match="not a Weil orbit representative"):
        wt.expand(LaurentPoly(wt, {wt.pack((0, 0, 0, 1)): 1}))
    # sigma_1 adds 2 to the q exponent of q^(2^30 - 2) a1^2: out of range
    edge = LaurentPoly(wt, {wt.pack((EXP_LIMIT - 2, 0, 2, 0)): 1})
    with pytest.raises(ExponentRangeError):
        wt.expand(edge)
    with pytest.raises(ExponentRangeError):
        edge * LaurentPoly(wt, {wt.pack((0, 0, 1, 1)): 1})
    # one step less stays in range
    ok = LaurentPoly(wt, {wt.pack((EXP_LIMIT - 3, 0, 2, 0)): 1})
    assert len(wt.expand(ok).terms) == 4
    full = var_table(genus=2)
    with pytest.raises(ValueError, match="a-free"):
        wt.restrict_fraction(over_binomials(full.var("q"), [(full.exps(a1=1), 0)]))
    with pytest.raises(ValueError, match="nonnegative"):
        weil_table(-1)
    with pytest.raises(ValueError, match="flip must be one of qt, q"):
        weil_table(2, "t")
    # the q flip moves only q, and its range check reads q as the other does
    wq = weil_table(2, "q")
    with pytest.raises(ExponentRangeError):
        wq.expand(LaurentPoly(wq, {wq.pack((EXP_LIMIT - 2, 0, 2, 0)): 1}))
    assert len(wq.expand(LaurentPoly(wq, {wq.pack((EXP_LIMIT - 3, 0, 2, 0)): 1})).terms) == 4


def test_one_instance_per_table_however_it_is_requested():
    # the memo keys on the arguments' values, not their spelling, so idt_star's
    # output and cp.table() are one instance and compare on the fast path
    for g in range(4):
        assert CurveParams(g, 2 * g + 1).table() is weil_table(g).full
    assert var_table() is var_table(0) is var_table(genus=0)
    assert var_table(genus=1, nz=2) is var_table(1, 2)
    for flip in FLIPS:
        assert weil_table(2, flip) is weil_table(2, flip=flip)
    assert weil_table(2) is weil_table(2, "qt") is weil_table(2, flip="qt")


# -- building on representatives -----------------------------------------------


def numerator_functions(table, lam):
    """f with prod_i f(a_i) the numerator of the main and of the zeta-value
    term of lam, up to a monomial, over a full table: neither depends on
    the twist."""
    hooks = [table.exps(q=a, t=a + l + 1) for a, l in lam.arm_legs()]
    return [lambda u: n_lambda(table, lam, -u),
            lambda u: math.prod((zeta_factor(table, m, u) for m in hooks), start=table.one())]


@pytest.mark.parametrize("g", (0,) + GENERA)
def test_product_is_the_restricted_whole_product(g):
    # the slices of prod_i f(a_i) are products of slices of f: the direct
    # build equals the restriction of the whole product on either flip
    full, wt, wq = var_table(genus=g), weil_table(g), weil_table(g, "q")
    for w in range(5):
        for lam in enumerate_partitions(w):
            for f in numerator_functions(full, lam):
                whole = full.product(f)
                assert wt.product(f) == wt.restrict(whole), lam
                assert wq.product(f) == wq.restrict(whole), lam


@pytest.mark.parametrize("g", (0,) + GENERA)
def test_series_terms_built_on_representatives_are_the_restricted_terms(g):
    # both series' terms, twisted and canonical, against their whole terms;
    # genus 3 stops at weight 3, whose whole weight-4 terms take a second each
    wt, wq = weil_table(g), weil_table(g, "q")
    for cp in main_curves((g,)):
        for w in range(5 if g < 3 else 4):
            for lam in enumerate_partitions(w):
                assert zstar_orbit_term(cp, lam) == wt.restrict_fraction(zstar_term(cp, lam))
                assert (dt._alt_h_term(cp, lam, wq)
                        == wq.restrict_fraction(alt_h_term(cp, lam))), (cp, lam)


def test_genus_zero_orbit_form_only_changes_the_table():
    # the group is trivial, so the terms are shared, never scanned or copied
    full, wt = var_table(), weil_table(0)
    poly = LaurentPoly(full, {full.exps(q=2, t=-1): 3, 0: -1})
    assert wt.restrict(poly).terms is poly.terms
    assert wt.expand(wt.restrict(poly)).terms is poly.terms
    assert wt.product(lambda u: 1 / 0) == wt.one()


@pytest.mark.parametrize("cp, r", [
    (CurveParams(genus=1, ell=1), 4),
    (CurveParams(genus=2, ell=3), 3),
    (CurveParams(genus=3, ell=5), 2),
    (CurveParams(genus=1, ell=0, mode="canonical"), 3),
    (CurveParams(genus=2, ell=2, mode="canonical"), 3),
])
def test_t_one_maps_representatives_onto_the_q_flip(cp, r):
    wt, wq = weil_table(cp.genus), weil_table(cp.genus, "q")
    for rank, reps in idt_orbits(cp, r).items():
        got = wt.at_t_one(reps)
        assert got.table is wq
        assert got == wq.restrict(wt.expand(reps).set_var_one("t")), rank
        assert wq.expand(got) == wt.expand(reps).set_var_one("t"), rank


def test_t_one_needs_the_qt_flip():
    wq = weil_table(2, "q")
    with pytest.raises(ValueError, match="qt flip"):
        wq.at_t_one(wq.one())
    with pytest.raises(TableMismatchError):
        weil_table(2).at_t_one(wq.one())


@pytest.mark.parametrize("g", (0,) + GENERA)
def test_sigma_maps_representatives_onto_the_qt_flip(g):
    # q -> q t, t -> 1/t on representatives of the q flip is the restriction
    # of the same map on the whole Fraction, over the q t flip's table
    cp = CurveParams(genus=g, ell=2 * g + 1)
    wq, wt = weil_table(g, "q"), weil_table(g)
    full = cp.table()
    images = {full.index["q"]: full.exps(q=1, t=1), full.index["t"]: full.exps(t=-1)}
    for lam in enumerate_partitions(3):
        got = wq.sigma(wq.restrict_fraction(alt_h_term(cp, lam)))
        assert got.table is wt
        whole = alt_h_term(cp, lam).substitute_monomials(images)
        assert got == wt.restrict_fraction(whole)


def test_sigma_needs_the_q_flip():
    wt, wq = weil_table(2), weil_table(2, "q")
    with pytest.raises(ValueError, match="q flip"):
        wt.sigma(Fraction.one(wt))
    with pytest.raises(TableMismatchError):
        wq.sigma(Fraction.one(wt))


def test_idt_star_builds_no_whole_series_term(monkeypatch):
    # the engine path builds every term on representatives: neither the
    # whole term nor its restriction is ever made
    def refuse(*args):
        raise AssertionError("whole series term built")
    monkeypatch.setattr(dt, "zstar_term", refuse)
    monkeypatch.setattr(type(weil_table(3)), "restrict_fraction", refuse)
    polys = idt_star(CurveParams(genus=3, ell=5), 3)
    assert len(polys[3].terms) == 36881
