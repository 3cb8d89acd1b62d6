"""Weil orbit form: representatives against the whole invariant polynomials."""

import random

import pytest

from higgsdt.algebra import (EXP_LIMIT, AlgebraError, ExponentRangeError, LaurentPoly,
                             NotDivisibleError, TableMismatchError, canonical_binomial,
                             exact_divide, over_binomials, var_table)
from higgsdt.dt import CurveParams, alt_h_term, zstar_term
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


def main_curves():
    for g in GENERA:
        yield CurveParams(genus=g, ell=2 * g - 1)
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
