import json
from fractions import Fraction as Q
from itertools import product
from pathlib import Path

import pytest

from higgsdt.oracle_p1 import (SUPPORTED_Q, aut_count, aut_count_by_enumeration,
                               compare_with_formula, formula_volume_p1,
                               gf_tables, gl_order, semistable_count,
                               semistable_count_by_enumeration,
                               splitting_types, stack_volume_p1)

# the closed form and the brute-force reference it is checked against
COUNTS = (semistable_count, semistable_count_by_enumeration)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_field_axioms(q):
    add, mul, neg = gf_tables(q)
    elems = range(q)
    for a, b in product(elems, elems):
        assert add[a][b] == add[b][a]
        assert mul[a][b] == mul[b][a]
    for a, b, c in product(elems, elems, elems):
        assert add[add[a][b]][c] == add[a][add[b][c]]
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
    for a in elems:
        assert add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
        assert add[a][neg[a]] == 0
    # nonzero elements form a group: every row of the unit table is a
    # permutation hitting 1
    for a in range(1, q):
        row = [mul[a][b] for b in range(1, q)]
        assert sorted(row) == list(range(1, q))


def test_unsupported_field_size():
    with pytest.raises(ValueError):
        gf_tables(6)
    with pytest.raises(ValueError):
        gf_tables(11)
    for count in COUNTS:
        for typ in ((0,), (1, 0)):
            with pytest.raises(ValueError, match="unsupported field size"):
                count(typ, 1, 6)
    # every rank refuses a field that does not exist, also the rank-1
    # volume that needs no field arithmetic
    for typ in ((0,), (1, 0)):
        with pytest.raises(ValueError, match="unsupported field size"):
            aut_count(typ, 6)
    for r, d, q in ((1, 0, 6), (1, 1, 11), (2, 1, 6)):
        with pytest.raises(ValueError, match="unsupported field size"):
            compare_with_formula(r, d, 1, q)


def test_gl_orders():
    assert gl_order(2, 1) == 1
    assert gl_order(2, 2) == 6
    assert gl_order(3, 2) == 48
    assert gl_order(2, 3) == 168


@pytest.mark.parametrize("q", (2, 3, 4))
@pytest.mark.parametrize("typ", ((0,), (0, 0), (1, 0), (2, 0), (1, 1), (3, 1)))
def test_aut_formula_against_enumeration(typ, q):
    assert aut_count(typ, q) == aut_count_by_enumeration(typ, q)


def test_aut_hand_values():
    assert aut_count((1, 0), 2) == 4        # (q-1)^2 q^2
    assert aut_count((1, 0), 3) == 36
    assert aut_count((0, 0), 2) == 6        # GL_2(F_2)
    assert aut_count((5, 5), 3) == 48
    assert aut_count((2, 0), 2) == 8        # unipotent part q^3


def test_rank_one_everything_is_semistable():
    for count in COUNTS:
        for d in (-1, 0, 3):
            for ell in (0, 1, 2):
                for q in (2, 3):
                    assert count((d,), ell, q) == q ** (ell + 1)


def test_spread_beyond_twist_kills_everything():
    for count in COUNTS:
        assert count((3, 0), 1, 2) == 0
        assert count((2, 0), 1, 3) == 0
        assert count((4, 1), 2, 2) == 0


def test_hand_counts_balanced_type():
    for count in COUNTS:
        # type (1,0), twist 1: the single destabilizing direction forces the
        # lower corner to vanish, one section space of dimension 1
        for q in (2, 3):
            assert count((1, 0), 1, q) == q ** 7 * (q - 1)
        # twist 2: same direction, corner space now has dimension 2
        assert count((1, 0), 2, 2) == 2 ** 10 * 3
        assert count((1, 0), 2, 3) == 3 ** 10 * 8


def test_negative_twist_rejected():
    with pytest.raises(ValueError):
        semistable_count((1, 0), -1, 2)


def test_rank_cap():
    with pytest.raises(NotImplementedError):
        semistable_count((1, 0, 0), 1, 2)
    with pytest.raises(NotImplementedError):
        stack_volume_p1(3, 1, 1, 2)


@pytest.mark.parametrize("r", [0, -1])
def test_rank_below_one_is_refused(r):
    with pytest.raises(ValueError, match="rank must be at least 1, got %d" % r):
        stack_volume_p1(r, 1, 1, 2)
    with pytest.raises(ValueError, match="rank must be at least 1"):
        splitting_types(r, 1, 3)


def test_empty_type_is_refused():
    for count in (semistable_count, semistable_count_by_enumeration):
        with pytest.raises(ValueError, match="rank must be at least 1, got 0"):
            count((), 1, 2)
    with pytest.raises(ValueError, match="rank must be at least 1, got 0"):
        aut_count_by_enumeration((), 2)


def test_enumeration_cap_guard():
    with pytest.raises(ValueError):
        semistable_count_by_enumeration((1, 0), 5, 2, cap=100)


def _matrix_space(typ, ell, q):
    return q ** sum(max(0, ell + bi - bj + 1) for bi in typ for bj in typ)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_closed_form_matches_enumeration(q):
    checked = 0
    for ell in range(5):
        for d in (0, 1):
            for typ in splitting_types(2, d, ell + 3):
                if _matrix_space(typ, ell, q) <= 2 ** 16:
                    assert (semistable_count(typ, ell, q)
                            == semistable_count_by_enumeration(typ, ell, q)), (typ, ell)
                    checked += 1
    assert checked >= 3


def test_splitting_types():
    assert splitting_types(1, 5, 9) == [(5,)]
    assert splitting_types(2, 1, 3) == [(1, 0), (2, -1)]
    assert splitting_types(2, 0, 4) == [(0, 0), (1, -1), (2, -2)]


def test_stack_volume_rank_one():
    for d in (0, 1):
        for ell in (1, 2):
            for q in (2, 3):
                assert stack_volume_p1(1, d, ell, q) == Q(q ** (ell + 1), q - 1)


def test_stack_volume_rank_two_hand_values():
    assert stack_volume_p1(2, 1, 1, 2) == 32          # q^5 / (q - 1)
    assert stack_volume_p1(2, 1, 1, 3) == Q(243, 2)


def test_formula_rejects_common_factor():
    with pytest.raises(ValueError):
        formula_volume_p1(2, 0, 1, 2)


def test_rank_two_twist_two_formula_agreement():
    lhs, rhs, ok = compare_with_formula(2, 1, 2, 2)
    assert ok, (lhs, rhs)
    assert lhs == 768


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_rank_two_formula_agreement_grid(q):
    for ell in range(5):
        for d in (-1, 1):
            lhs, rhs, ok = compare_with_formula(2, d, ell, q)
            assert ok and isinstance(rhs, Q), (d, ell, lhs, rhs)


@pytest.mark.parametrize("d", (1, 3, -1, 5))
def test_stack_volume_matches_benchmark_golden(d):
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    volumes = json.loads(golden.read_text())["oracle-rank2"]
    for point, volume in volumes.items():
        ell, q = map(int, point.split(","))
        assert stack_volume_p1(2, d, ell, q) == Q(volume), point
