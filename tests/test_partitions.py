import pytest

from higgsdt.partitions import Partition, enumerate_partitions, partitions_up_to


def pentagonal_counts(nmax):
    """p(0..nmax) via Euler's recurrence, independent of the enumerator."""
    pn = [1]
    for n in range(1, nmax + 1):
        s, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= n:
                    s += (-1) ** (k + 1) * pn[n - g]
            k += 1
        pn.append(s)
    return pn


def test_counts_match_recurrence():
    pn = pentagonal_counts(14)
    for n in range(15):
        assert len(enumerate_partitions(n)) == pn[n]


def test_enumeration_is_sorted_and_valid():
    for n in range(10):
        lams = enumerate_partitions(n)
        assert len(set(lams)) == len(lams)
        for lam in lams:
            assert lam.weight == n
            assert all(a >= b for a, b in zip(lam.parts, lam.parts[1:]))


def test_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((1, 0))
    with pytest.raises(ValueError):
        Partition((-1,))


def test_conjugate_involution_and_weight():
    for lam in partitions_up_to(10):
        c = lam.conjugate()
        assert c.conjugate() == lam
        assert c.weight == lam.weight


def test_conjugate_hand_values():
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
    assert Partition(()).conjugate() == Partition(())
    assert Partition((5,)).conjugate() == Partition((1, 1, 1, 1, 1))


def test_boxes_row_major():
    assert list(Partition((2, 1)).boxes()) == [(1, 1), (1, 2), (2, 1)]
    assert Partition((2, 1)).arm_legs() == [(1, 1), (0, 0), (0, 0)]
    assert Partition(()).arm_legs() == []


def test_arm_leg_hook():
    lam = Partition((4, 3, 1))
    stats = dict(zip(lam.boxes(), lam.arm_legs()))
    assert len(stats) == lam.weight
    assert stats[(1, 1)] == (3, 2)      # hook 6
    assert stats[(2, 3)] == (0, 0)
    assert stats[(3, 1)] == (0, 0)
    assert (3, 2) not in stats


def test_hook_transpose_symmetry():
    # transposing swaps arm and leg, so hooks go along
    for lam in partitions_up_to(8):
        c = lam.conjugate()
        cstats = dict(zip(c.boxes(), c.arm_legs()))
        for (i, j), (arm, leg) in zip(lam.boxes(), lam.arm_legs()):
            assert cstats[(j, i)] == (leg, arm)


def test_n_stat_and_norm_form():
    lam = Partition((3, 2))
    assert lam.n_stat() == 2
    assert lam.norm_form() == 4 + 4 + 1  # conjugate (2, 2, 1)
    for mu in partitions_up_to(10):
        assert mu.conjugate().n_stat() == sum(p * (p - 1) // 2 for p in mu.parts)
