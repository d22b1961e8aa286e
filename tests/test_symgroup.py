import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qnswitch.errors import SizeLimitError
from qnswitch.symgroup import (
    Permutation,
    ZeroSubset,
    _check_channel_count,
    apply_order,
    enumerate_orders,
    zero_subsets,
)


def images(n):
    return [p.image for p in enumerate_orders(n)]


class TestEnumerateOrders:
    def test_single_channel(self):
        assert images(1) == [(1,)]

    def test_two_channels(self):
        assert images(2) == [(1, 2), (2, 1)]

    def test_three_channels_labeling(self):
        assert images(3) == [
            (1, 2, 3),
            (1, 3, 2),
            (2, 1, 3),
            (2, 3, 1),
            (3, 1, 2),
            (3, 2, 1),
        ]

    @pytest.mark.parametrize("n", [0, -1, 9])
    def test_out_of_range(self, n):
        with pytest.raises(SizeLimitError):
            enumerate_orders(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_distinct_bijections(self, n):
        orders = enumerate_orders(n)
        assert len(orders) == math.factorial(n)
        assert len({p.image for p in orders}) == math.factorial(n)
        for p in orders:
            assert sorted(p.image) == list(range(1, n + 1))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_labels_are_lexicographic_ranks(self, n):
        def inversion_rank(image):  # the reference: later entries smaller than each one
            return 1 + sum(
                sum(w < v for w in image[j + 1 :]) * math.factorial(n - 1 - j)
                for j, v in enumerate(image)
            )

        orders = enumerate_orders(n)
        assert [p.label for p in orders] == list(range(1, math.factorial(n) + 1))
        assert [p.label for p in orders] == [inversion_rank(p.image) for p in orders]


class TestBuiltOncePerProcess:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_same_tuple_on_every_call(self, n):
        orders = enumerate_orders(n)
        assert type(orders) is tuple and enumerate_orders(n) is orders
        assert enumerate_orders(np.int64(n)) is orders
        for z in range(n + 1):
            subsets = zero_subsets(n, z)
            assert type(subsets) is tuple and zero_subsets(n, z) is subsets

    def test_rules_run_before_the_cache(self):
        # 2.0 and 1.0 hash like 2 and 1, so a cache in front of the rules would take them.
        enumerate_orders(2), zero_subsets(2, 1)
        for make in (enumerate_orders, lambda n: zero_subsets(n, 1)):
            with pytest.raises(ValueError, match="must be an integer"):
                make(2.0)
        with pytest.raises(ValueError, match="subset sizes must be integers"):
            zero_subsets(2, 1.0)


class TestApplyOrder:
    def test_cycle(self):
        pi4 = Permutation((2, 3, 1))
        assert apply_order(pi4, ["X1", "X2", "X3"]) == ["X2", "X3", "X1"]

    def test_identity(self):
        assert apply_order(Permutation((1, 2, 3, 4)), [10, 20, 30, 40]) == [10, 20, 30, 40]

    def test_swap_last_two(self):
        pi2 = Permutation((1, 3, 2))
        assert apply_order(pi2, ["U1", "U2", "U3"]) == ["U1", "U3", "U2"]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_order(Permutation((1, 2)), [1, 2, 3])

    def test_invalid_image(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))


class TestChannelCountRule:
    # Integers of any type take the same rule: bools and numpy integers are
    # numbers.Integral, so True counts as n = 1 and False as n = 0.
    @pytest.mark.parametrize("n", [1, 8, True, np.int64(3), np.uint8(8), np.int8(1)])
    def test_accepts(self, n):
        assert _check_channel_count(n) is None

    @pytest.mark.parametrize("n", [0, 9, -1, False, np.int64(0), np.int64(9), 2**70])
    def test_outside_the_cap(self, n):
        with pytest.raises(SizeLimitError, match="1..8 channels"):
            _check_channel_count(n)

    @pytest.mark.parametrize("n", [2.0, np.float64(2.0), "2", None, 1 + 0j])
    def test_not_an_integer(self, n):
        with pytest.raises(ValueError, match="must be an integer"):
            _check_channel_count(n)

    @pytest.mark.parametrize("image", [(), tuple(range(1, 12))], ids=["empty", "eleven"])
    def test_permutation(self, image):
        with pytest.raises(SizeLimitError, match=f"1..8 channels, got n={len(image)}"):
            Permutation(image)


class TestLabelIntegerRule:
    """Order entries and subset members take the channel-count rule's integer test."""

    @pytest.mark.parametrize("image", [(1.5, 2), (1, 2.0), ("1", 2), (np.float64(1.0), 2)])
    def test_permutation_rejects_non_integers(self, image):
        with pytest.raises(ValueError, match="order entries must be integers"):
            Permutation(image)

    @pytest.mark.parametrize("value", [1.7, 1.0, "1", np.float64(1.0)])
    def test_zero_subset_rejects_non_integers(self, value):
        with pytest.raises(ValueError, match="members must be integers"):
            ZeroSubset(2, (value,))

    def test_numpy_integers_become_ints(self):
        p = Permutation((np.int64(2), np.uint8(1)))
        assert p.image == (2, 1) and all(type(v) is int for v in p.image)
        z = ZeroSubset(2, (np.int8(1), np.int64(2)))
        assert z.members == (1, 2) and all(type(v) is int for v in z.members)


@given(st.integers(1, 6).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
def test_inverse_round_trip(image):
    p = Permutation(tuple(image))
    seq = list(range(100, 100 + p.n))
    assert apply_order(p, apply_order(p.inverse(), seq)) == seq


class TestZeroSubsets:
    def test_two_channels_singletons(self):
        assert [s.members for s in zero_subsets(2, 1)] == [(1,), (2,)]

    def test_empty_subset(self):
        assert [s.members for s in zero_subsets(3, 0)] == [()]

    def test_three_channels_pairs(self):
        assert [s.members for s in zero_subsets(3, 2)] == [(1, 2), (1, 3), (2, 3)]

    @pytest.mark.parametrize("z", [-1, 4])
    def test_out_of_range(self, z):
        with pytest.raises(ValueError):
            zero_subsets(3, z)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_total_count_is_power_of_two(self, n):
        assert sum(len(zero_subsets(n, z)) for z in range(n + 1)) == 2**n

    def test_unsorted_members_rejected(self):
        with pytest.raises(ValueError):
            ZeroSubset(3, (2, 1))

    def test_member_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ZeroSubset(3, (1, 4))
