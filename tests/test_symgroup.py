import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qnswitch.errors import SizeLimitError
from qnswitch.symgroup import _check_channel_count, _ranks, enumerate_orders, zero_subsets


def images(n):
    return list(map(tuple, enumerate_orders(n).tolist()))


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
        assert enumerate_orders(n).shape == (math.factorial(n), n)
        assert len(set(images(n))) == math.factorial(n)
        for image in images(n):
            assert sorted(image) == list(range(1, n + 1))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_labels_are_lexicographic_ranks(self, n):
        def inversion_rank(image):  # the reference: later entries smaller than each one
            return 1 + sum(
                sum(w < v for w in image[j + 1 :]) * math.factorial(n - 1 - j)
                for j, v in enumerate(image)
            )

        labels = (_ranks(enumerate_orders(n)) + 1).tolist()
        assert labels == list(range(1, math.factorial(n) + 1))
        assert labels == [inversion_rank(image) for image in images(n)]


class TestBuiltOncePerProcess:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_same_tuple_on_every_call(self, n):
        for z in range(n + 1):
            subsets = zero_subsets(n, z)
            assert type(subsets) is tuple and zero_subsets(n, z) is subsets

    @pytest.mark.parametrize("n", range(1, 7))
    def test_orders_are_one_read_only_array(self, n):
        orders = enumerate_orders(n)
        assert enumerate_orders(n) is orders and enumerate_orders(np.int64(n)) is orders
        assert orders.dtype.kind == "i" and not orders.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            orders[0, 0] = 1

    def test_rules_run_before_the_cache(self):
        # 2.0 and 1.0 hash like 2 and 1, so a cache in front of the rules would take them.
        enumerate_orders(2), zero_subsets(2, 1)
        for make in (enumerate_orders, lambda n: zero_subsets(n, 1)):
            with pytest.raises(ValueError, match="must be an integer"):
                make(2.0)
        with pytest.raises(ValueError, match="subset sizes must be integers"):
            zero_subsets(2, 1.0)


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


class TestLabelIntegerRule:
    """Subset sizes take the channel-count rule's integer test."""

    @pytest.mark.parametrize("value", [1.7, 1.0, "1", np.float64(1.0)])
    def test_zero_subset_rejects_non_integers(self, value):
        with pytest.raises(ValueError, match="subset sizes must be integers"):
            zero_subsets(2, value)

    def test_numpy_integers_become_ints(self):
        subsets = zero_subsets(np.int64(3), np.int8(2))
        assert subsets == ((1, 2), (1, 3), (2, 3))
        assert all(type(v) is int for members in subsets for v in members)


def _label_loop(image):
    """The reference rank: the Lehmer code digit by digit, each image[j]'s
    index among the values still unused."""
    unused = list(range(1, len(image) + 1))
    rank = 0
    for v in image:
        j = unused.index(v)
        rank = rank * len(unused) + j
        del unused[j]
    return rank + 1


class TestRanks:
    @given(st.integers(1, 8).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
    def test_matches_the_digit_loop(self, image):
        assert int(_ranks(np.array(image))) + 1 == _label_loop(image)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_enumeration_is_ranked_in_order(self, n):
        stack = np.array(images(n))
        assert np.array_equal(_ranks(stack), np.arange(math.factorial(n)))
        assert np.array_equal(_ranks(stack[None] - 1), np.arange(math.factorial(n))[None])


class TestZeroSubsets:
    def test_two_channels_singletons(self):
        assert zero_subsets(2, 1) == ((1,), (2,))

    def test_empty_subset(self):
        assert zero_subsets(3, 0) == ((),)

    def test_three_channels_pairs(self):
        assert zero_subsets(3, 2) == ((1, 2), (1, 3), (2, 3))

    @pytest.mark.parametrize("z", [-1, 4])
    def test_out_of_range(self, z):
        with pytest.raises(ValueError):
            zero_subsets(3, z)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_total_count_is_power_of_two(self, n):
        assert sum(len(zero_subsets(n, z)) for z in range(n + 1)) == 2**n
