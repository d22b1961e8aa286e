"""Causal orders as elements of S_N, plus the zero-index subsets A_z.

Channel slots and causal-order labels are 1-based throughout, matching
one-line notation (pi(1), ..., pi(n)). The label k of a causal order is its
1-based rank in lexicographic order of image tuples, so for n = 3 the six
orders are pi_1 = (1,2,3), pi_2 = (1,3,2), pi_3 = (2,1,3), pi_4 = (2,3,1),
pi_5 = (3,1,2), pi_6 = (3,2,1). The orders of each n are one read-only
integer array whose row k - 1 is pi_k; a subset is a sorted member tuple.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations, permutations
from numbers import Integral

import numpy as np

from .errors import SizeLimitError

# n! factors appear in matrix dimensions downstream; 8! = 40320 is already
# far beyond anything the simulator can realize.
MAX_ORDER_CHANNELS = 8


def _ranks(images: np.ndarray) -> np.ndarray:
    """0-based lexicographic ranks of a stack [..., n] of permutations, by the Lehmer
    code: digit j counts the later entries below entry j and weighs (n-1-j)!."""
    digits = np.triu(images[..., :, None] > images[..., None, :], 1).sum(axis=-1)
    return digits @ [math.factorial(j) for j in reversed(range(images.shape[-1]))]


def _check_channel_count(n: int, cap: int = MAX_ORDER_CHANNELS) -> None:
    """The package's one channel-count rule: an integer n in 1..cap (SizeLimitError outside)."""
    # The exact-type test skips the slower ABC check for a plain int.
    if type(n) is not int and not isinstance(n, Integral):
        raise ValueError(f"the number of channels must be an integer, got n={n!r}")
    if not 1 <= n <= cap:
        raise SizeLimitError(f"this computation supports 1..{cap} channels, got n={n}")


@cache
def _orders(n: int) -> np.ndarray:
    orders = np.array(list(permutations(range(1, n + 1))))
    orders.flags.writeable = False
    return orders


def enumerate_orders(n: int) -> np.ndarray:
    """All n! causal orders on n channels as one read-only integer array [n!, n].

    Row k - 1 is pi_k in one-line notation; the rows run in lexicographic order.
    Built once per process per n.
    """
    _check_channel_count(n)  # before the cache, which would take 2.0 for 2
    return _orders(int(n))


@cache
def _subsets(n: int, z: int) -> tuple[tuple[int, ...], ...]:
    return tuple(combinations(range(1, n + 1), z))


def zero_subsets(n: int, z: int) -> tuple[tuple[int, ...], ...]:
    """All C(n, z) size-z subsets A_z of {1..n} as sorted member tuples, in lexicographic order.

    A_z holds the slots whose Kraus index is pinned to zero; cached as enumerate_orders.
    """
    _check_channel_count(n)
    if type(z) is not int and not isinstance(z, Integral):  # 1.0 hashes like 1
        raise ValueError(f"subset sizes must be integers, got z={z!r}")
    if not 0 <= z <= n:
        raise ValueError(f"subset size must be in 0..{n}, got z={z}")
    return _subsets(int(n), int(z))
