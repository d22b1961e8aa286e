"""Causal orders as elements of S_N, plus the zero-index subsets A_z.

Channel slots and causal-order labels are 1-based throughout, matching
one-line notation (pi(1), ..., pi(n)). The label k of a causal order is its
1-based rank in lexicographic order of image tuples, so for n = 3 the six
orders are pi_1 = (1,2,3), pi_2 = (1,3,2), pi_3 = (2,1,3), pi_4 = (2,3,1),
pi_5 = (3,1,2), pi_6 = (3,2,1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations
from numbers import Integral
from typing import Sequence, TypeVar

import numpy as np

from .errors import SizeLimitError

# n! factors appear in matrix dimensions downstream; 8! = 40320 is already
# far beyond anything the simulator can realize.
MAX_ORDER_CHANNELS = 8

T = TypeVar("T")


@dataclass(frozen=True)
class Permutation:
    """A causal order in one-line notation: position j holds channel image[j-1]."""

    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "image", _integers(self.image, "order entries"))
        n = len(self.image)
        _check_channel_count(n)
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.image}")

    @property
    def n(self) -> int:
        return len(self.image)

    @property
    def label(self) -> int:
        """1-based rank in lexicographic order."""
        return int(_ranks(np.array(self.image))) + 1

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for j, v in enumerate(self.image):
            inv[v - 1] = j + 1
        return Permutation(tuple(inv))


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


def _integers(values: Sequence, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints if each passes the channel-count rule's integer test."""
    for v in values:
        if type(v) is not int and not isinstance(v, Integral):  # a plain int skips the ABC check
            raise ValueError(f"{what} must be integers, got {tuple(values)}")
    return tuple(map(int, values))


@cache
def _orders(n: int) -> tuple[Permutation, ...]:
    return tuple(map(Permutation, permutations(range(1, n + 1))))


def enumerate_orders(n: int) -> tuple[Permutation, ...]:
    """All n! causal orders on n channels, in lexicographic order.

    The tuple index + 1 equals each order's label k. Built once per process per n.
    """
    _check_channel_count(n)  # before the cache, which would take 2.0 for 2
    return _orders(int(n))


def apply_order(p: Permutation, factors: Sequence[T]) -> list[T]:
    """Rearrange factors so output position j holds factors[p.image[j]-1].

    For pi_4 = (2,3,1) this maps (X1, X2, X3) to (X2, X3, X1); read as an
    operator product X2 X3 X1 it applies channel 1 first and channel 2 last.
    """
    if len(factors) != p.n:
        raise ValueError(f"expected {p.n} factors, got {len(factors)}")
    return [factors[j - 1] for j in p.image]


@cache
def _subsets(n: int, z: int) -> tuple[tuple[int, ...], ...]:
    return tuple(combinations(range(1, n + 1), z))


def zero_subsets(n: int, z: int) -> tuple[tuple[int, ...], ...]:
    """All C(n, z) size-z subsets A_z of {1..n} as sorted member tuples, in lexicographic order.

    A_z holds the slots whose Kraus index is pinned to zero; cached as enumerate_orders.
    """
    _check_channel_count(n)
    (z,) = _integers((z,), "subset sizes")  # and 1.0 for 1
    if not 0 <= z <= n:
        raise ValueError(f"subset size must be in 0..{n}, got z={z}")
    return _subsets(int(n), z)
