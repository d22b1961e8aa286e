"""Definite-order references for the tests: the channels applied one after another.

Neither function is part of the package. They are the plain textbook maps
that the switch's definite-order limit and the Kraus sets are checked against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from qnswitch.channels import (
    DensityMatrix,
    DepolarizingChannel,
    _channel_list,
    _check_transparencies,
)


def apply_depolarizing(rho: DensityMatrix, q: float) -> DensityMatrix:
    """Send rho to q*rho + (1-q)*I/d."""
    _check_transparencies(q)
    d = rho.d
    return DensityMatrix(q * rho.entries + (1.0 - q) * np.eye(d) / d)


def compose_definite(
    channels: Sequence[DepolarizingChannel],
    order: Sequence[int],
    rho: DensityMatrix,
) -> DensityMatrix:
    """Apply the channels to rho in the definite causal order ``order``, a row of
    ``enumerate_orders(n)``.

    Position j holds channel order[j - 1], and the positions read as an operator
    product, so the last one acts first. Depolarizing channels commute as maps,
    hence the result equals a single depolarizing channel of transparency prod(q_j).
    """
    n, d = _channel_list(channels)
    if n != len(order):
        raise ValueError(f"expected {len(order)} channels, got {n}")
    if d != rho.d:
        raise ValueError(f"channel dimension {d} != state dimension {rho.d}")
    out = rho
    for j in reversed(order):
        out = apply_depolarizing(out, channels[j - 1].q)
    return out
