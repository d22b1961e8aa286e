"""Holevo information of the coherently controlled channel switch.

chi = log2(d) + H(control marginal) - H_min, all entropies in bits. H_min
is the minimum output entropy over target states; by concavity it is
attained on pure states aligned with a basis vector, so the block structure
reduces it to two n! x n! eigenproblems (target eigenvalue 1 and 0).

``holevo_batch`` is the one evaluation path for every N: a grid of q rows by control rows
([Gq, Gp], q slowest) at one d or over a d sequence (``table1``'s one call per N), ``switch``'s
block stage, then one spectral stage solving their stacked a + b, a and control marginal d*a + b
in one eigensolve, every value bitwise what the point gives alone. ``holevo_information``
(a 1 x 1 grid) and ``min_output_entropy`` share them; the N = 2 closed forms check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import DensityMatrix, _check_dimension, _check_transparencies
from .errors import NumericalError
from .switch import (
    MAX_ASSEMBLE_CHANNELS,
    SwitchBlockMatrix,
    _check_blocks,
    _check_probabilities,
    _switch_blocks,
)
from .symgroup import _check_channel_count

EIGENVALUE_SLACK = 1e-9


@dataclass(frozen=True)
class HolevoReport:
    """Inputs and the resulting entropies, in bits."""

    n: int
    d: int
    q: tuple[float, ...]
    probs: tuple[float, ...]
    h_min: float
    h_control: float
    chi: float


def _spectrum(matrix: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on a {matrix.shape} stack: {exc}") from exc


def von_neumann_entropy(matrix: np.ndarray) -> float:
    """Entropy in bits of a matrix that passes the ``DensityMatrix`` rule.

    The spectrum is taken of the matrix as given, so a real input stays real.
    """
    DensityMatrix(matrix)
    return float(_entropy_rows(_spectrum(np.asarray(matrix))[None])[0])


def min_output_entropy(sbm: SwitchBlockMatrix) -> float:
    """Minimum output entropy over target states, in bits.

    Substituting a one-hot target spectrum turns the block matrix into a
    pencil of n! x n! matrices: entrywise a + b at the populated eigenvector
    and plain a at each of the d-1 empty ones. The output spectrum is the
    union of their eigenvalues with multiplicities 1 and d-1.
    """
    h_min, _ = _block_entropies([sbm.d], np.stack([sbm.a, sbm.b])[None])
    return float(h_min[0])


def min_output_entropy_n2(q1: float, q2: float, p: float, d: int) -> float:
    """Closed-form minimum output entropy for two channels, in bits.

    The four spectral branches are lam_{s,k} = alpha_k/2
    + s*sqrt(p(1-p)*beta_k^2 + alpha_k^2 (p-1/2)^2) for s = +-1 and target
    eigenvalue k in {0, 1}, weighted (d-1)^(1-k), with
    alpha_k = (1-q1 q2)/d + k q1 q2 and
    beta_k = (p1 q2 + q1 p2)/d + k (p1 p2/d^2 + q1 q2).
    """
    _check_transparencies((q1, q2))
    _check_probabilities(np.array([[p, 1.0 - p]]), 2)
    d = _check_dimension(d)
    return float(_min_output_entropy_n2(*np.array([[q1], [q2], [p]], float), d)[0])


def _min_output_entropy_n2(q1: np.ndarray, q2: np.ndarray, p: np.ndarray, d) -> np.ndarray:
    """``min_output_entropy_n2`` of checked points [G] at d (or [G]), each as alone."""
    p1, p2 = 1.0 - q1, 1.0 - q2
    acc = np.zeros(len(q1))
    for k in (0, 1):
        alpha = (1.0 - q1 * q2) / d + k * q1 * q2
        beta = (p1 * q2 + q1 * p2) / d + k * (p1 * p2 / d**2 + q1 * q2)
        disc = np.sqrt(p * (1.0 - p) * beta**2 + alpha**2 * (p - 0.5) ** 2)
        for s in (1.0, -1.0):
            lam = alpha / 2.0 + s * disc
            live = lam > 0.0  # a branch at 0 adds nothing
            acc[live] -= ((d - 1) ** (1 - k) * lam)[live] * np.log2(lam[live])
    return acc


def _entropy_rows(spectra: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits, with 0*log(0) = 0, of every row of a [G, L] stack.

    Eigenvalues in [-EIGENVALUE_SLACK, 0) count as exact zeros; any lower one
    raises NumericalError. Each row keeps its positive eigenvalues in order, and
    rows that keep the same number of them share one last-axis reduction: equal
    lengths make numpy sum every row in the order it sums the row alone. When
    every value is positive, that is one reduction over the stack as it is.
    """
    low = spectra.min(axis=1)
    bad = np.flatnonzero(low < -EIGENVALUE_SLACK)
    if bad.size:
        raise NumericalError(f"spectrum has a negative eigenvalue: {low[bad[0]]}")
    if (low > 0.0).all():
        return (-(spectra * np.log2(spectra))).sum(axis=1) + 0.0
    keep = spectra > 0.0
    counts = keep.sum(axis=1)
    out = np.empty(len(spectra))
    for count in set(counts.tolist()):
        rows = np.flatnonzero(counts == count)
        vals = spectra[rows][keep[rows]].reshape(len(rows), count)
        out[rows] = (-(vals * np.log2(vals))).sum(axis=1) + 0.0
    return out


def _block_entropies(ds: list[int], blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h_min, h_control) in bits of a checked [G, 2, n!, n!] stack, d slowest over ds."""
    a, b = blocks[:, 0], blocks[:, 1]
    stack = np.stack([a, a, a])  # made a + b, a, d*a + b in place: no full-size temporaries
    at = [slice(i * len(a) // len(ds), (i + 1) * len(a) // len(ds)) for i in range(len(ds))]
    for d, rows in zip(ds, at):
        stack[2, rows] *= d
    stack[::2] += b
    top, rest, marginal = _spectrum(stack)
    # Tiled per d, not weighted by d - 1: the weighted sum rounds differently (chi is
    # 4.44089e-16, not 0, at n = 1, d = 7, q = 0) and changes the sweep's CSV bytes.
    tiles = ([top[rows]] + [rest[rows]] * (d - 1) for d, rows in zip(ds, at))
    h_min = np.concatenate([_entropy_rows(np.concatenate(tile, axis=1)) for tile in tiles])
    # The marginal is exactly symmetric with unit trace by construction, so
    # only the spectrum is checked, and a bad one is a numerical failure.
    h_control = _entropy_rows(marginal)
    return h_min, h_control


def holevo_batch(n: int, d, q, probs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h_min, h_control, chi) in bits, each [Gq, Gp] at one d or [Gd, Gq, Gp] over a d sequence.

    ``q`` holds Gq rows of n transparencies and ``probs`` Gp rows of n! order
    probabilities; every pair is a point, q slowest, d slowest of all. Each d and
    each row is checked once, and each point as ``SwitchBlockMatrix`` checks a single one.
    """
    _check_channel_count(n, MAX_ASSEMBLE_CHANNELS)
    ds = [_check_dimension(v) for v in (d if np.ndim(d) else [d])]
    if not ds:
        raise ValueError("expected at least one dimension")
    q = np.asarray(q, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if q.ndim != 2 or q.shape[1] != n:
        raise ValueError(f"expected q of shape [G, {n}], got {q.shape}")
    _check_transparencies(q)
    _check_probabilities(probs, n)
    blocks = _switch_blocks(n, ds, q, probs)
    _check_blocks(ds, blocks)
    shape = len(ds), len(q), len(probs)
    h_min, h_control = (v.reshape(shape) for v in _block_entropies(ds, blocks))
    chi = [math.log2(v) + c - m for v, c, m in zip(ds, h_control, h_min)]
    return (h_min, h_control, np.stack(chi)) if np.ndim(d) else (h_min[0], h_control[0], chi[0])


def holevo_information(n: int, d: int, q, probs) -> HolevoReport:
    """Holevo information chi = log2(d) + H(control marginal) - H_min.

    The single-point form of ``holevo_batch``.
    """
    q = tuple(float(x) for x in q)
    probs = tuple(float(x) for x in probs)
    h_min, h_control, chi = (float(v[0, 0, 0]) for v in holevo_batch(n, [d], [q], [probs]))
    return HolevoReport(
        n=n, d=d, q=q, probs=probs, h_min=h_min, h_control=h_control, chi=chi
    )
