"""Holevo information of the coherently controlled channel switch.

chi = log2(d) + H(control marginal) - H_min, all entropies in bits. H_min
is the minimum output entropy over target states; by concavity it is
attained on pure states aligned with a basis vector, so the block structure
reduces it to two n! x n! eigenproblems (target eigenvalue 1 and 0).

``holevo_batch`` is the package's one evaluation call, the same path for every N: a sequence
of d by a grid of q rows by control rows ([Gd, Gq, Gp]; d is axis 0 of every block grid),
``switch.assemble_blocks``, then one spectral stage solving their stacked a + b, a and control
marginal d*a + b in one eigensolve, every value bitwise what the point gives alone. A single
point is the 1 x 1 x 1 grid; the N = 2 closed form ``min_output_entropy_n2`` checks it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError
from .switch import _check_grid, assemble_blocks

EIGENVALUE_SLACK = 1e-9


def _spectrum(matrix: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on a {matrix.shape} stack: {exc}") from exc


def min_output_entropy_n2(ds, q, probs) -> np.ndarray:
    """Closed-form minimum output entropy [Gd, Gq, Gp] in bits of two channels over a grid.

    With p = P_1, the four spectral branches are lam_{s,k} = alpha_k/2
    + s*sqrt(p(1-p)*beta_k^2 + alpha_k^2 (p-1/2)^2) for s = +-1 and target
    eigenvalue k in {0, 1}, weighted (d-1)^(1-k), with
    alpha_k = (1-q1 q2)/d + k q1 q2 and
    beta_k = (p1 q2 + q1 p2)/d + k (p1 p2/d^2 + q1 q2).
    The grid rule applies, and each point is bitwise what it gives alone.
    """
    ds, q, probs = _check_grid(2, ds, q, probs)
    d = np.array(ds)[:, None, None]
    q1, q2 = q.T[:, :, None]
    p = probs[:, 0]
    p1, p2 = 1.0 - q1, 1.0 - q2
    acc = np.zeros((len(ds), len(q), len(probs)))
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
    """(h_min, h_control) [Gd, Gq, Gp] in bits of a checked grid [Gd, Gq, Gp, 2, n!, n!] over ds."""
    shape = blocks.shape[:3]
    blocks = blocks.reshape(len(ds), -1, *blocks.shape[3:])
    a, b = blocks[:, :, 0], blocks[:, :, 1]
    stack = np.stack([a, a, a])  # made a + b, a, d*a + b in place: no full-size temporaries
    stack[2] *= np.array(ds)[:, None, None, None]
    stack[::2] += b
    top, rest, marginal = _spectrum(stack)
    # Tiled per d, not weighted by d - 1: the weighted sum rounds differently (chi is
    # 4.44089e-16, not 0, at n = 1, d = 7, q = 0) and changes the sweep's CSV bytes.
    tiles = (np.concatenate([t, np.tile(r, d - 1)], axis=1) for d, t, r in zip(ds, top, rest))
    h_min = np.stack([_entropy_rows(tile) for tile in tiles])
    # The marginal is exactly symmetric with unit trace by construction, so
    # only the spectrum is checked, and a bad one is a numerical failure.
    h_control = _entropy_rows(marginal.reshape(-1, marginal.shape[-1]))
    return h_min.reshape(shape), h_control.reshape(shape)


def holevo_batch(n: int, ds, q, probs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h_min, h_control, chi) in bits at every point of a d by q by control grid.

    ``ds`` is a nonempty 1-D sequence of Gd dimensions, ``q`` holds Gq rows of n
    transparencies ([Gq, n]) and ``probs`` Gp rows of n! order probabilities ([Gp, n!]).
    Each result is [Gd, Gq, Gp]: entry [i, j, k] is the point (ds[i], q[j], probs[k]), and
    a single point is ``holevo_batch(n, [d], [q], [probs])`` read at [0, 0, 0]. Either grid
    may have no rows. The blocks are ``assemble_blocks(n, ds, q, probs)``.

    Raises SizeLimitError if n is outside 1..MAX_ASSEMBLE_CHANNELS or a d is over
    MAX_DIMENSION, ValueError for any other bad n, ds, q or probs and for blocks that
    the block rule rejects, and NumericalError if the eigensolver fails or returns
    an eigenvalue below -EIGENVALUE_SLACK.
    """
    blocks = assemble_blocks(n, ds, q, probs)
    ds = [int(d) for d in ds]  # each checked by assemble_blocks
    h_min, h_control = _block_entropies(ds, blocks)
    chi = np.array([math.log2(v) for v in ds])[:, None, None] + h_control - h_min
    return h_min, h_control, chi
