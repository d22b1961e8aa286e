"""Output of the coherently controlled N-channel switch.

The switch applies N depolarizing channels to a target state rho in an
order selected by a control system prepared in the superposition
sum_k sqrt(P_k) |k>, one basis state per causal order. Its output is an
(N! x N!) array of d x d blocks, and every block is a linear combination
a*I + b*rho with nonnegative coefficients. The module provides

* a loop-counting rule that evaluates, per pair of causal orders (k, k')
  and zero-index subset A_z, the summed unitary word
  sum pi_k(U_{i1}..U_{iN}) rho [pi_k'(U_{i1}..U_{iN})]^dag as a power of d
  times I or rho: each summed slot joins index wires, the word is I when
  the two output wires join and rho otherwise, and every closed loop of
  wires adds a factor d,
* ``contraction_table``, the rule tabulated once per N <= 5 as the
  distinct columns of (word is I, power) pairs over the A_z and the column
  of each (k, k'); the one block stage, behind ``holevo_batch`` and
  ``assemble_blocks``, sums the weighted A_z once per distinct column,
  gathers the exact blocks and weights them by sqrt(P_k P_k'),
* hand-expanded closed forms for N = 2 and N = 3,
* a brute-force reference (``kraus_sum_output``) that sums the generalized
  Kraus operators over at most TUPLE_BUDGET (order, index tuple) pairs, one Gram
  product of the stacked order products per chunk, to cross-check the analytic path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .channels import (
    DensityMatrix, DepolarizingChannel, _channel_list, _check_dimension, _check_transparencies,
    _real_array, kraus_set,
)
from .errors import SizeLimitError
from .symgroup import _check_channel_count, _ranks, apply_order, enumerate_orders, zero_subsets

# Hard caps: the brute-force sums multiply out n! (d^2+1)^n (order, index
# tuple) pairs, the block assembly runs over n!^2 causal-order pairs.
TUPLE_BUDGET = 1_000_000
MAX_ASSEMBLE_CHANNELS = 5
# Complex entries (4 MB) per chunk of the brute-force sums' order products.
CHUNK_ENTRIES = 1 << 18


def _check_probabilities(probs, n: int) -> np.ndarray:
    """A stack [G, n!] of control probabilities as a float array if every row is valid.

    The package's one control-vector rule: each row has n! entries, each real (checked
    before the float conversion) and nonnegative (NaN fails), with an exact sum within 1e-12 of 1.
    """
    probs = _real_array(probs, "probabilities")
    nf = math.factorial(n)
    if probs.ndim != 2 or probs.shape[1] != nf:
        got = probs.shape[1] if probs.ndim == 2 else f"an array of shape {probs.shape}"
        raise ValueError(f"expected {nf} probabilities for n={n}, got {got}")
    if not (probs >= 0.0).all():
        raise ValueError("probabilities must be nonnegative")
    for row in probs.tolist():
        try:
            total = math.fsum(row)
        except OverflowError:  # finite entries whose sum is beyond the float range
            total = math.inf
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {total}")
    return probs


def _check_order_label(n: int, k) -> None:
    """The package's one order-label rule: k is an integer (numpy integers too) in 1..n!."""
    nf = math.factorial(n)
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= nf):
        raise ValueError(f"order labels must be integers in 1..{nf}, got {k!r}")


def _check_blocks(ds: Sequence[int], blocks: np.ndarray) -> None:
    """Reject a stack [Gd, G, 2, n!, n!] of blocks (a, b), axis 0 over ds, unless all are valid.

    The package's one block rule: each point's a and b must be finite, exactly symmetric
    and nonnegative, and its realized trace sum_k (d*a[k,k] + b[k,k]) within 2e-12 of 1:
    the control rule's 1e-12, and 1e-12 for rounding, under (2^n + n! + 2n) 2^-53, 2e-14 at n = 5.
    """
    if not np.isfinite(blocks).all():
        raise ValueError("block coefficients must be finite")
    if not (blocks == blocks.swapaxes(3, 4)).all():
        raise ValueError("block matrix must be exactly symmetric")
    if (blocks < 0).any():
        raise ValueError("block coefficients must be nonnegative")
    traces = blocks.trace(axis1=3, axis2=4)
    realized = np.array(ds)[:, None] * traces[..., 0] + traces[..., 1]
    bad = np.flatnonzero(np.abs(realized - 1.0) > 2e-12)
    if bad.size:
        raise ValueError(f"realized trace {realized.flat[bad[0]]} != 1")


@dataclass(frozen=True)
class ControlSpec:
    """Control-system preparation: probability P_k per causal order.

    The control state is the pure superposition with real nonnegative
    amplitudes sqrt(P_k); zero entries switch individual orders off.
    """

    n: int
    probs: tuple[float, ...]

    def __post_init__(self):
        _check_channel_count(self.n)
        _check_probabilities([self.probs], self.n)
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))

    @property
    def amplitudes(self) -> np.ndarray:
        return np.sqrt(np.asarray(self.probs))

    def density(self) -> np.ndarray:
        """The control density matrix sum_{k,k'} sqrt(P_k P_k') |k><k'|."""
        amps = self.amplitudes
        return np.outer(amps, amps)

    @classmethod
    def uniform(cls, n: int) -> ControlSpec:
        _check_channel_count(n)
        nf = math.factorial(n)
        return cls(n, (1.0 / nf,) * nf)

    @classmethod
    def definite(cls, n: int, k: int) -> ControlSpec:
        """All weight on causal order k (1-based)."""
        _check_channel_count(n)
        _check_order_label(n, k)
        probs = [0.0] * math.factorial(n)
        probs[k - 1] = 1.0
        return cls(n, tuple(probs))


@dataclass(frozen=True)
class SwitchBlockMatrix:
    """The full switch output: an n! x n! array of blocks a*I + b*rho.

    ``a[k-1, k'-1]`` and ``b[k-1, k'-1]`` are the identity and rho
    coefficients of block (k, k'): finite, exactly symmetric and
    nonnegative, with realized trace sum_k (d*a[k,k] + b[k,k]) = 1.
    """

    n: int
    d: int
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        _check_channel_count(self.n)
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", _check_dimension(self.d))
        nf = math.factorial(self.n)
        if a.shape != (nf, nf) or b.shape != (nf, nf):
            raise ValueError(f"coefficient arrays must be {nf}x{nf}")
        _check_blocks([self.d], np.stack([a, b])[None, None])


# ---------------------------------------------------------------------------
# Loop counting. The word U_{l1}..U_{lm} rho U_{rm}^dag..U_{r1}^dag of m
# live slots is a product of 2m+1 factors on 2m+2 index wires: wire 0 is
# the output row L0, wire 2m+1 the output column R0, wire j sits between
# factors j and j+1. Summing a slot with
#   sum_i (U_i)_ab (U_i*)_cd = d delta_ac delta_bd
# gives a factor d and joins the wires around U_s crosswise to those around
# U_s^dag. What remains is two open strands through L0, R0 and the indices
# of rho, plus closed loops worth d each: the word is I (times tr(rho) = 1)
# when L0 and R0 share a strand, else rho, and the power of d is m plus the
# number of joins that closed a loop.
# ---------------------------------------------------------------------------


def _loop_rule(left: Sequence[int], right: Sequence[int]) -> tuple[bool, int]:
    """(word is I, power of d) for the live slots in the orders left, right."""
    m = len(left)
    root = list(range(2 * m + 2))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    dagger_at = {slot: 2 * m + 2 - i for i, slot in enumerate(right, start=1)}
    loops = 0
    for j, slot in enumerate(left, start=1):
        for x, y in ((j - 1, dagger_at[slot]), (j, dagger_at[slot] - 1)):
            rx, ry = find(x), find(y)
            loops += rx == ry
            root[rx] = ry
    return find(0) == find(2 * m + 1), m + loops


class ContractionTable(NamedTuple):
    """Every contraction of n channels as read-only distinct columns.

    A contraction is a pair (word is I, power of d). ``subsets`` holds the A_z as
    member tuples by size, then lexicographically; ``pinned`` ([2^n, n] bool) is True
    at [s, j - 1] if slot j is in subset s. ``identity`` (bool) and ``power`` (int8)
    are [2^n, U]: axis 0 follows ``subsets``, axis 1 the U distinct columns over the
    subsets in order of first appearance. ``column`` ([n!, n!]) gives pair (k, k')'s
    column at [k - 1, k' - 1].
    """

    subsets: tuple[tuple[int, ...], ...]
    pinned: np.ndarray
    identity: np.ndarray
    power: np.ndarray
    column: np.ndarray


@functools.cache
def _relative_code(relative: tuple[int, ...]) -> int:
    """The contraction of a word pair packed as one code, 2 * power + (word is I)."""
    identity, power = _loop_rule(range(len(relative)), relative)
    return 2 * power + identity


@functools.cache
def contraction_table(n: int) -> ContractionTable:
    """The contraction table of n <= MAX_ASSEMBLE_CHANNELS channels, built on first use.

    Contractions depend only on (n, k, k', A_z), never on q, P or d. Channels are
    dummy labels, so code(k, k', A_z) = code(1, tau, pi_k^-1(A_z)), tau = pi_k^-1 pi_k':
    one base row per set of pinned places, gathered by the rank of tau.
    """
    _check_channel_count(n, MAX_ASSEMBLE_CHANNELS)  # the table grows as 2^n n!^2
    perms = np.array([p.image for p in enumerate_orders(n)]) - 1
    taus = perms.tolist()  # order t is the tau of rank t
    subsets = tuple(members for z in range(n + 1) for members in zero_subsets(n, z))
    base = np.empty((len(perms), 2**n), dtype=np.int8)  # [rank of tau, mask of pinned places]
    for mask in range(2**n):
        live = {p: i for i, p in enumerate(p for p in range(n) if not mask >> p & 1)}
        base[:, mask] = [_relative_code(tuple(live[p] for p in tau if p in live)) for tau in taus]
    place = np.argsort(perms, axis=1)  # place[k][c]: the position of channel c in order k
    pinned = np.array([[j in members for j in range(1, n + 1)] for members in subsets])
    masks = pinned @ (1 << place).T  # [subset, k]: its channels' places in order k
    # Pair (k, k')'s codes over the subsets lie contiguous at codes[k - 1, k' - 1].
    codes = np.empty((len(perms), len(perms), len(subsets)), dtype=np.int8)
    for k in range(len(perms)):  # row by row: a one-shot gather peaks higher
        codes[k] = base[_ranks(place[k][perms])[:, None], masks[:, k]]
    # Pairs (k, k') whose codes over the subsets match share one column.
    columns: dict[bytes, int] = {}
    keys = codes.view(np.dtype((np.void, len(subsets)))).ravel().tolist()
    column = np.reshape([columns.setdefault(key, len(columns)) for key in keys], codes.shape[:2])
    unique = np.frombuffer(b"".join(columns), dtype=np.int8).reshape(len(columns), -1).T
    arrays = pinned, unique % 2 == 1, unique >> 1, column
    for array in arrays:
        array.setflags(write=False)
    return ContractionTable(subsets, *arrays)


# ---------------------------------------------------------------------------
# Block assembly.
# ---------------------------------------------------------------------------


def _switch_blocks(n: int, ds: Sequence[int], q: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Control-weighted blocks [Gd, Gq*Gp, 2, n!, n!] (I, rho) of ds by q [Gq, n] by probs [Gp, n!]

    Per d and q row, the subset weights multiply channel by channel and the subsets
    are added one by one in table order into each distinct column, so every
    entry is bitwise what the same sum gives for that point alone. Block
    (k, k') is then weighted by each control's sqrt(P_k P_k').
    """
    table = contraction_table(n)
    factors = np.where(table.pinned, q[:, None, :], 1.0 - q[:, None, :])
    weight = np.ones(factors.shape[:2])
    for j in range(n):
        weight *= factors[:, :, j]
    # d^k at index k (from the end if k < 0), by Python per d: numpy's differs in the last bit.
    exponents = [*range(table.power.max() + 1), *range(-2 * n, 0)]
    powers = np.array([[float(d) ** k for k in exponents] for d in ds])
    weight = weight * powers[:, None, 2 * (table.pinned.sum(axis=1) - n)]
    scale = powers[:, None, table.power]  # [Gd, 1, 2^n, U]: broadcast over q
    split = np.stack([scale * table.identity, scale * ~table.identity], axis=3)
    sums = np.zeros((len(ds), len(q)) + split.shape[3:])
    term = np.empty_like(sums)  # each subset's product, written in place
    for s, terms in enumerate(split.transpose(2, 0, 1, 3, 4)):  # [Gd, 1, 2, U] per subset
        sums += np.multiply(weight[..., s, None, None], terms, out=term)
    # Sums copied per control, then gathered: a broadcast density product page-faults each call.
    blocks = np.take(np.repeat(sums, len(probs), axis=1), table.column, axis=3)
    amps = np.tile(np.sqrt(probs), (len(q), 1))[:, None]
    blocks *= amps[..., None] * amps[..., None, :]  # each control's density, broadcast over d
    return blocks


def assemble_blocks(
    channels: Sequence[DepolarizingChannel], ctrl: ControlSpec
) -> SwitchBlockMatrix:
    """Exact switch output blocks from the contraction table.

    Block (k, k') collects, over all zero-index subsets A_z,
    sqrt(P_k P_k') * w(A_z) * d^(2(z-N)) * d^power * (I or rho), where
    w(A_z) = prod_{a in A_z} q_a * prod_{b not in A_z} (1-q_b). The weight
    is the factored form of the subset prefactor with all (1-q_a)
    denominators cancelled, so transparent channels (q_a = 1) are regular.
    """
    n, d = _channel_list(channels, MAX_ASSEMBLE_CHANNELS)
    if ctrl.n != n:
        raise ValueError(f"control is for {ctrl.n} channels, got {n}")
    q = np.array([[ch.q for ch in channels]])
    a, b = _switch_blocks(n, (d,), q, np.array([ctrl.probs]))[0, 0]
    return SwitchBlockMatrix(n=n, d=d, a=a, b=b)


def _closed_form_n2_blocks(q1, q2, prob1, prob2, ds: Sequence[int]) -> np.ndarray:
    """Two-channel blocks [Gd, G, 2, 2, 2] (I then rho) over ds for G points as arrays (or scalars).

    Each entry takes the operations of the expansion in ``closed_form_n2``
    in the same order, so every point is bitwise what it gives alone.
    """
    d, prob1, prob2 = np.broadcast_arrays(np.array(ds)[:, None], prob1, prob2)  # all [Gd, G]
    p1, p2 = 1.0 - q1, 1.0 - q2
    r0 = p1 * p2
    r1 = q1 * p2 + q2 * p1
    r2 = q1 * q2
    cross = np.sqrt(prob1 * prob2)
    a_off = cross * r1 / d
    b_off = cross * (r0 + d * d * r2) / d**2
    a = [[prob1 * (r0 + r1) / d, a_off], [a_off, prob2 * (r0 + r1) / d]]
    b = [[prob1 * r2, b_off], [b_off, prob2 * r2]]
    return np.array([a, b]).transpose(3, 4, 0, 1, 2)


def closed_form_n2(q1: float, q2: float, ctrl: ControlSpec, d: int) -> SwitchBlockMatrix:
    """Hand-expanded switch blocks for two channels.

    With p_i = 1-q_i, r0 = p1 p2, r1 = q1 p2 + q2 p1, r2 = q1 q2, the
    diagonal blocks are P_k [(r0+r1) I/d + r2 rho] and the off-diagonal
    block is sqrt(P1 P2) [(r0 + d^2 r2) rho/d^2 + r1 I/d].
    """
    _check_transparencies((q1, q2))
    if ctrl.n != 2:
        raise ValueError("control must describe two channels")
    d = _check_dimension(d)  # first: the expansion would compute with any d
    a, b = _closed_form_n2_blocks(q1, q2, *ctrl.probs, [d])[0, 0]
    return SwitchBlockMatrix(n=2, d=d, a=a, b=b)


def closed_form_n3(
    q1: float, q2: float, q3: float, ctrl: ControlSpec, d: int
) -> SwitchBlockMatrix:
    """Hand-expanded switch blocks for three channels.

    Coefficients: s0 = p1 p2 p3, t_j = q_j * prod of the other two p's,
    s2 = sum over pairs of q q p, s3 = q1 q2 q3. The fifteen distinct
    off-diagonal entries below follow the causal-order labeling of
    ``enumerate_orders(3)``.
    """
    _check_transparencies((q1, q2, q3))
    if ctrl.n != 3:
        raise ValueError("control must describe three channels")
    d = _check_dimension(d)  # first: the expansion would compute with any d
    p1, p2, p3 = 1.0 - q1, 1.0 - q2, 1.0 - q3
    s0 = p1 * p2 * p3
    t1 = q1 * p2 * p3
    t2 = q2 * p1 * p3
    t3 = q3 * p1 * p2
    s2 = q1 * q2 * p3 + q1 * q3 * p2 + q2 * q3 * p1
    s3 = q1 * q2 * q3
    d2, d3 = float(d) ** 2, float(d) ** 3
    off = {
        (1, 2): ((d2 * s2 + d2 * t2 + d2 * t3 + s0) / d3, (d2 * s3 + t1) / d2),
        (1, 3): ((d2 * s2 + d2 * t1 + d2 * t2 + s0) / d3, (d2 * s3 + t3) / d2),
        (1, 4): ((t1 + s2) / d, (d2 * s3 + s0 + t2 + t3) / d2),
        (1, 5): ((s2 + t3) / d, (d2 * s3 + s0 + t1 + t2) / d2),
        (1, 6): ((d2 * s2 + s0) / d3, (d2 * s3 + t1 + t2 + t3) / d2),
        (2, 3): ((s2 + t2) / d, (d2 * s3 + s0 + t1 + t3) / d2),
        (2, 4): ((d2 * s2 + s0) / d3, (d2 * s3 + t1 + t2 + t3) / d2),
        (2, 5): ((d2 * s2 + d2 * t1 + d2 * t3 + s0) / d3, (d2 * s3 + t2) / d2),
        (2, 6): ((s2 + t1) / d, (d2 * s3 + s0 + t2 + t3) / d2),
        (3, 4): ((d2 * s2 + d2 * t1 + d2 * t3 + s0) / d3, (d2 * s3 + t2) / d2),
        (3, 5): ((d2 * s2 + s0) / d3, (d2 * s3 + t1 + t2 + t3) / d2),
        (3, 6): ((s2 + t3) / d, (d2 * s3 + s0 + t1 + t2) / d2),
        (4, 5): ((s2 + t2) / d, (d2 * s3 + s0 + t1 + t3) / d2),
        (4, 6): ((d2 * s2 + d2 * t2 + d2 * t3 + s0) / d3, (d2 * s3 + t1) / d2),
        (5, 6): ((d2 * s2 + d2 * t1 + d2 * t2 + s0) / d3, (d2 * s3 + t3) / d2),
    }
    diag_a = (s0 + s2 + t1 + t2 + t3) / d
    probs = ctrl.probs
    a = np.zeros((6, 6))
    b = np.zeros((6, 6))
    for k in range(6):
        a[k, k] = probs[k] * diag_a
        b[k, k] = probs[k] * s3
    for (k, kp), (ca, cb) in off.items():
        w = math.sqrt(probs[k - 1] * probs[kp - 1])
        a[k - 1, kp - 1] = a[kp - 1, k - 1] = w * ca
        b[k - 1, kp - 1] = b[kp - 1, k - 1] = w * cb
    return SwitchBlockMatrix(n=3, d=d, a=a, b=b)


def realize(sbm: SwitchBlockMatrix, rho: DensityMatrix) -> np.ndarray:
    """Materialize the block matrix for a concrete target state.

    Returns the dense (d*n!) x (d*n!) matrix whose (k, k') block occupies
    rows and columns [(k-1)*d, k*d).
    """
    if rho.d != sbm.d:
        raise ValueError(f"state dimension {rho.d} != block dimension {sbm.d}")
    return _realize(np.stack([sbm.a, sbm.b])[None], rho.entries[None])[0]


def _realize(blocks: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Dense outputs [G, n! d, n! d] of blocks [G, 2, n!, n!] at rhos [G, d, d], kron's bits."""
    a, b = blocks[:, 0, :, None, :, None], blocks[:, 1, :, None, :, None]
    dense = a * np.eye(rhos.shape[-1], dtype=complex)[:, None] + b * rhos[:, None, :, None]
    return dense.reshape(len(blocks), dense.shape[1] * dense.shape[2], -1)


# ---------------------------------------------------------------------------
# Brute-force reference path.
# ---------------------------------------------------------------------------


def _order_products(
    channels: Sequence[DepolarizingChannel],
) -> tuple[int, int, int, Iterator[np.ndarray]]:
    """(n, d, n!, chunks) for at most TUPLE_BUDGET (order, index tuple t) pairs.

    A chunk is a new [n!, d, T*d] array, K_pi[t][a, b] at row a, column (t, b), t
    row-major over (t_1..t_n): slots 1..g run jointly over consecutive
    values, the others in full, to keep a chunk within CHUNK_ENTRIES. Each
    product chains Kraus stacks in product order, then puts the tuple axes
    back in slot order.
    """
    n, d = _channel_list(channels)
    m, nf = d * d + 1, math.factorial(n)
    if nf * m**n > TUPLE_BUDGET:
        raise SizeLimitError(
            f"brute-force sum needs {nf} orders x {m**n} index tuples, budget {TUPLE_BUDGET}"
        )
    kraus = [kraus_set(ch.q, d) for ch in channels]
    orders = [apply_order(p, list(range(n))) for p in enumerate_orders(n)]
    per_tuple = nf * d * d
    g = next((g for g in range(1, n) if per_tuple * m ** (n - g) <= CHUNK_ENTRIES), n)
    step = max(1, CHUNK_ENTRIES // (per_tuple * m ** (n - g)))
    # A free slot's stack as [d, (t, c)]: a product's rows gain its axis.
    free = [stack.transpose(1, 0, 2).reshape(d, m * d) for stack in kraus[g:]]

    def chunks() -> Iterator[np.ndarray]:
        for lo in range(0, m**g, step):
            joint = np.unravel_index(np.arange(lo, min(lo + step, m**g)), (m,) * g)
            factors = [kraus[j][joint[j]] for j in range(g)] + free
            ops = np.empty((nf, d, len(joint[0]) * m ** (n - g) * d), dtype=complex)
            for k, seq in enumerate(orders):
                acc = np.eye(d, dtype=complex)[None]
                for j in seq:
                    acc = acc @ factors[j]
                    acc = acc.reshape(len(acc), -1, d)
                tuple_axes = 2 + np.argsort([j for j in seq if j >= g])
                acc = acc.reshape((len(acc), d) + (m,) * (n - g) + (d,))
                ops[k] = acc.transpose(1, 0, *tuple_axes, n - g + 2).reshape(d, -1)
            yield ops

    return n, d, nf, chunks()


def kraus_sum_output(
    channels: Sequence[DepolarizingChannel], ctrl: ControlSpec, rho: DensityMatrix
) -> np.ndarray:
    """Switch output by direct summation of the generalized Kraus operators.

    Sums W (rho tensor rho_c) W^dag over all (d^2+1)^n index tuples, with
    n! (d^2+1)^n <= TUPLE_BUDGET, where W places K_{pi_k} on control block k.
    Each chunk's order products K, as [n! d, T d], add the Gram product
    (K rho) K^dag, already in the output's (k, a), (k', a') layout; the
    control amplitudes weight the sum. No analytic grouping is used: this is
    the independent reference for ``assemble_blocks``.
    """
    n, d, nf, chunks = _order_products(channels)
    if ctrl.n != n:
        raise ValueError(f"control is for {ctrl.n} channels, got {n}")
    if rho.d != d:
        raise ValueError(f"state dimension {rho.d} != channel dimension {d}")
    out = np.zeros((nf * d, nf * d), dtype=complex)
    for ops in chunks:
        left = (ops.reshape(-1, d) @ rho.entries).reshape(nf * d, -1)
        out += left @ np.conj(ops, out=ops).reshape(nf * d, -1).T
    return out * np.kron(ctrl.density(), np.ones((d, d)))


def completeness_defect(channels: Sequence[DepolarizingChannel]) -> float:
    """Max entrywise deviation of sum_i W_i W_i^dag from the identity.

    W_i W_i^dag is block diagonal, so this sums K_pi K_pi^dag over the same
    chunked stacks and tuple budget as ``kraus_sum_output``, one stacked
    Gram product per chunk, and reports the numerical defect.
    """
    _, d, _, chunks = _order_products(channels)
    acc = sum(ops @ ops.conj().transpose(0, 2, 1) for ops in chunks)
    return float(np.abs(acc - np.eye(d)).max())
