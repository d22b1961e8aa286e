"""Partially depolarizing qudit channels and their Kraus representations.

A channel of transparency q maps rho to q*rho + (1-q)*I/d; q = 1 is the
identity channel and q = 0 erases the input to the maximally mixed state.
The unitary part of every Kraus set is built on the Heisenberg-Weyl
operators X(a)Z(b), which form a trace-orthogonal unitary basis of the
d x d matrices: tr(U_i^dag U_j) = d * delta_ij.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from numbers import Real
from typing import Sequence

import numpy as np

from .errors import SizeLimitError
from .symgroup import MAX_ORDER_CHANNELS, Permutation, _check_channel_count, apply_order

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

# Hard cap on d: an N = 5 point's output spectrum (n!*d floats) stays at 3.9 M.
MAX_DIMENSION = 1 << 15
# Hard cap on d where a unitary basis is built: d^4 complex entries, 16 MB at 32.
MAX_BASIS_DIMENSION = 32


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """A d x d density matrix: finite, Hermitian, unit trace, positive semidefinite."""

    entries: np.ndarray

    def __post_init__(self):
        entries = _frozen(self.entries)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {entries.shape}")
        if not np.isfinite(entries).all():
            raise ValueError("density matrix entries must be finite")
        if np.abs(entries - entries.conj().T).max() > HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(entries) - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {np.trace(entries)} != 1")
        if np.linalg.eigvalsh(entries).min() < -PSD_TOL:
            raise ValueError("density matrix has a negative eigenvalue")

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def basis_state(cls, d: int, index: int = 0) -> DensityMatrix:
        mat = np.zeros((d, d), dtype=complex)
        mat[index, index] = 1.0
        return cls(mat)

    @classmethod
    def pure(cls, vector: Sequence[complex]) -> DensityMatrix:
        v = np.asarray(vector, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, d: int) -> DensityMatrix:
        return cls(np.eye(d, dtype=complex) / d)


def random_density(d: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank density matrix (normalized Wishart draw)."""
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = m @ m.conj().T
    return DensityMatrix(h / np.trace(h))


def _check_dimension(d) -> int:
    """The package's one dimension rule: d as an int if it is an integer in 2..MAX_DIMENSION.

    A larger d raises SizeLimitError, any other bad d ValueError.
    """
    real = type(d) is int or isinstance(d, Real)  # "2", None and 2+0j cannot be ordered
    if real and d > MAX_DIMENSION:  # exact for any int, where math.isfinite overflows on a huge one
        raise SizeLimitError(f"dimension must be at most {MAX_DIMENSION}, got {d}")
    if not (real and math.isfinite(d) and d == int(d) and d >= 2):
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    return int(d)


def _check_transparencies(q) -> None:
    """The package's one transparency rule: every entry of q lies in [0, 1] (NaN fails)."""
    values = np.asarray(q, dtype=float)
    outside = values[~((values >= 0.0) & (values <= 1.0))]
    if outside.size:
        raise ValueError(f"transparency must lie in [0, 1], got {outside[0]}")


@dataclass(frozen=True)
class DepolarizingChannel:
    """Channel rho -> q*rho + (1-q)*I/d; 1-q is the depolarization strength."""

    q: float
    d: int

    def __post_init__(self):
        object.__setattr__(self, "q", float(self.q))
        _check_transparencies(self.q)
        object.__setattr__(self, "d", _check_dimension(self.d))


@dataclass(frozen=True)
class UnitaryBasis:
    """d^2 unitaries forming a trace-orthogonal basis; the first is the identity.

    Domain index i in 1..d^2 is ``elements[i - 1]``.
    """

    d: int
    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elements = tuple(_frozen(u) for u in self.elements)
        object.__setattr__(self, "elements", elements)
        d = self.d
        if len(elements) != d * d:
            raise ValueError(f"expected {d * d} elements, got {len(elements)}")
        if np.abs(elements[0] - np.eye(d)).max() > HERMITIAN_TOL:
            raise ValueError("element with index 1 must be the identity")
        stack = np.stack(elements)
        for u in elements:
            if np.abs(u @ u.conj().T - np.eye(d)).max() > HERMITIAN_TOL:
                raise ValueError("basis element is not unitary")
        gram = np.einsum("aij,bij->ab", stack.conj(), stack)
        if np.abs(gram - d * np.eye(d * d)).max() > HERMITIAN_TOL:
            raise ValueError("basis is not trace-orthogonal")


def weyl_basis(d: int) -> UnitaryBasis:
    """Heisenberg-Weyl basis {X(a)Z(b)} in row-major order over (a, b), built once per d.

    X(a)|l> = |(l+a) mod d>, Z(b)|l> = omega^(b*l)|l> with omega = exp(2*pi*i/d)
    and no extra global phase. Index i in 1..d^2 maps to the pair
    (a, b) = ((i-1) div d, (i-1) mod d), so index 1 is X(0)Z(0) = I.
    """
    d = _check_dimension(d)  # checked first: the cache hashes its key
    if d > MAX_BASIS_DIMENSION:
        raise SizeLimitError(f"a basis needs dimension at most {MAX_BASIS_DIMENSION}, got {d}")
    return _weyl_basis(d)


@cache
def _weyl_basis(d: int) -> UnitaryBasis:
    omega = np.exp(2j * np.pi / d)
    shift = np.zeros((d, d), dtype=complex)
    for l in range(d):
        shift[(l + 1) % d, l] = 1.0
    clock = np.diag(omega ** np.arange(d))
    elements = []
    for a in range(d):
        xa = np.linalg.matrix_power(shift, a)
        for b in range(d):
            elements.append(xa @ np.linalg.matrix_power(clock, b))
    return UnitaryBasis(d=d, elements=tuple(elements))


def apply_depolarizing(rho: DensityMatrix, q: float) -> DensityMatrix:
    """Send rho to q*rho + (1-q)*I/d."""
    _check_transparencies(q)
    d = rho.d
    return DensityMatrix(q * rho.entries + (1.0 - q) * np.eye(d) / d)


def kraus_set(q: float, d: int) -> list[np.ndarray]:
    """Kraus operators of the depolarizing channel, indexed 0..d^2.

    Index 0 is sqrt(q)*I, absorbing the transparent part of the channel
    directly (this stays finite at q = 1, where a basis-side scaled identity
    would be singular). Indices 1..d^2 are sqrt(1-q)/d times the Weyl
    unitaries. The set satisfies sum_i K_i^dag K_i = I.
    """
    _check_transparencies(q)
    basis = weyl_basis(d)  # every rule on d, before anything is built
    scale = np.sqrt(1.0 - q) / basis.d
    return [np.sqrt(q) * np.eye(basis.d, dtype=complex)] + [scale * u for u in basis.elements]


def _channel_list(
    channels: Sequence[DepolarizingChannel], cap: int = MAX_ORDER_CHANNELS
) -> tuple[int, int]:
    """The package's one channel-list rule: (n, d) of 1..cap channels sharing one d."""
    _check_channel_count(len(channels), cap)
    d = channels[0].d
    if any(ch.d != d for ch in channels):
        raise ValueError("all channels must share one dimension")
    return len(channels), d


def compose_definite(
    channels: Sequence[DepolarizingChannel],
    p: Permutation,
    rho: DensityMatrix,
) -> DensityMatrix:
    """Apply the channels to rho in the definite causal order p.

    The rearranged sequence reads as an operator product, so its last
    element acts first. Depolarizing channels commute as maps, hence the
    result equals a single depolarizing channel of transparency prod(q_j).
    """
    n, d = _channel_list(channels)
    if n != p.n:
        raise ValueError(f"expected {p.n} channels, got {n}")
    if d != rho.d:
        raise ValueError(f"channel dimension {d} != state dimension {rho.d}")
    out = rho
    for ch in reversed(apply_order(p, list(channels))):
        out = apply_depolarizing(out, ch.q)
    return out
