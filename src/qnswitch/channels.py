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
from .symgroup import _check_channel_count

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
        _check_dimension(entries.shape[0])
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
        d = _check_dimension(d)
        if not (isinstance(index, (int, np.integer)) and 0 <= index < d):
            raise ValueError(f"basis index must be an integer in 0..{d - 1}, got {index!r}")
        mat = np.zeros((d, d), dtype=complex)
        mat[index, index] = 1.0
        return cls(mat)

    @classmethod
    def pure(cls, vector: Sequence[complex]) -> DensityMatrix:
        v = np.asarray(vector, dtype=complex)
        norm = np.linalg.norm(v)
        if not (np.isfinite(norm) and norm > 0.0):
            raise ValueError(f"a pure state needs a finite nonzero vector, got norm {norm}")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, d: int) -> DensityMatrix:
        d = _check_dimension(d)
        return cls(np.eye(d, dtype=complex) / d)


def random_density(d: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank density matrix (normalized Wishart draw); d is checked before any draw."""
    d = _check_dimension(d)
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


def _real_array(values, what: str) -> np.ndarray:
    """``values`` as a float array if every entry is a real number.

    The array must be boolean, integer or float, or hold only ``numbers.Real`` objects.
    Anything else fails before the float conversion, which would raise TypeError on a
    complex object, drop a complex array's imaginary part, or parse a numeric string.
    """
    array = np.asarray(values)
    kind = array.dtype.kind
    if kind not in "biuf" and not (kind == "O" and all(isinstance(v, Real) for v in array.flat)):
        raise ValueError(f"{what} must be real, got {values!r}")
    return np.asarray(array, dtype=float)


def _check_transparencies(q) -> np.ndarray:
    """The package's one transparency rule: q as a float array if every entry is real in [0, 1].

    NaN fails, and a non-real entry fails before the float conversion (``_real_array``).
    """
    values = _real_array(q, "transparency")
    outside = values[~((values >= 0.0) & (values <= 1.0))]
    if outside.size:
        raise ValueError(f"transparency must lie in [0, 1], got {outside[0]}")
    return values


def _check_transparency(q) -> float:
    """One channel's q as a float: the transparency rule, then a scalar."""
    value = _check_transparencies(q)
    if value.ndim:
        raise ValueError(f"transparency must be real and a scalar, got {q!r}")
    return float(value)


@dataclass(frozen=True)
class DepolarizingChannel:
    """Channel rho -> q*rho + (1-q)*I/d; 1-q is the depolarization strength."""

    q: float
    d: int

    def __post_init__(self):
        object.__setattr__(self, "q", _check_transparency(self.q))
        object.__setattr__(self, "d", _check_dimension(self.d))


def weyl_basis(d: int) -> np.ndarray:
    """Heisenberg-Weyl basis {X(a)Z(b)} as a read-only [d^2, d, d] array, built once per d.

    X(a)|l> = |(l+a) mod d>, Z(b)|l> = omega^(b*l)|l> with omega = exp(2*pi*i/d)
    and no extra global phase. Element i is X(a)Z(b) with (a, b) = (i div d, i mod d),
    so element 0 is X(0)Z(0) = I; tr(U_i^dag U_j) = d delta_ij.
    """
    d = _check_dimension(d)  # checked first: the cache hashes its key
    if d > MAX_BASIS_DIMENSION:
        raise SizeLimitError(f"a basis needs dimension at most {MAX_BASIS_DIMENSION}, got {d}")
    return _weyl_basis(d)


@cache
def _weyl_basis(d: int) -> np.ndarray:
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    xs = [np.linalg.matrix_power(shift, a) for a in range(d)]
    zs = [np.linalg.matrix_power(clock, b) for b in range(d)]
    return _frozen([xa @ zb for xa in xs for zb in zs])


def kraus_set(q: float, d: int) -> np.ndarray:
    """Kraus operators of the depolarizing channel as a read-only [d^2 + 1, d, d] array.

    Element 0 is sqrt(q)*I, absorbing the transparent part of the channel
    directly (this stays finite at q = 1, where a basis-side scaled identity
    would be singular). Elements 1..d^2 are sqrt(1-q)/d times the Weyl
    unitaries of ``weyl_basis(d)``, in its order. The set satisfies sum_i K_i^dag K_i = I.
    """
    q = _check_transparency(q)
    basis = weyl_basis(d)  # every rule on d, before anything is built
    scale = np.sqrt(1.0 - q) / basis.shape[-1]
    return _frozen(np.concatenate([[np.sqrt(q) * basis[0]], scale * basis]))


def _channel_list(channels: Sequence[DepolarizingChannel]) -> tuple[int, int]:
    """The package's one channel-list rule: (n, d) of 1..MAX_ORDER_CHANNELS channels with one d."""
    _check_channel_count(len(channels))
    d = channels[0].d
    if any(ch.d != d for ch in channels):
        raise ValueError("all channels must share one dimension")
    return len(channels), d
