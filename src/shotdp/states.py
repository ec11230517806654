"""States, projective effects, and noise channels on a finite-dimensional system.

Core objects are plain immutable containers around validated numpy arrays:

    rho   = make_density([[0.75, 0], [0, 0.25]])
    M     = make_projector(basis_columns(2, [0]))
    sigma = neighbor_state(rho, 0.1)            # trace distance 0.1 from rho
    noisy = apply_channel(depolarizing_channel(0.5, 2), rho)

Trace distance is the metric throughout; `expectation` gives the outcome
probability Tr(rho M) of one projective effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AnchorCoincidesError,
    ColumnsNotOrthonormalError,
    DimMismatchError,
    DistanceTooLargeError,
    NotHermitianError,
    NotPSDError,
    OutOfRangeError,
    TraceNotOneError,
    check_count,
    check_distance,
    check_index,
    check_noise,
)

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
ORTHONORMAL_TOL = 1e-10
PROJECTOR_EIG_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density matrix: Hermitian, positive semidefinite, unit trace."""

    entries: np.ndarray
    dim: int


@dataclass(frozen=True, eq=False)
class Projector:
    """Validated orthogonal projector with known rank.

    Rank 0 (zero operator) and rank `dim` (identity) are legal but carry no
    measurement information.
    """

    entries: np.ndarray
    dim: int
    rank: int


@dataclass(frozen=True)
class Channel:
    """Depolarizing channel of strength p in [0, 1]; p = 0 is the identity."""

    p: float
    dim: int


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    # Every comparison with nan is false, so a tolerance check alone would pass it.
    if not np.isfinite(a).all():
        raise OutOfRangeError(f"OutOfRange: {name} entries must be finite")
    return a


def _square_complex(entries, name: str) -> np.ndarray:
    a = _finite(np.array(entries, dtype=complex), name)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimMismatchError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def make_density(entries) -> DensityMatrix:
    """Validate `entries` as a density matrix.

    Parameters
    ----------
    entries : array_like
        Square complex matrix.

    Returns
    -------
    DensityMatrix

    Raises
    ------
    OutOfRangeError
        If an entry is not finite.
    NotHermitianError
        If the matrix differs from its conjugate transpose beyond 1e-10.
    NotPSDError
        If any eigenvalue is below -1e-10; the message reports the most
        negative one.
    TraceNotOneError
        If the trace differs from 1 beyond 1e-10.
    """
    a = _square_complex(entries, "density matrix")
    dev = np.max(np.abs(a - a.conj().T))
    if dev > HERMITIAN_TOL:
        raise NotHermitianError(f"NotHermitian: max |A - A^dag| = {dev:.3e} exceeds {HERMITIAN_TOL}")
    eigs = np.linalg.eigvalsh(a)
    if eigs[0] < -PSD_TOL:
        raise NotPSDError(f"NotPSD: most negative eigenvalue {eigs[0]:.6e}")
    tr = a.trace().real
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOneError(f"TraceNotOne: trace = {float(tr)!r}")
    return DensityMatrix(entries=_freeze(a), dim=a.shape[0])


def maximally_mixed(dim: int) -> DensityMatrix:
    """Identity over `dim`: the state with no information in any basis."""
    dim = check_count(dim, "dimension D")
    return make_density(np.eye(dim) / dim)


def basis_state(dim: int, index: int = 0) -> DensityMatrix:
    """Pure state concentrated on one computational-basis vector."""
    column = basis_columns(dim, [index])
    return make_density(column @ column.T)


def basis_columns(dim: int, indices) -> np.ndarray:
    """Orthonormal column block selecting the given basis vectors."""
    dim = check_count(dim, "dimension D")
    rows = [check_index(k, dim, "basis index") for k in indices]
    cols = np.zeros((dim, len(rows)), dtype=complex)
    cols[rows, range(len(rows))] = 1.0
    return cols


def make_projector(columns) -> Projector:
    """Build the projector onto the span of orthonormal columns.

    Parameters
    ----------
    columns : array_like
        Complex matrix of shape (dim, rank) whose columns are orthonormal.
        A (dim, 0) block yields the zero projector.

    Raises
    ------
    OutOfRangeError
        If an entry is not finite.
    ColumnsNotOrthonormalError
        If the Gram matrix of the columns differs from the identity
        beyond 1e-10.
    """
    v = _finite(np.array(columns, dtype=complex), "column")
    if v.ndim != 2 or v.shape[0] < 1:
        raise DimMismatchError(f"columns must be a (dim, rank) matrix, got shape {v.shape}")
    dim, rank = v.shape
    if rank > dim:
        raise ColumnsNotOrthonormalError(f"ColumnsNotOrthonormal: {rank} columns cannot be orthonormal in dimension {dim}")
    gram_dev = np.max(np.abs(v.conj().T @ v - np.eye(rank))) if rank else 0.0
    if gram_dev > ORTHONORMAL_TOL:
        raise ColumnsNotOrthonormalError(f"ColumnsNotOrthonormal: max |V^dag V - I| = {gram_dev:.3e}")
    m = v @ v.conj().T
    # Sanity net behind the constructor: spectrum on {0, 1}, trace = rank.
    eigs = np.linalg.eigvalsh(m)
    if np.max(np.abs(eigs - np.round(eigs))) > PROJECTOR_EIG_TOL:
        raise ColumnsNotOrthonormalError("ColumnsNotOrthonormal: spectrum not within 1e-8 of {0, 1}")
    trace_rank = round(float(m.trace().real))
    eig_rank = int(np.count_nonzero(eigs > 0.5))
    if abs(m.trace().real - trace_rank) > PROJECTOR_EIG_TOL or trace_rank != eig_rank or trace_rank != rank:
        raise ColumnsNotOrthonormalError(
            f"ColumnsNotOrthonormal: trace {float(m.trace().real)!r} inconsistent with eigenvalue count {eig_rank}"
        )
    return Projector(entries=_freeze(m), dim=dim, rank=trace_rank)


def complement_projector(m: Projector) -> Projector:
    """Projector onto the orthogonal complement, so the pair sums to identity."""
    eigs, vecs = np.linalg.eigh(m.entries)
    return make_projector(vecs[:, eigs < 0.5])


def identity_channel(dim: int) -> Channel:
    """The identity map on dimension `dim`: the depolarizing channel at p = 0."""
    dim = check_count(dim, "dimension D")
    return Channel(p=0.0, dim=dim)


def depolarizing_channel(p: float, dim: int) -> Channel:
    """Channel that keeps the state with weight 1-p and mixes in identity/dim.

    `p` must lie in [0, 1]; p = 0 is the identity map.
    """
    dim = check_count(dim, "dimension D")
    check_noise(p, allow_zero=True)
    return Channel(p=float(p), dim=dim)


def apply_channel(ch: Channel, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel; at p = 0 it returns its input unchanged."""
    if ch.dim != rho.dim:
        raise DimMismatchError(f"DimMismatch: channel dim {ch.dim} != state dim {rho.dim}")
    if ch.p == 0.0:
        return rho
    mixed = (1.0 - ch.p) * rho.entries + (ch.p / ch.dim) * np.eye(ch.dim)
    return make_density(mixed)


def _canonical_difference(rho: DensityMatrix, sigma: DensityMatrix) -> np.ndarray:
    """Difference with a sign fixed by its first nonzero entry.

    Swapping the arguments negates the difference; canonicalizing the sign
    hands the eigensolver bit-identical input either way, which makes
    trace_distance symmetric exactly rather than to roundoff.
    """
    delta = rho.entries - sigma.entries
    for z in delta.flat:
        if z != 0:
            if z.real < 0 or (z.real == 0 and z.imag < 0):
                return -delta
            return delta
    return delta


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of rho - sigma. In [0, 1]."""
    if rho.dim != sigma.dim:
        raise DimMismatchError(f"DimMismatch: {rho.dim} != {sigma.dim}")
    delta = _canonical_difference(rho, sigma)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(delta))))


def expectation(rho: DensityMatrix, m: Projector) -> float:
    """Outcome probability Tr(rho M), clamped into [0, 1] against roundoff."""
    if rho.dim != m.dim:
        raise DimMismatchError(f"DimMismatch: {rho.dim} != {m.dim}")
    val = float(np.trace(rho.entries @ m.entries).real)
    if -1e-10 <= val < 0.0:
        return 0.0
    if 1.0 < val <= 1.0 + 1e-10:
        return 1.0
    return val


def neighbor_state(rho: DensityMatrix, d: float, anchor: DensityMatrix | None = None) -> DensityMatrix:
    """Construct a state at trace distance exactly `d` from `rho`.

    Mixes `rho` toward `anchor` (maximally mixed state when omitted); the
    mixture is affine, so the requested distance is hit exactly rather than
    searched for.

    Raises
    ------
    AnchorCoincidesError
        If `anchor` is within 1e-12 of `rho`, leaving no direction to move.
    DistanceTooLargeError
        If `d` exceeds the distance from `rho` to `anchor`.
    """
    if anchor is None:
        anchor = maximally_mixed(rho.dim)
    if rho.dim != anchor.dim:
        raise DimMismatchError(f"DimMismatch: {rho.dim} != {anchor.dim}")
    check_distance(d)
    reach = trace_distance(rho, anchor)
    if reach <= 1e-12:
        raise AnchorCoincidesError("AnchorCoincides: anchor is indistinguishable from the state")
    if d > reach * (1.0 + 1e-12):
        raise DistanceTooLargeError(f"DistanceTooLarge: requested {d}, anchor direction reaches only {reach:.12g}")
    lam = min(d / reach, 1.0)
    return make_density((1.0 - lam) * rho.entries + lam * anchor.entries)
