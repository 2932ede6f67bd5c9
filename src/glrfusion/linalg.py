"""Complex dense linear-algebra kernels used by the detectors and the fusion layer.

All routines operate on ``numpy`` complex matrices, validate their inputs,
and return deterministic results: singular vectors come back with a fixed
phase convention so repeated runs (and different BLAS backends, in most
cases) produce identical numbers.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, RankDeficiencyError

# Relative singular-value threshold below which a column set is rank deficient.
RANK_RTOL = 1e-12


def as_complex_matrix(a, name: str = "matrix", finite: bool = True) -> np.ndarray:
    """Validate and return ``a`` as a 2-D complex128 array, checked finite
    unless ``finite`` is false (:func:`require_finite`)."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    if finite:
        require_finite(arr, name)
    return arr.astype(np.complex128, copy=False)


def require_finite(arr: np.ndarray, name: str) -> None:
    """Raise ValueError unless every entry of ``arr`` is finite."""
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")


def as_complex_stack(a, name: str = "matrix") -> np.ndarray:
    """Validate ``a`` as one finite complex matrix or a stack of them (..., rows, cols)."""
    arr = np.asarray(a)
    if arr.ndim <= 2:
        return as_complex_matrix(arr, name)
    # A stack is checked as the one tall matrix of its rows.
    return as_complex_matrix(arr.reshape(-1, arr.shape[-1]), name).reshape(arr.shape)


def energy(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of a matrix, or of each matrix in a stack (..., rows, cols)."""
    flat = x.reshape(*x.shape[:-2], x.shape[-2] * x.shape[-1])
    return np.vecdot(flat, flat).real


def normalize_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significantly-nonzero entry is real positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        mags = np.abs(col)
        peak = mags.max(initial=0.0)
        if peak == 0.0:
            continue
        idx = int(np.argmax(mags > 1e-12 * peak))
        pivot = col[idx]
        if pivot != 0:
            out[:, j] = col * (np.conj(pivot) / abs(pivot))
    return out


def orthonormal_basis(b, name: str = "matrix") -> np.ndarray:
    """Orthonormal basis of the column span of a full-column-rank matrix.

    ``b`` may also be a stack (..., N, J) of matrices: each gets its own basis
    and its own rank gate.

    Raises
    ------
    RankDeficiencyError
        If the smallest singular value is below ``RANK_RTOL`` times the
        largest, i.e. the columns do not have full rank.
    """
    arr = as_complex_stack(b, name)
    n, j = arr.shape[-2:]
    if j == 0:
        raise DimensionError(f"{name} must have at least one column")
    if n < j:
        raise DimensionError(f"{name} has more columns ({j}) than rows ({n})")
    u, s, _ = np.linalg.svd(arr, full_matrices=False)
    require_full_rank(s, name)
    return u


def require_full_rank(s: np.ndarray, name: str) -> None:
    """The rank gate on singular values ``s`` (..., J), each row sorted in decreasing order.

    Raises
    ------
    RankDeficiencyError
        If, for any row, the smallest singular value is below ``RANK_RTOL``
        times the largest, i.e. the columns do not have full rank.
    """
    # Singular values are sorted and non-negative, so a zero matrix fails too.
    # For one matrix s.T[k] is a scalar, so the gate stays a scalar comparison.
    if np.count_nonzero(s.T[-1] <= RANK_RTOL * s.T[0]):
        flat = s.reshape(-1, s.shape[-1])
        worst = flat[np.argmax(flat[:, -1] <= RANK_RTOL * flat[:, 0])]
        raise RankDeficiencyError(
            f"{name} with {s.shape[-1]} columns is rank deficient "
            f"(singular values {worst[0]:.3e} .. {worst[-1]:.3e})"
        )
