"""Complex dense linear-algebra kernels used by every detector.

All routines operate on ``numpy`` complex matrices, validate their inputs,
and return deterministic results: eigenvectors come back with a fixed phase
convention so repeated runs (and different BLAS backends, in most cases)
produce identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, RankDeficiencyError

# Relative tolerance for "is this matrix Hermitian" checks.
HERMITIAN_RTOL = 1e-10
# Relative singular-value threshold below which a column set is rank deficient.
RANK_RTOL = 1e-12


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D complex128 array."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr.astype(np.complex128, copy=False)


def _as_square_hermitian(k, name: str = "matrix") -> np.ndarray:
    """Validate squareness and Hermitian-ness, then symmetrize.

    Sample covariances accumulate asymmetry at machine precision, so the
    input is tolerated up to ``HERMITIAN_RTOL`` (relative to its Frobenius
    norm) and symmetrized as K <- (K + K^H)/2 before factoring.
    """
    arr = as_complex_matrix(k, name)
    n, m = arr.shape
    if n != m:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    scale = max(1.0, float(np.linalg.norm(arr)))
    asym = float(np.linalg.norm(arr - arr.conj().T))
    if asym > HERMITIAN_RTOL * scale:
        raise ValueError(
            f"{name} is not Hermitian: asymmetry {asym:.3e} exceeds "
            f"{HERMITIAN_RTOL:.0e} * {scale:.3e}"
        )
    return 0.5 * (arr + arr.conj().T)


def _normalize_phases(vectors: np.ndarray) -> np.ndarray:
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


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition with eigenvalues sorted descending.

    ``values[k]`` pairs with column ``vectors[:, k]``; the columns are
    orthonormal and phase-normalized (first nonzero component real positive).
    """

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T


def hermitian_eig(k) -> HermitianEig:
    """Eigendecompose a Hermitian matrix with descending eigenvalue order."""
    arr = _as_square_hermitian(k)
    w, u = np.linalg.eigh(arr)
    order = slice(None, None, -1)
    return HermitianEig(values=np.ascontiguousarray(w[order]),
                        vectors=_normalize_phases(u[:, order]))


def orthonormal_basis(b, name: str = "matrix") -> np.ndarray:
    """Orthonormal basis of the column span of a full-column-rank matrix.

    Raises
    ------
    RankDeficiencyError
        If the smallest singular value is below ``RANK_RTOL`` times the
        largest, i.e. the columns do not have full rank.
    """
    arr = as_complex_matrix(b, name)
    if arr.shape[1] == 0:
        raise DimensionError(f"{name} must have at least one column")
    if arr.shape[0] < arr.shape[1]:
        raise DimensionError(
            f"{name} has more columns ({arr.shape[1]}) than rows ({arr.shape[0]})"
        )
    u, s, _ = np.linalg.svd(arr, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= RANK_RTOL * s[0]:
        raise RankDeficiencyError(
            f"{name} with {arr.shape[1]} columns is rank deficient "
            f"(singular values {s[0]:.3e} .. {s[-1]:.3e})"
        )
    return u


class RayleighExtremes(NamedTuple):
    min_value: float
    max_value: float
    min_vector: np.ndarray
    max_vector: np.ndarray


def rayleigh_extremes(t) -> RayleighExtremes:
    """Extremal Rayleigh-quotient values and the unit vectors achieving them."""
    eig = hermitian_eig(t)
    return RayleighExtremes(
        min_value=float(eig.values[-1]),
        max_value=float(eig.values[0]),
        min_vector=eig.vectors[:, -1],
        max_vector=eig.vectors[:, 0],
    )
