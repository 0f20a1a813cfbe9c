"""Small dense linear-algebra kernels: symmetric eigendecomposition with a
fixed ordering/sign convention, singular-value rank, and the spectral norm.

The package decides rank from normal-matrix spectra (``search._rank``);
``matrix_rank`` is the reference kernel that cut is tested against.

Everything here is a pure function of its inputs. The matrices this package
cares about are at most 73x16, so clarity and reproducibility win over speed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError

SYMMETRY_TOL = 1e-10
DEFAULT_RANK_TOL = 1e-10


class SymEigen(NamedTuple):
    """Eigendecomposition of a real symmetric matrix.

    eigenvalues are sorted descending; column k of ``vectors`` is the unit
    eigenvector paired with ``eigenvalues[k]``. Signs are fixed so that the
    largest-magnitude entry of each column is non-negative, which makes
    reports reproducible run to run.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray


def sym_eigen(matrix, symmetry_tol: float = SYMMETRY_TOL) -> SymEigen:
    """Decompose a real symmetric matrix into eigenvalues and eigenvectors.

    Raises ValidationError if the input is not square, not finite or not
    symmetric within ``symmetry_tol``, or if the tolerance is not finite.
    """
    if not 0 <= symmetry_tol < np.inf:
        raise ValidationError(f"symmetry tolerance must be finite and >= 0, got {symmetry_tol}")
    s = np.asarray(matrix, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValidationError(f"sym_eigen needs a square matrix, got shape {s.shape}")
    if s.size == 0:
        raise ValidationError("sym_eigen needs a non-empty matrix")
    if not np.isfinite(s).all():
        raise ValidationError("sym_eigen needs a finite matrix")
    asym = float(np.max(np.abs(s - s.T)))
    if asym > symmetry_tol:
        raise ValidationError(
            f"matrix is not symmetric: max |S - S^T| entry is {asym:.3e} "
            f"(tolerance {symmetry_tol:.1e})"
        )
    w, v = np.linalg.eigh(0.5 * (s + s.T))
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    v[:, pivots < 0] *= -1.0
    return SymEigen(w, v)


def matrix_rank(matrix, tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above ``tol`` times the largest one."""
    if not 0 < tol < np.inf:
        raise ValidationError(f"rank tolerance must be positive and finite, got {tol}")
    m = np.asarray(matrix)
    if m.ndim != 2 or m.size == 0:
        raise ValidationError(f"matrix_rank needs a non-empty 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix_rank needs a finite matrix")
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(sv > tol * sv[0]))


def spectral_norm(matrix) -> float:
    """Largest singular value of a real or complex matrix."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.size == 0:
        raise ValidationError(f"spectral_norm needs a non-empty 2-D matrix, got shape {m.shape}")
    return float(np.linalg.svd(m, compute_uv=False)[0])
