"""Small dense linear-algebra kernels: symmetric eigendecomposition with a
fixed ordering/sign convention, singular-value rank, and the spectral norm.

``SYMMETRY_TOL`` is the largest |S - S^T| entry ``sym_eigen`` accepts. A
singular value, or in ``search._rank`` a normal-matrix eigenvalue, counts
toward rank above ``RANK_TOL`` times the largest; ``matrix_rank`` is the
reference kernel that spectral cut is tested against.

Everything here is a pure function of its inputs. The matrices this package
cares about are at most 73x16, so clarity and reproducibility win over speed.
Each kernel converts and checks its matrix with ``errors._finite_array``
(numeric, non-empty, finite, 2-D).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError, _finite_array

SYMMETRY_TOL = 1e-10
RANK_TOL = 1e-10


class SymEigen(NamedTuple):
    """Eigendecomposition of a real symmetric matrix.

    eigenvalues are sorted descending; column k of ``vectors`` is the unit
    eigenvector paired with ``eigenvalues[k]``. Signs are fixed so that the
    largest-magnitude entry of each column is non-negative, which makes
    reports reproducible run to run.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray


def sym_eigen(matrix) -> SymEigen:
    """Decompose a real symmetric matrix into eigenvalues and eigenvectors.

    Raises ValidationError if the input is not square, not finite or not
    symmetric within ``SYMMETRY_TOL``.
    """
    s = _finite_array(matrix, (None, None), "sym_eigen matrix", float)
    if s.shape[0] != s.shape[1]:
        raise ValidationError(f"sym_eigen needs a square matrix, got shape {s.shape}")
    # halved first, so neither S - S^T nor S + S^T can overflow; halving is
    # exact outside the subnormal range
    h = 0.5 * s
    asym = 2.0 * float(np.max(np.abs(h - h.T)))
    if asym > SYMMETRY_TOL:
        raise ValidationError(
            f"matrix is not symmetric: max |S - S^T| entry is {asym:.3e} "
            f"(tolerance {SYMMETRY_TOL:.1e})"
        )
    w, v = np.linalg.eigh(h + h.T)
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    v[:, pivots < 0] *= -1.0
    return SymEigen(w, v)


def matrix_rank(matrix) -> int:
    """Number of singular values above ``RANK_TOL`` times the largest one."""
    m = _finite_array(matrix, (None, None), "matrix_rank matrix")
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(sv > RANK_TOL * sv[0]))


def spectral_norm(matrix) -> float:
    """Largest singular value of a real or complex matrix."""
    m = _finite_array(matrix, (None, None), "spectral_norm matrix")
    return float(np.linalg.svd(m, compute_uv=False)[0])
