"""Small dense linear-algebra kernels: symmetric eigendecomposition with a
fixed ordering/sign convention, and singular-value rank.

``SYMMETRY_TOL`` is the largest |S - S^T| entry ``sym_eigen`` accepts. A
singular value counts toward ``matrix_rank`` above ``RANK_TOL`` times the
largest. Built designs are decomposed exactly in the product-operator
basis instead, tested against these kernels; ``sym_eigen`` takes the rest.

Everything here is a pure function of its inputs. Each kernel checks its
own matrix once, with ``errors._finite_array`` (numeric, non-empty, finite,
2-D). The library does not pass arrays it has already checked back through
them.
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


def _symmetric(matrix, what: str = "sym_eigen matrix", caller: str = "sym_eigen") -> np.ndarray:
    """``matrix`` as a float array, checked as ``sym_eigen`` documents; errors call it ``what`` and name ``caller``."""
    s = _finite_array(matrix, (None, None), what, float)
    if s.shape[0] != s.shape[1]:
        raise ValidationError(f"{caller} needs a square matrix, got shape {s.shape}")
    # halved first, so S - S^T cannot overflow; exact outside the subnormals
    h = 0.5 * s
    asym = 2.0 * float(np.max(np.abs(h - h.T)))
    if asym > SYMMETRY_TOL:
        raise ValidationError(
            f"matrix is not symmetric: max |S - S^T| entry is {asym:.3e} "
            f"(tolerance {SYMMETRY_TOL:.1e})"
        )
    return s


def sym_eigen(matrix) -> SymEigen:
    """Decompose a real symmetric matrix into eigenvalues and eigenvectors.

    Raises ValidationError if the input is not square, not finite or not
    symmetric within ``SYMMETRY_TOL``.
    """
    h = 0.5 * _symmetric(matrix)  # halved, so S + S^T cannot overflow
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
