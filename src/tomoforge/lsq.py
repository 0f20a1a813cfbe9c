"""Least-squares analysis of a read-out design.

The over-determined design system is reduced to normal equations
C x = b with C = A^T A and b = A^T B. Diagonalizing C exposes which
combinations of the 16 parameters the data actually pin down: a combination
whose eigenvalue is large is insensitive to measurement error, while one
with a tiny eigenvalue would amplify it. Reconstruction therefore solves
each determined combination independently and holds every ill-determined
one at a physically motivated prior instead of letting noise pick it.

Every array a function here is given (the design matrix and rhs, the
normal rhs, parameters, priors, density matrices) is converted and checked
once by ``errors._finite_array``, so a NaN or a wrong shape is a
ValidationError, never a NaN result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, _finite_array
from .linalg import spectral_norm, sym_eigen
from .model import N_PARAMS, DesignSystem, maximally_mixed_params

DEFAULT_THRESHOLD = 0.001


@dataclass(frozen=True)
class NormalSystem:
    """The normal equations  matrix . x = rhs  of a design system."""

    matrix: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class ErrorMatrixReport:
    """Conditioning report of a normal system.

    Row k of ``combinations`` is the unit coefficient vector of one
    parameter combination, paired with ``eigenvalues[k]`` (descending) and
    with ``projected_rhs[k]`` (the data rotated into that basis). A
    combination is flagged ill-determined when its eigenvalue falls below
    the threshold.
    """

    eigenvalues: np.ndarray
    combinations: np.ndarray
    projected_rhs: np.ndarray
    ill_determined: np.ndarray
    threshold: float


@dataclass(frozen=True)
class ReconstructionResult:
    params: np.ndarray
    chi2: float
    truncated_directions: tuple
    prior_used: np.ndarray


def _design_arrays(design: DesignSystem):
    """The design matrix A and rhs B, checked."""
    a = _finite_array(design.matrix, (None, N_PARAMS), "design matrix", float)
    return a, _finite_array(design.rhs, (len(a),), "design rhs", float)


def normal_system(design: DesignSystem) -> NormalSystem:
    """Form C = A^T A and b = A^T B from a design system."""
    a, b = _design_arrays(design)
    return NormalSystem(a.T @ a, a.T @ b)


def error_matrix_analysis(ns: NormalSystem, threshold: float = DEFAULT_THRESHOLD) -> ErrorMatrixReport:
    """Diagonalize the normal matrix and flag ill-determined combinations."""
    if not 0 < threshold < np.inf:
        raise ValidationError(f"threshold must be positive and finite, got {threshold}")
    dec = sym_eigen(ns.matrix)
    combos = dec.vectors.T
    return ErrorMatrixReport(
        eigenvalues=dec.eigenvalues,
        combinations=combos,
        projected_rhs=combos @ _finite_array(ns.rhs, (len(combos),), "normal rhs", float),
        ill_determined=dec.eigenvalues < threshold,
        threshold=float(threshold),
    )


def chi2(design: DesignSystem, params) -> float:
    """Sum of squared residuals of the design equations at ``params``."""
    a, b = _design_arrays(design)
    r = a @ _finite_array(params, (N_PARAMS,), "parameters", float) - b
    return float(r @ r)


def reconstruct(design: DesignSystem, threshold: float = DEFAULT_THRESHOLD, prior=None) -> ReconstructionResult:
    """Solve the design system by diagonalized least squares with truncation.

    Every combination with eigenvalue >= threshold is solved from the data;
    every other combination is held at its value under ``prior`` (default:
    the maximally mixed state). Raises NumericalError when no combination
    at all clears the threshold.
    """
    prior = maximally_mixed_params() if prior is None else _finite_array(prior, (N_PARAMS,), "prior", float)
    report = error_matrix_analysis(normal_system(design), threshold)
    kept = ~report.ill_determined
    if not kept.any():
        raise NumericalError(
            f"no parameter combination is determined at threshold {threshold:g}; "
            "the design system carries no usable information"
        )
    solved = np.divide(report.projected_rhs, report.eigenvalues, out=np.zeros(16), where=kept)
    held = report.combinations @ prior
    y = np.where(kept, solved, held)
    x = report.combinations.T @ y
    truncated = tuple(
        (float(report.eigenvalues[k]), report.combinations[k].copy())
        for k in np.flatnonzero(report.ill_determined)
    )
    return ReconstructionResult(x, chi2(design, x), truncated, prior)


def relative_error(rho_exp, rho_ref, norm: str = "spectral") -> float:
    """Relative distance ||rho_exp - rho_ref|| / ||rho_exp||.

    Note the denominator uses the first argument. The default is the
    spectral (largest-singular-value) norm; "frobenius" is also accepted.
    """
    a = _finite_array(rho_exp, (None, None), "rho_exp", complex)
    b = _finite_array(rho_ref, (None, None), "rho_ref", complex)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected two square matrices of equal shape, got {a.shape} and {b.shape}")
    if norm == "spectral":
        denom = spectral_norm(a)
        num = spectral_norm(a - b)
    elif norm == "frobenius":
        denom = float(np.linalg.norm(a))
        num = float(np.linalg.norm(a - b))
    else:
        raise ValidationError(f"unknown norm {norm!r}; expected 'spectral' or 'frobenius'")
    if denom == 0.0:
        raise ValidationError("relative_error is undefined for a zero first argument")
    return num / denom


def psd_project(matrix) -> np.ndarray:
    """Clip negative eigenvalues of a Hermitian matrix, preserving its trace.

    Optional cosmetic post-step for reconstructed states; reconstruction
    itself never applies it.
    """
    m = _finite_array(matrix, (None, None), "psd_project matrix", complex)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"psd_project needs a square matrix, got shape {m.shape}")
    h = 0.5 * (m + m.conj().T)
    w, v = np.linalg.eigh(h)
    clipped = np.clip(w, 0.0, None)
    total = float(clipped.sum())
    if total <= 0.0:
        raise NumericalError("matrix has no positive eigenvalue mass to keep")
    target = float(np.trace(h).real)
    if target > 0.0:
        clipped *= target / total
    return (v * clipped) @ v.conj().T
