"""Least-squares analysis of a read-out design.

The over-determined design system is reduced to normal equations
C x = b with C = A^T A and b = A^T B. Diagonalizing C exposes which
combinations of the 16 parameters the data actually pin down: a combination
whose eigenvalue is large is insensitive to measurement error, while one
with a tiny eigenvalue would amplify it. Reconstruction therefore solves
each determined combination independently and holds every ill-determined
one at a physically motivated prior instead of letting noise pick it.

A public function here checks its own arguments once: each array (design
matrix and rhs, normal rhs, parameters, priors, density matrices) by
``errors._finite_array``, so a NaN or a wrong shape is a ValidationError,
never a NaN result, and each threshold by ``_threshold``. What it builds
from them and hands on, to ``_decomposition`` or to numpy, is not checked again.

Analysis and reconstruction share one decomposition step, ``_decomposition``:
the exact rule ``model._pauli_eigenvalues`` gives C's eigenvalues in the 16
two-spin product operators for every design ``assemble_design`` builds,
``linalg.sym_eigen`` decomposes any other C. The analysis projects b and flags
the combinations below the threshold; ``reconstruct`` holds those at the prior
and solves the rest.

A design's decomposition does not depend on its readings, so ``reconstruct``
takes it, with the design's power-of-two scale exponent, from a bounded memo,
``_design_decomposition``: an ``lru_cache`` of ``MEMO_SIZE`` (8) entries keyed
by the checked design matrix's bytes and row count, never by ids or row
labels, so a matrix that differs by one ulp, or was changed in place, is
decomposed anew. Its eigenvalues and combinations are read-only, and each
call copies what it hands back. Only the ops on the readings run per call,
in the order they always did, so a warm call gives the bytes a cold one does.
This pays where one design is reused across acquisitions, as in a
Monte-Carlo noise study; a stream of fresh read-out sets, or the CLI's one
reconstruction per process, misses and costs one key more.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, _finite_array, _pow2, _real
from .linalg import _symmetric, sym_eigen
from .model import _PAULI_BASIS, N_PARAMS, DesignSystem, _pauli_eigenvalues, maximally_mixed_params

DEFAULT_THRESHOLD = 0.001
MEMO_SIZE = 8  # designs whose decomposition reconstruct keeps


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


def _threshold(value) -> float:
    """The truncation threshold as a float; ValidationError unless it is a real
    number (``errors._real``) with 0 < value < inf."""
    t = _real(value)
    if t is None:
        raise ValidationError(f"threshold must be a real number, got {value!r}")
    if not 0 < t < np.inf:
        raise ValidationError(f"threshold must be positive and finite, got {value}")
    return t


def _decomposition(c: np.ndarray):
    """Descending eigenvalues and combinations (rows) of a checked symmetric ``c``: in the product operators
    by ``model._pauli_eigenvalues``, ties in ``PAULI_LABELS`` order, or, where that returns None, by ``sym_eigen``."""
    w = _pauli_eigenvalues(c)
    if w is not None:
        order = np.argsort(-w, kind="stable")
        return w[order], _PAULI_BASIS.T[order]
    dec = sym_eigen(c)
    return dec.eigenvalues, dec.vectors.T


@functools.lru_cache(maxsize=MEMO_SIZE)
def _design_decomposition(matrix: bytes, rows: int):
    """(e, eigenvalues, combinations) of the checked design matrix A whose bytes are ``matrix``: the e by which
    ``_pow2`` scales A past 2^500, where A^T A could overflow (x is unchanged; eigenvalues and chi^2 scale back
    by 2^2e, to inf past the float range), and the read-only ``_decomposition`` of A^T A / 2^2e."""
    s, e = _pow2(np.frombuffer(matrix).reshape(rows, N_PARAMS), 500)
    w, combos = _decomposition(s.T @ s)
    w.setflags(write=False)
    combos.setflags(write=False)
    return e, w, combos


def normal_system(design: DesignSystem) -> NormalSystem:
    """Form C = A^T A and b = A^T B from a design system; ValidationError if either is past the float range."""
    a, b = _design_arrays(design)
    with np.errstate(over="ignore", invalid="ignore"):
        c, rhs = a.T @ a, a.T @ b
    for name, m in (("A^T A", c), ("A^T B", rhs)):
        if not np.isfinite(m).all():
            raise ValidationError(f"design system: {name} is past the float range")
    return NormalSystem(c, rhs)


def error_matrix_analysis(ns: NormalSystem, threshold: float = DEFAULT_THRESHOLD) -> ErrorMatrixReport:
    """Diagonalize the normal matrix and flag ill-determined combinations."""
    threshold = _threshold(threshold)
    c = _symmetric(ns.matrix)
    rhs = _finite_array(ns.rhs, (len(c),), "normal rhs", float)
    w, combos = _decomposition(c)
    return ErrorMatrixReport(w, combos, combos @ rhs, w < threshold, threshold)


def chi2(design: DesignSystem, params) -> float:
    """Sum of squared residuals of the design equations at ``params``; inf, without a warning, past the float range."""
    a, b = _design_arrays(design)
    x = _finite_array(params, (N_PARAMS,), "parameters", float)
    s, e = _pow2(a, 500)
    with np.errstate(over="ignore"):
        r = s @ x - np.ldexp(b, -e)
        return float(r @ r) * 2.0**e * 2.0**e  # as ``reconstruct`` reports it


def reconstruct(design: DesignSystem, threshold: float = DEFAULT_THRESHOLD, prior=None) -> ReconstructionResult:
    """Solve the design system by diagonalized least squares with truncation.

    Every combination with eigenvalue >= threshold is solved from the data;
    every other combination is held at its value under ``prior`` (default:
    the maximally mixed state). Raises NumericalError when no combination
    at all clears the threshold or the solution is past the float range, and
    ValidationError when A^T B is. A chi^2 past the float range is inf.
    """
    a, b = _design_arrays(design)
    threshold = _threshold(threshold)
    prior = maximally_mixed_params() if prior is None else _finite_array(prior, (N_PARAMS,), "prior", float).copy()
    e, w, combos = _design_decomposition(a.tobytes(), len(a))
    s, t = (np.ldexp(a, -e), np.ldexp(b, -e)) if e else (a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = s.T @ t
        held = (np.ldexp(w, 2 * e) if e else w) < threshold
        n_held = np.count_nonzero(held)
        if n_held == N_PARAMS:
            raise NumericalError(
                f"no parameter combination is determined at threshold {threshold:g}; "
                "the design system carries no usable information"
            )
        solved = np.divide(combos @ rhs, w, out=np.zeros(N_PARAMS), where=~held)
        x = combos.T @ np.where(held, combos @ prior, solved)
        r = s @ x - t
        rr = float(r @ r)
    if not math.isfinite(rr):  # a non-finite A^T B or x makes the residual non-finite too
        if np.count_nonzero(np.isfinite(rhs)) < N_PARAMS:
            raise ValidationError("design system: A^T B is past the float range")
        if np.count_nonzero(np.isfinite(x)) < N_PARAMS:
            raise NumericalError(f"the solution at threshold {threshold:g} is past the float range")
    truncated = tuple((math.ldexp(float(w[k]), 2 * e), combos[k].copy()) for k in np.flatnonzero(held)) if n_held else ()
    return ReconstructionResult(x, rr * 2.0**e * 2.0**e, truncated, prior)


def relative_error(rho_exp, rho_ref, norm: str = "spectral") -> float:
    """Relative distance ||rho_exp - rho_ref|| / ||rho_exp||.

    Note the denominator uses the first argument. The default is the
    spectral (largest-singular-value) norm, both taken by one batched SVD;
    "frobenius" is also accepted. The ratio does not depend on scale, so both
    matrices are first divided by the power of two that brings their largest
    real or imaginary part into [0.5, 1), exact outside the subnormals.
    """
    a = _finite_array(rho_exp, (None, None), "rho_exp", complex)
    b = _finite_array(rho_ref, (None, None), "rho_ref", complex)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected two square matrices of equal shape, got {a.shape} and {b.shape}")
    if norm not in ("spectral", "frobenius"):
        raise ValidationError(f"unknown norm {norm!r}; expected 'spectral' or 'frobenius'")
    pair = _pow2(np.array((a, b)).view(float))[0].view(complex)
    np.subtract(pair[0], pair[1], out=pair[1])  # pair is now (a, a - b)
    if norm == "spectral":
        denom, num = np.linalg.svd(pair, compute_uv=False)[:, 0].tolist()
    else:
        denom, num = float(np.linalg.norm(pair[0])), float(np.linalg.norm(pair[1]))
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
    # first divided, as in relative_error, by the power of two 2^e that brings the largest real or
    # imaginary part into [0.5, 1), so neither m + m^H nor the trace can overflow; scaled back at the end
    s, e = _pow2(np.ascontiguousarray(m).view(float))
    m = s.view(complex)
    h = 0.5 * (m + m.conj().T)
    w, v = np.linalg.eigh(h)
    clipped = np.clip(w, 0.0, None)
    total = float(clipped.sum())
    if total <= 0.0:
        raise NumericalError("matrix has no positive eigenvalue mass to keep")
    target = float(np.trace(h).real)
    if target > 0.0:
        clipped *= target / total
    p = (v * clipped) @ v.conj().T
    np.ldexp(p.view(float), e, out=p.view(float))
    return p
