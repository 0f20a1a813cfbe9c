"""Exception types shared across the package, and the two rules every public
function applies to its inputs: ``_finite_array`` to each array argument and
``_tolerance`` to each tolerance or noise level.

The CLI maps these onto exit codes: ValidationError -> 2 (bad input),
NumericalError -> 1 (the computation itself could not proceed).
"""

import numpy as np


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class NumericalError(RuntimeError):
    """A numerically degenerate situation prevents a result."""


def _finite_array(value, shape: tuple, what: str, dtype=None) -> np.ndarray:
    """``np.asarray(value, dtype)``; ValidationError unless that is numeric,
    non-empty, finite and of ``shape``, in which ``None`` matches any length."""
    try:
        a = np.asarray(value, dtype=dtype)
        finite = np.count_nonzero(np.isfinite(a)) == a.size
    except (TypeError, ValueError):  # strings, ragged lists, arbitrary objects
        raise ValidationError(f"{what} must be a numeric array, got {type(value).__name__}") from None
    if a.shape != shape:  # a wildcard in ``shape``, or a wrong shape
        fits = a.ndim == len(shape) and a.size > 0
        for n, m in zip(shape, a.shape):
            fits = fits and n in (None, m)
        if not fits:
            spec = "x".join("*" if n is None else str(n) for n in shape)
            raise ValidationError(f"{what} must be a non-empty array of shape {spec}, got shape {a.shape}")
    if not finite:
        raise ValidationError(f"{what} has non-finite entries")
    return a


def _tolerance(value, what: str) -> None:
    """ValidationError unless ``0 <= value < inf`` (so NaN, infinities,
    negatives and non-numbers are rejected)."""
    try:
        if 0 <= value < np.inf:
            return
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"{what} must be finite and >= 0, got {value}")
