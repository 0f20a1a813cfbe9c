"""Exception types shared across the package, and ``_finite_array``, the rule
every public function applies to each array argument.

The CLI maps these onto exit codes: ValidationError -> 2 (bad input),
NumericalError -> 1 (the computation itself could not proceed).
"""

import numpy as np


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class NumericalError(RuntimeError):
    """A numerically degenerate situation prevents a result."""


def _finite_array(value, shape: tuple, what: str, dtype=None) -> np.ndarray:
    """``np.asarray(value, dtype)``; ValidationError unless ``value`` is numeric
    (not strings, bytes or objects; not complex if ``dtype`` is real) and the
    result non-empty, finite and of ``shape``, in which ``None`` matches any
    length."""
    a = None
    try:
        a = np.asarray(value)
        kind = a.dtype.kind
        if kind not in "biufc" or (kind == "c" and np.dtype(dtype or complex).kind != "c"):
            raise TypeError  # strings, bytes, objects; complex where real is expected
        a = np.asarray(a, dtype=dtype)
        finite = np.count_nonzero(np.isfinite(a)) == a.size
    except (TypeError, ValueError):  # also ragged lists
        got = type(value).__name__ if a is None else f"{type(value).__name__} of {a.dtype}"
        raise ValidationError(f"{what} must be a numeric array, got {got}") from None
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

