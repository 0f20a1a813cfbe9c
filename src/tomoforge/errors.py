"""Exception types and the rules shared across the package: ``_finite_array``
for each array argument of a public function, ``_real`` for each real scalar,
``_ascii_text`` for text that holds numbers (records, flags, the environment),
``_pow2`` to scale arrays near the float limit, ``_read_only`` to freeze tables.

The CLI maps these onto exit codes: ValidationError -> 2 (bad input),
NumericalError -> 1 (the computation itself could not proceed).
"""

import math
import numbers

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


def _ascii_text(text: str, where: str = "") -> str:
    """``text`` if it is ASCII without '_' (int() and float() also read 1_0
    and non-ASCII digits); ValidationError, prefixed with ``where``, otherwise."""
    if "_" in text or not text.isascii():
        raise ValidationError(f"{where}expected ASCII text without '_', got {text!r}")
    return text


def _real(value):
    """``value`` as a float, or None unless it is a real number (not a string,
    complex number or array); an integer beyond the float range is +-inf."""
    if not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:
        return np.inf if value > 0 else -np.inf


def _pow2(a: np.ndarray, limit=None):
    """(a / 2^e, e) for a real array ``a``, a new array, exact outside the subnormals. With a ``limit``,
    e is how far the binary exponent of the largest |entry| passes it, 0 below it; without one, e brings
    the largest |entry| into [0.5, 1), scaling up as well as down."""
    e = math.frexp(float(np.abs(a).max()))[1]
    if limit is not None:
        e = max(e - limit, 0)
    return np.ldexp(a, -e), e


def _read_only(*values) -> tuple:
    """``values``, with every array among them, or in a dict, tuple or list among them, made read-only."""
    for v in values:
        for a in v.values() if isinstance(v, dict) else v if isinstance(v, (tuple, list)) else (v,):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
    return values
