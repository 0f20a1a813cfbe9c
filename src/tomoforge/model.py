"""Forward model for 2-qubit NMR state tomography read-outs.

A 4x4 two-spin density matrix is parameterized by 16 real numbers
x1..x16: four diagonal populations (x1, x5, x8, x10), six real parts of the
upper-triangle coherences (x2, x3, x4, x6, x7, x9) and their six imaginary
parts (x11..x16). A read-out applies one of nine pre-acquisition rotations
(II, IX, IY, XI, XX, XY, YI, YX, YY; I = identity, X/Y = 90-degree rotation
about x/y on that spin) and then records the spectrum of one spin. Each
spectrum integrates to two complex peak areas, which equal two fixed
off-diagonal elements of the rotated matrix:

* proton (H) acquisition reads elements (1,3) (left peak) and (2,4) (right),
* phosphorus (P) acquisition reads elements (1,2) (left) and (3,4) (right).

Read-outs are numbered 1..18: ids 1-9 are the nine rotations with H
acquisition in the order above, ids 10-18 the same rotations with P
acquisition. Every peak yields a real and an imaginary equation that are
linear in x, so a read-out contributes four rows to the design system; an
optional trace row (x1 + x5 + x8 + x10 = 1) fixes normalization.

Every table here is computed once, at import, and then made read-only, arrays in
a dict or tuple too, by one ``errors._read_only`` call after the last of them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import NumericalError, ValidationError, _finite_array, _pow2, _read_only, _real

ROTATION_LABELS = ("II", "IX", "IY", "XI", "XX", "XY", "YI", "YX", "YY")
N_READOUTS = 18
N_PARAMS = 16
PEAKS = ("left", "right")
TRACE_LABEL = "trace"
HERMITICITY_TOL = 1e-9  # largest |m - m^H| entry of any density matrix read, written or converted
TRACE_TOL = 1e-9  # largest |trace - 1| simulate_readings accepts

# x1..x10 are the upper triangle (diagonal included) in row-major order,
# x11..x16 the imaginary parts of the strict upper triangle.
_UPPER = np.triu_indices(4)
_STRICT = np.triu_indices(4, 1)
_OFF = _UPPER[0] != _UPPER[1]  # which of x1..x10 are real parts of coherences
# 0-based parameter slots of the four diagonal entries (x1, x5, x8, x10).
DIAGONAL_SLOTS = tuple(int(k) for k in np.flatnonzero(~_OFF))
# Flat indices into a 4x4 matrix of the upper triangle, the strict upper triangle and its mirror,
# the parameter slots of the coherences' real parts, and where x1..x16 sit among the 32 floats of
# a flattened complex 4x4 (real part of entry k at 2k, imaginary part at 2k + 1).
_UPPER_FLAT = np.ravel_multi_index(_UPPER, (4, 4))
_STRICT_FLAT = np.ravel_multi_index(_STRICT, (4, 4))
_LOWER_FLAT = np.ravel_multi_index(_STRICT[::-1], (4, 4))
_RE_SLOTS = np.flatnonzero(_OFF)
_PARAM_FLOATS = np.concatenate([2 * _UPPER_FLAT, 2 * _STRICT_FLAT + 1])
_TRACE_ROW = np.isin(np.arange(N_PARAMS), DIAGONAL_SLOTS).astype(float)

_SQ2 = np.sqrt(2.0)
# 90-degree rotations about x and y for a single spin, |1> = spin up.
_HALF_TURN_X = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / _SQ2
_HALF_TURN_Y = np.array([[1.0, 1.0], [-1.0, 1.0]]) / _SQ2
_SINGLE_SPIN = {"I": np.eye(2, dtype=complex), "X": _HALF_TURN_X, "Y": _HALF_TURN_Y}
_ROTATIONS = {label: np.kron(_SINGLE_SPIN[label[0]], _SINGLE_SPIN[label[1]]) for label in ROTATION_LABELS}


def rotation_matrix(label: str) -> np.ndarray:
    """The 4x4 unitary applied before acquisition for one rotation label."""
    if label not in ROTATION_LABELS:
        raise ValidationError(f"unknown rotation label {label!r}; expected one of {ROTATION_LABELS}")
    return _ROTATIONS[label]


def _require_int_in_range(value, what: str = "read-out id", lo=1, hi=N_READOUTS) -> int:
    """``value`` as an int if it equals an integer in lo..hi (``hi`` None is no
    upper bound); anything else (NaN, None, strings, arrays) raises ValidationError."""
    try:
        k = int(value)
        if k == value and lo <= k and (hi is None or k <= hi):
            return k
    except (TypeError, ValueError, OverflowError):
        pass
    span = f" >= {lo}" if hi is None else f" in {lo}..{hi}"
    raise ValidationError(f"{what} out of range: expected an integer{span}, got {value!r}")


def readout_label(readout: int) -> str:
    """Rotation label of a read-out id (1-9 and 10-18 share the same cycle)."""
    return ROTATION_LABELS[(_require_int_in_range(readout) - 1) % 9]


def readout_spin(readout: int) -> str:
    """Which spin is acquired: 'H' for ids 1-9, 'P' for ids 10-18."""
    return "H" if _require_int_in_range(readout) <= 9 else "P"


def observable_positions(readout: int) -> tuple:
    """The two observed element positions of the rotated matrix, 1-based.

    Returns ((row, col) of the left peak, (row, col) of the right peak).
    """
    if readout_spin(readout) == "H":
        return ((1, 3), (2, 4))
    return ((1, 2), (3, 4))


def params_to_matrix(params) -> np.ndarray:
    """Assemble the 4x4 Hermitian matrix from its 16 real parameters."""
    x = _finite_array(params, (N_PARAMS,), "parameters", float)
    # the lower triangle is written as re - i*im, not by conj, which would
    # turn a +0.0 imaginary part into -0.0
    re, j = x[_RE_SLOTS], 1j * x[10:]
    m = np.zeros(16, dtype=complex)
    m[_UPPER_FLAT] = x[:10]
    m[_STRICT_FLAT] = re + j
    m[_LOWER_FLAT] = re - j
    return m.reshape(4, 4)


def _require_hermitian(m: np.ndarray) -> None:
    """ValidationError naming the worst element pair unless every entry of
    |m - m^H| is at most ``HERMITICITY_TOL``.

    Quartered first (exact outside the subnormals): a defect past the float range is inf, without a warning."""
    q = 0.25 * m
    dev = np.abs(q - q.conj().T)
    k = int(dev.argmax())
    worst = 4 * float(dev.ravel()[k])
    if worst > HERMITICITY_TOL:
        i, j = np.unravel_index(k, dev.shape)
        raise ValidationError(
            f"matrix is not Hermitian: elements ({i + 1},{j + 1}) and ({j + 1},{i + 1}) "
            f"differ by {worst:.3e} (tolerance {HERMITICITY_TOL:.1e})"
        )


def matrix_to_params(matrix) -> np.ndarray:
    """Read the 16 real parameters off a Hermitian 4x4 matrix.

    Exact inverse of params_to_matrix except that a -0.0 coherence part (x2,
    x3, x4, x6, x7, x9, x11..x16) can come back as +0.0. The upper triangle and
    the diagonal are copied verbatim and the lower one is discarded, so input
    whose Hermiticity defect exceeds ``HERMITICITY_TOL`` is rejected (worst pair named).
    """
    m = _finite_array(matrix, (4, 4), "matrix", complex)
    _require_hermitian(m)
    return m.ravel().view(float)[_PARAM_FLOATS]


_BASIS = np.array([params_to_matrix(e) for e in np.eye(N_PARAMS)])


def maximally_mixed_params() -> np.ndarray:
    """Parameters of the maximally mixed state (identity / 4)."""
    return 0.25 * _TRACE_ROW


def _trace(x: np.ndarray) -> float:
    a, b, c, d = x[list(DIAGONAL_SLOTS)].tolist()  # numpy's order, but inf on overflow without a warning
    return a + b + c + d


def _build_rows():
    """The 18x4x16 forward model and its row labels. Block rid-1 holds the
    equations of read-out rid (left re/im, right re/im), produced by
    conjugating each parameter basis matrix."""
    rows = np.empty((N_READOUTS, 4, N_PARAMS))
    labels = []
    for rid in range(1, N_READOUTS + 1):
        r = rotation_matrix(readout_label(rid))
        rotated = np.einsum("ij,mjk,lk->mil", r, _BASIS, r.conj())
        for k, (i, j) in enumerate(observable_positions(rid)):
            rows[rid - 1, 2 * k] = rotated[:, i - 1, j - 1].real
            rows[rid - 1, 2 * k + 1] = rotated[:, i - 1, j - 1].imag
        labels.append(tuple((rid, p, part) for p in PEAKS for part in ("re", "im")))
    # Each rotation is K / sqrt(2)^n with Gaussian-integer K and n <= 2, and each
    # basis matrix has entries in {0, +-1, +-i}, so every coefficient of
    # R B R^H is an exact multiple of 1/4: rounding removes the float dust.
    return np.round(4 * rows) / 4, tuple(labels)


_ROWS, _ROW_LABELS = _build_rows()

# The 16 two-spin product operators sigma_a (x) sigma_b, the first letter the
# H spin: populations, then H-spin, P-spin and two-spin coherences.
PAULI_LABELS = tuple("II ZI IZ ZZ XI YI XZ YZ IX IY ZX ZY XX XY YX YY".split())
_PAULI = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]), "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}
# Column P of the orthonormal U holds the coefficients of the functional
# x -> Tr(sigma_P rho(x)) over the _BASIS matrices, divided by their length
# (2 for II, ZI, IZ and ZZ, 2 sqrt(2) for the rest).
_FUNCTIONALS = np.array(
    [np.einsum("ij,mji->m", np.kron(_PAULI[a], _PAULI[b]), _BASIS).real for a, b in PAULI_LABELS]
).T
_FRAME_NORMS = (_FUNCTIONALS**2).sum(axis=0)  # the squared lengths, 4 or 8
_PAULI_BASIS = _FUNCTIONALS / np.sqrt(_FRAME_NORMS)


def _pauli_eigenvalues(c: np.ndarray):
    """Eigenvalues of a symmetric ``c`` in ``PAULI_LABELS`` order, diag(G) over F's squared lengths, if
    G = F^T c F (F the integer functionals) has exact zeros off the diagonal; else None. Each column of F
    sums to 4 in absolute value, so a c past 2^1020, where G could overflow, is first scaled down (``_pow2``)."""
    if c.shape != (N_PARAMS, N_PARAMS):
        return None
    s, e = _pow2(c, 1020)
    g = _FUNCTIONALS.T @ s @ _FUNCTIONALS
    w = g.diagonal() / _FRAME_NORMS
    if np.count_nonzero(g) != np.count_nonzero(w) or not math.ldexp(float(np.abs(w).max()), e - 1024) < 1:
        return None  # not diagonal, or an eigenvalue past the float range once scaled back
    return np.ldexp(w, e)


# A 90-degree pulse maps each product operator onto another, so a read-out observes four of
# them and U diagonalises its Gram block A_r^T A_r, and the trace row's: row r-1 of _PAULI_WEIGHTS
# is the rule on A_r^T A_r, four entries of 1/2 or 1, and _TRACE_WEIGHTS is 4 on II. A set's normal
# matrix is U diag(w) U^T, w the sum of its rows and the trace weights: exact sums of halves.
*_PAULI_WEIGHTS, _TRACE_WEIGHTS = (_pauli_eigenvalues(r.T @ r) for r in (*_ROWS, _TRACE_ROW[None]))
if any(w is None for w in (*_PAULI_WEIGHTS, _TRACE_WEIGHTS)):
    raise NumericalError("a read-out's Gram block is not diagonal in the product-operator basis")
_PAULI_WEIGHTS = np.array(_PAULI_WEIGHTS)
_read_only(*globals().values())  # every table above: read-only from here on


def readout_rows(readout: int):
    """Coefficient rows of one read-out.

    Returns (rows, labels): a 4x16 array whose rows are the real-part and
    imaginary-part equations of the left then right peak, and a tuple of
    matching (id, peak, 're'|'im') labels.
    """
    rid = _require_int_in_range(readout)
    return _ROWS[rid - 1].copy(), _ROW_LABELS[rid - 1]


@dataclass(frozen=True)
class Reading:
    """One measured peak: the complex integrated area of a spectral peak."""

    readout: int
    peak: str
    value: complex


@dataclass(frozen=True, eq=False)
class DesignSystem:
    """The stacked real linear system  matrix . x = rhs.

    Rows follow ascending read-out id, left peak before right, real part
    before imaginary part; the trace row, when present, comes last. Each row
    label is (readout, peak, 're'|'im') or the string 'trace'.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    row_labels: tuple

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]


def _iterate(value, what: str):
    """``iter(value)``; ValidationError naming ``value`` if it is not iterable."""
    try:
        return iter(value)
    except TypeError:
        raise ValidationError(f"{what} must be iterable, got {value!r}") from None


def _validated_ids(readouts: Iterable) -> list:
    ids = [_require_int_in_range(r) for r in _iterate(readouts, "read-out set")]
    if not ids:
        raise ValidationError("read-out set must not be empty")
    if len(set(ids)) != len(ids):
        dupes = sorted({r for r in ids if ids.count(r) > 1})
        raise ValidationError(f"duplicate read-out ids: {dupes}")
    return sorted(ids)


def _add_reading(values: dict, readout, peak, value) -> None:
    """Add one reading to ``values`` under (id, peak) if the id is valid, the
    peak known, the value a finite int, float, complex or numpy number (not a
    string) and (id, peak) not yet in ``values``."""
    key = (_require_int_in_range(readout), peak)
    if peak not in PEAKS:
        raise ValidationError(f"unknown peak {peak!r}; expected one of {PEAKS}")
    if type(value) is not complex and not isinstance(value, (int, float, complex, np.number, np.bool_)):
        raise ValidationError(f"value is not a number for read-out {key[0]}, {peak} peak: {value!r}")
    try:
        z = value if type(value) is complex else complex(value)  # as simulate_readings and parse_readings give
    except OverflowError:  # an integer beyond the float range
        z = complex(cmath.inf)
    if not cmath.isfinite(z):
        raise ValidationError(f"value is not finite for read-out {key[0]}, {peak} peak: {value!r}")
    if key in values:
        raise ValidationError(f"duplicate reading for read-out {key[0]}, {peak} peak")
    values[key] = z


def _reading_values(readings) -> dict:
    """{(id, peak): value} of ``Reading`` records by ``_add_reading``; ValidationError naming any other item."""
    values = {}
    for rec in _iterate(readings, "readings"):
        if not isinstance(rec, Reading):
            raise ValidationError(f"readings must be Reading records, got {rec!r}")
        _add_reading(values, rec.readout, rec.peak, rec.value)
    return values


def assemble_design(
    readouts: Iterable,
    include_trace: bool = True,
    readings: Optional[Sequence[Reading]] = None,
) -> DesignSystem:
    """Stack the design system for a set of read-outs.

    Without readings the right-hand side of every measurement row is zero
    (design-only mode); the trace row always carries rhs 1. With readings,
    they must cover exactly the requested read-outs, one value per peak.
    ``include_trace`` must be a bool (``True``, ``False`` or a numpy bool).
    """
    ids = _validated_ids(readouts)
    if not isinstance(include_trace, (bool, np.bool_)):
        raise ValidationError(f"include_trace must be True or False, got {include_trace!r}")

    n = 4 * len(ids)
    matrix = np.zeros((n + 1 if include_trace else n, N_PARAMS))
    matrix[:n] = _ROWS[np.array(ids) - 1].reshape(n, N_PARAMS)
    rhs = np.zeros(len(matrix))
    if readings is not None:
        values = _reading_values(readings)
        expected = {(rid, p) for rid in ids for p in PEAKS}
        if set(values) != expected:
            missing = sorted(expected - set(values))
            extra = sorted(set(values) - expected)
            raise ValidationError(
                f"readings do not match the read-out set (missing {missing}, unexpected {extra})"
            )
        # complex peaks viewed as floats: real and imaginary parts interleaved
        rhs[:n] = np.array([values[(rid, p)] for rid in ids for p in PEAKS]).view(float)
    labels = [label for rid in ids for label in _ROW_LABELS[rid - 1]]
    if include_trace:
        matrix[n] = _TRACE_ROW
        rhs[n] = 1.0
        labels.append(TRACE_LABEL)
    return DesignSystem(matrix, rhs, tuple(labels))


def simulate_readings(rho, readouts: Iterable, noise_sigma: float = 0.0, seed: int = 0) -> list:
    """Simulate the peak readings an acquisition of ``readouts`` would give.

    ``rho`` must be Hermitian within ``HERMITICITY_TOL`` (the cut every
    density file passes too) and of unit trace within ``TRACE_TOL``.
    Gaussian noise of standard deviation ``noise_sigma`` (a real number,
    finite and >= 0) is added independently to the real and imaginary part
    of every peak; the draw order is fixed (ascending id, left before right,
    real before imaginary), so a seed, an integer >= 0, pins the output.
    """
    x = matrix_to_params(rho)
    if not abs(_trace(x) - 1.0) <= TRACE_TOL:
        raise ValidationError(f"density matrix must have trace 1, got {_trace(x)!r}")
    sigma = _real(noise_sigma)
    if sigma is None or not 0 <= sigma < np.inf:
        raise ValidationError(f"noise sigma must be finite and >= 0, got {noise_sigma}")
    seed = _require_int_in_range(seed, "seed", 0, None)
    ids = _validated_ids(readouts)
    values = _ROWS[np.array(ids) - 1] @ x
    if sigma > 0:
        values = values + np.random.default_rng(seed).normal(0.0, sigma, size=values.shape)
    peaks = values.view(complex).tolist()  # one row per read-out: left, right
    return [Reading(rid, p, v) for rid, row in zip(ids, peaks) for p, v in zip(PEAKS, row)]
