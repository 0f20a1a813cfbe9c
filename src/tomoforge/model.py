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
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ValidationError, _finite_array

ROTATION_LABELS = ("II", "IX", "IY", "XI", "XX", "XY", "YI", "YX", "YY")
N_READOUTS = 18
N_PARAMS = 16
PEAKS = ("left", "right")
TRACE_LABEL = "trace"
HERMITICITY_TOL = 1e-9  # largest |m - m^H| entry matrix_to_params accepts
TRACE_TOL = 1e-9  # largest |trace - 1| is_trace_normalized accepts

# x1..x10 are the upper triangle (diagonal included) in row-major order,
# x11..x16 the imaginary parts of the strict upper triangle.
_UPPER = np.triu_indices(4)
_STRICT = np.triu_indices(4, 1)
_OFF = _UPPER[0] != _UPPER[1]  # which of x1..x10 are real parts of coherences
# 0-based parameter slots of the four diagonal entries (x1, x5, x8, x10).
DIAGONAL_SLOTS = tuple(int(k) for k in np.flatnonzero(~_OFF))
_TRACE_ROW = np.isin(np.arange(N_PARAMS), DIAGONAL_SLOTS).astype(float)

_SQ2 = np.sqrt(2.0)
# 90-degree rotations about x and y for a single spin, |1> = spin up.
_HALF_TURN_X = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / _SQ2
_HALF_TURN_Y = np.array([[1.0, 1.0], [-1.0, 1.0]]) / _SQ2
_SINGLE_SPIN = {"I": np.eye(2, dtype=complex), "X": _HALF_TURN_X, "Y": _HALF_TURN_Y}

def _build_rotations() -> dict:
    mats = {}
    for label in ROTATION_LABELS:
        m = np.kron(_SINGLE_SPIN[label[0]], _SINGLE_SPIN[label[1]])
        m.setflags(write=False)
        mats[label] = m
    return mats


_ROTATIONS = _build_rotations()


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


def require_readout_id(readout: int) -> int:
    """The read-out id as an int; ValidationError unless it equals an integer in 1..18."""
    return _require_int_in_range(readout)


def readout_label(readout: int) -> str:
    """Rotation label of a read-out id (1-9 and 10-18 share the same cycle)."""
    return ROTATION_LABELS[(require_readout_id(readout) - 1) % 9]


def readout_spin(readout: int) -> str:
    """Which spin is acquired: 'H' for ids 1-9, 'P' for ids 10-18."""
    return "H" if require_readout_id(readout) <= 9 else "P"


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
    re, im = x[:10][_OFF], x[10:]
    m = np.zeros((4, 4), dtype=complex)
    m[_UPPER] = x[:10]
    m[_STRICT] = re + 1j * im
    m[_STRICT[::-1]] = re - 1j * im
    return m


def _hermiticity_defect(m: np.ndarray, tol: float) -> float:
    """Largest entry of |m - m^H|; above ``tol``, a ValidationError naming the pair.

    An entry that overflows is inf, so it is rejected without a warning."""
    with np.errstate(over="ignore"):
        dev = np.abs(m - m.conj().T)
    k = int(dev.argmax())
    worst = float(dev.ravel()[k])
    if worst > tol:
        i, j = np.unravel_index(k, dev.shape)
        raise ValidationError(
            f"matrix is not Hermitian: elements ({i + 1},{j + 1}) and ({j + 1},{i + 1}) "
            f"differ by {worst:.3e} (tolerance {tol:.1e})"
        )
    return worst


def matrix_to_params(matrix) -> np.ndarray:
    """Read the 16 real parameters off a Hermitian 4x4 matrix.

    Exact inverse of params_to_matrix (the upper triangle and the diagonal
    are copied verbatim). Rejects input whose Hermiticity defect exceeds
    ``HERMITICITY_TOL``, naming the worst offending element pair.
    """
    m = _finite_array(matrix, (4, 4), "matrix", complex)
    _hermiticity_defect(m, HERMITICITY_TOL)
    return np.concatenate([m[_UPPER].real, m[_STRICT].imag])


_BASIS = np.array([params_to_matrix(e) for e in np.eye(N_PARAMS)])
_BASIS.setflags(write=False)


def maximally_mixed_params() -> np.ndarray:
    """Parameters of the maximally mixed state (identity / 4)."""
    return 0.25 * _TRACE_ROW


def _trace(x: np.ndarray) -> float:
    return float(x[list(DIAGONAL_SLOTS)].sum())


def is_trace_normalized(params) -> bool:
    """Whether the populations sum to 1 within ``TRACE_TOL``."""
    return abs(_trace(_finite_array(params, (N_PARAMS,), "parameters", float)) - 1.0) <= TRACE_TOL


def apply_rotation(rho, label: str) -> np.ndarray:
    """Conjugate a Hermitian 4x4 matrix by one rotation: R . rho . R^dagger."""
    m = _finite_array(rho, (4, 4), "matrix", complex)
    r = rotation_matrix(label)
    return r @ m @ r.conj().T


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
    rows = np.round(4 * rows) / 4
    rows.setflags(write=False)
    return rows, tuple(labels)


_ROWS, _ROW_LABELS = _build_rows()
# Each read-out's block A_r^T A_r of the normal matrix, and the trace row's.
_GRAM = np.einsum("rki,rkj->rij", _ROWS, _ROWS)
_TRACE_GRAM = np.outer(_TRACE_ROW, _TRACE_ROW)

# Every read-out's Gram block and the trace block are zero outside seven
# diagonal blocks, so A^T A of any read-out set is block-diagonal: the 4x4
# population block (x1, x5, x8, x10), and six 2x2 coherence pairs (p, q), the
# real then the imaginary parts of rho12-rho34, rho13-rho24 and rho14-rho23.
# Each read-out's pair block is [[a, b], [b, a]], with eigenvalues a + b and
# a - b along x_p + x_q and x_p - x_q, so a set's pair eigenvalues are sums.
PAIR_SLOTS = ((1, 8), (2, 6), (3, 5), (10, 15), (11, 14), (12, 13))
_POPULATIONS = np.ix_(DIAGONAL_SLOTS, DIAGONAL_SLOTS)
_P, _Q = np.array(PAIR_SLOTS).T
# Row r-1 holds read-out r's share of each block: its flattened population
# block, then a + b for the six pairs, then a - b.
_POPULATION_TABLE = _GRAM[:, _POPULATIONS[0], _POPULATIONS[1]].reshape(N_READOUTS, 16)
_TRACE_POPULATIONS = _TRACE_GRAM[_POPULATIONS].ravel()
_PAIR_TABLE = np.concatenate([_GRAM[:, _P, _P] + sign * _GRAM[:, _P, _Q] for sign in (1, -1)], axis=1)


def _normal_blocks(ids):
    """A^T A (trace row included) of each row of an (n, k) array of read-out
    ids, by block: the (n, 4, 4) population blocks and the (n, 12) eigenvalues
    of the pairs. Table entries are multiples of 1/16 of size at most 2, so
    the sums are exact."""
    ids = np.array(ids, dtype=np.intp)
    chosen = np.zeros((len(ids), N_READOUTS))
    np.put_along_axis(chosen, ids - 1, 1.0, axis=1)
    populations = (chosen @ _POPULATION_TABLE + _TRACE_POPULATIONS).reshape(-1, 4, 4)
    return populations, chosen @ _PAIR_TABLE


def readout_rows(readout: int):
    """Coefficient rows of one read-out.

    Returns (rows, labels): a 4x16 array whose rows are the real-part and
    imaginary-part equations of the left then right peak, and a tuple of
    matching (id, peak, 're'|'im') labels.
    """
    rid = require_readout_id(readout)
    return _ROWS[rid - 1].copy(), _ROW_LABELS[rid - 1]


@dataclass(frozen=True)
class Reading:
    """One measured peak: the complex integrated area of a spectral peak."""

    readout: int
    peak: str
    value: complex


@dataclass(frozen=True)
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

    def has_trace_row(self) -> bool:
        return bool(self.row_labels) and self.row_labels[-1] == TRACE_LABEL


def _validated_ids(readouts: Iterable) -> list:
    ids = [_require_int_in_range(r) for r in readouts]
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
    if not isinstance(value, (int, float, complex, np.number, np.bool_)):
        raise ValidationError(f"value is not a number for read-out {key[0]}, {peak} peak: {value!r}")
    try:
        z = complex(value)
    except OverflowError:  # an integer beyond the float range
        z = complex(cmath.inf)
    if not cmath.isfinite(z):
        raise ValidationError(f"value is not finite for read-out {key[0]}, {peak} peak: {value!r}")
    if key in values:
        raise ValidationError(f"duplicate reading for read-out {key[0]}, {peak} peak")
    values[key] = z


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

    values = None
    if readings is not None:
        values = {}
        for rec in readings:
            _add_reading(values, rec.readout, rec.peak, rec.value)
        expected = {(rid, p) for rid in ids for p in PEAKS}
        if set(values) != expected:
            missing = sorted(expected - set(values))
            extra = sorted(set(values) - expected)
            raise ValidationError(
                f"readings do not match the read-out set (missing {missing}, unexpected {extra})"
            )

    n = 4 * len(ids)
    matrix = np.zeros((n + 1 if include_trace else n, N_PARAMS))
    matrix[:n] = _ROWS[np.array(ids) - 1].reshape(n, N_PARAMS)
    rhs = np.zeros(len(matrix))
    if values is not None:
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

    ``rho`` must be Hermitian and of unit trace, within ``HERMITICITY_TOL``
    and ``TRACE_TOL``. Gaussian noise of standard deviation ``noise_sigma``
    (finite, >= 0) is added independently to the real and imaginary part of
    every peak; the draw order is fixed (ascending id, left before right,
    real before imaginary), so a seed, an integer >= 0, pins the output.
    """
    x = matrix_to_params(rho)
    if not is_trace_normalized(x):
        raise ValidationError(f"density matrix must have trace 1, got {_trace(x)!r}")
    try:
        sigma_ok = 0 <= noise_sigma < np.inf
    except (TypeError, ValueError):  # strings, None, arrays
        sigma_ok = False
    if not sigma_ok:
        raise ValidationError(f"noise sigma must be finite and >= 0, got {noise_sigma}")
    seed = _require_int_in_range(seed, "seed", 0, None)
    ids = _validated_ids(readouts)
    values = _ROWS[np.array(ids) - 1] @ x
    if noise_sigma > 0:
        values = values + np.random.default_rng(seed).normal(0.0, noise_sigma, size=values.shape)
    peaks = values.view(complex)  # one row per read-out: left, right
    return [Reading(rid, p, complex(v)) for rid, row in zip(ids, peaks) for p, v in zip(PEAKS, row)]
