"""Combinatorial search over read-out sets.

A set of read-outs determines all 16 parameters iff its design system
(with the trace row) has rank 16. A set's normal matrix is a sum of fixed
per-read-out blocks (``model._GRAM``), so sets are scored in batches: one
``eigvalsh`` call gives each set's spectrum. Rank is read off a spectrum by
one cut, ``_rank``: the count of eigenvalues above ``RANK_TOL`` times the
largest. ``cli analyze`` applies the same cut to the spectrum it prints, and
the tests check it against the singular-value ``linalg.matrix_rank``. These
helpers check single sets, find the smallest workable size, exhaustively
enumerate all full-rank sets of a given size, and rank sets by how
well-conditioned their normal matrix is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import N_PARAMS, N_READOUTS, _normal_matrices, _require_int_in_range, _validated_ids

RANK_TOL = 1e-10
# Subsets scored per eigvalsh call; larger batches raise peak memory.
_BATCH = 256


def _rank(eig):
    return np.count_nonzero(eig > RANK_TOL * eig.max(axis=-1, keepdims=True), axis=-1)


@dataclass(frozen=True)
class SetReport:
    """Rank and conditioning summary of one read-out set (trace row included)."""

    ids: tuple
    rank: int
    full_rank: bool
    min_eigenvalue: float
    eigenvalues: np.ndarray


def _spectra(sets):
    """Descending normal-matrix spectra of equal-size id sets, and their ranks."""
    eig = np.linalg.eigvalsh(_normal_matrices(sets))[:, ::-1]
    return eig, _rank(eig)


def set_report(readouts) -> SetReport:
    ids = tuple(_validated_ids(readouts))
    eig, rank = _spectra([ids])
    return SetReport(ids, int(rank[0]), bool(rank[0] == N_PARAMS), float(eig[0, -1]), eig[0])


def minimum_readout_count() -> int:
    """Smallest k for which some k-read-out set has a full-rank design."""
    return next(k for k in range(1, N_READOUTS + 1) if enumerate_minimal_sets(k))


def enumerate_minimal_sets(size: int) -> list:
    """All full-rank read-out sets of the given size, in lexicographic order.

    Tests every one of the C(18, size) subsets; deterministic.
    """
    k = _require_int_in_range(size, "set size")
    combos = itertools.combinations(range(1, N_READOUTS + 1), k)
    out = []
    while batch := list(itertools.islice(combos, _BATCH)):
        eig, rank = _spectra(batch)
        out += [
            SetReport(ids, N_PARAMS, True, float(e[-1]), e.copy())
            for ids, e, r in zip(batch, eig, rank)
            if r == N_PARAMS
        ]
    return out


def rank_sets_by_conditioning(reports, top=None) -> list:
    """Full-rank reports sorted by descending smallest eigenvalue.

    The key is the computed float, so sets whose smallest eigenvalues are
    mathematically equal are ordered by rounding noise in the last bits, not
    by ids. Only bit-equal eigenvalues fall back to lexicographic order on
    ids; the sort is stable, so duplicated reports keep their input order.
    ``top``, None or an integer, limits the returned count.
    """
    try:
        n = None if top is None else int(top)
    except (TypeError, ValueError, OverflowError):
        n = float("nan")  # unequal to anything, so rejected below
    if n != top:
        raise ValidationError(f"top must be None or an integer, got {top!r}")
    ordered = sorted(
        (r for r in reports if r.full_rank),
        key=lambda r: (-r.min_eigenvalue, r.ids),
    )
    return ordered if n is None else ordered[: max(n, 0)]
