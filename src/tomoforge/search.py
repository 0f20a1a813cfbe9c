"""Combinatorial search over read-out sets.

A set of read-outs determines all 16 parameters iff its design system
(with the trace row) has rank 16. The 16 two-spin product operators
(``model.PAULI_LABELS``) diagonalise every read-out's share of the normal
matrix and the trace row's, so a set's spectrum is the sum of its rows of
the 18x16 table ``model._PAULI_WEIGHTS`` and the trace weights. Every entry
is an exact sum of halves: no eigensolve is run, and the rank is the count
of nonzero eigenvalues. Sets are scored in batches, one matrix product
each; the tests check the ranks against the singular-value
``linalg.matrix_rank``. These helpers check single sets, find the smallest
workable size, exhaustively enumerate all full-rank sets of a given size,
and rank sets by how well-conditioned their normal matrix is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import N_PARAMS, N_READOUTS, _PAULI_WEIGHTS, _TRACE_WEIGHTS, _require_int_in_range, _validated_ids

# Subsets scored per matrix product; larger batches raise peak memory and
# measured no faster. The sums are exact, so a set's spectrum does not
# depend on its batch.
_BATCH = 256


@dataclass(frozen=True)
class SetReport:
    """Rank and conditioning summary of one read-out set (trace row included)."""

    ids: tuple
    rank: int
    full_rank: bool
    min_eigenvalue: float
    eigenvalues: np.ndarray


def _spectra(sets):
    """Descending normal-matrix spectra of equal-size id sets, and their ranks:
    each spectrum is the sum of the sets' rows of the weight table and the
    trace weights. Entries are sums of halves, so they are exact and the rank
    is the count of nonzero ones."""
    k = len(sets[0])
    ids = np.fromiter(itertools.chain.from_iterable(sets), np.intp, len(sets) * k).reshape(-1, k)
    chosen = np.zeros((len(ids), N_READOUTS))
    np.put_along_axis(chosen, ids - 1, 1.0, axis=1)
    eig = chosen @ _PAULI_WEIGHTS + _TRACE_WEIGHTS
    eig.sort(axis=1)
    eig = eig[:, ::-1]
    return eig, np.count_nonzero(eig, axis=1)


def set_report(readouts) -> SetReport:
    ids = tuple(_validated_ids(readouts))
    eig, rank = _spectra([ids])
    return SetReport(ids, int(rank[0]), bool(rank[0] == N_PARAMS), float(eig[0, -1]), eig[0])


def _batches(k):
    """Each batch of ``_BATCH`` k-read-out sets in lexicographic order, with
    their descending spectra and a mask of the full-rank ones."""
    combos = itertools.combinations(range(1, N_READOUTS + 1), k)
    while batch := list(itertools.islice(combos, _BATCH)):
        eig, rank = _spectra(batch)
        yield batch, eig, rank == N_PARAMS


def minimum_readout_count() -> int:
    """Smallest k for which some k-read-out set has a full-rank design.

    Stops at the first batch that holds a full-rank set."""
    return next(k for k in range(1, N_READOUTS + 1) if any(full.any() for _, _, full in _batches(k)))


def enumerate_minimal_sets(size: int) -> list:
    """All full-rank read-out sets of the given size, in lexicographic order.

    Tests every one of the C(18, size) subsets; deterministic.
    """
    k = _require_int_in_range(size, "set size")
    return [
        SetReport(ids, N_PARAMS, True, float(e[-1]), e)
        for batch, eig, full in _batches(k)
        # eig[full] copies only the hits, so no report holds a whole batch
        for ids, e in zip(itertools.compress(batch, full), eig[full])
    ]


def rank_sets_by_conditioning(reports) -> list:
    """Full-rank reports sorted by descending smallest eigenvalue.

    Every eigenvalue is an exact sum of halves, so mathematically equal
    smallest eigenvalues are bit-equal (a full-rank set's is 1/2 or 1) and
    ties fall back to lexicographic order on ids: the order does not depend
    on the order of the input. The sort is stable, so duplicated reports
    keep their input order. Slice the result for the best few.
    """
    return sorted((r for r in reports if r.full_rank), key=lambda r: (-r.min_eigenvalue, r.ids))
