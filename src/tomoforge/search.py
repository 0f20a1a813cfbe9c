"""Combinatorial search over read-out sets.

A set of read-outs determines all 16 parameters iff its design system
(with the trace row) has rank 16. A set's normal matrix is a sum of fixed
per-read-out blocks and is block-diagonal (see ``model.PAIR_SLOTS``): a 4x4
population block and six 2x2 coherence pairs whose eigenvalues are exact
sums of table entries. Sets are scored in batches: one ``eigvalsh`` call
covers the population blocks, and the pairs' eigenvalues come from one
matrix product. Rank is read off a spectrum by one cut, ``_rank``: the
count of eigenvalues above ``linalg.RANK_TOL`` times the largest. ``cli
analyze`` applies the same cut to the spectrum it prints, and the tests
check it against the singular-value ``linalg.matrix_rank``, which uses the
same constant. These helpers check single sets, find the smallest workable
size, exhaustively enumerate all full-rank sets of a given size, and rank
sets by how well-conditioned their normal matrix is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import RANK_TOL
from .model import N_PARAMS, N_READOUTS, _normal_blocks, _require_int_in_range, _validated_ids

# Subsets scored per eigvalsh call; larger batches raise peak memory. A set's
# spectrum does not depend on its batch: equal population blocks give
# bit-equal eigenvalues wherever they fall.
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
    """Descending normal-matrix spectra of equal-size id sets, and their ranks:
    one eigvalsh call for the population blocks, and the pairs' exact sums."""
    populations, pairs = _normal_blocks(sets)
    eig = np.concatenate([np.linalg.eigvalsh(populations), pairs], axis=1)
    eig.sort(axis=1)
    eig = eig[:, ::-1]
    return eig, _rank(eig)


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

    The key is the computed float. Two sets' smallest eigenvalues are
    bit-equal when both come from the coherence pairs (exact sums) or from
    equal population blocks, and such ties fall back to lexicographic order
    on ids. Other mathematically equal smallest eigenvalues, most of them
    from population blocks that differ, are ordered by rounding noise in the
    last bits, not by ids. The sort is stable, so duplicated reports keep
    their input order. Slice the result for the best few.
    """
    return sorted((r for r in reports if r.full_rank), key=lambda r: (-r.min_eigenvalue, r.ids))
