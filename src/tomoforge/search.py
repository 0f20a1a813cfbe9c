"""Combinatorial search over read-out sets.

A set of read-outs determines all 16 parameters iff its design system
(with the trace row) has rank 16. The 16 two-spin product operators
(``model.PAULI_LABELS``) diagonalise every read-out's share of the normal
matrix and the trace row's, so a set's spectrum is the trace weights plus
its rows of the 18x16 table ``model._PAULI_WEIGHTS``: exact sums of halves,
with no eigensolve. Rank is set cover: a read-out observes 4 of the 15
non-identity product operators and the trace row the identity, and a set's
rank is the number of product operators it covers (full rank: all 16).
A set is an 18-bit mask, bit 18 - r for read-out r, so descending masks of
one size are in lexicographic order. Its high and low 9 bits (read-outs 1-9
and 10-18) index two constant half tables of ids, weight sums (the trace row's
in the high one) and covers: a set's ids are one tuple concatenation, its
spectrum one sum of two rows and its cover one OR. The full-rank k-sets are
the hits of outer ORs of the covers of the half masks of sizes a and b, one
per split a + b = k: C(18, k) pairs, not all 2^18 masks. Only they are scored,
their reports filled in bulk through the field slots; ranking sorts one array
of their smallest eigenvalues. The tests check ranks against ``matrix_rank``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import add, attrgetter, itemgetter

import numpy as np

from .model import N_PARAMS, N_READOUTS, _PAULI_WEIGHTS, _TRACE_WEIGHTS, _require_int_in_range, _validated_ids

_FULL_COVER = (1 << N_PARAMS) - 1  # every product operator covered
_HALF = 1 << 9  # half masks: read-outs 1-9 are the high 9 bits of a set's mask, 10-18 the low 9


@dataclass(frozen=True, slots=True)
class SetReport:
    """Rank and conditioning summary of one read-out set (trace row included).

    Stores only the ascending ids and the descending normal-matrix spectrum.
    The rest is read off the spectrum: ``rank`` is the count of nonzero
    eigenvalues, ``min_eigenvalue`` the last one, and ``full_rank`` is true
    iff that last one is nonzero (every entry is exactly 0 or at least 1/2).
    The fields are slots, so a report has no ``__dict__`` and no weak references.
    """

    ids: tuple
    eigenvalues: np.ndarray

    @property
    def rank(self) -> int:
        # an entry is nonzero iff the set or the trace row covers its operator
        return int(np.count_nonzero(self.eigenvalues))
    @property
    def full_rank(self) -> bool:
        return bool(self.eigenvalues[-1])
    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])


def _half_tables(first, weights0):
    """Ascending ids, weight sums (``weights0`` plus the sets' rows) and cover of every 9-bit half mask over
    read-outs first..first + 8, bit first + 8 - r for read-out r; by doubling, read-out first + 8 - b put
    before the masks below 1 << b."""
    ids, weights = [()], np.full((_HALF, N_PARAMS), weights0, float)
    for b in range(9):
        r = first + 8 - b
        ids += [(r, *rest) for rest in ids]
        np.add(weights[:1 << b], _PAULI_WEIGHTS[r - 1], out=weights[1 << b:2 << b])
    weights.setflags(write=False)
    return tuple(ids), weights, (weights != 0) @ (1 << np.arange(N_PARAMS, dtype=np.uint16))


(_HI_IDS, _HI_W, _HI_COVER), (_LO_IDS, _LO_W, _LO_COVER) = _half_tables(1, _TRACE_WEIGHTS), _half_tables(10, 0)
_BY_SIZE = [np.flatnonzero(np.fromiter(map(len, _HI_IDS), int, _HALF) == a)[::-1] for a in range(10)]  # descending


def _full_rank_masks(k):
    """Descending masks of the full-rank k-sets: for each split a + b = k, the pairs of a high half mask of
    size a and a low one of size b whose covers OR to every product operator."""
    hits = []
    for a in range(max(k - 9, 0), min(k, 9) + 1):
        hi, lo = _BY_SIZE[a], _BY_SIZE[k - a]
        hits.append(((hi << 9)[:, None] | lo)[(_HI_COVER[hi, None] | _LO_COVER[lo]) == _FULL_COVER])
    return np.sort(np.concatenate(hits))[::-1]


def _spectra(masks):
    """Descending normal-matrix spectra of the sets of an int array of masks:
    the sum of their halves' rows, exact in any order."""
    eig = _HI_W[masks >> 9] + _LO_W[masks & (_HALF - 1)]
    eig.sort(axis=1)
    return eig[:, ::-1]


def set_report(readouts) -> SetReport:
    """Report of one read-out set: distinct ids 1..18 in any order, from any
    iterable (read once), else ``ValidationError``. The ids are stored
    ascending."""
    ids = tuple(_validated_ids(readouts))
    return SetReport(ids, _spectra(np.array([sum(1 << (N_READOUTS - r) for r in ids)]))[0])


def minimum_readout_count() -> int:
    """Smallest k for which some k-read-out set has a full-rank design."""
    return next(k for k in range(1, N_READOUTS + 1) if len(_full_rank_masks(k)))


def enumerate_minimal_sets(size: int) -> list:
    """All full-rank read-out sets of the given size, in lexicographic order.

    Tests every one of the C(18, size) subsets; deterministic.
    """
    k = _require_int_in_range(size, "set size")
    masks = _full_rank_masks(k)
    hi, lo = (masks >> 9).tolist(), (masks & (_HALF - 1)).tolist()
    # built in bulk, with no __init__ frame per report: bare objects, then each field through its slot
    reports = list(map(object.__new__, repeat(SetReport, len(hi))))
    deque(map(SetReport.ids.__set__, reports, map(add, map(_HI_IDS.__getitem__, hi), map(_LO_IDS.__getitem__, lo))), 0)
    deque(map(SetReport.eigenvalues.__set__, reports, _spectra(masks)), 0)
    return reports


def rank_sets_by_conditioning(reports) -> list:
    """Full-rank reports sorted by descending smallest eigenvalue.

    Every eigenvalue is an exact sum of halves, so mathematically equal
    smallest eigenvalues are bit-equal (a full-rank set's is 1/2 or 1) and
    ties fall back to lexicographic order on ids: the order does not depend
    on the order of the input. The sort is stable, so duplicated reports
    keep their input order. Slice the result for the best few.
    """
    ranked = sorted(reports, key=attrgetter("ids"))
    last = np.fromiter(map(itemgetter(-1), map(attrgetter("eigenvalues"), ranked)), float, len(ranked))
    kept = np.flatnonzero(last)  # nonzero iff full rank
    return list(map(ranked.__getitem__, kept[np.argsort(-last[kept], kind="stable")].tolist()))
