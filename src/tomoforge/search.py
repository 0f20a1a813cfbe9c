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
one size are in lexicographic order. Each search tabulates the cover of all
2^18 masks in one pass and scores only the full-rank sets; the tests check
the ranks against the singular-value ``linalg.matrix_rank``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import N_PARAMS, N_READOUTS, _PAULI_WEIGHTS, _TRACE_WEIGHTS, _require_int_in_range, _validated_ids

_FULL_COVER = (1 << N_PARAMS) - 1  # every product operator covered


@dataclass(frozen=True)
class SetReport:
    """Rank and conditioning summary of one read-out set (trace row included).

    Stores only the ascending ids and the descending normal-matrix spectrum.
    The rest is read off the spectrum: ``rank`` is the count of nonzero
    eigenvalues, ``min_eigenvalue`` the last one, and ``full_rank`` is true
    iff that last one is nonzero (every entry is exactly 0 or at least 1/2).
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


def _tables():
    """Cover and size of every 18-bit mask: the product operators the set and
    the trace row observe (bit P for column P of the weight table) and the
    number of read-outs. Built by doubling, adding read-out 18 - b to the
    masks below 1 << b."""
    observed = np.vstack([_PAULI_WEIGHTS, _TRACE_WEIGHTS]) != 0
    # Python ints, so each OR stays in uint16 (an int64 operand would not)
    *readouts, trace = (observed @ (1 << np.arange(N_PARAMS))).tolist()
    cover = np.empty(1 << N_READOUTS, np.uint16)
    sizes = np.empty(1 << N_READOUTS, np.uint8)
    cover[0], sizes[0] = trace, 0
    for b in range(N_READOUTS):
        n = 1 << b
        np.bitwise_or(cover[:n], readouts[N_READOUTS - 1 - b], out=cover[n:2 * n])
        np.add(sizes[:n], 1, out=sizes[n:2 * n])
    return cover, sizes


def _spectra(ids):
    """Descending normal-matrix spectra of equal-size id sets (n, k): the
    trace weights plus each set's rows of the weight table, added one id
    column at a time so that no (n, 18) 0/1 matrix is held."""
    eig = np.tile(_TRACE_WEIGHTS, (len(ids), 1))
    for column in ids.T:
        eig += _PAULI_WEIGHTS[column - 1]
    eig.sort(axis=1)
    return eig[:, ::-1]


def set_report(readouts) -> SetReport:
    """Report of one read-out set: distinct ids 1..18 in any order, from any
    iterable (read once), else ``ValidationError``. The ids are stored
    ascending."""
    ids = tuple(_validated_ids(readouts))
    return SetReport(ids, _spectra(np.array([ids]))[0])


def minimum_readout_count() -> int:
    """Smallest k for which some k-read-out set has a full-rank design."""
    cover, sizes = _tables()
    return int(sizes[cover == _FULL_COVER].min())


def _ids(masks, k):
    """Ids (n, k) of k-read-out masks, each row ascending."""
    bits = 1 << np.arange(N_READOUTS - 1, -1, -1)  # read-out 1 first
    return np.nonzero(masks[:, None] & bits)[1].reshape(-1, k) + 1


def enumerate_minimal_sets(size: int) -> list:
    """All full-rank read-out sets of the given size, in lexicographic order.

    Tests every one of the C(18, size) subsets; deterministic.
    """
    k = _require_int_in_range(size, "set size")
    cover, sizes = _tables()
    ids = _ids(np.flatnonzero((cover == _FULL_COVER) & (sizes == k))[::-1], k)
    del cover, sizes  # freed before the spectra and the reports are built
    eig = _spectra(ids)
    # zipping the id columns makes each set's tuple without a list per set
    return [SetReport(i, e) for i, e in zip(zip(*ids.T.tolist()), eig)]


def rank_sets_by_conditioning(reports) -> list:
    """Full-rank reports sorted by descending smallest eigenvalue.

    Every eigenvalue is an exact sum of halves, so mathematically equal
    smallest eigenvalues are bit-equal (a full-rank set's is 1/2 or 1) and
    ties fall back to lexicographic order on ids: the order does not depend
    on the order of the input. The sort is stable, so duplicated reports
    keep their input order. Slice the result for the best few.
    """
    return sorted((r for r in reports if r.full_rank), key=lambda r: (-r.min_eigenvalue, r.ids))
