"""Combinatorial search over read-out sets.

A set of read-outs determines all 16 parameters iff its design system
(with the trace row) has rank 16. These helpers check single sets, find the
smallest workable size, exhaustively enumerate all full-rank sets of a given
size, and rank sets by how well-conditioned their normal matrix is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import matrix_rank, sym_eigen
from .lsq import normal_system
from .model import N_PARAMS, N_READOUTS, assemble_design

RANK_TOL = 1e-10


@dataclass(frozen=True)
class SetReport:
    """Rank and conditioning summary of one read-out set (trace row included)."""

    ids: tuple
    rank: int
    full_rank: bool
    min_eigenvalue: float
    eigenvalues: np.ndarray


def _report(ids: tuple, design, rank: int) -> SetReport:
    eig = sym_eigen(normal_system(design).matrix).eigenvalues
    return SetReport(ids, rank, rank == N_PARAMS, float(eig[-1]), eig)


def set_report(readouts) -> SetReport:
    design = assemble_design(readouts)
    ids = tuple(sorted(int(r) for r in readouts))
    return _report(ids, design, matrix_rank(design.matrix, RANK_TOL))


def minimum_readout_count() -> int:
    """Smallest k for which some k-read-out set has a full-rank design."""
    for k in range(1, N_READOUTS + 1):
        for combo in itertools.combinations(range(1, N_READOUTS + 1), k):
            if matrix_rank(assemble_design(combo).matrix, RANK_TOL) == N_PARAMS:
                return k
    raise AssertionError("unreachable: the full 18-read-out design has rank 16")


def enumerate_minimal_sets(size: int) -> list:
    """All full-rank read-out sets of the given size, in lexicographic order.

    Tests every one of the C(18, size) subsets; deterministic.
    """
    if not 1 <= size <= N_READOUTS:
        raise ValidationError(f"set size must be in 1..{N_READOUTS}, got {size}")
    out = []
    for combo in itertools.combinations(range(1, N_READOUTS + 1), size):
        design = assemble_design(combo)
        rank = matrix_rank(design.matrix, RANK_TOL)
        if rank == N_PARAMS:
            out.append(_report(combo, design, rank))
    return out


def rank_sets_by_conditioning(reports, top=None) -> list:
    """Full-rank reports sorted by descending smallest eigenvalue.

    The key is the computed float, so sets whose smallest eigenvalues are
    mathematically equal are ordered by rounding noise in the last bits (at
    size 5, (5,7,11,13,17) at 0.9999999999999997 precedes (2,4,6,12,14) at
    0.9999999999999993). Only bit-equal eigenvalues fall back to
    lexicographic order on ids; the sort is stable, so duplicated reports
    keep their input order. ``top`` limits the returned count.
    """
    ordered = sorted(
        (r for r in reports if r.full_rank),
        key=lambda r: (-r.min_eigenvalue, r.ids),
    )
    return ordered if top is None else ordered[: max(int(top), 0)]
