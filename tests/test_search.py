import itertools

import numpy as np
import pytest

from tomoforge import (
    ValidationError,
    assemble_design,
    enumerate_minimal_sets,
    matrix_rank,
    minimum_readout_count,
    normal_system,
    rank_sets_by_conditioning,
    set_report,
)
from tomoforge.model import _normal_matrices
from tomoforge.search import _rank, _spectra

import goldens


def test_set_report_first_golden_entry():
    first = goldens.MINIMAL_SETS_5[0]
    # a one-shot iterator must be read once, for both the spectrum and ids
    for readouts in (first, list(reversed(first)), iter(first)):
        report = set_report(readouts)
        assert report.ids == (1, 2, 6, 12, 13)
        assert report.rank == 16
        assert report.full_rank
        assert report.min_eigenvalue > 1e-10


def test_set_report_full_set():
    report = set_report(range(1, 19))
    assert report.rank == 16
    np.testing.assert_allclose(sorted(report.eigenvalues), goldens.EIGENVALUES_FULL, atol=1e-9)
    assert report.min_eigenvalue == pytest.approx(2.0, abs=1e-9)


def test_set_report_four_readouts_not_full_rank():
    report = set_report([1, 2, 3, 4])
    assert not report.full_rank
    assert report.rank < 16


def test_set_report_rejects_bad_ids():
    for bad in ([float("nan"), 2], ["a"], [None], [0], [1, 1]):
        with pytest.raises(ValidationError):
            set_report(bad)


def test_minimum_readout_count_is_five():
    assert minimum_readout_count() == 5


def test_enumerate_size_four_is_empty():
    assert enumerate_minimal_sets(4) == []


def test_enumerate_size_five_matches_golden_table():
    found = [r.ids for r in enumerate_minimal_sets(5)]
    assert found == sorted(found)  # lexicographic
    assert set(found) == set(goldens.MINIMAL_SETS_5)
    assert len(found) == 72


def test_enumerate_edge_sizes():
    assert [r.ids for r in enumerate_minimal_sets(18)] == [tuple(range(1, 19))]
    # every 17-set contains a full-rank five-set, so all 18 must qualify
    assert len(enumerate_minimal_sets(17)) == 18
    with pytest.raises(ValidationError, match="size"):
        enumerate_minimal_sets(0)
    with pytest.raises(ValidationError, match="size"):
        enumerate_minimal_sets(19)
    with pytest.raises(ValidationError, match="size"):
        enumerate_minimal_sets(5.5)
    assert len(enumerate_minimal_sets(5.0)) == 72
    for bad in (float("nan"), float("inf"), None, "5"):
        with pytest.raises(ValidationError, match="size"):
            enumerate_minimal_sets(bad)


def test_enumeration_deterministic():
    a = enumerate_minimal_sets(5)
    b = enumerate_minimal_sets(5)
    assert [r.ids for r in a] == [r.ids for r in b]
    np.testing.assert_array_equal(
        np.array([r.min_eigenvalue for r in a]), np.array([r.min_eigenvalue for r in b])
    )


def test_superset_monotonicity(rng):
    base_sets = goldens.MINIMAL_SETS_5
    for _ in range(200):
        base = base_sets[int(rng.integers(len(base_sets)))]
        extras = [i for i in range(1, 19) if i not in base]
        n_extra = int(rng.integers(1, 4))
        chosen = rng.choice(extras, size=n_extra, replace=False).tolist()
        assert set_report(sorted(set(base) | set(chosen))).full_rank


def test_mirror_symmetry_of_minimal_sets():
    # swapping the acquired spin maps id t to t+9 (mod 18); the count of
    # full-rank 5-sets containing an id must match its mirror's count
    found = [r.ids for r in enumerate_minimal_sets(5)]
    counts = {t: sum(t in ids for ids in found) for t in range(1, 19)}
    for t in range(1, 10):
        assert counts[t] == counts[t + 9], (t, counts[t], counts[t + 9])


def test_rank_sets_by_conditioning():
    reports = enumerate_minimal_sets(5)
    ordered = rank_sets_by_conditioning(reports)
    eigs = [r.min_eigenvalue for r in ordered]
    assert eigs == sorted(eigs, reverse=True)
    assert rank_sets_by_conditioning([reports[0]]) == [reports[0]]
    # stable on duplicates
    dup = [reports[0], reports[0]]
    assert rank_sets_by_conditioning(dup) == dup
    # the full 18-read-out set out-conditions every minimal set
    full = set_report(range(1, 19))
    assert rank_sets_by_conditioning([full] + reports)[0] is full
    assert all(full.min_eigenvalue > r.min_eigenvalue for r in reports)
    # non-full-rank reports are dropped
    assert rank_sets_by_conditioning([set_report([1, 2, 3, 4])]) == []


def _all_spectra():
    """(sets, descending spectra, ranks) in batches over all 2^18 - 1 read-out sets."""
    for k in range(1, 19):
        combos = itertools.combinations(range(1, 19), k)
        while batch := list(itertools.islice(combos, 4096)):
            yield (batch, *_spectra(batch))


def test_rank_rests_on_a_wide_eigenvalue_gap():
    # Every eigenvalue of every set's normal matrix is either null
    # (|lambda| <= 1e-12, measured 2.8e-15) or at least 0.5 (measured
    # 0.49999999999999734), and lambda_max <= 6. The rank cut
    # linalg.RANK_TOL * lambda_max <= 6e-10 therefore sits deep inside the gap.
    floor = 0.5 * (1 - 1e-12)
    n_sets = 0
    for batch, eig, rank in _all_spectra():
        assert eig[:, 0].max() <= 6 * (1 + 1e-12)
        upper = eig >= floor
        assert np.all(upper | (np.abs(eig) <= 1e-12)), batch[0]
        np.testing.assert_array_equal(rank, upper.sum(axis=1))
        n_sets += len(batch)
    assert n_sets == 2**18 - 1


def test_batched_rank_matches_svd_rank(rng):
    def svd_rank(ids):
        return matrix_rank(assemble_design(ids).matrix)

    for k in (4, 5):
        sets = list(itertools.combinations(range(1, 19), k))
        _, rank = _spectra(sets)
        assert rank.tolist() == [svd_rank(ids) for ids in sets]
    others = [k for k in range(1, 19) if k not in (4, 5)]
    for _ in range(2000):
        ids = rng.choice(np.arange(1, 19), size=int(rng.choice(others)), replace=False)
        assert set_report(ids).rank == svd_rank(ids), sorted(ids)


def test_table_normal_matrix_matches_design():
    for sets in (goldens.MINIMAL_SETS_5, [tuple(range(1, 19))]):
        for ids, gram in zip(sets, _normal_matrices(sets)):
            expected = normal_system(assemble_design(ids)).matrix
            np.testing.assert_allclose(gram, expected, rtol=0, atol=1e-13)


def _margin_batches(rng):
    """Every set of sizes 4 and 5, then 2,000 seeded sets of the other sizes,
    in lists of equal-size sets."""
    for k in (4, 5):
        yield list(itertools.combinations(range(1, 19), k))
    sizes = rng.choice([k for k in range(1, 19) if k not in (4, 5)], size=2000)
    for k in np.unique(sizes):
        yield [tuple(sorted(rng.choice(np.arange(1, 19), size=k, replace=False).tolist()))
               for _ in range(np.count_nonzero(sizes == k))]


def test_rank_margin_without_trace_row(rng):
    # The trace vector t has A t = 0 without the trace row and C t = 4 t with
    # it, so the trace row turns one null eigenvalue into 4 and leaves the
    # rest of the spectrum; the rank cut then sees the same gap either way.
    n_sets = 0
    for sets in _margin_batches(rng):
        with_trace, _ = _spectra(sets)
        designs = [assemble_design(ids, include_trace=False) for ids in sets]
        without = np.linalg.eigvalsh([normal_system(d).matrix for d in designs])[:, ::-1]
        four = np.abs(with_trace - 4).argmin(axis=1)
        rows = np.arange(len(sets))
        np.testing.assert_allclose(with_trace[rows, four], 4, rtol=0, atol=1e-12)
        swapped = with_trace.copy()
        swapped[rows, four] = 0
        np.testing.assert_allclose(np.sort(swapped, axis=1)[:, ::-1], without, rtol=0, atol=1e-12)
        assert _rank(without).tolist() == [matrix_rank(d.matrix) for d in designs]
        n_sets += len(sets)
    assert n_sets == 3060 + 8568 + 2000
