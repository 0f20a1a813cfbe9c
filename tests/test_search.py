import copy
import dataclasses
import hashlib
import itertools
import pickle
import weakref

import numpy as np
import pytest

from tomoforge import (
    ValidationError,
    assemble_design,
    enumerate_minimal_sets,
    error_matrix_analysis,
    matrix_rank,
    minimum_readout_count,
    normal_system,
    rank_sets_by_conditioning,
    set_report,
)
from tomoforge.model import (
    PAULI_LABELS,
    _PAULI_BASIS,
    _PAULI_WEIGHTS,
    _ROWS,
    _TRACE_ROW,
    _TRACE_WEIGHTS,
    _pauli_eigenvalues,
    matrix_to_params,
)
from tomoforge.search import _HI_COVER, _HI_IDS, _LO_COVER, _LO_IDS, SetReport, _full_rank_masks, _spectra

import goldens
from conftest import random_hermitian

# The Gram block A_r^T A_r of each read-out, then the trace row's.
GRAMS = [*(rows.T @ rows for rows in _ROWS), np.outer(_TRACE_ROW, _TRACE_ROW)]
# |Tr(sigma_P rho(x))| is NORMS[P] times |U[:, P] . x|: 2 on the four diagonal
# operators, 2 sqrt(2) on the twelve coherences.
SQUARED_NORMS = np.array([4.0 if set(label) <= set("IZ") else 8.0 for label in PAULI_LABELS])
NORMS = np.sqrt(SQUARED_NORMS)
# U scaled to integer entries (0, +-1, +-2): products with it are exact.
INTEGER_BASIS = np.round(_PAULI_BASIS * NORMS)


def masks_of(sets):
    """The 18-bit mask of each id set: bit 18 - r for read-out r."""
    return np.array([sum(1 << (18 - r) for r in ids) for ids in sets])


def decode(masks):
    """The ascending ids of each mask, read off its two half tables."""
    return [_HI_IDS[m >> 9] + _LO_IDS[m & 511] for m in masks.tolist()]


def digest(reports):
    """sha256 over each report's ids, eigenvalue dtype and eigenvalue bytes."""
    h = hashlib.sha256()
    for r in reports:
        h.update(repr(r.ids).encode())
        h.update(r.eigenvalues.dtype.str.encode())
        h.update(r.eigenvalues.tobytes())
    return h.hexdigest()


def popcount(values):
    return np.array([v.bit_count() for v in values.tolist()])


def _tables():
    """The all-masks oracle: the cover of every 18-bit mask, the OR of its
    halves' (the product operators the set and the trace row observe, bit P
    for column P of the weight table), and its size, the popcount."""
    return (_HI_COVER[:, None] | _LO_COVER).ravel(), popcount(np.arange(1 << 18))


def assert_read_off_spectrum(report):
    """The derived fields are plain Python values read off the stored
    spectrum (a np.float64 would change their repr)."""
    assert type(report.rank) is int
    assert type(report.full_rank) is bool
    assert type(report.min_eigenvalue) is float
    assert report.rank == np.count_nonzero(report.eigenvalues)
    assert report.full_rank == (report.rank == 16)
    assert report.min_eigenvalue == report.eigenvalues[-1]


def test_set_report_first_golden_entry():
    first = goldens.MINIMAL_SETS_5[0]
    # a one-shot iterator must be read once, for both the spectrum and ids
    for readouts in (first, list(reversed(first)), iter(first)):
        report = set_report(readouts)
        assert report.ids == (1, 2, 6, 12, 13)
        assert report.rank == 16
        assert report.full_rank
        assert report.min_eigenvalue > 1e-10
        assert_read_off_spectrum(report)
    assert [f.name for f in dataclasses.fields(SetReport)] == ["ids", "eigenvalues"]


def test_set_report_full_set():
    report = set_report(range(1, 19))
    assert report.rank == 16
    np.testing.assert_allclose(sorted(report.eigenvalues), goldens.EIGENVALUES_FULL, atol=1e-9)
    assert report.min_eigenvalue == pytest.approx(2.0, abs=1e-9)


def test_set_report_four_readouts_not_full_rank():
    report = set_report([1, 2, 3, 4])
    assert not report.full_rank
    assert report.rank < 16
    assert_read_off_spectrum(report)
    assert repr((report.rank, report.full_rank, report.min_eigenvalue)) == "(11, False, 0.0)"


def test_enumerated_reports_read_off_their_spectra():
    for k in (5, 6, 7):
        for report in enumerate_minimal_sets(k):
            assert report.full_rank
            assert_read_off_spectrum(report)


def test_set_report_rejects_bad_ids():
    for bad in ([float("nan"), 2], ["a"], [None], [0], [1, 1]):
        with pytest.raises(ValidationError):
            set_report(bad)


def test_minimum_readout_count_is_five():
    assert minimum_readout_count() == 5


def test_split_selection_matches_the_all_masks_oracle():
    # each size's full-rank masks come from its own half-mask pairs; scanning
    # every 18-bit mask must find the same ones, in the same descending order
    cover, sizes = _tables()
    full = cover == (1 << 16) - 1
    for k in range(1, 19):
        np.testing.assert_array_equal(_full_rank_masks(k), np.flatnonzero(full & (sizes == k))[::-1], err_msg=str(k))
    assert minimum_readout_count() == sizes[full].min() == 5


def test_bulk_built_reports_are_plain_reports():
    # enumerated reports are filled through the field slots, without
    # __init__; they must be indistinguishable from constructed ones
    for r in enumerate_minimal_sets(5) + enumerate_minimal_sets(7)[::97]:
        twin = SetReport(r.ids, r.eigenvalues)
        assert type(r) is SetReport and repr(r) == repr(twin) and r == twin
        assert r.eigenvalues.flags.writeable  # a row view of one writeable spectra array
        for field in ("ids", "eigenvalues"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, field, None)
        for clone in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
            assert type(clone) is SetReport and repr(clone) == repr(r) and clone.ids == r.ids
            assert clone.eigenvalues.tobytes() == r.eigenvalues.tobytes()
    # slotted: no __dict__, and no weak references
    assert not hasattr(r, "__dict__")
    with pytest.raises(TypeError):
        weakref.ref(r)


def test_enumerate_size_four_is_empty():
    assert enumerate_minimal_sets(4) == []


def test_enumerate_size_five_matches_golden_table():
    reports = enumerate_minimal_sets(5)
    found = [r.ids for r in reports]
    assert found == sorted(found)  # lexicographic
    assert set(found) == set(goldens.MINIMAL_SETS_5)
    assert len(found) == 72
    # a set's spectrum is the same scored alone as among its size
    for r in reports:
        np.testing.assert_array_equal(set_report(r.ids).eigenvalues, r.eigenvalues)


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


# Swapping the two spins maps the read-out that applies rotation ab and
# acquires H to the one that applies ba and acquires P: _MIRROR[r - 1] for id r.
_MIRROR = [10, 13, 16, 11, 14, 17, 12, 15, 18, 1, 4, 7, 2, 5, 8, 3, 6, 9]


def test_mirror_symmetry_of_minimal_sets():
    # t <-> t+9 swaps only the acquired spin, not the rotation, so it is not
    # the mirror; still, the count of full-rank 5-sets containing an id must
    # match the count for t+9 (mod 18)
    found = [r.ids for r in enumerate_minimal_sets(5)]
    counts = {t: sum(t in ids for ids in found) for t in range(1, 19)}
    for t in range(1, 10):
        assert counts[t] == counts[t + 9], (t, counts[t], counts[t + 9])
    # _MIRROR is an involution that reverses the product-operator labels
    # (XY <-> YX): each read-out's row of the weight table, so relabelled, is
    # its mirror's row, and the trace weights are fixed.
    assert [_MIRROR[m - 1] for m in _MIRROR] == list(range(1, 19))
    swap = [PAULI_LABELS.index(label[::-1]) for label in PAULI_LABELS]
    for r, m in enumerate(_MIRROR, start=1):
        np.testing.assert_array_equal(_PAULI_WEIGHTS[r - 1][swap], _PAULI_WEIGHTS[m - 1], err_msg=str(r))
    np.testing.assert_array_equal(_TRACE_WEIGHTS[swap], _TRACE_WEIGHTS)
    # so the mirror image of every full-rank set is full rank, with a
    # bit-equal spectrum
    for k in (5, 6, 7):
        reports = {r.ids: r for r in enumerate_minimal_sets(k)}
        for ids, report in reports.items():
            image = tuple(sorted(_MIRROR[i - 1] for i in ids))
            assert image in reports, (ids, image)
            assert reports[image].eigenvalues.tobytes() == report.eigenvalues.tobytes(), ids


def test_mirror_keeps_rank_and_spectrum_at_every_set_size(rng):
    # random sets of sizes 1..18, full rank or not
    deficient = 0
    for k in range(1, 19):
        for _ in range(100):
            ids = rng.choice(np.arange(1, 19), size=k, replace=False)
            report = set_report(ids)
            image = set_report(_MIRROR[i - 1] for i in ids)
            assert image.rank == report.rank, ids
            assert image.eigenvalues.tobytes() == report.eigenvalues.tobytes(), ids
            deficient += not report.full_rank
    assert 0 < deficient < 1800


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
    """(masks, descending spectra, ranks) size by size over every mask
    1..2^18 - 1, the rank the count of product operators the set covers."""
    cover, sizes = _tables()
    for k in range(1, 19):
        masks = np.flatnonzero(sizes == k)
        yield masks, _spectra(masks), popcount(cover[masks])


def test_descending_masks_decode_to_lexicographic_order():
    _, sizes = _tables()
    for k in range(1, 19):
        ids = decode(np.flatnonzero(sizes == k)[::-1])
        assert ids == list(itertools.combinations(range(1, 19), k)), k


def test_rank_rests_on_a_wide_eigenvalue_gap():
    # Every eigenvalue of every set's normal matrix is a sum of halves: exactly
    # 0, or at least 0.5, and lambda_max <= 6. Rank-deficient sets report
    # exactly 0.0, never a negative eigenvalue of a PSD matrix. The set-cover
    # rank is the count of nonzero eigenvalues on every mask.
    n_sets = 0
    for masks, eig, rank in _all_spectra():
        np.testing.assert_array_equal(rank, np.count_nonzero(eig, axis=1))
        assert eig[:, 0].max() <= 6
        assert np.all(eig >= 0), masks[0]
        np.testing.assert_array_equal(2 * eig, np.round(2 * eig))
        np.testing.assert_array_equal(rank, np.count_nonzero(eig >= 0.5, axis=1))
        deficient = eig[rank < 16, -1]
        assert np.all(deficient == 0) and not np.signbit(deficient).any(), masks[0]
        n_sets += len(masks)
    assert n_sets == 2**18 - 1
    report = set_report([1, 2])
    assert report.rank < 16 and repr(report.min_eigenvalue) == "0.0"


def test_batched_rank_matches_svd_rank(rng):
    def svd_rank(ids):
        return matrix_rank(assemble_design(ids).matrix)

    cover, _ = _tables()
    for k in (4, 5):
        sets = list(itertools.combinations(range(1, 19), k))
        rank = popcount(cover[masks_of(sets)])
        assert rank.tolist() == [svd_rank(ids) for ids in sets]
    others = [k for k in range(1, 19) if k not in (4, 5)]
    for _ in range(2000):
        ids = rng.choice(np.arange(1, 19), size=int(rng.choice(others)), replace=False)
        assert set_report(ids).rank == svd_rank(ids), sorted(ids)


def test_pauli_basis_is_orthonormal():
    np.testing.assert_allclose(_PAULI_BASIS.T @ _PAULI_BASIS, np.eye(16), rtol=0, atol=1e-15)
    np.testing.assert_allclose(INTEGER_BASIS, _PAULI_BASIS * NORMS, rtol=0, atol=1e-14)
    assert set(np.abs(INTEGER_BASIS).ravel()) == {0, 1, 2}


def test_pauli_basis_diagonalises_every_gram_block():
    # BLAS may fuse multiply-adds, so U^T G U in floats carries 1e-16 dust
    # off the diagonal; in the integer frame C = U * NORMS every product and
    # sum is exact, and U^T G U = C^T G C / (NORMS NORMS^T).
    weights = [*_PAULI_WEIGHTS, _TRACE_WEIGHTS]
    for r, (gram, w) in enumerate(zip(GRAMS, weights), start=1):
        exact = INTEGER_BASIS.T @ gram @ INTEGER_BASIS
        assert np.all(exact[~np.eye(16, dtype=bool)] == 0.0), r
        np.testing.assert_array_equal(np.diag(exact) / SQUARED_NORMS, w)
        np.testing.assert_allclose(_PAULI_BASIS.T @ gram @ _PAULI_BASIS, np.diag(w), rtol=0, atol=1e-15)


def test_weight_tables_are_the_rule_on_each_gram_block():
    for r, (gram, w) in enumerate(zip(GRAMS, [*_PAULI_WEIGHTS, _TRACE_WEIGHTS]), start=1):
        assert _pauli_eigenvalues(gram).tobytes() == w.tobytes(), r


def test_a_gram_block_off_the_product_operators_is_refused():
    # one coefficient moved by 1/4, anywhere in any read-out, is what would
    # make the import-time check of the weight tables fire
    for r, rows in enumerate(_ROWS, start=1):
        for i, k in itertools.product(range(4), range(16)):
            moved = rows.copy()
            moved[i, k] += 0.25
            assert _pauli_eigenvalues(moved.T @ moved) is None, (r, i, k)


def test_pauli_column_reads_its_product_operator(rng):
    pauli = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
             "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}
    for _ in range(20):
        rho = random_hermitian(rng)
        x = matrix_to_params(rho)
        for label, column, norm in zip(PAULI_LABELS, _PAULI_BASIS.T, NORMS):
            sigma = np.kron(pauli[label[0]], pauli[label[1]])  # H spin first
            assert norm * column @ x == pytest.approx(np.trace(sigma @ rho).real, abs=1e-12), label


def test_pauli_weights_are_four_halves_per_readout():
    for r, w in enumerate(_PAULI_WEIGHTS, start=1):
        assert np.count_nonzero(w) == 4, r
        assert set(w[w != 0]) <= {0.5, 1.0}, r
    np.testing.assert_array_equal(_TRACE_WEIGHTS, np.eye(16)[PAULI_LABELS.index("II")] * 4)
    # without a pulse, H acquisition sees rho13 and rho24, P acquisition
    # rho12 and rho34: the H-spin and the P-spin coherences
    observed = [{PAULI_LABELS[p] for p in np.flatnonzero(_PAULI_WEIGHTS[r - 1])} for r in (1, 10)]
    assert observed == [{"XI", "YI", "XZ", "YZ"}, {"IX", "IY", "ZX", "ZY"}]


def test_table_normal_matrix_matches_design():
    # the table sums are exact, so U diag(w) U^T, taken in the integer frame,
    # rebuilds A^T A of the assembled design bit for bit
    for sets in (goldens.MINIMAL_SETS_5, [(1, 2), (3, 11, 17)], [tuple(range(1, 19))]):
        for ids in sets:
            w = _PAULI_WEIGHTS[np.array(ids) - 1].sum(axis=0) + _TRACE_WEIGHTS
            rebuilt = INTEGER_BASIS @ np.diag(w / SQUARED_NORMS) @ INTEGER_BASIS.T
            np.testing.assert_array_equal(rebuilt, normal_system(assemble_design(ids)).matrix)
            np.testing.assert_array_equal(np.sort(w)[::-1], _spectra(masks_of([ids]))[0])


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
    # rest of the spectrum. Without it, the analysis that ``cli analyze
    # --no-trace`` prints reads the exact spectrum and its rank to match.
    n_sets = 0
    for sets in _margin_batches(rng):
        with_trace = _spectra(masks_of(sets))
        designs = [assemble_design(ids, include_trace=False) for ids in sets]
        table = np.array([error_matrix_analysis(normal_system(d)).eigenvalues for d in designs])
        table_rank = np.count_nonzero(table, axis=1)
        without = np.linalg.eigvalsh([normal_system(d).matrix for d in designs])[:, ::-1]
        four = np.abs(with_trace - 4).argmin(axis=1)
        rows = np.arange(len(sets))
        np.testing.assert_allclose(with_trace[rows, four], 4, rtol=0, atol=1e-12)
        swapped = with_trace.copy()
        swapped[rows, four] = 0
        np.testing.assert_allclose(np.sort(swapped, axis=1)[:, ::-1], without, rtol=0, atol=1e-12)
        np.testing.assert_allclose(table, without, rtol=0, atol=1e-12)
        assert table_rank.tolist() == [matrix_rank(d.matrix) for d in designs]
        n_sets += len(sets)
    assert n_sets == 3060 + 8568 + 2000


def test_table_spectra_match_full_eigensolve(rng):
    for sets in (*_margin_batches(rng), [tuple(range(1, 19))]):
        eig = _spectra(masks_of(sets))
        full = np.linalg.eigvalsh([normal_system(assemble_design(ids)).matrix for ids in sets])
        np.testing.assert_allclose(eig, full[:, ::-1], rtol=0, atol=1e-12)


def test_ranking_does_not_depend_on_input_order(rng):
    # smallest eigenvalues are exactly 1/2 or 1, so ties are bit-equal and
    # fall back to ids whatever order the reports come in
    reports = [r for k in (5, 6, 7) for r in enumerate_minimal_sets(k)]
    for k in (5, 6, 7):
        assert {r.min_eigenvalue for r in reports if len(r.ids) == k} == {0.5, 1.0}
    shuffled = [reports[i] for i in rng.permutation(len(reports))]
    ranked = [r.ids for r in rank_sets_by_conditioning(reports)]
    assert [r.ids for r in rank_sets_by_conditioning(shuffled)] == ranked
    assert len(ranked) == 72 + 1182 + 6714
    # the same objects as the plain key sort; duplicated reports (equal ids,
    # distinct objects) keep their input order
    dup = shuffled + [SetReport(r.ids, r.eigenvalues.copy()) for r in shuffled[:100]]
    dup = [dup[i] for i in rng.permutation(len(dup))]
    reference = sorted(dup, key=lambda r: (-r.min_eigenvalue, r.ids))
    assert all(a is b for a, b in zip(rank_sets_by_conditioning(dup), reference, strict=True))


def test_full_rank_set_count_over_all_sizes():
    counts = [len(enumerate_minimal_sets(k)) for k in range(1, 19)]
    assert counts[:7] == [0, 0, 0, 0, 72, 1182, 6714]
    assert sum(counts) == 150_436


def test_search_output_is_pinned():
    # every enumerated report of every size, and the ranking of the shuffled
    # sizes 5-8, bit for bit (ids, eigenvalue dtype and bytes)
    everything = (r for k in range(1, 19) for r in enumerate_minimal_sets(k))
    assert digest(everything) == "2a082432ad3df02dc4d777f60c4c421a31506826dd889911c14385cf76f49179"
    reports = [r for k in (5, 6, 7, 8) for r in enumerate_minimal_sets(k)]
    shuffled = [reports[i] for i in np.random.default_rng(19).permutation(len(reports))]
    ranked = rank_sets_by_conditioning(shuffled)
    assert len(ranked) == len(reports)
    assert digest(ranked) == "010ebc30a7df0a7208dcec6d08bf07f8917ea7066161efe6c61e8ce8e2f29496"


def test_ranking_returns_the_objects_of_the_key_sort(rng):
    def reference(reports):
        return sorted(filter(lambda r: r.full_rank, reports), key=lambda r: (-r.min_eigenvalue, r.ids))

    def assert_same_objects(got, want):
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))

    full = enumerate_minimal_sets(6)[::50] + [set_report(range(1, 19))]
    deficient = [set_report(ids) for ids in ([1, 2, 3, 4], [1], [10, 11, 12, 13], [2, 5, 8, 11])]
    # hand-built: a nonzero smallest eigenvalue is full rank, even a negative one
    odd = [SetReport((3, 4), np.array([1.0, -0.5])), SetReport((2,), np.array([3.0, 0.0]))]
    mixed = [(full + deficient + odd)[i] for i in rng.permutation(len(full) + len(deficient) + len(odd))]
    twins = mixed + [SetReport(r.ids, r.eigenvalues.copy()) for r in mixed] + mixed[:5]
    twins = [twins[i] for i in rng.permutation(len(twins))]
    assert rank_sets_by_conditioning([]) == []
    assert rank_sets_by_conditioning(iter([])) == []
    assert rank_sets_by_conditioning(deficient) == []
    for reports in (full, mixed, twins):
        assert_same_objects(rank_sets_by_conditioning(reports), reference(reports))
        # a one-shot iterator is read once
        assert_same_objects(rank_sets_by_conditioning(iter(reports)), reference(reports))
