import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tomoforge import (
    DEFAULT_THRESHOLD,
    PEAKS,
    DesignSystem,
    NormalSystem,
    NumericalError,
    Reading,
    ValidationError,
    assemble_design,
    chi2,
    enumerate_minimal_sets,
    error_matrix_analysis,
    matrix_rank,
    matrix_to_params,
    maximally_mixed_params,
    normal_system,
    params_to_matrix,
    psd_project,
    reconstruct,
    relative_error,
    set_report,
    simulate_readings,
    sym_eigen,
)
from tomoforge import lsq
from tomoforge.model import (
    DIAGONAL_SLOTS,
    PAULI_LABELS,
    _PAULI_BASIS,
    _PAULI_WEIGHTS,
    _TRACE_WEIGHTS,
    _pauli_eigenvalues,
)
from conftest import random_trace_one_hermitian

import goldens


def eigenspace_residual(c, coeffs, eigenvalue):
    """Distance from the unit-normalized vector to the eigenspace of c."""
    w, v = np.linalg.eigh(c)
    vec = goldens.combination_vector(coeffs)
    vec = vec / np.linalg.norm(vec)
    cols = np.abs(w - eigenvalue) < 1e-6
    proj = v[:, cols] @ (v[:, cols].T @ vec)
    return float(np.linalg.norm(vec - proj))


def test_full_set_normal_matrix_is_golden():
    d = assemble_design(range(1, 19))
    ns = normal_system(d)
    np.testing.assert_allclose(ns.matrix, goldens.NORMAL_MATRIX_FULL, atol=1e-12)
    np.testing.assert_array_equal(ns.rhs, d.matrix.T @ d.rhs)


def test_six_readout_normal_matrix_matches_golden_up_to_erratum():
    ns = normal_system(assemble_design(goldens.SIX_READOUT_IDS))
    np.testing.assert_allclose(ns.matrix, goldens.NORMAL_MATRIX_SIX, atol=1e-12)
    # the verbatim transcription must disagree exactly at the documented entry
    diff = np.argwhere(np.abs(ns.matrix - goldens.NORMAL_MATRIX_SIX_VERBATIM) > 1e-9)
    assert [(i + 1, j + 1) for i, j in diff] == [goldens.SIX_ERRATUM_ENTRY]
    i, j = goldens.SIX_ERRATUM_ENTRY
    assert ns.matrix[i - 1, j - 1] == pytest.approx(goldens.SIX_ERRATUM_CORRECTED, abs=1e-12)


def test_zero_rhs_gives_zero_normal_rhs():
    d = assemble_design([1, 2], include_trace=False)
    assert np.all(normal_system(d).rhs == 0.0)


def test_normal_matrix_psd_and_null_space_matches_rank(rng):
    for _ in range(20):
        ids = sorted(rng.choice(np.arange(1, 19), size=int(rng.integers(1, 7)), replace=False).tolist())
        include_trace = bool(rng.integers(2))
        d = assemble_design(ids, include_trace=include_trace)
        c = normal_system(d).matrix
        w = np.linalg.eigvalsh(c)
        assert w.min() > -1e-10
        n_zero = int(np.sum(w < 1e-10))
        assert 16 - matrix_rank(d.matrix) == n_zero


def test_error_matrix_analysis_full_set():
    report = error_matrix_analysis(normal_system(assemble_design(range(1, 19))))
    np.testing.assert_allclose(sorted(report.eigenvalues), goldens.EIGENVALUES_FULL, atol=1e-9)
    assert not report.ill_determined.any()
    np.testing.assert_allclose(report.combinations @ report.combinations.T, np.eye(16), atol=1e-10)


def test_error_matrix_analysis_six_readouts():
    report = error_matrix_analysis(normal_system(assemble_design(goldens.SIX_READOUT_IDS)))
    np.testing.assert_allclose(sorted(report.eigenvalues), goldens.EIGENVALUES_SIX, atol=1e-9)
    assert not report.ill_determined.any()


def test_threshold_mechanics():
    from tomoforge import NormalSystem

    diag = np.ones(16)
    diag[1] = 1e-6
    ns = NormalSystem(np.diag(diag), np.zeros(16))
    report = error_matrix_analysis(ns, threshold=0.001)
    assert int(report.ill_determined.sum()) == 1
    # eigenvalues are sorted descending, so the tiny one sits last
    assert report.ill_determined[-1]
    assert report.eigenvalues[-1] == pytest.approx(1e-6)
    for bad in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError, match="positive"):
            error_matrix_analysis(ns, threshold=bad)


def test_quoted_combinations_lie_in_eigenspaces():
    c_full = normal_system(assemble_design(range(1, 19))).matrix
    for k, (coeffs, lam) in enumerate(goldens.COMBINATIONS_FULL):
        res = eigenspace_residual(c_full, coeffs, lam)
        if k == goldens.FULL_ERRATUM_INDEX:
            # documented misprint: the x7 term was dropped; see goldens.py
            assert res > 0.25
            coeffs_fixed, lam_fixed = goldens.COMBINATION_FULL_1_CORRECTED
            assert eigenspace_residual(c_full, coeffs_fixed, lam_fixed) < 0.02
        else:
            assert res < 0.02, f"combination {k + 1} residual {res}"
    c_six = normal_system(assemble_design(goldens.SIX_READOUT_IDS)).matrix
    for k, (coeffs, lam) in enumerate(goldens.COMBINATIONS_SIX):
        res = eigenspace_residual(c_six, coeffs, lam)
        assert res < 0.02, f"combination {k + 1} residual {res}"


def test_noiseless_full_set_reconstruction():
    rho = goldens.RHO_PREDICTED / np.trace(goldens.RHO_PREDICTED).real
    readings = simulate_readings(rho, range(1, 19))
    d = assemble_design(range(1, 19), readings=readings)
    result = reconstruct(d)
    np.testing.assert_allclose(params_to_matrix(result.params), rho, atol=1e-10)
    assert result.chi2 < 1e-18
    assert result.truncated_directions == ()


def test_noiseless_five_set_reconstruction():
    rho = goldens.RHO_PREDICTED / np.trace(goldens.RHO_PREDICTED).real
    for ids in goldens.MINIMAL_SETS_5[:5]:
        readings = simulate_readings(rho, ids)
        result = reconstruct(assemble_design(ids, readings=readings))
        np.testing.assert_allclose(params_to_matrix(result.params), rho, atol=1e-8)


def test_rank_deficient_reconstruction_holds_prior():
    rho = goldens.RHO_PREDICTED / np.trace(goldens.RHO_PREDICTED).real
    ids = [1, 2, 3, 4]
    assert matrix_rank(assemble_design(ids).matrix) < 16
    readings = simulate_readings(rho, ids)
    result = reconstruct(assemble_design(ids, readings=readings))
    assert len(result.truncated_directions) > 0
    rebuilt = params_to_matrix(result.params)
    assert np.trace(rebuilt).real == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_array_equal(result.prior_used, maximally_mixed_params())
    for lam, combo in result.truncated_directions:
        assert lam < 0.001
        assert combo.shape == (16,)
    bad_prior = maximally_mixed_params()
    bad_prior[3] = np.inf
    with pytest.raises(ValidationError, match="non-finite"):
        reconstruct(assemble_design(ids, readings=readings), prior=bad_prior)


def test_reconstruct_rejects_hopeless_threshold():
    readings = simulate_readings(np.eye(4) / 4, [1, 2])
    d = assemble_design([1, 2], readings=readings)
    with pytest.raises(NumericalError, match="threshold"):
        reconstruct(d, threshold=1e6)


def test_full_rank_reconstruction_matches_direct_solve(rng):
    rho = random_trace_one_hermitian(rng)
    readings = simulate_readings(rho, range(1, 19), noise_sigma=0.02, seed=5)
    d = assemble_design(range(1, 19), readings=readings)
    ns = normal_system(d)
    direct = np.linalg.solve(ns.matrix, ns.rhs)
    result = reconstruct(d)
    np.testing.assert_allclose(result.params, direct, atol=1e-9)


def test_row_scaling_leaves_solution_unchanged():
    from tomoforge import DesignSystem

    rho = goldens.RHO_PREDICTED / np.trace(goldens.RHO_PREDICTED).real
    readings = simulate_readings(rho, goldens.SIX_READOUT_IDS, noise_sigma=0.01, seed=3)
    d = assemble_design(goldens.SIX_READOUT_IDS, readings=readings)
    scaled = DesignSystem(2.5 * d.matrix, 2.5 * d.rhs, d.row_labels)
    x1 = reconstruct(d, threshold=0.001).params
    x2 = reconstruct(scaled, threshold=0.001 * 2.5**2).params
    np.testing.assert_allclose(x1, x2, atol=1e-12)


def test_chi2_exact_and_single_perturbation():
    rho = goldens.RHO_PREDICTED / np.trace(goldens.RHO_PREDICTED).real
    readings = simulate_readings(rho, range(1, 19))
    d = assemble_design(range(1, 19), readings=readings)
    x = reconstruct(d).params
    assert chi2(d, x) < 1e-18
    bumped = d.rhs.copy()
    bumped[10] += 1e-3
    from tomoforge import DesignSystem

    d2 = DesignSystem(d.matrix, bumped, d.row_labels)
    assert chi2(d2, x) == pytest.approx(1e-6, abs=1e-15)


def test_chi2_local_minimality(rng):
    rho = random_trace_one_hermitian(rng)
    readings = simulate_readings(rho, goldens.SIX_READOUT_IDS, noise_sigma=0.02, seed=9)
    d = assemble_design(goldens.SIX_READOUT_IDS, readings=readings)
    x_hat = reconstruct(d).params
    base = chi2(d, x_hat)
    for _ in range(1000):
        v = rng.standard_normal(16)
        v /= np.linalg.norm(v)
        assert chi2(d, x_hat + 1e-4 * v) >= base - 1e-15


def test_relative_error_golden_values():
    assert relative_error(goldens.RHO_PREDICTED, goldens.RHO_PREDICTED) == 0.0
    delta_all = relative_error(goldens.RHO_ALL_READOUTS, goldens.RHO_PREDICTED)
    assert abs(delta_all - goldens.DELTA_ALL_QUOTED) < goldens.DELTA_TOL
    delta_twelve = relative_error(goldens.RHO_TWELVE_READOUTS, goldens.RHO_PREDICTED)
    assert abs(delta_twelve - goldens.DELTA_ALL_QUOTED) < goldens.DELTA_TOL
    delta_six = relative_error(goldens.RHO_SIX_READOUTS, goldens.RHO_PREDICTED)
    assert abs(delta_six - goldens.DELTA_SIX_QUOTED) < goldens.DELTA_TOL


def test_relative_error_options_and_validation():
    a = goldens.RHO_ALL_READOUTS
    b = goldens.RHO_PREDICTED
    assert relative_error(a, b, norm="frobenius") == pytest.approx(
        np.linalg.norm(a - b) / np.linalg.norm(a)
    )
    with pytest.raises(ValidationError, match="norm"):
        relative_error(a, b, norm="nuclear")
    with pytest.raises(ValidationError, match="zero"):
        relative_error(np.zeros((4, 4)), b)


def test_psd_project(rng):
    m = random_trace_one_hermitian(rng)
    p = psd_project(m)
    w = np.linalg.eigvalsh(p)
    assert w.min() > -1e-12
    assert np.trace(p).real == pytest.approx(np.trace(m).real, abs=1e-12)
    already = np.eye(4) / 4
    np.testing.assert_allclose(psd_project(already), already, atol=1e-12)
    # a zero trace keeps the clipped spectrum as it is; no positive mass at all is refused
    assert np.array_equal(psd_project(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]))
    with pytest.raises(NumericalError, match="no positive eigenvalue mass"):
        psd_project(-np.eye(2))


_SETS = st.sampled_from(list(goldens.MINIMAL_SETS_5) + [tuple(range(1, 19))])
# real and imaginary parts for up to 18 read-outs x 2 peaks
_PARTS = st.lists(st.floats(-1, 1), min_size=72, max_size=72)


def _readings(ids, parts):
    it = iter(parts)
    return [Reading(rid, p, complex(next(it), next(it))) for rid in ids for p in PEAKS]


def _solve(ids, readings):
    return reconstruct(assemble_design(ids, readings=readings))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_SETS, _PARTS, _PARTS, st.floats(-1, 2))
def test_reconstruct_is_affine_in_the_readings(ids, r1, r2, alpha):
    mixed = [alpha * a + (1 - alpha) * b for a, b in zip(r1, r2)]
    x1, x2 = (_solve(ids, _readings(ids, r)).params for r in (r1, r2))
    x = _solve(ids, _readings(ids, mixed)).params
    np.testing.assert_allclose(x, alpha * x1 + (1 - alpha) * x2, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_SETS, _PARTS, st.data())
def test_reading_order_leaves_reconstruction_bit_identical(ids, parts, data):
    readings = _readings(ids, parts)
    shuffled = data.draw(st.permutations(readings))
    a, b = _solve(ids, readings), _solve(ids, shuffled)
    assert a.params.tobytes() == b.params.tobytes()
    assert np.float64(a.chi2).tobytes() == np.float64(b.chi2).tobytes()


def test_threshold_must_be_a_real_number():
    ns = normal_system(assemble_design(range(1, 19)))
    d = assemble_design(range(1, 19), readings=simulate_readings(np.eye(4) / 4, range(1, 19)))
    for bad in ("0.1", None, np.array([0.1, 0.2]), 1j):
        for call in (lambda: error_matrix_analysis(ns, threshold=bad), lambda: reconstruct(d, threshold=bad)):
            with pytest.raises(ValidationError, match="threshold must be a real number"):
                call()
    for bad in (0, -1.0, float("nan"), float("inf"), float("-inf"), 10**400):
        for call in (lambda: error_matrix_analysis(ns, threshold=bad), lambda: reconstruct(d, threshold=bad)):
            with pytest.raises(ValidationError, match=f"threshold must be positive and finite, got {bad}"):
                call()


# ``reconstruct`` and ``error_matrix_analysis`` share one analysis step: the
# product-operator basis for every built design, ``sym_eigen`` for anything
# else, the projection of the normal rhs and the threshold cut.


def _reference_solve(design, threshold=DEFAULT_THRESHOLD, prior=None):
    """The solve ``reconstruct`` makes, step by step from the public pieces."""
    prior = maximally_mixed_params() if prior is None else prior
    report = error_matrix_analysis(normal_system(design), threshold)
    kept = ~report.ill_determined
    solved = np.divide(report.projected_rhs, report.eigenvalues, out=np.zeros(16), where=kept)
    y = np.where(kept, solved, report.combinations @ prior)
    x = report.combinations.T @ y
    truncated = [(report.eigenvalues[k], report.combinations[k]) for k in np.flatnonzero(report.ill_determined)]
    return x, chi2(design, x), truncated


def _assert_same_bytes(result, reference):
    x, c2, truncated = reference
    assert result.params.tobytes() == x.tobytes()
    assert np.float64(result.chi2).tobytes() == np.float64(c2).tobytes()
    assert len(result.truncated_directions) == len(truncated)
    for (lam, combo), (ref_lam, ref_combo) in zip(result.truncated_directions, truncated):
        assert np.float64(lam).tobytes() == np.float64(ref_lam).tobytes()
        assert combo.tobytes() == ref_combo.tobytes()


def _lapack_solve(design, threshold, prior):
    """The same solve in LAPACK's eigenbasis: ``sym_eigen(A^T A)``, whatever
    mixture it returns inside a degenerate eigenspace."""
    a, b = design.matrix, design.rhs
    dec = sym_eigen(a.T @ a)
    w, combos = dec.eigenvalues, dec.vectors.T
    kept = w >= threshold
    solved = np.divide(combos @ (a.T @ b), w, out=np.zeros(16), where=kept)
    x = combos.T @ np.where(kept, solved, combos @ prior)
    r = a @ x - b
    return x, float(r @ r)


def _count_sym_eigen(monkeypatch):
    calls = []
    monkeypatch.setattr(lsq, "sym_eigen", lambda c: calls.append(1) or sym_eigen(c))
    return calls


def test_reconstruct_is_bit_identical_to_the_public_solve():
    rng = np.random.default_rng(9)
    sets = [list(s) for s in goldens.MINIMAL_SETS_5] + [list(range(1, 19)), [1, 2, 3, 4]]
    for _ in range(200):
        sets.append(sorted(rng.choice(np.arange(1, 19), size=int(rng.integers(4, 19)), replace=False).tolist()))
    priors = (None, matrix_to_params(random_trace_one_hermitian(rng)))
    n_truncated = 0
    for i, ids in enumerate(sets):
        rho = random_trace_one_hermitian(rng)
        d = assemble_design(ids, readings=simulate_readings(rho, ids, noise_sigma=0.01, seed=i))
        w = error_matrix_analysis(normal_system(d)).eigenvalues
        for threshold in (1e-3, 0.3, w[w >= 1e-3][-1]):  # the last: a combination exactly at the cut
            for prior in priors:
                result = reconstruct(d, threshold=threshold, prior=prior)
                _assert_same_bytes(result, _reference_solve(d, threshold, prior))
                n_truncated += bool(result.truncated_directions)
    assert n_truncated > 0  # [1, 2, 3, 4] and the small random sets truncate


def test_reconstruct_agrees_with_the_lapack_eigenbasis():
    rng = np.random.default_rng(12)
    sets = [list(s) for s in goldens.MINIMAL_SETS_5] + [list(range(1, 19))]
    for _ in range(300):
        sets.append(sorted(rng.choice(np.arange(1, 19), size=int(rng.integers(1, 19)), replace=False).tolist()))
    for i, ids in enumerate(sets):
        d = assemble_design(ids, readings=simulate_readings(random_trace_one_hermitian(rng), ids, 0.01, seed=i))
        prior = maximally_mixed_params() if i % 2 else matrix_to_params(random_trace_one_hermitian(rng))
        for threshold in (1e-3, 0.3, 0.7):
            result = reconstruct(d, threshold=threshold, prior=prior)
            x, c2 = _lapack_solve(d, threshold, prior)
            np.testing.assert_allclose(result.params, x, rtol=0, atol=1e-12)
            assert result.chi2 == pytest.approx(c2, rel=0, abs=1e-12)


def _built_designs(rng):
    """Every set of sizes 1, 2, 17 and 18, the golden five-sets and 200 seeded
    sets of other sizes, each with and without the trace row."""
    sets = [c for k in (1, 2, 17, 18) for c in itertools.combinations(range(1, 19), k)]
    sets += list(goldens.MINIMAL_SETS_5)
    sets += [rng.choice(np.arange(1, 19), size=int(rng.integers(3, 17)), replace=False) for _ in range(200)]
    for ids in sets:
        for include_trace in (True, False):
            yield ids, include_trace, assemble_design(ids, include_trace=include_trace)


def test_built_designs_decompose_in_the_product_operator_basis(monkeypatch, rng):
    calls = _count_sym_eigen(monkeypatch)
    for ids, include_trace, d in _built_designs(rng):
        weights = _PAULI_WEIGHTS[np.asarray(ids) - 1].sum(axis=0) + (_TRACE_WEIGHTS if include_trace else 0)
        order = np.argsort(-weights, kind="stable")  # ties in PAULI_LABELS order
        report = error_matrix_analysis(normal_system(d))
        np.testing.assert_array_equal(report.eigenvalues, weights[order])
        np.testing.assert_array_equal(report.combinations, _PAULI_BASIS.T[order])
    assert calls == []
    # read-outs 1-4 (H acquisition) leave five product operators unobserved,
    # listed last in PAULI_LABELS order
    report = error_matrix_analysis(normal_system(assemble_design([1, 2, 3, 4])))
    null = [PAULI_LABELS[_PAULI_BASIS.T.tolist().index(c.tolist())] for c in report.combinations[-5:]]
    assert null == ["IZ", "IX", "IY", "ZX", "ZY"]
    np.testing.assert_array_equal(report.eigenvalues[-5:], 0.0)


def test_null_directions_are_exact_and_held_at_the_prior(rng):
    ids = [1, 2, 3, 4]
    d = assemble_design(ids, readings=simulate_readings(np.eye(4) / 4, ids, noise_sigma=0.01, seed=1))
    for threshold in (5e-324, 1e-300, 1e-20, 1e-3, 0.5):
        result = reconstruct(d, threshold=threshold)
        assert [lam for lam, _ in result.truncated_directions] == [0.0] * 5
        assert np.abs(result.params).max() < 1.0
    for _, _, d in _built_designs(rng):
        w = error_matrix_analysis(normal_system(d)).eigenvalues
        rank = matrix_rank(d.matrix)
        assert np.all(w >= 0) and not np.signbit(w).any()
        np.testing.assert_array_equal(2 * w, np.round(2 * w))
        assert np.count_nonzero(w) == rank and np.all(w[rank:] == 0.0)


def test_row_scaled_design_takes_the_general_eigensolver(monkeypatch, rng):
    calls = _count_sym_eigen(monkeypatch)
    for ids in (goldens.SIX_READOUT_IDS, range(1, 19)):
        d = assemble_design(ids, readings=simulate_readings(random_trace_one_hermitian(rng), ids, 0.01, seed=4))
        scale = rng.uniform(0.5, 2.0, d.rows)
        scaled = DesignSystem(scale[:, None] * d.matrix, scale * d.rhs, d.row_labels)
        x = reconstruct(scaled).params
        np.testing.assert_allclose(x, np.linalg.lstsq(scaled.matrix, scaled.rhs, rcond=None)[0], rtol=0, atol=1e-12)
    assert len(calls) == 2
    report = error_matrix_analysis(NormalSystem(np.diag([3.0, 1.0, 2.0]), np.ones(3)))
    np.testing.assert_array_equal(report.eigenvalues, [3.0, 2.0, 1.0])
    assert len(calls) == 3


def test_analysis_gives_the_search_spectrum_bit_for_bit():
    sets = [*goldens.MINIMAL_SETS_5, *(r.ids for r in enumerate_minimal_sets(6)), tuple(range(1, 19))]
    assert len(sets) == 72 + 1182 + 1
    for ids in sets:
        w = error_matrix_analysis(normal_system(assemble_design(ids))).eigenvalues
        assert w.tobytes() == set_report(ids).eigenvalues.tobytes(), ids


def test_rule_refuses_a_coupling_of_an_exactly_zero_pair():
    for ids in ((1, 2, 6, 12, 13), range(1, 19)):
        c = normal_system(assemble_design(ids)).matrix
        assert c[0, 1] == 0.0 and _pauli_eigenvalues(c) is not None
        for tiny in (5e-324, np.finfo(float).eps):  # the smallest subnormal, then eps
            coupled = c.copy()
            coupled[0, 1] = coupled[1, 0] = tiny
            assert _pauli_eigenvalues(coupled) is None, (tuple(ids), tiny)
    assert _pauli_eigenvalues(np.diag([3.0, 1.0, 2.0])) is None


@pytest.mark.filterwarnings("error")
def test_rule_scales_a_normal_matrix_near_the_float_limit(monkeypatch):
    calls = _count_sym_eigen(monkeypatch)
    c = normal_system(assemble_design(range(1, 19))).matrix  # entries at most 5
    reference = error_matrix_analysis(NormalSystem(c, np.zeros(16)))
    report = error_matrix_analysis(NormalSystem(np.ldexp(c, 1020), np.zeros(16)))
    assert report.eigenvalues.tobytes() == np.ldexp(reference.eigenvalues, 1020).tobytes()
    assert report.combinations.tobytes() == reference.combinations.tobytes()
    assert calls == []
    # the II eigenvalue of a population block of 1.5 * 2^1022 is 1.5 * 2^1024,
    # past the float range: refused, without an overflow warning
    block = np.zeros((16, 16))
    block[np.ix_(DIAGONAL_SLOTS, DIAGONAL_SLOTS)] = np.ldexp(1.5, 1022)
    assert _pauli_eigenvalues(block) is None


def test_rule_refuses_a_non_finite_matrix():
    # an infinite or NaN entry gives an eigenvalue that fails the range test
    c = normal_system(assemble_design(range(1, 19))).matrix
    with np.errstate(invalid="ignore"):
        for bad in (np.inf, -np.inf, np.nan):
            for entry in ((0, 0), (3, 5)):
                broken = c.copy()
                broken[entry] = bad
                assert _pauli_eigenvalues(broken) is None, (bad, entry)
            assert _pauli_eigenvalues(np.full((16, 16), bad)) is None, bad


@pytest.mark.filterwarnings("error")
def test_reconstruct_scales_a_design_near_the_float_limit():
    # past |a| = 2^500, A^T A could overflow: a design scaled by 2^k gives the
    # params of the unscaled design at the threshold scaled by 2^-2k, bit for
    # bit, its chi^2 and truncated eigenvalues times 2^2k, and no warning
    rho = goldens.RHO_PREDICTED / np.trace(goldens.RHO_PREDICTED).real
    for ids in ((1, 2, 3, 4), goldens.MINIMAL_SETS_5[0], tuple(range(1, 19))):
        d = assemble_design(ids, readings=simulate_readings(rho, ids, noise_sigma=0.01, seed=7))
        for k in (500, 511, 520):
            scaled = DesignSystem(np.ldexp(d.matrix, k), np.ldexp(d.rhs, k), d.row_labels)
            for threshold in (DEFAULT_THRESHOLD, 0.75):
                got = reconstruct(scaled, threshold)
                ref = reconstruct(d, math.ldexp(threshold, -2 * k))
                assert got.params.tobytes() == ref.params.tobytes(), (ids, k, threshold)
                assert got.chi2 == ref.chi2 * 2.0**k * 2.0**k  # inf past the float range
                assert [(lam, c.tobytes()) for lam, c in got.truncated_directions] == [
                    (math.ldexp(lam, 2 * k), c.tobytes()) for lam, c in ref.truncated_directions
                ]
    # the five-set's eigenvalues of 1/2 are held at 3/4 whatever the scale
    d = assemble_design(goldens.MINIMAL_SETS_5[0], readings=simulate_readings(rho, goldens.MINIMAL_SETS_5[0]))
    ref = reconstruct(d, 0.75)
    assert [lam for lam, _ in ref.truncated_directions] == [0.5] * 3
    got = reconstruct(DesignSystem(np.ldexp(d.matrix, 511), np.ldexp(d.rhs, 511), d.row_labels), math.ldexp(0.75, 1022))
    assert got.params.tobytes() == ref.params.tobytes()
    assert [lam for lam, _ in got.truncated_directions] == [math.ldexp(0.5, 1022)] * 3


@pytest.mark.filterwarnings("error")
def test_normal_system_refuses_a_design_past_the_float_range():
    # A^T A of the full set scaled by 1e154 or 2^520 overflows: refused as the
    # design's, without an overflow warning; up to the range, and for ordinary
    # designs, C and b are A^T A and A^T B bit for bit
    d = assemble_design(range(1, 19), readings=simulate_readings(np.eye(4) / 4, range(1, 19)))
    for scale in (1e154, 2.0**520):
        scaled = DesignSystem(d.matrix * scale, d.rhs, d.row_labels)
        with pytest.raises(ValidationError, match=r"design system: A\^T A is past the float range"):
            normal_system(scaled)
    with pytest.raises(ValidationError, match=r"design system: A\^T B is past the float range"):
        normal_system(DesignSystem(d.matrix, np.full(len(d.rhs), 1e308), d.row_labels))
    for k in (0, 510):
        a, b = np.ldexp(d.matrix, k), np.ldexp(d.rhs, k)
        ns = normal_system(DesignSystem(a, b, d.row_labels))
        assert ns.matrix.tobytes() == (a.T @ a).tobytes() and ns.rhs.tobytes() == (a.T @ b).tobytes()


@pytest.mark.filterwarnings("error")
def test_chi2_reports_what_reconstruct_reports():
    # chi2 scales a design past |a| = 2^500 as reconstruct does: at 1e154 it
    # is reconstruct's chi^2 bit for bit, at 2^520 inf, with no warning; an
    # ordinary design's is the plain sum of squared residuals
    rho = goldens.RHO_PREDICTED / np.trace(goldens.RHO_PREDICTED).real
    d = assemble_design(range(1, 19), readings=simulate_readings(rho, range(1, 19), noise_sigma=0.01, seed=7))
    x = reconstruct(d).params
    r = d.matrix @ x - d.rhs
    assert chi2(d, x) == float(r @ r) == reconstruct(d).chi2
    for scale in (1e154, 2.0**520):
        scaled = DesignSystem(d.matrix * scale, d.rhs * scale, d.row_labels)
        got = reconstruct(scaled)
        assert chi2(scaled, got.params) == got.chi2
        assert (got.chi2 == np.inf) == (scale > 1e154)


def test_callers_cannot_reach_the_pauli_basis():
    # nor the memo: the first call is cold, the later ones are warm
    lsq._design_decomposition.cache_clear()
    basis = _PAULI_BASIS.copy()
    d = assemble_design([1, 2, 3, 4], readings=simulate_readings(np.eye(4) / 4, [1, 2, 3, 4]))
    prior = maximally_mixed_params()  # the default, passed by the caller
    first = reconstruct(d, prior=prior)
    expected = (first.params.copy(), first.chi2, [(lam, c.copy()) for lam, c in first.truncated_directions])
    report = error_matrix_analysis(normal_system(d))
    combos = report.combinations.copy()
    first.params[:] = 7.0
    first.truncated_directions[0][1][:] = 7.0
    first.prior_used[:] = 7.0
    report.combinations[0] = 7.0
    np.testing.assert_array_equal(prior, maximally_mixed_params())
    _assert_same_bytes(reconstruct(d), expected)
    _assert_same_bytes(reconstruct(d, prior=prior), expected)
    np.testing.assert_array_equal(error_matrix_analysis(normal_system(d)).combinations, combos)
    assert _PAULI_BASIS.tobytes() == basis.tobytes() and not _PAULI_BASIS.flags.writeable
    _, w, cached = lsq._design_decomposition(d.matrix.tobytes(), d.rows)
    assert lsq._design_decomposition.cache_info().misses == 1
    for values in (w, cached):
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 7.0
    # each call's truncated directions are its own copies
    a, b = reconstruct(d), reconstruct(d)
    assert not np.shares_memory(a.truncated_directions[0][1], b.truncated_directions[0][1])
    assert not any(np.shares_memory(c, cached) for _, c in a.truncated_directions)


def test_hopeless_threshold_raises_on_every_call():
    d = assemble_design([1, 2], readings=simulate_readings(np.eye(4) / 4, [1, 2]))
    for _ in range(2):
        with pytest.raises(NumericalError, match="threshold"):
            reconstruct(d, threshold=1e9)


def test_acquisition_path_is_pinned_bit_for_bit():
    # simulate -> reconstruct -> relative_error over the golden five-sets and
    # the full set, hashed byte for byte: a speed-up of any step must leave
    # every bit of its output as it was
    rho = goldens.RHO_PREDICTED / np.trace(goldens.RHO_PREDICTED).real
    digest = hashlib.sha256()
    for ids in list(goldens.MINIMAL_SETS_5) + [tuple(range(1, 19))]:
        for seed in range(10):
            for sigma in (0.0, 0.01):
                readings = simulate_readings(rho, ids, noise_sigma=sigma, seed=seed)
                digest.update(np.array([r.value for r in readings]).tobytes())
                design = assemble_design(ids, readings=readings)
                for threshold in (1e-3, 0.75):
                    result = reconstruct(design, threshold)
                    digest.update(result.params.tobytes() + repr(result.chi2).encode())
                    for lam, combo in result.truncated_directions:
                        digest.update(repr(lam).encode() + combo.tobytes())
                    rebuilt = params_to_matrix(result.params)
                    for norm in ("spectral", "frobenius"):
                        digest.update(repr(relative_error(rebuilt, rho, norm)).encode())
    assert digest.hexdigest() == "69854d2c1cbe0413e92668892830976d1fa07af05df9416b8ec993b8d89b41b4"


# ``reconstruct`` takes a design's decomposition from a bounded memo keyed by
# the bytes of its checked matrix: a warm call must give a cold call's bytes.


def _result_bytes(result):
    truncated = [(np.float64(lam).tobytes(), combo.tobytes()) for lam, combo in result.truncated_directions]
    return result.params.tobytes(), np.float64(result.chi2).tobytes(), truncated, result.prior_used.tobytes()


def test_a_warm_reconstruction_gives_the_cold_bytes():
    memo = lsq._design_decomposition
    rng = np.random.default_rng(23)
    sets = [list(s) for s in goldens.MINIMAL_SETS_5] + [list(range(1, 19)), [1, 2, 3, 4]]
    for _ in range(200):
        sets.append(sorted(rng.choice(np.arange(1, 19), size=int(rng.integers(4, 19)), replace=False).tolist()))
    priors = (None, matrix_to_params(random_trace_one_hermitian(rng)))  # the mixed state, a random one
    n_truncated = 0
    for i, ids in enumerate(sets):
        d = assemble_design(ids, readings=simulate_readings(random_trace_one_hermitian(rng), ids, 0.01, seed=i))
        w = error_matrix_analysis(normal_system(d)).eigenvalues
        for threshold in (1e-3, 0.75, w[i % np.count_nonzero(w)]):  # the last: exactly one of its eigenvalues
            for prior in priors:
                memo.cache_clear()
                cold = reconstruct(d, threshold, prior)
                warm = reconstruct(d, threshold, prior)
                assert (memo.cache_info().misses, memo.cache_info().hits) == (1, 1)
                assert _result_bytes(warm) == _result_bytes(cold), (ids, threshold)
                n_truncated += bool(cold.truncated_directions)
    assert n_truncated > 0


def test_the_memo_is_keyed_by_the_matrix_not_the_labels(monkeypatch):
    calls = _count_sym_eigen(monkeypatch)
    memo = lsq._design_decomposition
    rho = goldens.RHO_PREDICTED / np.trace(goldens.RHO_PREDICTED).real
    ids = goldens.MINIMAL_SETS_5[0]
    d = assemble_design(ids, readings=simulate_readings(rho, ids, noise_sigma=0.01, seed=3))
    first = reconstruct(d)
    # the same row labels over a matrix one ulp away: no longer diagonal in the product operators
    nudged = d.matrix.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], np.inf)
    near = DesignSystem(nudged, d.rhs, d.row_labels)
    assert near.row_labels == d.row_labels
    misses = memo.cache_info().misses
    got = reconstruct(near)
    assert memo.cache_info().misses == misses + 1 and calls == [1]
    assert got.params.tobytes() != first.params.tobytes()
    np.testing.assert_allclose(got.params, first.params, rtol=0, atol=1e-12)
    assert _result_bytes(reconstruct(d)) == _result_bytes(first)
    memo.cache_clear()
    assert _result_bytes(reconstruct(near)) == _result_bytes(got)


def test_a_design_changed_in_place_is_decomposed_anew():
    rho = goldens.RHO_PREDICTED / np.trace(goldens.RHO_PREDICTED).real
    ids = goldens.MINIMAL_SETS_5[1]
    d = assemble_design(ids, readings=simulate_readings(rho, ids, noise_sigma=0.01, seed=5))
    before = reconstruct(d)
    d.matrix[:4] *= 2.0  # the first read-out's rows, doubled in place
    after = reconstruct(d)
    assert after.params.tobytes() != before.params.tobytes()
    np.testing.assert_allclose(after.params, np.linalg.lstsq(d.matrix, d.rhs, rcond=None)[0], rtol=0, atol=1e-12)
    lsq._design_decomposition.cache_clear()
    assert _result_bytes(reconstruct(d)) == _result_bytes(after)


def test_the_memo_stays_bounded():
    memo = lsq._design_decomposition
    memo.cache_clear()
    rng = np.random.default_rng(17)
    seen = set()
    while len(seen) < 200:
        ids = tuple(sorted(rng.choice(np.arange(1, 19), size=int(rng.integers(5, 19)), replace=False).tolist()))
        d = assemble_design(ids, readings=simulate_readings(np.eye(4) / 4, ids))
        reconstruct(d)
        seen.add(ids)
        info = memo.cache_info()
        assert info.currsize <= info.maxsize == lsq.MEMO_SIZE
    assert memo.cache_info().misses >= 200 and memo.cache_info().currsize == lsq.MEMO_SIZE


@pytest.mark.filterwarnings("error")
def test_a_rhs_near_the_float_limit_is_refused_or_inf_without_a_warning():
    d = assemble_design(range(1, 19), readings=simulate_readings(np.eye(4) / 4, range(1, 19)))
    x = reconstruct(d).params
    # A^T B of an rhs all 1e308 is past the float range: refused as normal_system refuses it
    big = DesignSystem(d.matrix, np.full(len(d.rhs), 1e308), d.row_labels)
    for threshold in (DEFAULT_THRESHOLD, 0.75):
        with pytest.raises(ValidationError, match=r"design system: A\^T B is past the float range"):
            reconstruct(big, threshold)
    assert chi2(big, x) == np.inf
    # A^T B in range, the residual past it: chi^2 is inf, from both
    large = DesignSystem(d.matrix, np.full(len(d.rhs), 1e300), d.row_labels)
    got = reconstruct(large)
    assert np.isfinite(got.params).all() and got.chi2 == chi2(large, got.params) == np.inf
    # eigenvalues near 2^-400 over an rhs of 1e300: the solution itself is past the float range
    tiny = DesignSystem(np.ldexp(d.matrix, -200), np.full(len(d.rhs), 1e300), d.row_labels)
    with pytest.raises(NumericalError, match="past the float range"):
        reconstruct(tiny, 1e-200)


def _unscaled_psd_project(m):
    """``psd_project`` without its power-of-two scaling, as a reference for ordinary input."""
    h = 0.5 * (m + m.conj().T)
    w, v = np.linalg.eigh(h)
    clipped = np.clip(w, 0.0, None)
    clipped *= float(np.trace(h).real) / float(clipped.sum())
    return (v * clipped) @ v.conj().T


@pytest.mark.filterwarnings("error")
def test_psd_project_scales_a_matrix_near_the_float_limit(rng):
    m = np.diag([1e308, 1e308, -1.0, 0.5])
    p = psd_project(m)
    assert np.isfinite(p).all()
    for e in (1000, 1024, 1030):  # the scaled-down input, scaled back by 2^e
        down = psd_project(np.ldexp(m, -e))
        assert p.tobytes() == np.ldexp(down.view(float), e).view(complex).tobytes(), e
    # ordinary input gives the bits it gave unscaled
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * 10.0 ** rng.uniform(-3, 3)
        h = a @ a.conj().T - rng.uniform(0, 1) * np.abs(a).max() ** 2 * np.eye(n)
        if np.trace(h).real > 0:
            assert psd_project(h).tobytes() == _unscaled_psd_project(h).tobytes()


def _assert_unwritten(arrays, call):
    """Run ``call()`` and assert that every one of ``arrays`` keeps its bytes."""
    before = [a.tobytes() for a in arrays]
    call()
    assert [a.tobytes() for a in arrays] == before


@pytest.mark.filterwarnings("error")
def test_scaling_never_writes_the_callers_arrays(rng):
    # below its limit the power-of-two rule hands back its own input, which a caller must not scale or
    # subtract in place; each array goes in as the dtype its function works in, so it is not copied first
    rho = random_trace_one_hermitian(rng)
    other = random_trace_one_hermitian(rng)
    d = assemble_design(range(1, 19), readings=simulate_readings(rho, range(1, 19)))
    x = reconstruct(d).params
    ns = normal_system(d)
    negative = np.diag([1e308, 1e308, -1.0, 0.5]).astype(complex)
    # ordinary scale, then past each limit: a 2^511 design, a 2^1020 normal matrix, 1e308 entries
    for k, e, m, big in ((0, 0, rho, 1.0), (511, 1020, negative, 1e308)):
        design = DesignSystem(np.ldexp(d.matrix, k), np.ldexp(d.rhs, k), d.row_labels)
        normal = NormalSystem(np.ldexp(ns.matrix, e), ns.rhs.copy())
        prior = maximally_mixed_params()
        a, b = rho * big, other * big
        _assert_unwritten([m], lambda: psd_project(m))
        _assert_unwritten([a, b], lambda: relative_error(a, b))
        _assert_unwritten([design.matrix, design.rhs, prior], lambda: reconstruct(design, prior=prior))
        _assert_unwritten([design.matrix, design.rhs, x], lambda: chi2(design, x))
        _assert_unwritten([normal.matrix, normal.rhs], lambda: error_matrix_analysis(normal))
