import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tomoforge import (
    DEFAULT_THRESHOLD,
    PEAKS,
    DesignSystem,
    NumericalError,
    Reading,
    ValidationError,
    assemble_design,
    chi2,
    error_matrix_analysis,
    matrix_rank,
    matrix_to_params,
    maximally_mixed_params,
    normal_system,
    params_to_matrix,
    psd_project,
    reconstruct,
    relative_error,
    simulate_readings,
)
from tomoforge.lsq import _basis
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


# The basis memo under ``reconstruct``: results must be bit-identical to a
# fresh solve through the public normal_system and error_matrix_analysis.


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


def test_cached_basis_is_bit_identical_to_a_fresh_solve():
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


def test_cold_and_warm_basis_give_the_same_bytes():
    d = assemble_design([1, 2, 3, 4], readings=simulate_readings(np.eye(4) / 4, [1, 2, 3, 4]))
    _basis.cache_clear()
    cold = reconstruct(d)
    warm = reconstruct(d)
    assert _basis.cache_info().hits == 1 and _basis.cache_info().misses == 1
    _assert_same_bytes(warm, (cold.params, cold.chi2, cold.truncated_directions))


def test_callers_cannot_reach_the_cached_basis():
    d = assemble_design([1, 2, 3, 4], readings=simulate_readings(np.eye(4) / 4, [1, 2, 3, 4]))
    first = reconstruct(d)
    expected = (first.params.copy(), first.chi2, [(lam, c.copy()) for lam, c in first.truncated_directions])
    first.params[:] = 7.0
    first.truncated_directions[0][1][:] = 7.0
    first.prior_used[:] = 7.0
    _assert_same_bytes(reconstruct(d), expected)
    a = d.matrix
    for cached in _basis(a.tobytes(), len(a)):
        assert not cached.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 1.0


def test_basis_key_is_the_matrix_not_the_labels():
    ids = goldens.SIX_READOUT_IDS
    d = assemble_design(ids, readings=simulate_readings(np.eye(4) / 4, ids, noise_sigma=0.01, seed=1))
    reconstruct(d)
    bumped = d.matrix.copy()
    row, col = np.argwhere(bumped != 0)[0]
    bumped[row, col] = np.nextafter(bumped[row, col], np.inf)
    near = DesignSystem(bumped, d.rhs, d.row_labels)
    misses = _basis.cache_info().misses
    _assert_same_bytes(reconstruct(near), _reference_solve(near))
    assert _basis.cache_info().misses == misses + 1


def test_hopeless_threshold_raises_on_every_call():
    d = assemble_design([1, 2], readings=simulate_readings(np.eye(4) / 4, [1, 2]))
    for _ in range(2):
        with pytest.raises(NumericalError, match="threshold"):
            reconstruct(d, threshold=1e9)


def test_basis_memo_stays_bounded():
    rng = np.random.default_rng(3)
    for _ in range(50):
        ids = sorted(rng.choice(np.arange(1, 19), size=6, replace=False).tolist())
        reconstruct(assemble_design(ids, readings=simulate_readings(np.eye(4) / 4, ids)))
    info = _basis.cache_info()
    assert info.currsize <= info.maxsize
