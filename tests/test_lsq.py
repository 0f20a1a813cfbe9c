import itertools

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
    sym_eigen,
)
from tomoforge import lsq
from tomoforge.model import PAULI_LABELS, _PAULI_BASIS, _PAULI_WEIGHTS, _TRACE_WEIGHTS
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


def test_callers_cannot_reach_the_pauli_basis():
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


def test_hopeless_threshold_raises_on_every_call():
    d = assemble_design([1, 2], readings=simulate_readings(np.eye(4) / 4, [1, 2]))
    for _ in range(2):
        with pytest.raises(NumericalError, match="threshold"):
            reconstruct(d, threshold=1e9)
