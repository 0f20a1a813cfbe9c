import numpy as np
import pytest

from tomoforge import ValidationError, assemble_design, matrix_rank, relative_error, sym_eigen
from tomoforge.linalg import RANK_TOL, SYMMETRY_TOL

import goldens


def test_identity_eigen():
    dec = sym_eigen(np.eye(16))
    np.testing.assert_allclose(dec.eigenvalues, np.ones(16))
    np.testing.assert_allclose(dec.vectors, np.eye(16))


def test_swap_matrix_eigen():
    dec = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-14)


def test_full_set_normal_matrix_eigenvalues():
    dec = sym_eigen(goldens.NORMAL_MATRIX_FULL)
    np.testing.assert_allclose(sorted(dec.eigenvalues), goldens.EIGENVALUES_FULL, atol=1e-12)


def test_random_symmetric_reconstruction(rng):
    for _ in range(100):
        s = rng.uniform(-5, 5, (16, 16))
        s = 0.5 * (s + s.T)
        dec = sym_eigen(s)
        np.testing.assert_allclose(dec.vectors.T @ dec.vectors, np.eye(16), atol=1e-10)
        rebuilt = (dec.vectors * dec.eigenvalues) @ dec.vectors.T
        np.testing.assert_allclose(rebuilt, s, atol=1e-9)
        assert abs(dec.eigenvalues.sum() - np.trace(s)) < 1e-9
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)


def test_eigenvector_sign_convention(rng):
    s = rng.uniform(-5, 5, (8, 8))
    dec = sym_eigen(0.5 * (s + s.T))
    for k in range(8):
        col = dec.vectors[:, k]
        assert col[np.argmax(np.abs(col))] >= 0


def test_sym_eigen_rejects_bad_input():
    with pytest.raises(ValidationError, match="square"):
        sym_eigen(np.zeros((3, 4)))
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValidationError, match="not symmetric"):
        sym_eigen(skew)
    # NaN makes |S - S^T| NaN, which no tolerance comparison would catch
    with pytest.raises(ValidationError, match="finite"):
        sym_eigen(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValidationError, match="finite"):
        sym_eigen(np.diag([1.0, np.inf]))


def test_symmetry_tolerance_is_accepted_and_the_next_float_refused():
    # the largest |S - S^T| entry of [[0, t], [0, 0]] is exactly t
    sym_eigen(np.array([[0.0, SYMMETRY_TOL], [0.0, 0.0]]))
    with pytest.raises(ValidationError, match="not symmetric"):
        sym_eigen(np.array([[0.0, np.nextafter(SYMMETRY_TOL, 1)], [0.0, 0.0]]))


def test_rank_tolerance_is_not_counted_and_the_next_float_is():
    at, above = np.diag([1.0, RANK_TOL]), np.diag([1.0, np.nextafter(RANK_TOL, 1)])
    assert np.linalg.svd(at, compute_uv=False).tolist() == [1.0, RANK_TOL]  # exact singular values
    assert matrix_rank(at) == 1
    assert matrix_rank(above) == 2


def test_rank_identity_and_single_row():
    assert matrix_rank(np.eye(16)) == 16
    assert matrix_rank(np.array([[0.0, 2.0, 0.0]])) == 1


def test_rank_of_design_without_trace_row():
    a = assemble_design(range(1, 19), include_trace=False).matrix
    assert matrix_rank(a) == 15


def test_rank_invariant_under_permutation_and_scaling(rng):
    a = assemble_design([1, 2, 6, 12, 13]).matrix
    base = matrix_rank(a)
    for _ in range(20):
        perm = rng.permutation(a.shape[0])
        scales = rng.uniform(0.5, 3.0, (a.shape[0], 1)) * rng.choice([-1.0, 1.0], (a.shape[0], 1))
        assert matrix_rank(a[perm] * scales) == base


def test_rank_validation():
    with pytest.raises(ValidationError, match="non-empty"):
        matrix_rank(np.zeros((0, 4)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="finite"):
            matrix_rank(np.array([[1.0, bad]]))


def _spectral_norm(m):
    """||m||_2 as ``relative_error`` takes it: ||I - (I - m)||_2 / ||I||_2."""
    return relative_error(np.eye(len(m)), np.eye(len(m)) - m)


def test_spectral_norm_trivial_cases():
    assert relative_error(np.eye(4), np.eye(4)) == 0.0
    assert relative_error(np.eye(4), 0 * np.eye(4)) == 1.0


def test_spectral_norm_against_power_iteration_oracle():
    m = goldens.RHO_PREDICTED
    # independent oracle: power iteration on M^H M
    g = m.conj().T @ m
    v = np.ones(4, dtype=complex) / 2.0
    for _ in range(2000):
        v = g @ v
        v /= np.linalg.norm(v)
    oracle = np.sqrt((v.conj() @ g @ v).real)
    assert _spectral_norm(m) == pytest.approx(oracle, abs=1e-12)
    assert _spectral_norm(m) == pytest.approx(goldens.RHO_PREDICTED_SPECTRAL_NORM, abs=1e-12)


def test_spectral_norm_matches_gram_eigenvalue(rng):
    # cross-check on the real embedding of M^H M, which is symmetric
    for _ in range(20):
        m = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        g = m.conj().T @ m
        embedded = np.block([[g.real, -g.imag], [g.imag, g.real]])
        top = sym_eigen(embedded).eigenvalues[0]
        assert _spectral_norm(m) == pytest.approx(np.sqrt(top), abs=1e-10)
