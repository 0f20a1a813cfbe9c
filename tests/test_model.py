import re

import numpy as np
import pytest

from tomoforge import (
    DIAGONAL_SLOTS,
    ROTATION_LABELS,
    TRACE_LABEL,
    Reading,
    ValidationError,
    apply_rotation,
    assemble_design,
    enumerate_minimal_sets,
    format_density,
    format_readings,
    is_trace_normalized,
    matrix_rank,
    matrix_to_params,
    maximally_mixed_params,
    observable_positions,
    params_to_matrix,
    readout_label,
    readout_rows,
    readout_spin,
    rotation_matrix,
    set_report,
    simulate_readings,
)
from tomoforge.model import PAULI_LABELS, TRACE_TOL, _PAULI_WEIGHTS, _require_int_in_range
from conftest import random_hermitian, random_trace_one_hermitian

import goldens

INV_SQRT2 = 1 / np.sqrt(2)


def test_identity_rotation():
    np.testing.assert_array_equal(rotation_matrix("II"), np.eye(4))


def test_ix_rotation_matches_reference():
    expected = np.array([
        [INV_SQRT2, -1j * INV_SQRT2, 0, 0],
        [-1j * INV_SQRT2, INV_SQRT2, 0, 0],
        [0, 0, INV_SQRT2, -1j * INV_SQRT2],
        [0, 0, -1j * INV_SQRT2, INV_SQRT2],
    ])
    np.testing.assert_allclose(rotation_matrix("IX"), expected, atol=1e-15)


def test_yy_rotation_matches_reference():
    expected = 0.5 * np.array([
        [1, 1, 1, 1],
        [-1, 1, -1, 1],
        [-1, -1, 1, 1],
        [1, -1, -1, 1],
    ], dtype=complex)
    np.testing.assert_allclose(rotation_matrix("YY"), expected, atol=1e-15)


@pytest.mark.parametrize("label", ROTATION_LABELS)
def test_rotations_are_unitary(label):
    r = rotation_matrix(label)
    np.testing.assert_allclose(r @ r.conj().T, np.eye(4), atol=1e-12)


def test_unknown_label_rejected():
    with pytest.raises(ValidationError, match="label"):
        rotation_matrix("XZ")


def test_params_zero_and_mixed():
    np.testing.assert_array_equal(params_to_matrix(np.zeros(16)), np.zeros((4, 4)))
    np.testing.assert_allclose(params_to_matrix(maximally_mixed_params()), np.eye(4) / 4)


def test_predicted_state_parameterization():
    np.testing.assert_allclose(params_to_matrix(goldens.RHO_PREDICTED_PARAMS), goldens.RHO_PREDICTED, atol=1e-15)
    np.testing.assert_allclose(matrix_to_params(goldens.RHO_PREDICTED), goldens.RHO_PREDICTED_PARAMS, atol=1e-15)


def test_mixed_params_inverse():
    x = matrix_to_params(np.eye(4) / 4)
    np.testing.assert_allclose(x, maximally_mixed_params())
    assert is_trace_normalized(x)


def test_param_round_trip_random(rng):
    for _ in range(100):
        m = random_hermitian(rng)
        np.testing.assert_allclose(params_to_matrix(matrix_to_params(m)), m, atol=1e-12)


def test_real_coherences_format_without_negative_zero():
    # conj() would turn the +0.0 imaginary parts of the lower triangle into
    # -0.0, which format_density writes out as "-0.0i"
    psi = np.array([1.0, -1.0, 1.0, 1.0]) / 2
    x = matrix_to_params(np.outer(psi, psi))
    assert not x[10:].any()
    m = params_to_matrix(x)
    assert "-0.0" not in format_density(m)
    assert not np.signbit(m.imag).any()


def _triangle_params_to_matrix(x):
    """The conversion written with the triangle indices and complex temporaries, as a reference."""
    upper, strict = np.triu_indices(4), np.triu_indices(4, 1)
    re, im = x[:10][upper[0] != upper[1]], x[10:]
    m = np.zeros((4, 4), dtype=complex)
    m[upper] = x[:10]
    m[strict] = re + 1j * im
    m[strict[::-1]] = re - 1j * im
    return m


def test_parameter_conversions_match_the_triangle_formula_byte_for_byte(rng):
    # signed zeros, subnormals and values near the float limit: both
    # directions give the reference's bytes, signs of zero included
    big = np.finfo(float).max
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, big, -big, 1e308, -1e308, 0.25, -0.1])
    cases = [np.zeros(16), np.full(16, -0.0), np.full(16, big), np.full(16, -5e-324)]
    cases += [rng.choice(pool, size=16) for _ in range(500)]
    for x in cases:
        m = params_to_matrix(x)
        ref = _triangle_params_to_matrix(x)
        assert m.shape == (4, 4) and m.tobytes() == ref.tobytes(), x
        back = matrix_to_params(m)
        assert back.tobytes() == np.concatenate([ref[np.triu_indices(4)].real, ref[np.triu_indices(4, 1)].imag]).tobytes()
        # a Fortran-ordered copy and a strided view of the same matrix read the same
        strided = np.zeros((8, 8), dtype=complex)
        strided[::2, ::2] = m
        for same in (np.asfortranarray(m), strided[::2, ::2]):
            assert matrix_to_params(same).tobytes() == back.tobytes()


def test_matrix_to_params_inverts_params_to_matrix_bit_for_bit_when_coherences_are_nonzero(rng):
    big = np.finfo(float).max
    pool = np.array([5e-324, -5e-324, 2.5e-310, -1e-308, big, -big, 1e308, -1e308, 0.25, -0.1, 1.0, -3.0])
    coherence = np.ones(16, dtype=bool)
    coherence[list(DIAGONAL_SLOTS)] = False
    cases = [rng.normal(size=16) * 10.0 ** rng.integers(-300, 300, size=16) for _ in range(300)]
    cases += [rng.choice(pool, size=16) for _ in range(300)]
    cases += [np.where(coherence, x, rng.choice([0.0, -0.0], size=16)) for x in cases[:50]]  # signed zero populations
    for x in cases:
        assert np.all(x[coherence] != 0.0)
        assert matrix_to_params(params_to_matrix(x)).tobytes() == x.tobytes(), x
    # the documented exception: a -0.0 imaginary coherence part comes back as +0.0
    x = np.full(16, 0.1)
    x[10] = -0.0
    back = matrix_to_params(params_to_matrix(x))
    assert back[10] == 0.0 and not np.signbit(back[10])


def test_matrix_to_params_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 2] = 0.5
    with pytest.raises(ValidationError, match=r"\(1,3\)|\(3,1\)"):
        matrix_to_params(m)


def test_apply_rotation_identity_and_mixed(rng):
    rho = random_hermitian(rng)
    np.testing.assert_allclose(apply_rotation(rho, "II"), rho)
    for label in ROTATION_LABELS:
        np.testing.assert_allclose(apply_rotation(np.eye(4) / 4, label), np.eye(4) / 4, atol=1e-14)


def test_apply_rotation_against_naive_product_oracle():
    # independent oracle: elementwise triple product, no matrix multiply
    r = rotation_matrix("XI")
    rho = goldens.RHO_PREDICTED
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            acc = 0.0j
            for k in range(4):
                for l in range(4):
                    acc += r[i, k] * rho[k, l] * np.conj(r[j, l])
            expected[i, j] = acc
    np.testing.assert_allclose(apply_rotation(rho, "XI"), expected, atol=1e-13)


def test_apply_rotation_preserves_trace_and_spectrum(rng):
    for _ in range(100):
        rho = random_hermitian(rng)
        label = ROTATION_LABELS[int(rng.integers(9))]
        rotated = apply_rotation(rho, label)
        assert abs(np.trace(rotated) - np.trace(rho)) < 1e-12
        np.testing.assert_allclose(
            np.linalg.eigvalsh(rotated), np.linalg.eigvalsh(rho), atol=1e-9
        )


def test_observable_positions():
    assert observable_positions(1) == ((1, 3), (2, 4))
    assert observable_positions(9) == ((1, 3), (2, 4))
    assert observable_positions(10) == ((1, 2), (3, 4))
    assert readout_label(1) == "II"
    assert readout_label(13) == "XI"
    assert readout_spin(9) == "H"
    assert readout_spin(18) == "P"


def test_readout_rows_identity_h():
    rows, labels = readout_rows(1)
    assert labels == ((1, "left", "re"), (1, "left", "im"), (1, "right", "re"), (1, "right", "im"))
    expected = np.zeros((4, 16))
    expected[0, 2] = 1.0    # x3
    expected[1, 11] = 1.0   # x12
    expected[2, 6] = 1.0    # x7
    expected[3, 14] = 1.0   # x15
    np.testing.assert_allclose(rows, expected, atol=1e-15)


def test_readout_rows_xi_h():
    # frozen from the symbolic conjugation oracle: the left peak of the
    # XI-rotated matrix is x3 + i (x1 - x8) / 2
    rows, _ = readout_rows(4)
    left_re = np.zeros(16)
    left_re[2] = 1.0
    left_im = np.zeros(16)
    left_im[0] = 0.5
    left_im[7] = -0.5
    np.testing.assert_allclose(rows[0], left_re, atol=1e-12)
    np.testing.assert_allclose(rows[1], left_im, atol=1e-12)


def test_readout_rows_consistent_with_matrix_model(rng):
    # row model and matrix model must agree for every id
    for rid in range(1, 19):
        rho = random_hermitian(rng)
        x = matrix_to_params(rho)
        rows, _ = readout_rows(rid)
        rotated = apply_rotation(rho, readout_label(rid))
        (li, lj), (ri, rj) = observable_positions(rid)
        predicted = rows @ x
        actual = np.array([
            rotated[li - 1, lj - 1].real, rotated[li - 1, lj - 1].imag,
            rotated[ri - 1, rj - 1].real, rotated[ri - 1, rj - 1].imag,
        ])
        np.testing.assert_allclose(predicted, actual, atol=1e-12)


def test_readout_rows_norm_bound():
    for rid in range(1, 19):
        rows, _ = readout_rows(rid)
        for row in rows:
            assert row @ row <= 2.0 + 1e-12
            assert np.any(row != 0.0)


_SIGMA = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]), "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}
# orthogonal mix of a read-out's rows (left re, left im, right re, right im):
# left + right and left - right, real and imaginary parts kept apart
_PEAK_MIX = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]]) / np.sqrt(2)


def test_each_mixed_readout_row_reads_one_product_operator():
    # Built without _ROWS: each read-out's rows come from apply_rotation of
    # the parameter basis matrices, and the product-operator functionals
    # x -> Tr(sigma_P rho(x)) from the Pauli matrices, normalised.
    basis = [params_to_matrix(e) for e in np.eye(16)]
    functionals = np.array(
        [[np.trace(np.kron(_SIGMA[a], _SIGMA[b]) @ m).real for m in basis] for a, b in PAULI_LABELS]
    ).T
    u = functionals / np.linalg.norm(functionals, axis=0)
    np.testing.assert_allclose(u.T @ u, np.eye(16), atol=1e-12)
    for rid in range(1, 19):
        rotated = [apply_rotation(m, readout_label(rid)) for m in basis]
        rows = np.array(
            [[part(m[i - 1, j - 1]) for m in rotated] for i, j in observable_positions(rid) for part in (np.real, np.imag)]
        )
        coeffs = _PEAK_MIX @ rows @ u
        read = [np.flatnonzero(np.abs(c) > 1e-12) for c in coeffs]
        assert [len(ops) for ops in read] == [1, 1, 1, 1], rid
        ops = [int(p[0]) for p in read]
        assert len(set(ops)) == 4, rid
        weights = np.zeros(16)
        weights[ops] = coeffs[range(4), ops] ** 2
        np.testing.assert_allclose(weights, _PAULI_WEIGHTS[rid - 1], atol=1e-12, err_msg=str(rid))


def test_design_shape_and_order():
    d = assemble_design(range(1, 19))
    assert d.matrix.shape == (73, 16)
    assert d.rhs.shape == (73,)
    assert d.row_labels[-1] == TRACE_LABEL
    assert d.row_labels[:4] == ((1, "left", "re"), (1, "left", "im"), (1, "right", "re"), (1, "right", "im"))
    assert d.has_trace_row()
    # trace row: ones on the diagonal slots, rhs 1
    np.testing.assert_array_equal(np.flatnonzero(d.matrix[-1]), list(DIAGONAL_SLOTS))
    assert d.rhs[-1] == 1.0
    assert np.all(d.rhs[:-1] == 0.0)


def test_twelve_readout_design_has_49_rows():
    d = assemble_design(range(1, 13))
    assert d.matrix.shape == (49, 16)


def test_design_entry_values():
    a = assemble_design(range(1, 19), include_trace=False).matrix
    allowed = np.array([0.0, 0.25, 0.5, 1.0, INV_SQRT2, 0.5 * INV_SQRT2])
    deviation = np.min(np.abs(np.abs(a[:, :, None]) - allowed[None, None, :]), axis=2)
    assert np.max(deviation) < 1e-12


def test_design_null_vector_without_trace():
    a = assemble_design(range(1, 19), include_trace=False).matrix
    v = np.zeros(16)
    v[list(DIAGONAL_SLOTS)] = 1.0
    assert np.linalg.norm(a @ v) < 1e-12
    assert matrix_rank(a) == 15
    assert matrix_rank(assemble_design(range(1, 19)).matrix) == 16


def test_assemble_validation():
    with pytest.raises(ValidationError, match="empty"):
        assemble_design([])
    with pytest.raises(ValidationError, match="duplicate"):
        assemble_design([1, 1, 2])
    with pytest.raises(ValidationError, match=r"^duplicate read-out ids: \[2, 3\]$"):  # only the duplicates
        assemble_design([3, 1, 3, 2, 2])
    with pytest.raises(ValidationError, match="1..18"):
        assemble_design([0])
    for bad in (float("nan"), float("inf"), None, "a", "3"):
        with pytest.raises(ValidationError, match="read-out id"):
            assemble_design([bad, 2])
    with pytest.raises(ValidationError, match="read-out id"):
        readout_label(None)
    readings = simulate_readings(np.eye(4) / 4, [1, 2])
    with pytest.raises(ValidationError, match="do not match"):
        assemble_design([1, 2, 3], readings=readings)
    for bad in (complex("nan"), complex(0.0, float("inf")), complex(float("-inf"), 0.0)):
        bad_readings = [readings[0], Reading(2, "left", bad)] + readings[2:]
        with pytest.raises(ValidationError, match="not finite"):
            assemble_design([1, 2], readings=bad_readings)
    for bad in (None, "x", "1", b"1"):
        bad_readings = [readings[0], Reading(2, "left", bad)] + readings[2:]
        with pytest.raises(ValidationError, match="not a number"):
            assemble_design([1, 2], readings=bad_readings)


def test_include_trace_is_a_bool():
    for bad in ("no", None, 0, 1.0, np.array([True])):
        with pytest.raises(ValidationError, match=re.escape(f"include_trace must be True or False, got {bad!r}")):
            assemble_design([1, 2], include_trace=bad)
    assert assemble_design([1, 2], include_trace=np.True_).rows == 9
    assert assemble_design([1, 2], include_trace=np.False_).rows == 8


BAD_IDS = (float("nan"), float("inf"), float("-inf"), None, "a", "3", 5.5, 0, 19, np.array([3]), 5 + 0j)


@pytest.mark.parametrize("bad", BAD_IDS, ids=repr)
def test_id_rule_is_one_rule_everywhere(bad):
    readings = simulate_readings(np.eye(4) / 4, [2])
    for call in (
        lambda: readout_label(bad),
        lambda: assemble_design([bad, 2]),
        lambda: assemble_design([2], readings=readings + [Reading(bad, "left", 0j)]),
        lambda: set_report([bad, 2]),
        lambda: format_readings([Reading(bad, "left", 0j)]),
    ):
        with pytest.raises(ValidationError, match=r"read-out id out of range: .*1\.\.18"):
            call()
    with pytest.raises(ValidationError, match=r"set size out of range: .*1\.\.18"):
        enumerate_minimal_sets(bad)


@pytest.mark.parametrize("bad", (5, None), ids=repr)
def test_a_readout_set_that_is_not_iterable_is_bad_input(bad):
    for call in (
        lambda: simulate_readings(np.eye(4) / 4, bad),
        lambda: assemble_design(bad),
        lambda: set_report(bad),
    ):
        with pytest.raises(ValidationError, match=f"read-out set must be iterable, got {bad}"):
            call()


@pytest.mark.parametrize("good", (True, np.int64(5), 5.0), ids=repr)
def test_id_rule_accepts_values_equal_to_an_integer(good):
    k = int(good)
    assert _require_int_in_range(good) == k and type(_require_int_in_range(good)) is int
    a, b = assemble_design([good, 7]), assemble_design([k, 7])
    np.testing.assert_array_equal(a.matrix, b.matrix)
    assert a.row_labels == b.row_labels
    assert set_report([good, 7]).ids == tuple(sorted({k, 7}))
    assert len(enumerate_minimal_sets(good)) == {1: 0, 5: 72}[k]


def test_simulate_noiseless_matches_rotated_elements(rng):
    states = [goldens.RHO_PREDICTED / np.trace(goldens.RHO_PREDICTED).real]
    states += [random_trace_one_hermitian(rng) for _ in range(20)]
    for rho in states:
        readings = simulate_readings(rho, range(1, 19))
        assert len(readings) == 36
        for rec in readings:
            rotated = apply_rotation(rho, readout_label(rec.readout))
            (li, lj), (ri, rj) = observable_positions(rec.readout)
            i, j = (li, lj) if rec.peak == "left" else (ri, rj)
            assert rec.value == pytest.approx(complex(rotated[i - 1, j - 1]), abs=1e-15)


def test_simulate_noise_draw_order(rng):
    # noise is one seeded stream: ascending id, left before right, re before im
    rho = random_trace_one_hermitian(rng)
    ids = [13, 2, 7]
    clean = simulate_readings(rho, ids)
    noisy = simulate_readings(rho, ids, noise_sigma=0.05, seed=99)
    assert [(r.readout, r.peak) for r in noisy] == [(i, p) for i in sorted(ids) for p in ("left", "right")]
    draws = np.random.default_rng(99).normal(0.0, 0.05, 4 * len(ids))
    clean_parts = np.array([[r.value.real, r.value.imag] for r in clean]).ravel()
    noisy_parts = np.array([[r.value.real, r.value.imag] for r in noisy]).ravel()
    np.testing.assert_array_equal(noisy_parts, clean_parts + draws)


def test_simulate_mixed_state_reads_zero():
    for rec in simulate_readings(np.eye(4) / 4, range(1, 19)):
        assert rec.value == pytest.approx(0.0, abs=1e-15)


def test_simulate_deterministic():
    rho = np.eye(4) / 4
    a = simulate_readings(rho, range(1, 19), noise_sigma=0.05, seed=123)
    b = simulate_readings(rho, range(1, 19), noise_sigma=0.05, seed=123)
    assert a == b
    c = simulate_readings(rho, range(1, 19), noise_sigma=0.05, seed=124)
    assert a != c


def test_simulate_validation():
    with pytest.raises(ValidationError, match="sigma"):
        simulate_readings(np.eye(4) / 4, [1], noise_sigma=-0.1)
    with pytest.raises(ValidationError, match="trace"):
        simulate_readings(np.eye(4), [1])
    # the message shows the defect, however small
    with pytest.raises(ValidationError, match=r"^density matrix must have trace 1, got 1\.0000000015"):
        simulate_readings(np.diag([0.25, 0.25, 0.25, 0.25 + 1.5e-9]), [1])
    for sigma in (float("nan"), float("inf"), "0.1", None, np.array([0.1, 0.2]), 10**400, 1j, np.array([0.1])):
        with pytest.raises(ValidationError, match="^noise sigma must be finite and >= 0, got "):
            simulate_readings(np.eye(4) / 4, [1], noise_sigma=sigma)
    rho = np.eye(4) / 4
    rho[0, 1] = rho[1, 0] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        simulate_readings(rho, [1])


def _traces_at_the_margin():
    """(inside, outside) pairs: the largest and the smallest trace within ``TRACE_TOL`` of 1, each with the
    next float beyond it. 1 + 1e-9 and 1 - 1e-9 are not floats, and t - 1 is exact near 1."""
    hi, lo = 1.0 + TRACE_TOL, 1.0 - TRACE_TOL
    while hi - 1.0 > TRACE_TOL:
        hi = np.nextafter(hi, 0)
    while 1.0 - lo > TRACE_TOL:
        lo = np.nextafter(lo, 2)
    return (hi, np.nextafter(hi, 2)), (lo, np.nextafter(lo, 0))


def test_trace_tolerance_is_accepted_and_the_next_float_refused():
    for inside, outside in _traces_at_the_margin():
        x_in, x_out = np.zeros(16), np.zeros(16)
        x_in[DIAGONAL_SLOTS[0]], x_out[DIAGONAL_SLOTS[0]] = inside, outside
        assert is_trace_normalized(x_in) and not is_trace_normalized(x_out)
        simulate_readings(params_to_matrix(x_in), [1])
        with pytest.raises(ValidationError, match="^density matrix must have trace 1"):
            simulate_readings(params_to_matrix(x_out), [1])
