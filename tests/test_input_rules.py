"""The input rules every public function shares: one array rule
(``errors._finite_array``) and one integer rule
(``model._require_int_in_range``), each raising ValidationError. The one
tolerance a caller sets, ``noise_sigma``, is checked by ``simulate_readings``
(see ``test_model.test_simulate_validation``); every other cut is a module
constant."""

import numpy as np
import pytest

from tomoforge import (
    DesignSystem,
    NormalSystem,
    ValidationError,
    apply_rotation,
    assemble_design,
    chi2,
    error_matrix_analysis,
    format_density,
    is_trace_normalized,
    matrix_rank,
    matrix_to_params,
    maximally_mixed_params,
    normal_system,
    params_to_matrix,
    parse_density,
    psd_project,
    reconstruct,
    relative_error,
    simulate_readings,
    spectral_norm,
    sym_eigen,
)
from tomoforge.errors import _finite_array

RHO = np.eye(4) / 4
PARAMS = maximally_mixed_params()
DESIGN = assemble_design([1, 2, 6, 12, 13], readings=simulate_readings(RHO, [1, 2, 6, 12, 13]))
NS = normal_system(DESIGN)


def _with_matrix(matrix):
    return DesignSystem(matrix, DESIGN.rhs, DESIGN.row_labels)


def _with_rhs(rhs):
    return DesignSystem(DESIGN.matrix, rhs, DESIGN.row_labels)


# Every array argument of the 14 functions that check arrays: the call with
# the argument under test replaced, and a valid value of that argument.
ARRAY_ARGUMENTS = {
    "params_to_matrix": (params_to_matrix, PARAMS),
    "matrix_to_params": (matrix_to_params, RHO),
    "is_trace_normalized": (is_trace_normalized, PARAMS),
    "apply_rotation": (lambda a: apply_rotation(a, "XY"), RHO),
    "normal_system matrix": (lambda a: normal_system(_with_matrix(a)), DESIGN.matrix),
    "normal_system rhs": (lambda a: normal_system(_with_rhs(a)), DESIGN.rhs),
    "error_matrix_analysis rhs": (lambda a: error_matrix_analysis(NormalSystem(NS.matrix, a)), NS.rhs),
    "chi2 params": (lambda a: chi2(DESIGN, a), PARAMS),
    "chi2 matrix": (lambda a: chi2(_with_matrix(a), PARAMS), DESIGN.matrix),
    "chi2 rhs": (lambda a: chi2(_with_rhs(a), PARAMS), DESIGN.rhs),
    "reconstruct prior": (lambda a: reconstruct(DESIGN, prior=a), PARAMS),
    "reconstruct rhs": (lambda a: reconstruct(_with_rhs(a)), DESIGN.rhs),
    "relative_error rho_exp": (lambda a: relative_error(a, RHO), RHO),
    "relative_error rho_ref": (lambda a: relative_error(RHO, a), RHO),
    "relative_error frobenius": (lambda a: relative_error(a, RHO, "frobenius"), RHO),
    "psd_project": (psd_project, RHO),
    "sym_eigen": (sym_eigen, NS.matrix),
    "matrix_rank": (matrix_rank, DESIGN.matrix),
    "spectral_norm": (spectral_norm, RHO),
    "format_density": (format_density, RHO),
}


def _entry_set(good, index, value):
    bad = np.array(good, dtype=complex if np.iscomplexobj(good) else float)
    bad.flat[index] = value
    return bad


BAD_VALUES = {
    "nan": lambda good: _entry_set(good, 0, np.nan),
    "inf": lambda good: _entry_set(good, -1, -np.inf),
    "extra axis": lambda good: np.asarray(good)[np.newaxis],
    "empty": lambda good: np.asarray(good)[:0],
    "non-numeric": lambda good: np.full(np.shape(good), "x").tolist(),
    "numeric strings": lambda good: np.full(np.shape(good), "0.25").tolist(),
}


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("argument", ARRAY_ARGUMENTS)
def test_every_array_argument_rejects_bad_arrays(argument, bad):
    call, good = ARRAY_ARGUMENTS[argument]
    call(good)  # the valid value passes
    with pytest.raises(ValidationError):
        call(BAD_VALUES[bad](good))


# The arguments converted to real numbers: complex input is rejected, not cut
# to its real part.
REAL_ARGUMENTS = (
    "params_to_matrix",
    "is_trace_normalized",
    "normal_system matrix",
    "normal_system rhs",
    "error_matrix_analysis rhs",
    "chi2 params",
    "chi2 matrix",
    "chi2 rhs",
    "reconstruct prior",
    "reconstruct rhs",
    "sym_eigen",
)


@pytest.mark.parametrize("argument", REAL_ARGUMENTS)
def test_real_arguments_reject_complex_input(argument):
    call, good = ARRAY_ARGUMENTS[argument]
    with pytest.raises(ValidationError, match="must be a numeric array, got ndarray of complex128$"):
        call(np.asarray(good) * (1 + 1j))


GAPS = {
    "rhs of length 3": lambda: reconstruct(_with_rhs(np.zeros(3))),
    "3-column design": lambda: reconstruct(_with_matrix(DESIGN.matrix[:, :3])),
    "3 parameters in chi2": lambda: chi2(DESIGN, [0] * 3),
    "is_trace_normalized of one number": lambda: is_trace_normalized([1]),
}


@pytest.mark.parametrize("gap", GAPS)
def test_wrong_lengths_are_validation_errors(gap):
    with pytest.raises(ValidationError):
        GAPS[gap]()


def test_array_rule_messages():
    with pytest.raises(ValidationError, match=r"design matrix must be a non-empty array of shape \*x16, got shape \(21, 3\)"):
        normal_system(_with_matrix(DESIGN.matrix[:, :3]))
    with pytest.raises(ValidationError, match="^prior has non-finite entries$"):
        reconstruct(DESIGN, prior=np.full(16, np.nan))
    for value in (object(), [[1.0, 2.0], [3.0]], [1j] * 16, "x", 1j * np.ones(16), ["0.25"] * 16, [b"1"] * 16):
        with pytest.raises(ValidationError, match="^parameters must be a numeric array, got "):
            _finite_array(value, (16,), "parameters", float)
    with pytest.raises(ValidationError, match="^parameters must be a numeric array, got list of <U4$"):
        params_to_matrix(["0.25"] * 16)
    with pytest.raises(ValidationError, match="^sym_eigen matrix must be a numeric array, got ndarray of complex128$"):
        sym_eigen(np.eye(2) * (1 + 1j))
    # complex input where complex is expected, and no dtype asked for, pass
    z = np.eye(2) * (1 + 1j)
    assert _finite_array(z, (2, 2), "m", complex) is z
    assert _finite_array(z, (2, 2), "m") is z


def test_array_rule_keeps_the_dtype():
    ints = np.arange(6).reshape(2, 3)
    assert _finite_array(ints, (None, None), "m").dtype == ints.dtype
    assert _finite_array(ints, (2, 3), "m", float).dtype == float
    assert _finite_array([[1, 2]], (1, None), "m", complex).dtype == complex
    a = np.ones((3, 16))
    assert _finite_array(a, (None, 16), "m", float) is a  # no copy


@pytest.mark.filterwarnings("error")
def test_entries_near_the_float_limit_are_rejected_without_a_warning():
    m = np.zeros((4, 4))
    m[0, 3], m[3, 0] = 1.5e308, -1.5e308  # m - m^H overflows
    with pytest.raises(ValidationError, match=r"elements \(1,4\) and \(4,1\) differ by inf"):
        format_density(m)
    with pytest.raises(ValidationError, match="not Hermitian"):
        matrix_to_params(m)
    with pytest.raises(ValidationError, match="not Hermitian"):
        parse_density("\n".join(" ".join(f"{float(v)!r}+0.0i" for v in row) for row in m))
    with pytest.raises(ValidationError, match="not symmetric"):
        sym_eigen(m)


@pytest.mark.filterwarnings("error")
def test_relative_error_does_not_depend_on_scale():
    j = np.ones((4, 4))
    assert relative_error(1e308 * j, -1e308 * j) == 2.0  # a - b overflows
    assert relative_error(1e308 * j, 0 * j) == 1.0  # ||a|| overflows
    assert relative_error(1e200 * j, 0.5e200 * j, "frobenius") == 0.5  # squares overflow
    assert relative_error(1e-200 * j, 0.5e-200 * j, "frobenius") == 0.5  # squares underflow
    assert relative_error(1e-200 * j, 0.5e-200 * j) == 0.5


@pytest.mark.filterwarnings("error")
def test_trace_beyond_the_float_range_is_not_normalized_without_a_warning():
    assert not is_trace_normalized([1e308] * 16)
    with pytest.raises(ValidationError, match="^density matrix must have trace 1, got inf$"):
        simulate_readings(np.diag([1e308] * 4), [1])


@pytest.mark.filterwarnings("error")
def test_sym_eigen_near_the_float_limit():
    dec = sym_eigen(np.diag([1e308, 1.0]))
    np.testing.assert_array_equal(dec.eigenvalues, [1e308, 1.0])
    np.testing.assert_array_equal(dec.vectors, np.eye(2))
    dec = sym_eigen(np.array([[0.0, 1e308], [1e308, 0.0]]))
    np.testing.assert_allclose(dec.eigenvalues, [1e308, -1e308], rtol=1e-15)


def test_seed_is_an_integer_at_least_zero():
    for sigma in (0.0, 0.01):
        for seed in (-1, 1.5, "1", None, np.nan):
            with pytest.raises(ValidationError, match="seed out of range: expected an integer >= 0"):
                simulate_readings(RHO, [1], noise_sigma=sigma, seed=seed)
    base = simulate_readings(RHO, [1, 2], noise_sigma=0.01, seed=5)
    for same in (5.0, np.int64(5), np.uint8(5)):
        assert simulate_readings(RHO, [1, 2], noise_sigma=0.01, seed=same) == base
    simulate_readings(RHO, [1], noise_sigma=0.01, seed=2**70)  # no upper bound
