import numpy as np
import pytest

from tomoforge.io import _format_complex


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, scale=1.0):
    """Random Hermitian 4x4 matrix (not necessarily positive)."""
    a = rng.uniform(-scale, scale, (4, 4)) + 1j * rng.uniform(-scale, scale, (4, 4))
    return 0.5 * (a + a.conj().T)


def random_trace_one_hermitian(rng):
    """Random Hermitian 4x4 matrix with unit trace (not necessarily positive)."""
    m = random_hermitian(rng, scale=0.4)
    diag = rng.uniform(0.05, 1.0, 4)
    diag /= diag.sum()
    np.fill_diagonal(m, diag)
    return m


def density_text(m):
    """Density file text built entry by entry in the writer's format, for
    matrices the writer itself refuses."""
    return "".join(" ".join(_format_complex(v) for v in row) + "\n" for row in m)
