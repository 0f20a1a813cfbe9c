"""tomoforge: read-out design and density-matrix reconstruction for 2-qubit NMR tomography.

The package splits into five layers:

* linalg  - symmetric eigendecomposition and rank kernels
* model   - rotations, the 16-parameter density parameterization, design rows
* lsq     - normal equations, conditioning analysis, truncated reconstruction
* search  - exhaustive read-out set enumeration and ranking
* io/cli  - text formats and the command-line surface
"""

import types as _types

from .errors import NumericalError, ValidationError
from .linalg import SymEigen, matrix_rank, sym_eigen
from .lsq import (
    DEFAULT_THRESHOLD,
    ErrorMatrixReport,
    NormalSystem,
    ReconstructionResult,
    chi2,
    error_matrix_analysis,
    normal_system,
    psd_project,
    reconstruct,
    relative_error,
)
from .model import (
    DIAGONAL_SLOTS,
    N_PARAMS,
    N_READOUTS,
    PEAKS,
    ROTATION_LABELS,
    TRACE_LABEL,
    DesignSystem,
    Reading,
    assemble_design,
    matrix_to_params,
    maximally_mixed_params,
    observable_positions,
    params_to_matrix,
    readout_label,
    readout_rows,
    readout_spin,
    rotation_matrix,
    simulate_readings,
)
from .io import (
    format_density,
    format_readings,
    parse_density,
    parse_readings,
    read_density,
    read_readings,
    write_density,
    write_readings,
)
from .search import (
    SetReport,
    enumerate_minimal_sets,
    minimum_readout_count,
    rank_sets_by_conditioning,
    set_report,
)

__version__ = "0.1.0"

# every public name imported above, in sorted order
__all__ = sorted(n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _types.ModuleType))
