"""spintomo: continuous weak-measurement tomography of a driven spin.

Simulates the measurement record of a single probed observable evolving
under a designed piecewise-constant drive, and reconstructs the initial
density matrix by least squares, then projection onto the density matrices,
with fidelity, purity and Wigner-function diagnostics.
"""

from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .control_design import (
    CompletenessReport,
    WaveformDesignResult,
    completeness_report,
    design_objective,
    optimize_waveform,
)
from .dynamics import (
    ControlWaveform,
    ObservableHistory,
    heisenberg_histories,
    heisenberg_history,
    propagate_state,
    sample_times,
)
from .estimator import (
    EstimateResult,
    FingerprintMismatchError,
    estimate,
    estimate_batch,
    estimate_prefix_curve,
    estimate_with_nuisance,
    project_to_physical,
    read_estimate,
    write_estimate,
)
from .measurement import (
    MeasurementRecord,
    RecordFormatError,
    noiseless_values,
    read_record,
    synthesize_record,
    synthesize_records,
    write_record,
)
from .metrics import fidelity, max_eigenvalue, purity, trace_distance
from .spin_algebra import (
    SpinSystem,
    build_spin_system,
    check_density_matrix,
    coords_to_state,
    hermitian_basis,
    measured_observable,
    state_to_coords,
    test_state,
)
from .wigner import (
    WignerGrid,
    multipole_operators,
    wigner_function,
    wigner_integral,
    write_wigner_csv,
)

__version__ = "0.1.0"
