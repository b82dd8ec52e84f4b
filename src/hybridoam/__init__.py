"""Numerical simulator of a hybrid polarization-OAM entanglement bench.

Builds the two-photon polarization singlet, transfers one qubit onto the
+/-2 orbital-angular-momentum subspace through the q-plate transferrer
(applied as one compiled operator), simulates Poissonian coincidence
counting, and runs the analysis chain: state tomography with
maximum-likelihood refinement, fringe visibility, CHSH, and the
coincidence-rate budget.
"""

__version__ = "0.14.0"

from .states import (
    ATOL,
    OAM_O2,
    POLARIZATION,
    DegenerateInputError,
    DensityMatrix,
    InvalidLabelError,
    StateVector,
    basis_ket,
    matrix_from_json,
    matrix_to_json,
    project_to_physical,
)
from .source import (
    DETERMINISTIC,
    O2_FRAME_ALIGNMENT,
    PROBABILISTIC,
    REFERENCE_CONCURRENCE,
    REFERENCE_FIDELITY,
    REFERENCE_LINEAR_ENTROPY,
    NoiseModel,
    apply_noise,
    fit_noise_model,
    hybrid_singlet,
    hybrid_singlet_ket,
    hybrid_state,
    noise_fit_report,
    noise_preset,
    prepare_hybrid,
    singlet,
    singlet_ket,
)
from .measurement import (
    CountRecord,
    FitFailureError,
    MeasurementSetting,
    exact_counts,
    expected_counts,
    fit_fringe,
    fringe_scan,
    fringe_scan_records,
    joint_probability,
    read_counts_csv,
    simulate_counts,
    visibility_minmax,
    write_counts_csv,
)
from .tomography import (
    InsufficientDataError,
    StateMetrics,
    TomographyRun,
    concurrence,
    fidelity,
    linear_entropy,
    linear_inversion,
    log_likelihood,
    metric_uncertainties,
    reconstruct,
    simulate_tomography,
    tomography_settings,
    trace_distance,
)
from .bell import (
    ChshResult,
    DichotomicObservable,
    UndefinedCorrelationError,
    chsh_empirical,
    chsh_exact,
    chsh_settings,
    correlation,
    correlation_from_counts,
    observable_from_kets,
    observable_from_labels,
    predicted_s,
)
from .budget import (
    DEFAULT_OBSERVED_RATE_CPS,
    RateBudget,
    budget_report,
    det_probability,
    expected_rate,
    format_report,
    prep_probability,
    upgraded_budget,
)
