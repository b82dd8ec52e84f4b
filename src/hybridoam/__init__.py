"""Numerical simulator of a hybrid polarization-OAM entanglement bench.

Builds the two-photon polarization singlet, transfers one qubit onto the
+/-2 orbital-angular-momentum subspace through the q-plate transferrer
(applied as one compiled operator), simulates Poissonian coincidence
counting, and runs the analysis chain: state tomography with
maximum-likelihood refinement, fringe visibility, CHSH, and the
coincidence-rate budget.
"""

__version__ = "0.28.0"

# Every export below has a caller on a run path (the CLI,
# benchmarks/workloads.py or the README's library quick start), or a reason
# beside it.

from .states import (
    ATOL,
    OAM_O2,
    POLARIZATION,
    DensityMatrix,
    InvalidLabelError,
    StateVector,
    matrix_from_json,  # the documented inverse of the rho_* output blocks
    matrix_to_json,
)
from .source import (
    REFERENCE_FIDELITY,
    REFERENCE_LINEAR_ENTROPY,
    NoiseModel,
    apply_noise,
    fit_noise_model,
    hybrid_singlet_ket,
    hybrid_state,
    noise_preset,
    prepare_hybrid,
    singlet,
    singlet_ket,
)
from .measurement import (
    CountRecord,
    FitFailureError,
    MeasurementSetting,
    fit_fringe,
    fringe_scan,  # benchmarks/workloads.py calls it
    fringe_scan_records,
    read_counts_csv,
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
    metric_uncertainties,
    reconstruct,
    simulate_tomography,
)
from .bell import (
    ChshResult,
    UndefinedCorrelationError,
    chsh_empirical,
    chsh_exact,
    chsh_records,
    correlation_from_counts,
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
