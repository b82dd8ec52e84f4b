"""Numerical simulator of a hybrid polarization-OAM entanglement bench.

Builds the two-photon polarization singlet, transfers one qubit onto the
+/-2 orbital-angular-momentum subspace through the q-plate transferrer
(applied as one compiled operator), simulates Poissonian coincidence
counting, and runs the analysis chain: state tomography with
maximum-likelihood refinement, fringe visibility, CHSH, and the
coincidence-rate budget.
"""

__version__ = "0.35.0"

# Every export below is what a user calls, receives or catches: a name the
# CLI, benchmarks/workloads.py or the README's library quick start reads; a
# class an exported function returns, or a field of one holds; an error the
# package raises; or a name with a reason beside it.  The chain's internal
# steps stay in their modules (hybridoam.source.apply_noise, for one).

from .states import (
    DensityMatrix,
    InvalidLabelError,
    StateVector,
    matrix_from_json,  # the documented inverse of the rho_* output blocks
    matrix_to_json,
)
from .source import (
    NoiseModel,
    hybrid_singlet_ket,
    noise_preset,
    prepare_hybrid,
)
from .measurement import (
    CountRecord,
    FitFailureError,
    MeasurementSetting,
    fit_fringe,
    fringe_scan,
    read_counts_csv,
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
)
from .budget import (
    RateBudget,
    budget_report,
    format_report,
)
