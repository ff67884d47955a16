"""stabrenyi: simulate and estimate stabilizer Renyi entropy ("magic") of
few-qubit states with a randomized local-Clifford measurement protocol.

Subpackages follow the pipeline: exact state construction (:mod:`states`,
:mod:`cliffords`), exact Pauli-spectrum oracles (:mod:`oracle`), the
randomized-measurement simulator and estimators (:mod:`estimator`), noise
channels and parameter fitting (:mod:`noise`), measurement-budget calibration
(:mod:`calibration`), and record/report file formats plus the command-line
interface (:mod:`recordio`, :mod:`cli`).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .cliffords import CLIFFORD_1Q, N_CLIFFORD
from .states import (
    Circuit,
    CliffordWord,
    MixedState,
    StateVector,
    apply_circuit,
    apply_local_cliffords,
    gamma_circuit,
    gamma_state,
    gamma_tcounts,
    outcome_distribution,
    plus_state,
    ptheta_state,
    sample_counts,
    zero_state,
)
from .oracle import (
    PauliTable,
    XiDistribution,
    exact_protocol_value,
    haar_random_state,
    max_offidentity_pauli,
    pauli_table,
    purity_exact,
    stab_purity_exact,
    stabilizer_renyi,
    xi_distribution,
)
from .noise import (
    InfeasibleNoiseError,
    NoiseParams,
    corrected_w,
    g_factor,
    haar_channel_stats,
    predict_noisy_observables,
    prep_channel,
    prep_purity,
    readout_channel,
    readout_dressed_purity,
    solve_epsilon,
    solve_p,
    solve_p_readout_aware,
    solve_q,
    w_epsilon,
)
from .estimator import (
    EstimateReport,
    ExperimentData,
    bernstein_tail,
    estimate,
    simulate_experiment,
    variance_bound,
    word_outcome_probs,
)
from .fitting import NoiseFit, fit_noise
from .calibration import (
    CalibrationError,
    FitResult,
    GridCell,
    fit_resource_scaling,
    grid_search,
    select_optimal,
)
from .recordio import (
    RecordFormatError,
    read_records,
    read_report,
    report_from_estimate,
    write_records,
    write_report,
)

__all__ = [
    "__version__",
    "CLIFFORD_1Q",
    "N_CLIFFORD",
    "Circuit",
    "CliffordWord",
    "MixedState",
    "StateVector",
    "apply_circuit",
    "apply_local_cliffords",
    "gamma_circuit",
    "gamma_state",
    "gamma_tcounts",
    "outcome_distribution",
    "plus_state",
    "ptheta_state",
    "sample_counts",
    "zero_state",
    "PauliTable",
    "XiDistribution",
    "exact_protocol_value",
    "haar_random_state",
    "max_offidentity_pauli",
    "pauli_table",
    "purity_exact",
    "stab_purity_exact",
    "stabilizer_renyi",
    "xi_distribution",
    "InfeasibleNoiseError",
    "NoiseParams",
    "corrected_w",
    "g_factor",
    "haar_channel_stats",
    "predict_noisy_observables",
    "prep_channel",
    "prep_purity",
    "readout_channel",
    "readout_dressed_purity",
    "solve_epsilon",
    "solve_p",
    "solve_p_readout_aware",
    "solve_q",
    "w_epsilon",
    "EstimateReport",
    "ExperimentData",
    "bernstein_tail",
    "estimate",
    "simulate_experiment",
    "variance_bound",
    "word_outcome_probs",
    "NoiseFit",
    "fit_noise",
    "CalibrationError",
    "FitResult",
    "GridCell",
    "fit_resource_scaling",
    "grid_search",
    "select_optimal",
    "RecordFormatError",
    "read_records",
    "read_report",
    "report_from_estimate",
    "write_records",
    "write_report",
]
