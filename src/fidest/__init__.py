"""Exact simulation and estimation of fidelity under purified state access."""

from .circuits import (
    Circuit,
    FlaggedAmplitudeAnalysis,
    QubitCapExceeded,
    RegisterLayout,
    analyze_flagged,
    build_encoding_circuit,
    build_flagged_encoding,
    build_restructured_encoding,
    build_swap_test,
    execute,
)
from .estimation import (
    AmplitudeProblem,
    EstimationResult,
    amplitude_estimate,
    sqrt_amplitude_estimate,
)
from .fidelity import (
    FidelityTask,
    HardInstance,
    exact_fidelity_to_pure,
    exact_tr_rho_sigma2,
    fidelity_to_pure,
    hard_instance,
    hard_pair,
    hard_pair_hellinger,
    hellinger_distance,
    make_task,
    pure_pure_fidelity,
    sqrt_tr_rho_sigma2_estimate,
    swap_test_estimate,
)
from .linalg import DensityMatrix, herm_eig
from .oracles import (
    PreparationOracle,
    RandomInstanceSpec,
    preparation_oracle,
    purified_channel_oracle,
    purify,
    sample_instance,
)

__version__ = "0.1.0"
