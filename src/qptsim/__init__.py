"""Entanglement-assisted tomography of small polarization-qubit devices.

Feed one arm of an entangled photon pair through the device under test,
measure Pauli correlations between the two arms in coincidence, and invert
the measured correlation table to recover the input state, the device's
unitary matrix, or its full Choi matrix.  The package bundles the forward
Monte Carlo model of the optical experiment, the linear-inversion
estimators with bootstrap error bars, and a config-driven CLI.
"""

from .algebra import (
    BipartiteState,
    bell_state,
    dagger,
    double_ket,
    pairs,
    pauli,
    tensor,
)
from .channels import (
    QuantumChannel,
    amplitude_damping,
    choi_from_kraus,
    depolarizing,
    identity_channel,
    propagate,
    unitary_channel,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateReferenceError,
    IncompleteQuorumError,
    NullEventError,
    QptError,
    UnfaithfulInputError,
)
from .experiment import (
    AXES,
    OUTCOMES,
    SETTINGS,
    CorrelationTable,
    ExperimentPlan,
    LossModel,
    MeasurementSetting,
    correlations_from_events,
    exact_correlations,
    joint_probs,
    read_event_log,
    run_experiment,
    write_event_log,
)
from .optics import (
    DeviceSpec,
    WavePlate,
    compile_device,
    waveplate_bloch,
    waveplate_jones,
)
from .tomography import (
    CNOT,
    SWAP,
    BootstrapErrors,
    BootstrapPlan,
    FaithfulnessReport,
    ReconstructionResult,
    bootstrap_errors,
    correlations_4party,
    density_from_correlations,
    distance_choi,
    faithfulness_check,
    fidelity_unitary,
    reconstruct_choi,
    reconstruct_state,
    reconstruct_unitary,
    select_reference,
    two_pair_output_state,
)

__version__ = "0.1.0"
