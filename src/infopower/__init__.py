"""Informational power of quantum measurements.

Computes W(Pi) = max over ensembles of the mutual information between
message index and measurement outcome, together with the ensemble/POVM
duality maps, exact fast paths for commuting POVMs, and classical channel
capacity via Blahut-Arimoto.
"""

from __future__ import annotations

from .errors import (
    DimensionMismatch,
    EigendecompositionError,
    InfopowerError,
    NotCommuting,
    NotPositiveSemidefinite,
    SchemaError,
    ZeroOperator,
)
from .objects import (
    DensityOperator,
    Ensemble,
    Povm,
    ValidationReport,
    anti_tetrahedral_ensemble,
    ensemble_average,
    hesse_sic_povm,
    maximally_mixed,
    projective_povm,
    random_povm,
    random_pure_states,
    tensor_povm,
    tensor_power,
    tetrahedral_sic_povm,
    trine_povm,
    validate_povm,
)
from .information import (
    BlahutArimotoResult,
    ClassicalChannel,
    Distribution,
    LogBase,
    apply_qc_channel,
    blahut_arimoto,
    joint_statistics,
    mutual_information,
    shannon_entropy,
)
from .duality import (
    RoundTripReport,
    duality_round_trip_check,
    ensemble_from_povm,
    povm_from_ensemble,
)
from .solver import (
    AdditivityReport,
    BoundCheck,
    PowerReport,
    SolverConfig,
    additivity_check,
    commuting_fast_path,
    informational_power,
    see_saw_power,
    state_gradient,
)

__version__ = "0.1.0"

__all__ = [
    "AdditivityReport",
    "BlahutArimotoResult",
    "BoundCheck",
    "ClassicalChannel",
    "DensityOperator",
    "DimensionMismatch",
    "Distribution",
    "EigendecompositionError",
    "Ensemble",
    "InfopowerError",
    "LogBase",
    "NotCommuting",
    "NotPositiveSemidefinite",
    "Povm",
    "PowerReport",
    "RoundTripReport",
    "SchemaError",
    "SolverConfig",
    "ValidationReport",
    "ZeroOperator",
    "additivity_check",
    "anti_tetrahedral_ensemble",
    "apply_qc_channel",
    "blahut_arimoto",
    "commuting_fast_path",
    "duality_round_trip_check",
    "ensemble_average",
    "ensemble_from_povm",
    "hesse_sic_povm",
    "informational_power",
    "joint_statistics",
    "maximally_mixed",
    "mutual_information",
    "povm_from_ensemble",
    "projective_povm",
    "random_povm",
    "random_pure_states",
    "see_saw_power",
    "shannon_entropy",
    "state_gradient",
    "tensor_povm",
    "tensor_power",
    "tetrahedral_sic_povm",
    "trine_povm",
    "validate_povm",
]
