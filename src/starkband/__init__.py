"""Desk-scale simulator for inter-band dynamics of a tilted two-band
Bose-Hubbard ring: resonant and off-resonant oscillations and their
interaction-induced collapse and revival, with closed-form predictions for
all time scales."""

from .analysis import (
    COLLAPSE_THRESHOLD,
    GFit,
    OscillationTrace,
    RevivalReport,
    SpectralRevival,
    build_revival_report,
    cluster_weights,
    coefficient_width,
    collapse_time,
    fit_inverse_g,
    initial_period,
    measured_period,
    revival_time,
    spectral_revival_estimate,
    upper_envelope,
)
from .fock import (
    FockState,
    SymmetrySector,
    build_k0_sector,
    enumerate_fock,
    full_dimension,
    project_initial_state,
    state_rank,
    translate,
)
from .hamiltonian import (
    HamiltonianParts,
    TermMask,
    build_interaction_picture,
    build_single_particle_transformed,
    build_static_tilted,
    hermiticity_defect,
)
from .model import (
    PRESETS,
    ModelParams,
    TwoLevelModel,
    build_resonant_two_level,
    collapse_from_revival,
    load_params,
    preset_v0_4,
    rabi_occupation,
    resonant_force,
    revival_estimate_universal,
)
from .propagation import (
    EvolutionResult,
    FloquetSpectrum,
    NumericalError,
    WaveFunction,
    diagonalize_floquet,
    evolve,
    floquet_operator,
    occupation_series,
    stroboscopic_evolve,
    stroboscopic_occupations,
)

__version__ = "0.1.0"
