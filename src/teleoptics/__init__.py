"""Desk-scale simulator of a linear-optical teleportation bench.

A polarization qubit rides two beams of one photon; its partner photon is
entangled with it in direction only. Splitting, rotating, and mixing the
carrier beams turns four detector clicks into a herald for four possible
states of the partner, each one a fixed correction away from the message.
The package models the exact states, samples detection events, verifies
subensembles, runs a correlation (Bell-type) mode, and executes circuit
files written in a small optical-table language.
"""

from types import ModuleType as _ModuleType

from .bellmode import (
    AliceStrategy,
    BINNING_CLASSES,
    BobSetting,
    ChshResult,
    CorrelationTable,
    DEFAULT_BINNING,
    EfficiencyRow,
    GridSearchResult,
    ScanConfig,
    chsh_scan,
    default_scan_config,
    efficiency_report,
    exact_correlator,
    grid_search_chsh,
    joint_distribution,
    povm_elements,
)
from .dsl import (
    CircuitProgram,
    CircuitRuntimeError,
    Diagnostic,
    ParseResult,
    RunResult,
    SourceLine,
    compile_and_run,
    parse,
    pretty_print,
    tokenize,
)
from .elements import (
    ElementSpec,
    OnePhotonMap,
    jones_rotation,
    pbs,
    pbs_merge,
    phase_shift,
    pockels_c1,
    pockels_c2,
    pol_rotate_h_to_v,
    pol_rotate_to_h,
    relabel,
    symmetric_bs,
)
from .errors import (
    ElementError,
    GuardViolation,
    NormalizationError,
    RegistryError,
    SimulationError,
)
from .events import write_events
from .protocol import (
    BranchSet,
    BranchTable,
    CORRECTION_TABLE,
    CorrectionPlan,
    OUTCOMES,
    OutcomeId,
    TeleportOutcome,
    alice_analyzer,
    alice_transform,
    apply_correction,
    bob_decode,
    bob_decoder,
    branch_set,
    branch_states_dual_rail,
    branch_states_polarization,
    branch_table,
    correction_plan,
    preparer_encode,
    source_state,
    teleport_exact,
)
from .sampling import (
    DetectorModel,
    EventRecord,
    StationConfig,
    outcome_counts,
    polarizer_pass,
    run_trials,
    sample_branch_index,
    trial_stream,
)
from .states import (
    BasisKet,
    JointState,
    JonesVector,
    ModeRegistry,
    PhotonState,
    Polarization,
    equal_up_to_global_phase,
    make_pair_state,
    random_jones,
)
from .verification import (
    CellStats,
    SubensembleReport,
    build_report,
    expected_rate_table,
    overlap_table,
    overlap_table_direct,
    run_verification,
    verify_direct,
    verify_full,
    verify_nonlocal,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
