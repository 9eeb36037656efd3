"""Internode ranging and array-geometry recovery.

Simulates two-way time transfer between unsynchronized array elements with
a two-tone pulse, then recovers element positions from the resulting
incomplete, noisy distance matrix via differential-evolution completion
around a classical-MDS core.
"""

from .constants import SPEED_OF_LIGHT
from .evaluation import AlignmentResult, align_and_evm, max_beamform_freq
from .geometry import (
    AdjacencyMask,
    CompletabilityError,
    Edm,
    NodeLayout,
    edm_from_points,
    is_completable,
    mask_edm,
    max_edges,
    min_edges,
    random_completable_mask,
)
from .harness import (
    ExperimentConfig,
    LayoutSpec,
    TrialRecord,
    load_config,
    run_experiment,
    summarize,
    write_outputs,
)
from .mds import classical_mds, gram_from_edm
from .ranging import (
    QlsLut,
    RangingScenario,
    TimestampQuad,
    TwoToneWaveform,
    apparent_tof,
    build_qls_lut,
    crlb_sigma_d,
    make_scenario,
    sample_edm_statistical,
    simulate_exchange,
    synth_two_tone,
    two_way_tof,
)
from .snr import (
    SampleMatrix,
    SnrEstimate,
    blind_snr_estimate,
    db_to_linear,
    linear_to_db,
    link_snr_matrix,
)
from .solver import SolverConfig, SolverRun, complete_and_localize, evaluate_cost

__version__ = "0.1.0"
