"""Cross-modal tracking toolkit.

Desk-scale machinery for trackers that hop between RGB and near-infrared
frames with over-exposed transitions: tri-state frame classification, gated
feature adaptation for the NIR branch, a reliability-weighted trajectory
filter that predicts through invalid frames, the associated loss family,
PR/SR metrics, a synthetic-sequence simulator and a CLI.
"""

from .core import (
    GradPair,
    ShapeError,
    Tensor,
    adaptive_max_pool,
    grad_check,
    relu,
)
from .state_switch import (
    Image,
    SwitchWeights,
    TriState,
    TriStateDecision,
    classify,
    is_over_exposed,
    modality_weight,
    pixel_statistics,
    separator_switch_weights,
    spatial_branch,
    spectral_branch,
)
from .adapter import (
    AdapterLayerWeights,
    AdapterStack,
    adapter_pair,
    apply_stack,
)
from .ctp import (
    BBox,
    FilterBank,
    FrameInput,
    MotionKind,
    MotionModel,
    SessionConfig,
    TrackerSession,
    box2state,
    ctp_predict,
    ctp_update,
    inflate_Q,
    reliability,
)
from .losses import (
    EpochSchedule,
    decayed_ce_weight,
    tracking_loss,
)
from .metrics import (
    TrackRun,
    cle,
    iou,
    tag_breakdown,
)
from .sim import (
    HarnessConfig,
    Scenario,
    Sequence,
    classify_sequence,
    generate,
    run,
    run_ablation_suite,
    stub_tracker,
)

__version__ = "0.1.0"
