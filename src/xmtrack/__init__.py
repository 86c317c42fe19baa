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
    cosine_similarity,
    grad_check,
    linear,
    relu,
    sigmoid,
    softmax,
)
from .state_switch import (
    Image,
    SwitchWeights,
    TriState,
    TriStateDecision,
    classify,
    is_over_exposed,
    modality_weight,
    separator_switch_weights,
    spatial_branch,
    spectral_branch,
)
from .adapter import (
    AdapterLayerWeights,
    AdapterStack,
    adapt,
    adapter_backward,
    apply_stack,
    layer_gate,
)
from .ctp import (
    BBox,
    FilterBank,
    FilterState,
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
    l1_loss,
    modality_loss,
    siou_loss,
    template_sim_loss,
    total_loss,
    tracking_loss,
)
from .metrics import (
    TrackRun,
    cle,
    iou,
    precision_rate,
    success_rate,
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
