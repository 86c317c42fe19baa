"""Cross-modal tracking toolkit.

Desk-scale machinery for trackers that hop between RGB and near-infrared
frames with over-exposed transitions: tri-state frame classification, gated
feature adaptation for the NIR branch, a reliability-weighted trajectory
filter that predicts through invalid frames, the associated loss family,
PR/SR metrics, a synthetic-sequence simulator and a CLI.

The package root holds the documented API; every other name is imported
from its own module.
"""

from .adapter import apply_stack
from .ctp import BBox, FrameInput, SessionConfig, TrackerSession
from .metrics import iou, tag_breakdown
from .sim import HarnessConfig, Scenario, classify_sequence, generate, run
from .state_switch import Image, TriState, separator_switch_weights

__version__ = "0.1.0"
