"""Independent reference for the adapter's per-layer gate.

``adapter_pair`` builds its gate g from ``core``'s linear, relu and softmax
pairs.  This module computes the same scalar with plain numpy and the
two-logit identity softmax(l)[0] = 1 / (1 + exp(l1 - l0)), sharing no code
with the package, so a wrong layer or weight there shows up as a different g.
"""

import numpy as np


def gate(f_sr, w) -> float:
    """g in (0, 1) of one ``AdapterLayerWeights`` on (T, d) search features."""
    mu = np.asarray(f_sr, dtype=np.float64).mean(axis=0)
    hidden = np.maximum(w.gate_w1 @ mu + w.gate_b1, 0.0)
    l0, l1 = w.gate_w2 @ hidden + w.gate_b2
    return float(1.0 / (1.0 + np.exp(l1 - l0)))
