"""Step size, acceptance slack and stall window shared by the descent loops."""
from __future__ import annotations

import numpy as np

# Acceptance slack and stagnation window for the descent loops.  The slack
# lets the iteration keep moving once objective decrements underflow; the
# window aborts a run whose residual has stopped improving.
_EPS_SLACK = 1e-14
_STALL_WINDOW = 500


def _slack(value: float) -> float:
    return _EPS_SLACK * (1.0 + abs(value))


def bb_alpha(du: np.ndarray, dg: np.ndarray, fallback: float,
             lo: float = 1e-14, hi: float = 1e14) -> float:
    """Barzilai-Borwein step from a secant pair, clipped to [lo, hi].

    Prefers the long BB1 step; falls back to BB2, then to the supplied
    default when the curvature estimate is not positive.
    """
    uu = float(du @ du)
    ug = float(du @ dg)
    gg = float(dg @ dg)
    if ug > 0.0 and uu > 0.0:
        alpha = uu / ug
    elif ug > 0.0 and gg > 0.0:
        alpha = ug / gg
    else:
        alpha = fallback
    return float(np.clip(alpha, lo, hi))
