"""FaaS start-up model and function-lifetime tracking.

Start-up times come straight from Table 6 of the paper:
t_F(10) = 1.2 s, t_F(50) = 11 s, t_F(100) = 18 s, t_F(200) = 35 s.
Intermediate worker counts are interpolated log-linearly; a single
function starts in about one second (Figure 10 reports 1.3 s).

:class:`FunctionLifetime` is the cooperative timeout monitor from
Figure 5: the executor consults it at every round boundary and, when
the 15-minute wall approaches, checkpoints and "re-invokes" itself
(lifetime reset plus the simulated cost of a cold start and state
reload).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.faas.limits import LambdaLimits

# (workers, seconds) anchors from Table 6.
_STARTUP_ANCHORS = [(1, 1.0), (10, 1.2), (50, 11.0), (100, 18.0), (200, 35.0)]

# Cold start + handler init of a single re-invoked worker (Figure 5's
# self-trigger); matches the ~1 s single-function start-up.
REINVOKE_OVERHEAD_S = 1.0


def faas_startup_seconds(workers: int) -> float:
    """Time until all `workers` Lambda functions are up (t_F(w))."""
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    anchors = _STARTUP_ANCHORS
    if workers <= anchors[0][0]:
        return anchors[0][1]
    for (w0, t0), (w1, t1) in zip(anchors, anchors[1:]):
        if w0 <= workers <= w1:
            # Log-linear interpolation between anchors.
            frac = (math.log(workers) - math.log(w0)) / (math.log(w1) - math.log(w0))
            return t0 + frac * (t1 - t0)
    # Extrapolate beyond 200 workers linearly in w (invocation batches).
    w_last, t_last = anchors[-1]
    return t_last * (workers / w_last)


class FunctionLifetime:
    """Tracks one worker's current function instance against the timeout."""

    def __init__(self, limits: LambdaLimits, started_at: float) -> None:
        self.limits = limits
        self.started_at = started_at
        self.incarnations = 1

    def remaining(self, now: float) -> float:
        return self.limits.lifetime_s - (now - self.started_at)

    def needs_checkpoint(self, now: float, next_round_estimate_s: float = 0.0) -> bool:
        """True when the next round may not fit in the remaining lifetime.

        The comparison is inclusive: when the estimate plus the safety
        margin exactly equals the remaining lifetime, the round would
        finish at the instant AWS reclaims the function — the margin
        exists precisely so that knife-edge never runs.
        """
        margin = self.limits.checkpoint_margin_s + next_round_estimate_s
        return self.remaining(now) <= margin

    def reincarnate(self, now: float) -> None:
        """Account for a self-triggered successor function (Figure 5)."""
        self.started_at = now
        self.incarnations += 1
