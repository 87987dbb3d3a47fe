"""FunctionLifetime edge cases: the knife-edge boundary of Figure 5.

The executor consults ``needs_checkpoint`` at every round boundary.
The comparison is *inclusive*: a round whose estimate exactly equals
the remaining margin must checkpoint (the margin exists so that
knife-edge never runs).
"""

from __future__ import annotations

from repro.faas.limits import LambdaLimits
from repro.faas.runtime import FunctionLifetime


def _lifetime(lifetime_s: float = 900.0, margin_s: float = 30.0) -> FunctionLifetime:
    limits = LambdaLimits(lifetime_s=lifetime_s, checkpoint_margin_s=margin_s)
    return FunctionLifetime(limits, started_at=0.0)


class TestNeedsCheckpointBoundary:
    def test_exact_margin_equality_checkpoints(self):
        # remaining = 900 - 600 = 300; margin = 30 + 270 = 300 exactly.
        lt = _lifetime()
        assert lt.needs_checkpoint(600.0, next_round_estimate_s=270.0)

    def test_one_ulp_inside_the_margin_does_not_checkpoint(self):
        lt = _lifetime()
        assert not lt.needs_checkpoint(600.0, next_round_estimate_s=269.0)

    def test_zero_estimate_uses_the_bare_margin_inclusively(self):
        lt = _lifetime()
        assert not lt.needs_checkpoint(869.0)  # remaining 31 > 30
        assert lt.needs_checkpoint(870.0)  # remaining 30 == margin
        assert lt.needs_checkpoint(871.0)  # remaining 29 < margin

    def test_fresh_function_never_needs_checkpoint(self):
        lt = _lifetime()
        assert not lt.needs_checkpoint(0.0)

    def test_a_spent_lifetime_needs_checkpoint(self):
        lt = _lifetime()
        assert lt.remaining(900.0) == 0.0
        assert lt.needs_checkpoint(900.0)
        assert lt.needs_checkpoint(900.001)

    def test_reincarnation_resets_the_clock(self):
        lt = _lifetime()
        lt.reincarnate(895.0)
        assert lt.incarnations == 2
        assert not lt.needs_checkpoint(900.0)  # 895 + 900 - 900 > 30: a fresh lifetime
        assert lt.remaining(1795.0) == 0.0  # exactly one lifetime after restart
        assert lt.needs_checkpoint(1795.0 - 30.0)
