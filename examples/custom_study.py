"""Declare a brand-new experiment in ~30 lines (the Study protocol).

The paper explored four design dimensions; here is a scenario it never
ran: *how does the storage polling interval move runtime and cost?*
Polling faster finds merged files sooner but bills more requests — a
genuine trade-off curve, posed as a ``Study`` declaration and executed
by the same parallel/resumable/two-phase orchestrator as every paper
figure. All 8 points share one statistical fingerprint, so the sweep
trains once and replays seven times.

Run:  python examples/custom_study.py
"""

from __future__ import annotations

import tempfile

from repro.api import Scenario, Session, Table, study

POLL_INTERVALS = (0.01, 0.05, 0.2, 1.0)


@study("poll_tradeoff")
class PollTradeoffStudy:
    """runtime/cost vs storage polling interval (not in the paper)"""

    @staticmethod
    def points(ctx):
        base = Scenario.workload(
            "lr", "higgs", workers=4, data_scale=5000,
            max_epochs=ctx.max_epochs or 2.0, seed=ctx.seed,
        )
        return [
            s.point("poll_tradeoff")
            for s in base.grid(
                channel=("s3", "memcached"), poll_interval_s=POLL_INTERVALS
            )
        ]

    # One row per artifact: config fields, tags and result scalars by name.
    report = (
        Table("Polling interval trade-off (LR/Higgs at 1/5000 scale)", (
            ("channel", "channel"), ("poll(s)", "poll_interval_s"),
            ("runtime(s)", "duration_s"), ("cost($)", "cost_total"),
        )),
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        session = Session(root, jobs=2)  # resume=True
        outcome = session.sweep("poll_tradeoff")
        print(outcome.report())
        print()
        print(
            f"{outcome.run.ran} point(s) run "
            f"({outcome.run.recorded} exact training(s), "
            f"{outcome.run.replayed} replayed from its trace)"
        )


if __name__ == "__main__":
    main()
