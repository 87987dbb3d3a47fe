"""Figure 8: synchronous vs asynchronous protocols."""

from repro.experiments import fig8_synchronization
from repro.sweep.orchestrator import run_sweep


def test_fig8_synchronization(write_report):
    points = fig8_synchronization.sweep_points(
        max_epochs=6,
        cases=[("lr", "higgs", 10), ("lr", "rcv1", 5)],
    )
    comparisons = fig8_synchronization.aggregate(run_sweep(points).artifacts)
    report = fig8_synchronization.format_report(comparisons)
    write_report("fig8_synchronization", report)

    for comp in comparisons:
        # ASP is faster per epoch (fewer storage ops per round)...
        asp_pace = comp.asp.duration_s / max(comp.asp.epochs, 1e-9)
        bsp_pace = comp.bsp.duration_s / max(comp.bsp.epochs, 1e-9)
        assert asp_pace < bsp_pace, comp.label
        # ...but statistically no better: it never beats BSP's loss.
        assert comp.asp.final_loss >= comp.bsp.final_loss - 5e-3, comp.label
