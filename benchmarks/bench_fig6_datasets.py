"""Figure 6: dataset inventory (logical specs + physical stand-ins)."""

from repro.experiments import datasets_table


def test_fig6_datasets(write_report):
    rows = datasets_table.run()
    report = datasets_table.format_report(rows)
    write_report("fig6_datasets", report)
    assert len(rows) == 5
