"""Table 6: analytical-model constants re-measured from the substrate."""

import pytest

from repro.experiments import table6_constants


def test_table6_constants(write_report):
    rows = table6_constants.run()
    report = table6_constants.format_report(rows)
    write_report("table6_constants", report)
    for row in rows:
        assert row.measured_value == pytest.approx(row.paper_value, rel=0.25), (
            row.symbol,
            row.configuration,
        )
