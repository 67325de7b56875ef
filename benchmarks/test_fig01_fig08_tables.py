"""Figures 1 and 8: the paper's qualitative tables, generated from code."""

from repro.harness.tables import figure1_table, figure8_table


def test_figure1_comparison_table(benchmark):
    table = benchmark(figure1_table)
    print()
    print(table)
    # the LCU row must claim the full feature set the paper claims
    lcu_row = next(l for l in table.splitlines() if l.startswith("lcu"))
    assert lcu_row.count("yes") == 5
    assert "1 (direct LCU-to-LCU)" in lcu_row


def test_figure8_parameter_table(benchmark):
    table = benchmark(figure8_table)
    print()
    print(table)
    assert "32 (32x1)" in table and "32 (4x8)" in table
    assert "186" in table and "315" in table
