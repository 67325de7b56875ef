"""Shared helpers of the paper-claim tests.

Each module regenerates one table/figure of the paper (or one ablation
or extension) at a reduced default scale (see EXPERIMENTS.md for
paper-scale instructions), prints the resulting series, and asserts the
figure's shape checks.  They are plain pytest tests (``python -m pytest
benchmarks``); simulator speed is measured by ``python perf/run.py``.
"""


def emit(result) -> None:
    """Print a figure result prominently inside the test output."""
    print()
    print(result.text)
    if result.checks:
        print("shape checks:", result.checks)


def assert_checks(result) -> None:
    failed = [k for k, ok in result.checks.items() if not ok]
    assert not failed, f"{result.figure}: failed shape checks {failed}"
