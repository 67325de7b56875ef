"""Experiment drivers regenerating every table and figure of the paper.

Import the submodule you run (``repro.harness.microbench``,
``repro.harness.figures``, ``repro.harness.stm_bench``,
``repro.harness.tables``, ...): the package re-exports nothing, so a
microbenchmark never loads the STM and application code the figures
use.
"""
