"""Experiment drivers that regenerate the paper's tables and figures.

Each module mirrors one artifact of the evaluation:

* :mod:`repro.experiments.table1` -- Table I (general setting);
* :mod:`repro.experiments.table2` -- Table II (common sense of direction);
* :mod:`repro.experiments.figures` -- Figures 1-2 (reduction costs) and
  Figure 3 (RingDist anatomy);
* :mod:`repro.experiments.lower_bounds` -- Lemmas 5-6 and the
  distinguisher size bounds (Cor 29);
* :mod:`repro.experiments.harness` -- row rendering, and the
  bit-exact-then-time shootouts behind ``python -m repro bench NAME``.

The drivers return structured rows and can render aligned-text tables;
the benchmark suite wraps them with pytest-benchmark for timing.
"""

from repro.experiments.harness import ExperimentRow, render_table

__all__ = ["ExperimentRow", "render_table"]
