"""Evaluation harness: regenerates the paper's tables and figures.

* :mod:`repro.eval.harness` — runs suites of applications through the
  simulators and the hardware oracle, collecting errors and speedups.
* :mod:`repro.eval.tables` — Table I (GPU comparison) and Table II
  (RTX 2080 Ti configuration).
* :mod:`repro.eval.figures` — Figure 4 (per-app error + speedup),
  Figure 5 (speedup contribution analysis), Figure 6 (cross-GPU errors).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.eval.bottleneck": ("BottleneckReport", "analyze"),
    "repro.eval.harness": (
        "AppEvaluation",
        "EvaluationHarness",
        "SuiteEvaluation",
    ),
    "repro.eval.report": ("generate_report",),
    "repro.eval.figures": ("figure4", "figure5", "figure6"),
    "repro.eval.tables": ("render_table1", "render_table2"),
})

__all__ = [
    "AppEvaluation",
    "BottleneckReport",
    "analyze",
    "generate_report",
    "EvaluationHarness",
    "SuiteEvaluation",
    "figure4",
    "figure5",
    "figure6",
    "render_table1",
    "render_table2",
]
