"""Experiment registry: one entry per table/figure of the paper.

Each experiment module exposes ``run(quick=False) -> ExperimentResult``,
except :mod:`repro.harness.soak`, whose ``SPECS`` hold the soaks by id;
``quick`` trades packet counts and sweep density for speed (used by the
pytest benchmarks' shape assertions, while the full settings regenerate
the EXPERIMENTS.md numbers).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field


@dataclass
class ExperimentResult:
    """The outcome of one regenerated table/figure."""

    experiment: str
    title: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return self.text


#: experiment id -> (module, description).
REGISTRY: dict[str, tuple[str, str]] = {
    "table1": ("repro.harness.config_tables",
               "Table 1: IXP2850 hardware overview (from the chip model)"),
    "table2": ("repro.harness.table2",
               "Table 2: multiprocessing vs context-pipelining"),
    "table3": ("repro.harness.config_tables",
               "Table 3: microengine allocation of the application"),
    "table4": ("repro.harness.table4",
               "Table 4: SRAM utilisation/headroom and level placement"),
    "table5": ("repro.harness.table5",
               "Table 5: throughput vs number of SRAM channels"),
    "fig5": ("repro.harness.fig5",
             "Figure 5: the application mapping, run as a staged simulation"),
    "fig6": ("repro.harness.fig6",
             "Figure 6: space aggregation effect on SRAM usage"),
    "fig7": ("repro.harness.fig7",
             "Figure 7: ExpCuts relative speedups vs thread count"),
    "fig8": ("repro.harness.fig8",
             "Figure 8: linear search effect on throughput"),
    "fig9": ("repro.harness.fig9",
             "Figure 9: ExpCuts vs HiCuts vs HSM on all rule sets"),
    "resilience": ("repro.harness.resilience",
                   "Resilience: throughput under injected SRAM channel loss"),
    "serve-soak": ("repro.harness.soak",
                   "Serve-soak: the serving layer under bursty overload, "
                   "faults and live updates, with stage attribution, "
                   "latency histograms and SLO burn rates "
                   "(writes results/perf_report_*.json|.prom and "
                   "BENCH_serve_soak.json)"),
    "chaos-soak": ("repro.harness.soak",
                   "Chaos-soak: the multi-process fabric under worker "
                   "kills, hangs and snapshot corruption "
                   "(writes BENCH_chaos_soak.json)"),
    "adversarial-soak": ("repro.harness.soak",
                         "Adversarial-soak: stateful & adversarial traffic "
                         "scenarios vs the guarded serving stack "
                         "(writes BENCH_adversarial_soak.json)"),
    "update-storm": ("repro.harness.soak",
                     "Update-storm: the fabric under >=1000 live rule "
                     "updates/s with epoch-consistent propagation and "
                     "update-path faults (writes BENCH_update_storm.json)"),
    "profile": ("repro.harness.profile",
                "Profile: lookup depth/access histograms, hot nodes and "
                "DES timeline export (writes results/profile_*.json)"),
}


def run_experiment(name: str, quick: bool = False) -> ExperimentResult:
    """Run one registered experiment by id."""
    try:
        module_name, _ = REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(REGISTRY)}"
        ) from None
    module = importlib.import_module(module_name)
    specs = getattr(module, "SPECS", {})
    if name in specs:
        return module.run_soak(specs[name], quick=quick)
    runner = getattr(module, f"run_{name}", None) or getattr(module, "run")
    return runner(quick=quick)


def list_experiments() -> list[tuple[str, str]]:
    return [(name, desc) for name, (_, desc) in REGISTRY.items()]
