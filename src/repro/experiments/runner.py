"""Run every experiment of the paper's evaluation section and print the results.

``python -m repro.experiments`` (or ``repro-teams reproduce`` via the CLI)
runs Table 1, Table 2, Table 3 and the four panels of Figure 2 with a shared
set of generated datasets, and prints each artefact in a layout mirroring the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.config import ExperimentConfig, default_config, fast_config
from repro.experiments.figure2 import (
    Figure2ABResult,
    Figure2CDResult,
    run_figure2ab,
    run_figure2cd,
)
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.table3 import Table3Result, run_table3
from repro.experiments.workloads import DatasetContext, build_all_dataset_contexts
from repro.utils.timing import Timer


@dataclass
class ReproductionReport:
    """All experiment results plus wall-clock timings."""

    table1: Table1Result
    table2: Table2Result
    table3: Table3Result
    figure2ab: Figure2ABResult
    figure2cd: Figure2CDResult
    timings: Dict[str, float]

    def as_text(self) -> str:
        """Render every artefact, separated by blank lines."""
        sections = [
            self.table1.as_text(),
            self.table2.as_text(),
            self.table3.as_text(),
            self.figure2ab.as_text(),
            self.figure2cd.as_text(),
            self._timings_text(),
        ]
        return "\n\n".join(sections)

    def _timings_text(self) -> str:
        lines = ["Timings (seconds)"]
        for name, seconds in self.timings.items():
            lines.append(f"  {name}: {seconds:.1f}")
        return "\n".join(lines)


def run_all(config: Optional[ExperimentConfig] = None, verbose: bool = True) -> ReproductionReport:
    """Run the full reproduction and return a :class:`ReproductionReport`."""
    config = config or default_config()
    timings: Dict[str, float] = {}

    with Timer() as timer:
        contexts = build_all_dataset_contexts(config)
    timings["dataset generation"] = timer.elapsed

    def announce(name: str) -> None:
        if verbose:
            print(f"[repro] running {name} ...", flush=True)

    announce("Table 1")
    with Timer() as timer:
        table1 = run_table1(config, contexts)
    timings["table 1"] = timer.elapsed

    announce("Table 2")
    with Timer() as timer:
        table2 = run_table2(config, contexts)
    timings["table 2"] = timer.elapsed

    team_context = contexts[config.team_dataset]
    tasks = team_context.generate_tasks(
        size=config.task_size, count=config.num_tasks, seed=config.workload_seed
    )

    announce("Table 3")
    with Timer() as timer:
        table3 = run_table3(config, team_context, tasks)
    timings["table 3"] = timer.elapsed

    announce("Figure 2(a)/(b)")
    with Timer() as timer:
        figure2ab = run_figure2ab(config, team_context, tasks)
    timings["figure 2(a)(b)"] = timer.elapsed

    announce("Figure 2(c)/(d)")
    with Timer() as timer:
        figure2cd = run_figure2cd(config, team_context)
    timings["figure 2(c)(d)"] = timer.elapsed

    report = ReproductionReport(
        table1=table1,
        table2=table2,
        table3=table3,
        figure2ab=figure2ab,
        figure2cd=figure2cd,
        timings=timings,
    )
    if verbose:
        print(report.as_text())
        note = table2.truncation_note()
        if note:
            print(note)
    return report


def main() -> None:
    """Command-line entry point: ``python -m repro.experiments [--fast]``."""
    import argparse

    parser = argparse.ArgumentParser(description="Reproduce the paper's tables and figures")
    parser.add_argument(
        "--fast",
        action="store_true",
        help="use the miniature configuration (seconds instead of minutes)",
    )
    arguments = parser.parse_args()
    config = fast_config() if arguments.fast else default_config()
    run_all(config)


if __name__ == "__main__":
    main()
