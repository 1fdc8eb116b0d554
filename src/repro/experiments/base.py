"""Common infrastructure for the paper-reproduction experiments.

Every ``figXX_*`` module exposes a ``run(fast: bool = True) -> ExperimentResult``
function that regenerates one table or figure of the paper's evaluation: the
same rows/series the paper reports, plus the paper's published values (where
the paper states them) so ``repro experiment``, ``repro bench`` and
``examples/reproduce_paper.py`` can print paper-vs-measured side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.report import format_table

__all__ = ["ExperimentResult", "Cell", "Sweep"]


@dataclass
class ExperimentResult:
    """The regenerated data of one paper table or figure."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list]
    #: What the paper reports for this experiment (claims and/or key numbers).
    paper_claims: list[str] = field(default_factory=list)
    #: What this reproduction measured (the same claims, quantified).
    measured_claims: list[str] = field(default_factory=list)
    #: Free-form extra data for tests and downstream tooling.
    data: dict = field(default_factory=dict)

    def to_text(self) -> str:
        """Human-readable report: table plus paper-vs-measured claims."""
        lines = [format_table(self.headers, self.rows, title=self.title)]
        if self.paper_claims:
            lines.append("")
            lines.append("Paper:")
            lines.extend(f"  - {claim}" for claim in self.paper_claims)
        if self.measured_claims:
            lines.append("")
            lines.append("Measured (this reproduction):")
            lines.extend(f"  - {claim}" for claim in self.measured_claims)
        return "\n".join(lines)


@dataclass(frozen=True)
class Cell:
    """One point of an experiment's sweep grid.

    A cell is the unit of sharding: ``params`` must be picklable (it crosses
    the process boundary when the runner fans cells out over a pool) and must
    carry *everything* the experiment's ``run_cell`` function needs — cells
    are evaluated independently, possibly out of order, possibly in different
    processes.
    """

    cell_id: str
    params: dict = field(default_factory=dict)


@dataclass
class Sweep:
    """An experiment expressed as a grid of independent cells plus a reduce.

    The contract that makes sharding safe:

    * ``run_cell`` is **pure** — its output depends only on the cell's
      ``params`` (plus module-level constants), never on other cells or on
      mutable state, so cells may run in any order and in any process.  It
      must be a *module-level* function (workers re-import it by reference).
    * ``reduce_fn`` is **deterministic** — it folds the ``{cell_id: output}``
      mapping back into an :class:`ExperimentResult`, iterating ``cells`` in
      their declared order, so serial and sharded execution produce identical
      rows and claims byte for byte.

    ``execute`` is the serial path: it evaluates every cell in declared order
    in-process and reduces.  The sharded path lives in
    :func:`repro.perf.runner.run_many`, which work-steals cells of *all*
    requested experiments across one process pool.
    """

    experiment_id: str
    cells: list[Cell]
    run_cell: Callable[[dict], dict]
    reduce_fn: Callable[["Sweep", dict[str, dict]], ExperimentResult]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for cell in self.cells:
            if cell.cell_id in seen:
                raise ValueError(
                    f"{self.experiment_id}: duplicate cell id {cell.cell_id!r}"
                )
            seen.add(cell.cell_id)

    # ------------------------------------------------------------------
    def cells_per_group(self, param: str) -> int:
        """Grid points per group when cells are grouped by one parameter.

        Reduce functions that emit a summary row after each group (e.g. the
        per-model Avg rows of Fig. 8 / Fig. 17) use this to know where a
        group closes.  Assumes the declared cell order keeps groups
        contiguous and equally sized, as a nested-loop grid does.
        """
        first_value = self.cells[0].params[param]
        return sum(1 for cell in self.cells if cell.params[param] == first_value)

    def run_cell_by_id(self, cell_id: str) -> dict:
        """Evaluate one cell (the worker-side entry point)."""
        for cell in self.cells:
            if cell.cell_id == cell_id:
                return self.run_cell(cell.params)
        raise KeyError(f"{self.experiment_id}: unknown cell {cell_id!r}")

    def reduce(self, outputs: dict[str, dict]) -> ExperimentResult:
        """Fold the per-cell outputs back into the experiment result."""
        missing = [cell.cell_id for cell in self.cells if cell.cell_id not in outputs]
        if missing:
            raise KeyError(
                f"{self.experiment_id}: missing cell output(s) {missing}"
            )
        return self.reduce_fn(self, outputs)

    def execute(self) -> ExperimentResult:
        """Serial reference path: run every cell in declared order, reduce."""
        outputs = {cell.cell_id: self.run_cell(cell.params) for cell in self.cells}
        return self.reduce(outputs)
