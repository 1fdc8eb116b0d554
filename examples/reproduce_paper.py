#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation section.

Runs the full experiment registry (Tables 1-4, Figs. 2 and 8-18, the Sec. 7.2
cost analysis, the Sec. 6.3 functional validation, and the extra ablations)
and prints each regenerated result next to the paper's published claims.
It can also rewrite ``EXPERIMENTS.md`` so the recorded paper-vs-measured
comparison stays in sync with the code.

Run with::

    python examples/reproduce_paper.py                 # print everything
    python examples/reproduce_paper.py fig08 fig13     # selected experiments
    python examples/reproduce_paper.py --write-markdown EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.registry import EXPERIMENTS, run_experiment


def write_markdown(path: str, results: dict) -> None:
    """Write the paper-vs-measured record consumed by EXPERIMENTS.md."""
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Regenerated with `python examples/reproduce_paper.py --write-markdown EXPERIMENTS.md`.",
        "",
        "Absolute latencies come from this repository's command-level simulator, not the",
        "authors' validated in-house simulator or hardware, so only the *shapes* (who wins,",
        "by roughly what factor, where crossovers fall) are expected to match.",
        "",
    ]
    for experiment_id, result in results.items():
        description = EXPERIMENTS[experiment_id][0]
        lines.append(f"## {experiment_id} — {description}")
        lines.append("")
        if result.paper_claims:
            lines.append("**Paper:**")
            lines.extend(f"- {claim}" for claim in result.paper_claims)
            lines.append("")
        if result.measured_claims:
            lines.append("**Measured (this reproduction):**")
            lines.extend(f"- {claim}" for claim in result.measured_claims)
            lines.append("")
        lines.append("```")
        lines.append(result.to_text().split("\n\nPaper:")[0])
        lines.append("```")
        lines.append("")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
    print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "experiments", nargs="*", default=[],
        help="experiment identifiers to run (default: all)",
    )
    parser.add_argument(
        "--write-markdown", metavar="PATH", default=None,
        help="also write the paper-vs-measured record to PATH",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="run the slower, more exhaustive variants where available",
    )
    args = parser.parse_args(argv)

    selected = args.experiments or list(EXPERIMENTS)
    unknown = [e for e in selected if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {unknown}; known: {sorted(EXPERIMENTS)}")

    results = {}
    for experiment_id in selected:
        started = time.time()
        result = run_experiment(experiment_id, fast=not args.full)
        results[experiment_id] = result
        print("=" * 88)
        print(f"[{experiment_id}] ({time.time() - started:.1f} s)")
        print(result.to_text())
        print()

    if args.write_markdown:
        write_markdown(args.write_markdown, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
