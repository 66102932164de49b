"""Command-line entry point: regenerate the paper's tables and figures.

Installed as ``repro-experiments``.  Examples::

    repro-experiments table2                 # fast preset
    repro-experiments table3 --preset full   # paper-faithful (slow)
    repro-experiments all --preset fast
    repro-experiments list-methods           # the method table
    repro-experiments serve --preset smoke   # the prediction server
    repro-experiments loadgen --port 8077    # replay traffic at a server

``serve`` delegates to the prediction server (``repro-serve``,
:mod:`repro.service.server`) and forwards every following argument to it
(see ``docs/serving.md``); ``loadgen`` does the same for the load
generator (``repro-loadgen``, :mod:`repro.loadgen`); ``list-methods``
prints the engine's method table — every ranking method with its
fallback — so users can discover what ``--method`` / ``methods=``
names mean without reading source.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.data.spec_dataset import build_default_dataset
from repro.experiments import (
    ExperimentConfig,
    figure6_series,
    figure7_series,
    format_figure8,
    format_figure_series,
    format_table2,
    format_table3,
    format_table4,
    run_figure8,
    run_table2,
    run_table3,
    run_table4,
)
from repro.experiments.config import PRESETS

__all__ = ["format_method_table", "main"]


def format_method_table() -> str:
    """The method table (:data:`repro.core.engine.METHODS`) as aligned text.

    One row per method: name, the fallback the serving layer
    may substitute when a deadline or a failed engine pass rules the method
    out (``-`` when the method is already the end of its chain), and the
    one-line description.
    """
    from repro.core.engine import METHODS

    header = ("name", "fallback", "description")
    rows = [header]
    for spec in METHODS:
        rows.append(
            (
                spec.name,
                spec.fallback if spec.fallback is not None else "-",
                spec.description,
            )
        )
    widths = [max(len(row[col]) for row in rows) for col in range(len(header) - 1)]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)) + f"  {row[-1]}"
        for row in rows
    ]
    lines.insert(1, "  ".join("-" * width for width in widths) + "  " + "-" * 11)
    return "\n".join(line.rstrip() for line in lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the data-transposition paper.",
        epilog="'repro-experiments serve' starts the prediction server (repro-serve); "
        "'repro-experiments list-methods' prints the method table.",
    )
    parser.add_argument(
        "experiment",
        choices=["table2", "table3", "table4", "figure6", "figure7", "figure8", "all"],
        help="which experiment to run",
    )
    parser.add_argument(
        "--preset",
        choices=PRESETS,
        default="fast",
        help="configuration preset (default: fast)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the dataset seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the requested experiment(s) and print the text report.

    ``serve`` is dispatched to :func:`repro.service.server.main` and
    ``loadgen`` to :func:`repro.loadgen.main`, each with the remaining
    arguments; ``list-methods`` prints the engine's method table;
    everything else is parsed as an experiment name.
    """
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "serve":
        from repro.service.server import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "loadgen":
        from repro.loadgen import main as loadgen_main

        return loadgen_main(argv[1:])
    if argv and argv[0] == "list-methods":
        print(format_method_table())
        return 0
    args = _build_parser().parse_args(argv)
    config = ExperimentConfig.preset(args.preset)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    dataset = build_default_dataset(noise_sigma=config.noise_sigma, seed=config.seed)

    sections: list[str] = []
    wants = args.experiment
    table2_result = None
    if wants in {"table2", "figure6", "figure7", "all"}:
        table2_result = run_table2(dataset, config)
    if wants in {"table2", "all"}:
        sections.append(format_table2(table2_result))
    if wants in {"figure6", "all"}:
        sections.append(
            format_figure_series(
                figure6_series(table2=table2_result),
                "Figure 6 - per-benchmark Spearman rank correlation",
                higher_is_better=True,
            )
        )
    if wants in {"figure7", "all"}:
        sections.append(
            format_figure_series(
                figure7_series(table2=table2_result),
                "Figure 7 - per-benchmark top-1 prediction error (%)",
                higher_is_better=False,
            )
        )
    if wants in {"table3", "all"}:
        sections.append(format_table3(run_table3(dataset, config)))
    if wants in {"table4", "all"}:
        sections.append(format_table4(run_table4(dataset, config)))
    if wants in {"figure8", "all"}:
        sections.append(format_figure8(run_figure8(dataset, config)))

    print("\n\n".join(sections))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
