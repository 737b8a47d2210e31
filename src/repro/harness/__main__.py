"""Run the full experiment suite: ``python -m repro.harness [--quick]``.

Prints every table to the console and, with ``--write PATH``, renders the
markdown that EXPERIMENTS.md records.
"""

from __future__ import annotations

import argparse

from repro.harness.experiments import run_all
from repro.harness.reporting import render_markdown


def main() -> None:
    """Run the experiment suite from the command line."""
    parser = argparse.ArgumentParser(description="repro experiment harness")
    parser.add_argument("--quick", action="store_true", help="small sweeps")
    parser.add_argument("--write", metavar="PATH", help="write markdown tables")
    args = parser.parse_args()
    results = run_all(quick=args.quick)
    for result in results:
        print(result.to_console())
        print()
    if args.write:
        with open(args.write, "w") as handle:
            handle.write(render_markdown(results))
        print(f"wrote {args.write}")


if __name__ == "__main__":
    main()
