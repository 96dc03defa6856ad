"""Shared helpers for the benchmark harness.

Every benchmark prints a small table of the rows/series it regenerates (the
paper is a vision paper, so the "tables" are the quantitative claims listed
in DESIGN.md / EXPERIMENTS.md); ``print_rows`` keeps the formatting uniform
so EXPERIMENTS.md can quote the output verbatim.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

#: Where a run's numbers go: git-ignored, so verify never dirties the tree.
#: The ``BENCH_*.json`` at the repo root are recorded history (the ratios
#: the CI floors cite) and nothing writes them.
OUT_DIR = Path(__file__).resolve().parent / "out"


def emit_bench(name: str, payload: dict) -> None:
    """Merge ``payload`` into ``benchmarks/out/BENCH_<name>.json``.

    A key-wise update, so tests that each own some keys of one file can run
    in any order, or alone.
    """
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"BENCH_{name}.json"
    merged = json.loads(path.read_text()) if path.exists() else {}
    merged.update(payload)
    path.write_text(json.dumps(merged, indent=2) + "\n")


def print_rows(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print a uniform, copy-pastable results table."""
    print(f"\n== {title} ==")
    widths = [max(len(str(header[i])), 12) for i in range(len(header))]
    print("  " + " | ".join(str(column).ljust(widths[i]) for i, column in enumerate(header)))
    for row in rows:
        print("  " + " | ".join(str(value).ljust(widths[i]) for i, value in enumerate(row)))
