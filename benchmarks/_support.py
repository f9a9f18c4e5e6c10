"""Shared helpers for the benchmark suite.

Every benchmark prints a paper-style table (run with ``-s`` to see it
live) and records its headline numbers in ``benchmark.extra_info`` so
``pytest-benchmark``'s JSON output carries the simulated metrics, not
just wall time.
"""

from __future__ import annotations

import hashlib
import sys
from typing import Any, Dict, Iterable, List, Sequence

from repro.core import CloudlessEngine


def deploy_engine(source: str, seed: int = 0, variables=None, **kwargs) -> CloudlessEngine:
    """A fresh engine with ``source`` applied (asserts success)."""
    engine = CloudlessEngine(seed=seed, **kwargs)
    result = engine.apply(source, variables=variables)
    assert result.ok, f"benchmark setup failed: {result.apply and result.apply.failed}"
    return engine


def stable_seed(kind: str, trial: int) -> int:
    """A case's seed: the same in every process (``hash()`` of a str is
    salted per process unless ``PYTHONHASHSEED`` pins it)."""
    digest = hashlib.sha256(f"{kind}/{trial}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31)


class Table:
    """Minimal fixed-width table printer for benchmark reports."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add(self, *cells: Any) -> None:
        self.rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [f"\n== {self.title} ==".rstrip()]
        lines.append(
            " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        )
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def show(self) -> None:
        print(self.render(), file=sys.stderr)


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def record(benchmark, table: Table, **extra: Any) -> None:
    """Attach results to pytest-benchmark's extra_info, print them, and
    persist the rendered table under benchmarks/results/ so the
    experiment output survives pytest's output capturing."""
    import os
    import re

    table.show()
    if benchmark is not None:
        benchmark.extra_info["table"] = table.render()
        for key, value in extra.items():
            benchmark.extra_info[key] = value
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    slug = re.sub(r"[^A-Za-z0-9]+", "_", table.title)[:60].strip("_")
    with open(os.path.join(results_dir, f"{slug}.txt"), "w") as handle:
        handle.write(table.render() + "\n")
