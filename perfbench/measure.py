"""Measurement helpers: percentiles, spans with self time, obs deltas, RSS.

Everything here is benchmark-side: spans are recorded around the calls
the benchmark makes into the program's public functions, and layer
counters are read as before/after deltas of the families the program's
own ``repro.obs`` registry already keeps.  Nothing is patched into
``src/``.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

#: A tail percentile is reported only where at least this many samples
#: lie beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile with >= 10 beyond,
    but never below the upper quartile.

    Below 41 samples the percentile with ten beyond would fall under
    p75 (down to the median at 21 samples), so the interpolated upper
    quartile is reported instead.  Its position then does not jump with
    the sample count, and unlike the maximum of a handful of samples it
    does not hang on the one that met the slowest stretch of the host.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= 4 * TAIL_BEYOND:
        index = n - 1 - TAIL_BEYOND
        return float(ordered[index]), 100.0 * (index + 1) / n, n
    if n == 1:
        return float(ordered[0]), 100.0, n
    return float(statistics.quantiles(ordered, n=4, method="inclusive")[2]), 75.0, n


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Spans:
    """In-memory spans of one run: name, start, end, parent, run id.

    Spans nest by call order on the benchmark's (single) driving
    thread.  A disabled recorder costs one attribute check per span.
    """

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.records: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        self.records.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[index][2] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus the part of
        the span's interval that its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent in self.records:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, float] = {}
        for index, (name, start, end, _parent) in enumerate(self.records):
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(index, ())):
                lo, hi = max(child_start, cursor), min(child_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.records):
                handle.write(
                    json.dumps(
                        {
                            "run_id": self.run_id,
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


#: The registry families the per-layer metrics read as deltas.
OBS_FAMILIES = (
    "slider_http_request_seconds",
    "slider_persist_wal_append_seconds",
    "slider_persist_fsync_seconds",
    "slider_persist_wal_bytes_total",
    "slider_coalescer_submitted_total",
    "slider_coalescer_commits_total",
)


def obs_snapshot() -> dict[tuple, tuple[float, float]]:
    """(family, labels) -> (sum or value, count) for :data:`OBS_FAMILIES`."""
    from repro.obs import REGISTRY

    families = REGISTRY.families()
    snapshot = {}
    for name in OBS_FAMILIES:
        for labels, child in families[name].children().items():
            with child.lock:
                if hasattr(child, "count"):
                    snapshot[(name, labels)] = (child.sum, child.count)
                else:
                    snapshot[(name, labels)] = (child.value, 0)
    return snapshot


def obs_delta(before: dict, after: dict) -> dict[tuple, tuple[float, float]]:
    """Per-series growth between two :func:`obs_snapshot` results."""
    delta = {}
    for key, (total, count) in after.items():
        old_total, old_count = before.get(key, (0.0, 0))
        delta[key] = (total - old_total, count - old_count)
    return delta


def delta_sum(delta: dict, family: str, labels: tuple = ()) -> float:
    return delta.get((family, labels), (0.0, 0))[0]


def delta_count(delta: dict, family: str, labels: tuple = ()) -> int:
    return int(delta.get((family, labels), (0.0, 0))[1])


def delta_mean(delta: dict, family: str, labels: tuple = ()) -> float:
    total, count = delta.get((family, labels), (0.0, 0))
    return total / count if count else 0.0
