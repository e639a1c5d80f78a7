#!/usr/bin/env python3
"""The repository benchmark: one seeded workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload load_bsbm --seed 1 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` prints every
per-layer metric and writes the run's spans as JSON lines under
``.bench_work/spans/``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every output matched the baseline.

Each run pins itself to one CPU and scales its timings to a reference
CPU speed sampled beside it (``speed.py``).  The program is imported
from ``src/`` next to this directory; without it the benchmark exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("load_bsbm", "closure_chain", "window_stream", "serve_durable")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Run one workload in this process, pinned to one CPU with the
    processes it starts (see ``speed.py``); returns its ``Outcome``."""
    import workloads
    from speed import pin_to_one_cpu

    pin_to_one_cpu()
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = workloads.Context(workload, seed, seconds, trace, size, workdir)
    try:
        workloads.WORKLOADS[workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = ctx.out
    out.finish()
    if trace:
        out.warnings = workloads.sanity_checks(workload, out)
        out.layers["bench.sanity_violations"] = len(out.warnings)
        ctx.spans.write_jsonl(ROOT / ".bench_work" / "spans" / f"{ctx.spans.run_id}.jsonl")
    return out


def result_json(out, trace: bool) -> dict:
    """The contract's last-line object for ``out``."""
    import workloads

    units = workloads.LAYER_UNITS if trace else workloads.E2E_UNITS
    values = out.layers if trace else out.e2e
    return {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import the program from {src}: {error}", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    result = result_json(out, bool(args.trace))
    for name, metric in result["metrics"].items():
        note = out.notes.get(name, "")
        print(f"{name} = {metric['value']:.6g} {metric['unit']}" + (f" ({note})" if note else ""))
    for warning in out.warnings:
        print(f"sanity: {warning}", file=sys.stderr)
    for problem in out.problems[:20]:
        print(f"wrong: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
