"""Measuring process: repeats one workload's op in a closed loop.

Started by ``run.py`` in a fresh interpreter per measurement, so its peak
RSS belongs to the workload alone. One client: each op starts when the
previous one has finished, and ops are started until ``--seconds`` have
passed (at least one op runs). The reference workload runs before and after
every step, so each step is bracketed by two machine-speed readings. With ``--trace 1`` the outside-in tracer is installed before the first op and
its spans are written out at exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from reference import at_nominal_speed, reference_seconds
from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    import wood.cli  # noqa: F401  (the import is not part of any op's time)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    plan = workloads.make_plan(args.workload, args.work, args.seed)

    ops = []
    started = time.perf_counter()
    try:
        while not ops or time.perf_counter() - started < args.seconds:
            shutil.rmtree(plan.work / "out", ignore_errors=True)
            if tracer:
                tracer.run = len(ops)
            # references[i] and references[i + 1] bracket step i.
            op = {"steps": {}, "nominal_steps": {}, "references": [reference_seconds()],
                  "error": None}
            try:
                for step in plan.steps:
                    t0 = time.perf_counter()
                    workloads.run_step(plan, step)
                    elapsed = time.perf_counter() - t0
                    op["references"].append(reference_seconds())
                    op["steps"][step.metric] = elapsed
                    op["nominal_steps"][step.metric] = at_nominal_speed(
                        elapsed, statistics.mean(op["references"][-2:]))
            except Exception:  # a failed op is counted, and the loop goes on
                op["error"] = traceback.format_exc()
            op["wall_s"] = sum(op["steps"].values())
            op["digests"] = workloads.output_digests(plan)
            ops.append(op)
    finally:
        if tracer:
            tracer.dump(args.result.with_suffix(".spans.npz"))

    if tracer:
        for run, op in enumerate(ops):
            op["layers"], op["step_ms"] = tracer.layer_metrics(run)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps({"ops": ops, "peak_rss_mb": peak_rss_mb}),
                           encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
