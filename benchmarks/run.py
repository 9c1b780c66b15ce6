"""Benchmark of the ``wood`` pipeline: training and scoring throughput.

Usage, from the root of the repository:

    python3 benchmarks/run.py --workload {c06,idx-sinkhorn,score} \
        --seed N --seconds S --trace {0,1}

Set-up writes the seeded inputs (repeated several times; ``setup_s`` is the
median). The op is then repeated for ``--seconds`` in a fresh child process.
End-to-end times are scaled to a fixed machine speed by the reference
workload in ``reference.py``, read before and after every timed region.
``--trace 0`` reports the end-to-end metrics from that untraced child;
``--trace 1`` runs one untraced and two traced children, a third of the time
each, and reports per-layer metrics from the traced ones. The outputs of
every op are checked against an independent NumPy computation. The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Details, machine facts and spans go to
``benchmarks/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One process, one client; BLAS may use at most two threads (and never more
# than the machine has), the same on every machine the numbers come from.
BLAS_THREADS = min(2, os.cpu_count() or 1)
BLAS_ENV = {name: str(BLAS_THREADS) for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# Set-up is repeated at least this many times, and until this long has passed.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 20

DEADLINE_S = 170.0  # the whole run must end well within 180 s

TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            sha = done.stdout.strip()
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """Highest listed percentile with at least ten samples beyond it, and its value."""
    import numpy as np

    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= 10:
            best = p
    return best, (float(np.percentile(values, best)) if values else 0.0)


def run_child(args, work: Path, tag: str, trace: int, seconds: float,
              deadline: float) -> dict:
    """Run ``child.py`` to completion; a child that fails yields no ops."""
    result = work / f"{tag}.json"
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work / "run"), "--seconds", repr(seconds),
           "--trace", str(trace), "--result", str(result)]
    with open(work / f"{tag}.log", "w", encoding="utf-8") as log:
        child = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env)
        try:
            code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            code = None
    if code != 0 or not result.is_file():
        print(f"{tag}: child exited with {code}; see {work / (tag + '.log')}", file=sys.stderr)
        return {"ops": [], "peak_rss_mb": 0.0, "crashed": True}
    return json.loads(result.read_text(encoding="ascii"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "wood" / "__init__.py").is_file():
        print(f"error: no wood package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before NumPy is first imported
    sys.path.insert(0, str(SRC))

    import checks
    import workloads
    from reference import at_nominal_speed, reference_seconds
    import wood.cli  # noqa: F401  (import cost stays out of the first set-up)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    work = HERE / "out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    plan = workloads.make_plan(args.workload, work / "run", args.seed)

    # Set-up, timed, each repeat bracketed by two reference readings.
    setup_s, references = [], [reference_seconds()]
    while (len(setup_s) < (SETUP_REPEATS if not args.trace else 1)
           or (not args.trace and sum(setup_s) < SETUP_MIN_S
               and len(setup_s) < SETUP_MAX_REPEATS)):
        shutil.rmtree(plan.work, ignore_errors=True)
        started = time.perf_counter()
        inputs = workloads.generate(plan)
        setup_s.append(time.perf_counter() - started)
        references.append(reference_seconds())
    setup_nominal_s = [at_nominal_speed(s, (before + after) / 2.0)
                       for s, before, after in zip(setup_s, references, references[1:])]

    # Measurement.
    if args.trace:
        third = args.seconds / 3.0
        children = {"untraced": run_child(args, work, "untraced", 0, third, deadline),
                    "traced-a": run_child(args, work, "traced-a", 1, third, deadline),
                    "traced-b": run_child(args, work, "traced-b", 1, third, deadline)}
    else:
        children = {"untraced": run_child(args, work, "untraced", 0, args.seconds, deadline)}

    # Checks on the final outputs; every op must have produced the same bytes.
    problems = []
    quality = None
    try:
        ind_probs = checks.checkpoint_probs(plan.checkpoint, inputs.ind_x)
        ood_probs = checks.checkpoint_probs(plan.checkpoint, inputs.ood_x)
        problems += checks.check_scores(plan.scores_csv, ood_probs, plan.matrix,
                                        workloads.EPSILON)
        quality, found = checks.check_report(plan.report_txt, ind_probs, inputs.ind_y,
                                             ood_probs, plan.matrix, workloads.TNR,
                                             workloads.CALIB_FRAC, args.seed)
        problems += found
        if args.workload == "c06":
            problems += checks.c06_gates(quality, plan.n_classes)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"outputs unreadable: {exc!r}")
    final = workloads.output_digests(plan)

    attempted = failed = 0
    for tag, child in children.items():
        if child.get("crashed"):
            attempted += 1
            failed += 1
            problems.append(f"{tag}: child process failed")
        for op in child["ops"]:
            attempted += 1
            if op["error"] is not None:
                failed += 1
                problems.append(f"{tag}: op failed:\n{op['error']}")
            elif op["digests"] != final:
                failed += 1
                problems.append(f"{tag}: op outputs differ from the checked outputs")
    if problems and not failed:
        failed = attempted  # every op produced the outputs that failed the checks

    good = [op for child in children.values() for op in child["ops"] if op["error"] is None]
    if args.trace:
        metrics, details = per_layer(children)
        problems += details.pop("problems")
    else:
        metrics, details = end_to_end(plan, children["untraced"], setup_s, setup_nominal_s,
                                      quality, attempted, failed)
    correct = not problems and bool(good)

    facts = machine_facts()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": facts, "setup_s": setup_s,
              "correct": correct, "attempted": attempted, "failed": failed,
              "problems": problems, "metrics": metrics, "details": details,
              "quality": vars(quality) if quality else None,
              "ops": {tag: [{k: v for k, v in op.items() if k != "digests"}
                            for op in child["ops"]] for tag, child in children.items()}}
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="ascii")

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, value in details.items():
        print(f"{name}: {value}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def end_to_end(plan, child, setup_s, setup_nominal_s, quality, attempted, failed):
    good = [op for op in child["ops"] if op["error"] is None]
    # Throughput over all good ops: rows over the summed step times, raw and
    # at reference speed.
    raw, nominal = {}, {}
    for step in plan.steps:
        rows = step.rows * len(good)
        for into, key in ((raw, "steps"), (nominal, "nominal_steps")):
            total_s = sum(op[key][step.metric] for op in good)
            into[step.metric] = rows / total_s if good else 0.0
    fnr = quality.fnr_at_tnr if quality else 1.0
    metrics = {
        "setup_s": (_median(setup_nominal_s), "s"),
        "train_rows_per_s": (nominal["train_rows_per_s"], "rows/s"),
        "score_rows_per_s": (nominal["score_rows_per_s"], "rows/s"),
        "evaluate_rows_per_s": (nominal["evaluate_rows_per_s"], "rows/s"),
        "auroc": (quality.auroc if quality else 0.0, "ratio"),
        "tpr_at_tnr": (1.0 - fnr, "ratio"),
        "ind_accuracy": (quality.ind_accuracy if quality else 0.0, "ratio"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
        "success_rate": ((attempted - failed) / attempted if attempted else 0.0, "ratio"),
    }
    details = {
        "ops": len(child["ops"]),
        "setup_repeats": len(setup_s),
        "reference_s_mean": statistics.mean(
            [s for op in child["ops"] for s in op["references"]]),
        "wall_clock": {"setup_s": _median(setup_s), **raw},
        "fnr_at_tnr": fnr,
        "error_rate": failed / attempted if attempted else 1.0,
    }
    return metrics, details


# Per-layer metric -> (tracer key, unit). Counts must repeat exactly in every
# traced op; times are medians over the traced ops.
PER_LAYER = {
    "transport.self_s": ("transport.self_s", "s"),
    "transport.solves": ("transport.solves", "count"),
    "transport.iterations": ("transport.iterations", "count"),
    "transport.log_fallbacks": ("transport.log_fallbacks", "count"),
    "transport.nonconverged": ("transport.nonconverged", "count"),
    "transport.validate_calls": ("transport.validate_calls", "count"),
    "loss.self_s": ("loss.self_s", "s"),
    "loss.calls": ("loss.entries", "count"),
    "geometry.self_s": ("geometry.self_s", "s"),
    "geometry.score_calls": ("geometry.entries", "count"),
    "model.forward_s": ("model.forward_s", "s"),
    "model.forward_rows": ("model.forward_rows", "count"),
    "model.backward_s": ("model.backward_s", "s"),
    "model.backward_rows": ("model.backward_rows", "count"),
    "trainer.self_s": ("trainer.self_s", "s"),
    "trainer.steps": ("trainer.steps", "count"),
    "trainer.checkpoint_s": ("trainer.checkpoint_s", "s"),
    "detect.self_s": ("detect.self_s", "s"),
    "detect.rows": ("detect.rows", "count"),
    "data.self_s": ("data.self_s", "s"),
    "data.rows": ("data.rows", "count"),
    "cli.self_s": ("cli.self_s", "s"),
}


def per_layer(children):
    traced = [op for tag in ("traced-a", "traced-b") for op in children[tag]["ops"]
              if op["error"] is None]
    untraced = [op for op in children["untraced"]["ops"] if op["error"] is None]
    if not traced:
        return {}, {"problems": ["no traced op completed"]}
    problems, metrics = [], {}
    for name, (key, unit) in PER_LAYER.items():
        values = [op["layers"][key] for op in traced]
        if unit == "count":
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced ops: {sorted(set(values))}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (_median(values), unit)
    # Step-time percentiles per op (a fixed number of steps), then the median.
    tails = [tail_percentile(op["step_ms"]) for op in traced]
    metrics["trainer.step_ms.p50"] = (_median([_median(op["step_ms"]) for op in traced]), "ms")
    metrics["trainer.step_ms.tail"] = (_median([ms for _, ms in tails]), "ms")
    metrics["trace_overhead"] = ((_median([op["wall_s"] for op in traced])
                                  / _median([op["wall_s"] for op in untraced]))
                                 if untraced else 0.0, "ratio")
    details = {
        "traced_ops": len(traced),
        "untraced_ops": len(untraced),
        "steps_per_op": len(traced[0]["step_ms"]),
        "step_ms_tail_percentile": tails[0][0],
        "problems": problems,
    }
    return metrics, details


if __name__ == "__main__":
    sys.exit(main())
