"""hyperfield benchmark: one workload, end-to-end (untraced) or per-layer (traced).

    python3 hyperbench/run.py --workload {cold,noop,retrain} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; ``hyperfield`` is imported from
``src/``. With ``--trace 0`` the timed ``run-all`` invocations run as
plain child processes and the result carries the end-to-end metrics;
with ``--trace 1`` one untraced and one traced invocation run and the
result carries the per-layer metrics. The last line of standard output
is the JSON result; the lines before it record the environment, every
timed run and the output tree's digest. The exit code is 0 when every
check passed, 1 when a timed run failed its output check, and 2 when
nothing could be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import bench
import envinfo
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_BUDGET_S = 170.0
MAX_REPS = 5  # bounds the per-run output checks when run-all gets fast


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="hyperbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep timing run-all until this much has been timed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _describe(index: int, rep: bench.Rep) -> str:
    c = rep.child
    verdict = "ok" if not rep.failed else "FAILED: " + "; ".join(rep.problems)
    r2 = f"{rep.subplot_r2:.4f}" if rep.subplot_r2 is not None else "-"
    return (
        f"run {index} {'traced' if rep.traced else 'untraced'} train_seed={rep.train_seed}: "
        f"wall {c.wall_s:.3f} s  cpu {c.cpu_s:.3f} s  rss {c.peak_rss_mb:.1f} MB  "
        f"tree {rep.tree_mb:.3f} MB  R2 {r2}  {verdict}"
    )


def measure(wb: bench.Workbench, name: str, seconds: float) -> tuple[bench.Runs, dict]:
    """Untraced runs until ``seconds`` of run-all have been timed."""
    runs = bench.Runs(wb, name)
    workload = bench.WORKLOADS[name]
    setup_times = bench.set_up(wb, workload, workload.setup_reps)
    print(f"setup {workload.setup_reps}x: " + " ".join(f"{t:.3f}" for t in setup_times) + " s")
    runs.start()
    while True:
        rep = runs.timed_run()
        print(_describe(len(runs.reps), rep))
        timed = sum(r.child.wall_s for r in runs.reps)
        time_left = wb.deadline - time.monotonic()
        if (
            rep.failed
            or timed >= seconds
            or len(runs.reps) >= MAX_REPS
            or time_left < 2 * rep.child.wall_s + 10
        ):
            break
    return runs, bench.end_to_end(runs.reps, setup_times)


def measure_traced(wb: bench.Workbench, name: str) -> tuple[bench.Runs, dict]:
    """One untraced run, then the same work traced; per-layer metrics from the latter."""
    runs = bench.Runs(wb, name)
    workload = bench.WORKLOADS[name]
    synth_spans = wb.work / "synth_spans.json"
    spans_path = wb.work / "spans.json"
    bench.set_up(wb, workload, 1, synth_spans=synth_spans)
    runs.start()
    untraced = runs.timed_run()
    print(_describe(1, untraced))
    if untraced.failed:
        return runs, {}
    traced = runs.timed_run(spans=spans_path)
    metrics = {}
    if traced.child.returncode == 0:
        spans, synth = layers.Spans.load(spans_path), layers.Spans.load(synth_spans)
        traced.problems += layers.coverage_problems(name, spans, synth)
        metrics = layers.layer_metrics(spans, synth, traced.child.wall_s, untraced.child.wall_s)
    print(_describe(2, traced))
    return runs, {} if traced.failed else metrics


def main(argv: list[str] | None = None, scene: bench.Scene = bench.DEFAULT_SCENE) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "hyperfield" / "cli.py").is_file():
        print(f"error: {ROOT} has no src/hyperfield to benchmark", file=sys.stderr)
        return 2
    os.environ.update(envinfo.thread_env())
    deadline = time.monotonic() + RUN_BUDGET_S
    print("env " + json.dumps(envinfo.record(ROOT), sort_keys=True))
    work = ROOT / ".hyperbench-work" / str(os.getpid())
    wb = bench.Workbench(ROOT, work, args.seed, scene, deadline)
    try:
        if args.trace:
            runs, values = measure_traced(wb, args.workload)
            spec = layers.PER_LAYER
        else:
            runs, values = measure(wb, args.workload, args.seconds)
            spec = bench.END_TO_END
    except bench.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for seed, digest in sorted(runs.digests.items()):
        print(f"tree_digest {args.workload} seed={args.seed} train_seed={seed} {digest}")
    for metric, unit, _ in spec:
        if metric in values:
            print(f"{metric:<36} {values[metric]:>16.6f} {unit}")
    failed = sum(rep.failed for rep in runs.reps)
    result = {
        "correct": failed == 0 and bool(values),
        "attempted": len(runs.reps),
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u, _ in spec if m in values},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
