"""Self-test of the benchmark on a tiny scene.

    python3 -m pytest hyperbench -q

The tiny scene is acceptance test 11's (4x4 grid, 30 epochs). It is
too small to reach test 07's R2 bar, so it is held to a finite R2
only; the bar itself is tested on hand-written metrics files.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import pytest

import bench
import layers
import run

ROOT = Path(__file__).resolve().parent.parent

TINY = bench.Scene(
    ini="""\
[synth]
grid_rows = 4
grid_cols = 4
snr_db = 40
target_subplot_r2 = 0.85

[split]
test_plots = 3

[train]
epochs = 30
""",
    min_subplot_r2=-math.inf,
)


def _workbench(tmp_path: Path, scene: bench.Scene) -> bench.Workbench:
    return bench.Workbench(ROOT, tmp_path / "work", 3, scene, deadline=time.monotonic() + 600)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_lists_match_benchmark_json():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    for key, ours in (("end_to_end", bench.END_TO_END), ("per_layer", layers.PER_LAYER)):
        theirs = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert theirs == ours


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_every_metric_printed_with_its_unit(workload, trace, capsys):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        scene=TINY,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = layers.PER_LAYER if trace else bench.END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in spec]
    for name, unit, _ in spec:
        value = result["metrics"][name]
        assert value["unit"] == unit
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
    assert any(line.startswith(f"tree_digest {workload} ") for line in lines)
    assert lines[0].startswith("env ")
    if trace:
        metrics = {name: v["value"] for name, v in result["metrics"].items()}
        assert metrics["pipeline.stages_run"] == layers.EXPECTED_STAGES_RUN[workload]


def test_broken_input_is_a_failed_run_and_not_timed(tmp_path):
    wb = _workbench(tmp_path, TINY)
    bench.set_up(wb, bench.WORKLOADS["cold"], 1)
    panel = wb.out / "synth" / "panel.csv"
    lines = panel.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].split(",")[0] + ",not-a-number"
    panel.write_text("\n".join(lines) + "\n", encoding="utf-8")

    rep = bench.Runs(wb, "cold").timed_run()
    assert rep.failed
    assert rep.problems[0].startswith("exit code ")
    assert bench.end_to_end([rep], [1.0]) == {}


def _metrics_csv(path: Path, split="test", r2=0.9, subplot_nrmse=0.02, plot_nrmse=0.01):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "metric,value\n"
        f"split,{split}\nsubplot_r2,{r2}\nsubplot_nrmse,{subplot_nrmse}\n"
        f"plot_nrmse,{plot_nrmse}\n",
        encoding="utf-8",
    )
    return path


@pytest.mark.parametrize(
    "fields, fails",
    [
        ({}, False),
        ({"r2": 0.74}, True),
        ({"split": "validation"}, True),
        ({"plot_nrmse": 0.03}, True),
        ({"r2": "nan"}, True),
    ],
)
def test_acceptance_07_bar(tmp_path, fields, fails):
    problems, _ = bench.quality_problems(_metrics_csv(tmp_path / "m.csv", **fields), 0.75)
    assert bool(problems) == fails


@pytest.mark.parametrize(
    "workload, touched, problems",
    [
        ("noop", "evaluate/extra.txt", ["outside the rerun stages", "tree differs"]),
        ("retrain", "synth/panel.csv", ["outside the rerun stages"]),
        ("retrain", "train/model.ckpt", []),
    ],
)
def test_changed_tree_bytes_fail_the_run(tmp_path, workload, touched, problems):
    wb = _workbench(tmp_path, bench.DEFAULT_SCENE)
    _metrics_csv(wb.out / "evaluate" / "metrics.csv")
    runs = bench.Runs(wb, workload)
    runs.start()
    path = wb.out / touched
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("changed", encoding="utf-8")

    rep = bench.Rep(
        child=bench.Child("run-all", 0, 1.0, 1.0, 1.0, ""),
        train_seed=runs.next_train_seed(),
    )
    runs.check(rep)
    assert len(rep.problems) == len(problems)
    for found, expected in zip(rep.problems, problems):
        assert expected in found


def test_coverage_guard_names_a_layer_with_no_calls():
    names = [n for n in layers.EXPECTED_CALLS["retrain"] if n != "mlp.adam_step"]
    rows = []
    for i, name in enumerate(names):
        notes = {"ran": name in ("stage.train", "stage.evaluate", "stage.report"),
                 "hashed_bytes": 0} if name.startswith("stage.") else None
        rows.append([i, None, name, 0.0, 1.0, notes])
    synth = layers.Spans(
        [[i, None, n, 0.0, 1.0, None] for i, n in enumerate(layers.EXPECTED_SYNTH_CALLS)]
    )
    assert layers.coverage_problems("retrain", layers.Spans(rows), synth) == [
        "mlp.adam_step recorded no call"
    ]
