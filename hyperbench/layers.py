"""Per-layer metrics from the spans of a traced run, and the coverage guard.

Every metric comes from the same traced ``run-all`` invocation (plus
the traced ``synth`` of its set-up for the ``synth.*`` metrics), so the
stage spans of one run add up to that run's wall time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

STAGES = (
    "calibrate",
    "segment",
    "gridmap",
    "endmembers",
    "unmix",
    "dataset",
    "train",
    "evaluate",
    "report",
)

MB = 1e6

# (name, unit, better); BENCHMARK.json's per_layer list mirrors this.
PER_LAYER = [
    *[(f"stage.{s}.s", "s", "lower") for s in STAGES],
    *[(f"stage.{s}.self_s", "s", "lower") for s in STAGES],
    ("pipeline.hashed_mb", "MB", "lower"),
    ("pipeline.stages_run", "count", "lower"),
    ("cube.read_cube.s", "s", "lower"),
    ("cube.read_cube.calls", "count", "lower"),
    ("cube.read_mb", "MB", "lower"),
    ("cube.write_cube.s", "s", "lower"),
    ("cube.write_mb", "MB", "lower"),
    ("cube.to_reflectance.s", "s", "lower"),
    ("cube.apply_band_mask.s", "s", "lower"),
    ("cube.reads_per_file", "ratio", "lower"),
    ("segment.ndpsi.s", "s", "lower"),
    ("segment.fill_holes.s", "s", "lower"),
    ("segment.binary_open.s", "s", "lower"),
    ("segment.extract_plots.s", "s", "lower"),
    ("segment.plots", "count", "higher"),
    ("gridmap.assign_ids.s", "s", "lower"),
    ("endmember.svmax.s", "s", "lower"),
    ("endmember.relabel_by_reference.s", "s", "lower"),
    ("unmix.unmix_cube.s", "s", "lower"),
    ("unmix.unmix_cube.calls", "count", "lower"),
    ("unmix.px_per_s", "px/s", "higher"),
    ("unmix.sl_mask.s", "s", "lower"),
    ("unmix.write_score_ppm.s", "s", "lower"),
    ("subplot.build_records.s", "s", "lower"),
    ("subplot.write_records_csv.s", "s", "lower"),
    ("subplot.read_records_csv.s", "s", "lower"),
    ("subplot.read_records_csv.calls", "count", "lower"),
    ("subplot.records", "count", "higher"),
    ("mlp.train.s", "s", "lower"),
    ("mlp.train.calls", "count", "lower"),
    ("mlp.forward.s", "s", "lower"),
    ("mlp.backward.s", "s", "lower"),
    ("mlp.adam_step.s", "s", "lower"),
    ("mlp.adam_step.calls", "count", "lower"),
    ("mlp.predict.s", "s", "lower"),
    ("mlp.save_model.s", "s", "lower"),
    ("mlp.load_model.s", "s", "lower"),
    ("mlp.best_epoch", "count", "higher"),
    ("synth.generate_scene.s", "s", "lower"),
    ("synth.generate_reference_cube.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

_PIPELINE = ["pipeline.run_all", *[f"stage.{s}" for s in STAGES]]

# Spans each workload's traced run-all must record at least once. A
# refactor that stops a wrapper from seeing its layer (a new import
# path, a renamed function) fails here instead of zeroing a metric.
EXPECTED_CALLS = {
    "cold": [
        *_PIPELINE,
        "cube.read_cube",
        "cube.write_cube",
        "cube.to_reflectance",
        "cube.apply_band_mask",
        "segment.ndpsi",
        "segment.fill_holes",
        "segment.binary_open",
        "segment.extract_plots",
        "gridmap.assign_ids",
        "endmember.svmax",
        "endmember.relabel_by_reference",
        "unmix.unmix_cube",
        "unmix.sl_mask",
        "unmix.write_score_ppm",
        "subplot.build_records",
        "subplot.write_records_csv",
        "subplot.read_records_csv",
        "mlp.train",
        "mlp.forward",
        "mlp.backward",
        "mlp.adam_step",
        "mlp.predict",
        "mlp.save_model",
        "mlp.load_model",
    ],
    "noop": _PIPELINE,
    "retrain": [
        *_PIPELINE,
        "cube.read_cube",
        "unmix.write_score_ppm",
        "subplot.read_records_csv",
        "mlp.train",
        "mlp.forward",
        "mlp.backward",
        "mlp.adam_step",
        "mlp.predict",
        "mlp.save_model",
        "mlp.load_model",
    ],
}
EXPECTED_SYNTH_CALLS = [
    "stage.synth",
    "synth.generate_scene",
    "synth.generate_reference_cube",
    "cube.write_cube",
]
# What each workload was chosen for: how many stages rerun, and which
# layers it must bypass.
EXPECTED_STAGES_RUN = {"cold": len(STAGES), "noop": 0, "retrain": 3}
EXPECTED_ABSENT = {
    "cold": [],
    "noop": ["cube.", "unmix.", "mlp."],
    "retrain": ["unmix.unmix_cube", "segment.", "endmember."],
}


class Spans:
    """Index over the span rows written by ``tracing.py``."""

    def __init__(self, rows: list[list]):
        self.rows = rows
        self.by_id = {row[0]: row for row in rows}
        self.child_seconds: dict[int, float] = defaultdict(float)
        for row in rows:
            if row[1] is not None:
                self.child_seconds[row[1]] += row[4] - row[3]

    @classmethod
    def load(cls, path: Path) -> Spans:
        """Spans from the JSON file ``tracing.py`` writes."""
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh)["spans"])

    def _has_ancestor_named(self, row: list, name: str) -> bool:
        parent = self.by_id.get(row[1])
        while parent is not None:
            if parent[2] == name:
                return True
            parent = self.by_id.get(parent[1])
        return False

    def named(self, name: str) -> list[list]:
        """Outermost spans of ``name`` (a recursive call counts once)."""
        return [
            row for row in self.rows
            if row[2] == name and not self._has_ancestor_named(row, name)
        ]

    def calls(self, name: str) -> int:
        return sum(1 for row in self.rows if row[2] == name)

    def seconds(self, name: str) -> float:
        return sum(row[4] - row[3] for row in self.named(name))

    def self_seconds(self, name: str) -> float:
        return sum(row[4] - row[3] - self.child_seconds[row[0]] for row in self.named(name))

    def notes(self, name: str, key: str) -> list:
        return [row[5][key] for row in self.rows if row[2] == name and row[5]]

    def names(self) -> set[str]:
        return {row[2] for row in self.rows}


def layer_metrics(
    spans: Spans, synth_spans: Spans, traced_wall: float, untraced_wall: float
) -> dict[str, float]:
    """Every PER_LAYER metric, by name."""
    out: dict[str, float] = {}
    for stage in STAGES:
        out[f"stage.{stage}.s"] = spans.seconds(f"stage.{stage}")
        out[f"stage.{stage}.self_s"] = spans.self_seconds(f"stage.{stage}")
    out["pipeline.hashed_mb"] = sum(
        sum(spans.notes(f"stage.{s}", "hashed_bytes")) for s in STAGES
    ) / MB
    out["pipeline.stages_run"] = stages_run(spans)

    files_read = spans.notes("cube.read_cube", "file")
    out["cube.read_cube.s"] = spans.seconds("cube.read_cube")
    out["cube.read_cube.calls"] = spans.calls("cube.read_cube")
    out["cube.read_mb"] = sum(spans.notes("cube.read_cube", "bytes")) / MB
    out["cube.write_cube.s"] = spans.seconds("cube.write_cube")
    out["cube.write_mb"] = sum(spans.notes("cube.write_cube", "bytes")) / MB
    out["cube.to_reflectance.s"] = spans.seconds("cube.to_reflectance")
    out["cube.apply_band_mask.s"] = spans.seconds("cube.apply_band_mask")
    out["cube.reads_per_file"] = (
        len(files_read) / len(set(files_read)) if files_read else 0.0
    )

    for name in ("ndpsi", "fill_holes", "binary_open", "extract_plots"):
        out[f"segment.{name}.s"] = spans.seconds(f"segment.{name}")
    out["segment.plots"] = sum(spans.notes("segment.extract_plots", "plots"))
    out["gridmap.assign_ids.s"] = spans.seconds("gridmap.assign_ids")
    out["endmember.svmax.s"] = spans.seconds("endmember.svmax")
    out["endmember.relabel_by_reference.s"] = spans.seconds("endmember.relabel_by_reference")

    unmix_s = spans.seconds("unmix.unmix_cube")
    out["unmix.unmix_cube.s"] = unmix_s
    out["unmix.unmix_cube.calls"] = spans.calls("unmix.unmix_cube")
    pixels = sum(spans.notes("unmix.unmix_cube", "pixels"))
    out["unmix.px_per_s"] = pixels / unmix_s if unmix_s > 0 else 0.0
    out["unmix.sl_mask.s"] = spans.seconds("unmix.sl_mask")
    out["unmix.write_score_ppm.s"] = spans.seconds("unmix.write_score_ppm")

    for name in ("build_records", "write_records_csv", "read_records_csv"):
        out[f"subplot.{name}.s"] = spans.seconds(f"subplot.{name}")
    out["subplot.read_records_csv.calls"] = spans.calls("subplot.read_records_csv")
    counts = (
        spans.notes("subplot.write_records_csv", "records")
        + spans.notes("subplot.read_records_csv", "records")
    )
    out["subplot.records"] = max(counts, default=0)

    for name in ("train", "forward", "backward", "adam_step", "predict",
                 "save_model", "load_model"):
        out[f"mlp.{name}.s"] = spans.seconds(f"mlp.{name}")
    out["mlp.train.calls"] = spans.calls("mlp.train")
    out["mlp.adam_step.calls"] = spans.calls("mlp.adam_step")
    out["mlp.best_epoch"] = max(spans.notes("mlp.train", "best_epoch"), default=0)

    out["synth.generate_scene.s"] = synth_spans.seconds("synth.generate_scene")
    out["synth.generate_reference_cube.s"] = synth_spans.seconds(
        "synth.generate_reference_cube"
    )

    out["trace.wall_s"] = traced_wall
    out["trace.unattributed_s"] = traced_wall - sum(
        spans.seconds(f"stage.{s}") for s in STAGES
    )
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


def stages_run(spans: Spans) -> int:
    return sum(
        1 for s in STAGES for ran in spans.notes(f"stage.{s}", "ran") if ran
    )


def coverage_problems(workload: str, spans: Spans, synth_spans: Spans) -> list[str]:
    """Why the traced run does not show the workload doing its work, if it does not."""
    problems = [
        f"{name} recorded no call" for name in EXPECTED_CALLS[workload]
        if not spans.calls(name)
    ]
    problems += [
        f"{name} recorded no call during synth" for name in EXPECTED_SYNTH_CALLS
        if not synth_spans.calls(name)
    ]
    ran = stages_run(spans)
    if ran != EXPECTED_STAGES_RUN[workload]:
        problems.append(f"{ran} stages ran, expected {EXPECTED_STAGES_RUN[workload]}")
    for prefix in EXPECTED_ABSENT[workload]:
        hit = sorted(n for n in spans.names() if n.startswith(prefix))
        if hit:
            problems.append(f"{workload} must not call {', '.join(hit)}")
    return problems
