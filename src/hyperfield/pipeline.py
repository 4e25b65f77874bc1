"""Stage orchestration: run, skip, resume, and record provenance.

Each stage reads its inputs from files, writes its outputs under the
output directory, and records a manifest (content hashes of inputs,
the relevant config slice, output hashes, and the code version). A
stage whose manifest still matches is skipped, which makes reruns
cheap and interrupted pipelines resumable. Nothing in a manifest
depends on absolute paths or timestamps, so two runs from the same
inputs produce byte-identical trees.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import PipelineConfig
from .cube import (
    CubeHeader,
    CubeStream,
    HyperCube,
    band_mask_from_windows,
    read_cube,
    read_panel_reflectance_csv,
    to_reflectance,
    write_band_blocks,
    write_cube,
    write_panel_reflectance_csv,
)
from .endmember import (
    read_endmembers_csv,
    refine_by_neighborhood,
    relabel_by_reference,
    svmax,
    write_endmembers_csv,
)
from .errors import ConfigError, DataError, DependencyError
from .gridmap import (
    Anchor,
    assign_ids,
    build_grid,
    read_assignment_csv,
    read_plot_map,
    write_assignment_csv,
    write_plot_map,
)
from .mlp import (
    evaluate,
    load_model,
    predict,
    records_to_arrays,
    save_model,
    stratified_split,
    train,
    write_training_log_csv,
)
from .netpbm import read_pbm, write_pbm, write_pgm
from .segment import (
    binary_open,
    extract_plots,
    fill_holes,
    ndpsi,
    otsu_threshold,
    read_boxes_csv,
    threshold_mask,
    write_boxes_csv,
)
from .subplot import (
    PlotYieldRecord,
    build_records,
    middle_third_ratio,
    read_records_csv,
    read_yields_csv,
    window_grid_shape,
    write_records_csv,
    write_yields_csv,
)
from .synth import generate_reference_cube, generate_scene
from .table import read_table
from .unmix import AbundanceMap, sl_mask, unmix_cube, write_score_ppm

log = logging.getLogger("hyperfield.pipeline")

# Output files, relative to the output directory. Cube entries are
# stems; the container writes <stem>.hdr plus <stem>.raw. Each stage
# writes only under the directory named after it.
F_SCENE = "synth/scene"
F_PANEL = "synth/panel.csv"
F_PLOT_MAP = "synth/plot_map.csv"
F_YIELDS = "synth/yields.csv"
F_TRUTH_MASK = "synth/truth_sl_mask.pbm"
F_TRUTH_BOXES = "synth/truth_boxes.csv"
F_TRUTH_JSON = "synth/truth.json"
F_REFERENCE = "synth/reference"
F_REFERENCE_EMS = "synth/reference_endmembers.csv"
F_REFLECTANCE = "calibrate/reflectance"
F_BOXES = "segment/boxes.csv"
F_SEG_MASK = "segment/mask.pbm"
F_SEG_SCORE = "segment/score.pgm"
F_SEG_THRESHOLD = "segment/threshold.txt"
F_ASSIGNMENT = "gridmap/assignment.csv"
F_ENDMEMBERS = "endmembers/endmembers.csv"
F_ABUNDANCES = "unmix/abundances"
F_SL_MASK = "unmix/sl_mask.pbm"
F_RESIDUAL = "unmix/residual.txt"
F_RECORDS = "dataset/records.csv"
F_MODEL = "train/model.ckpt"
F_TRAIN_LOG = "train/training_log.csv"
F_SPLIT = "train/split.csv"
F_PREDICTIONS = "evaluate/predictions.csv"
F_METRICS = "evaluate/metrics.csv"
F_REPORT_METRICS = "report/metrics.csv"
F_SCATTER = "report/scatter.csv"
F_MIDDLE_THIRDS = "report/middle_thirds.csv"
D_SL_MAPS = "report/sl_maps"
F_SUMMARY = "report/summary.txt"

# ---------------------------------------------------------------------------
# manifests

def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _identity(st: os.stat_result) -> tuple[int, int, int, int, int]:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


class FileDigests:
    """sha256 of files, each computed at most once per run.

    Entries are keyed by the file's stat identity (device, inode, size,
    mtime, ctime), so a relative and an absolute path to the same file
    share one entry, and any write to a file gives it a new key. A
    rewrite inside the filesystem's timestamp granularity can keep the
    old key, so the files a stage has just written are rehashed
    (``rehash``) rather than looked up, unless the stage ``record``ed
    the digest of the bytes it wrote. Nothing is persisted.
    """

    def __init__(self) -> None:
        self._known: dict[tuple[int, int, int, int, int], str] = {}

    def record(self, path: str, digest: str, before: os.stat_result | None = None) -> bool:
        """Enter the sha256 of bytes just read from or written to ``path``.

        An output is keyed by its stat now, after its final rename. For an
        input, ``before`` is its stat from before the read, and the digest
        is entered only if the file's identity has not changed since;
        returns whether it was entered.
        """
        key = _identity(os.stat(path))
        if before is not None and _identity(before) != key:
            return False
        self._known[key] = digest
        return True

    def of(self, paths: list[str], rehash: frozenset[str] = frozenset()) -> dict[str, str]:
        """{path: sha256}; unknown files (and ``rehash`` ones) are hashed concurrently."""
        keys = {path: _identity(os.stat(path)) for path in paths}
        todo: dict[tuple[int, int, int, int, int], str] = {}
        for path, key in keys.items():
            if path in rehash or key not in self._known:
                todo.setdefault(key, path)
        if todo:
            workers = min(len(todo), os.cpu_count() or 1)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                self._known.update(zip(todo, pool.map(_sha256, todo.values())))
        return {path: self._known[key] for path, key in keys.items()}


def _manifest_path(out_dir: str, stage: str) -> str:
    return os.path.join(out_dir, "manifests", f"{stage}.json")


def _should_skip(st: _Stage, config_hash: str) -> bool:
    path = _manifest_path(st.out_dir, st.name)
    if not os.path.exists(path):
        return False
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return False
    if manifest.get("version") != __version__:
        return False
    if manifest.get("config_hash") != config_hash:
        return False
    recorded_inputs = manifest.get("inputs", {})
    recorded_outputs = manifest.get("outputs", {})
    if set(recorded_inputs) != set(st.inputs) or set(recorded_outputs) != set(st.outputs):
        return False
    expected = [(path, recorded_inputs[key]) for key, path in st.inputs.items()]
    expected += [
        (os.path.join(st.out_dir, rel), digest) for rel, digest in recorded_outputs.items()
    ]
    try:
        found = st.digests.of([target for target, _ in expected])
    except FileNotFoundError:
        return False
    return all(found[target] == digest for target, digest in expected)


def _write_manifest(st: _Stage, config_hash: str) -> None:
    written = {rel: os.path.join(st.out_dir, rel) for rel in st.outputs}
    found = st.digests.of(
        [*st.inputs.values(), *written.values()],
        rehash=frozenset(written.values()) - st.recorded,
    )
    manifest = {
        "stage": st.name,
        "version": __version__,
        "config_hash": config_hash,
        "inputs": {key: found[resolved] for key, resolved in sorted(st.inputs.items())},
        "outputs": {rel: found[target] for rel, target in sorted(written.items())},
    }
    path = _manifest_path(st.out_dir, st.name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_path(out_dir: str, rel: str) -> str:
    path = os.path.join(out_dir, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def _cube_files(stem: str) -> list[str]:
    return [stem + ".hdr", stem + ".raw"]


class _Stage:
    """Input/output bookkeeping shared by every stage body."""

    def __init__(self, name: str, config: PipelineConfig, digests: FileDigests):
        self.name = name
        self.config = config
        self.digests = digests
        self.out_dir = config.out_dir()
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.recorded: set[str] = set()  # paths whose digest came from the bytes

    def need(self, key: str) -> str:
        """Register an input file; returns its path.

        ``key`` is relative to the output directory unless absolute. A
        missing relative file under a stage's directory names that
        stage, since every stage writes only under its own directory.
        """
        resolved = os.path.join(self.out_dir, key)
        if not os.path.exists(resolved):
            producer, slash, _ = key.partition("/")
            if slash and producer in STAGES:
                raise DependencyError(
                    f"stage {self.name!r} needs {key!r}, which stage {producer!r} "
                    f"produces; run {producer!r} first"
                )
            raise DataError(
                f"stage {self.name!r}: required input not found: {resolved}"
            )
        self.inputs[key] = resolved
        return resolved

    def need_cube(self, stem_key: str) -> str:
        for key in _cube_files(stem_key):
            self.need(key)
        return os.path.join(self.out_dir, stem_key)

    def emit(self, rel: str) -> str:
        self.outputs.append(rel)
        return _out_path(self.out_dir, rel)

    def emit_cube(self, stem_rel: str) -> str:
        for rel in _cube_files(stem_rel):
            self.outputs.append(rel)
        return _out_path(self.out_dir, stem_rel)

    def record(self, path: str, digest: str, before: os.stat_result | None = None) -> None:
        """Give the manifest the digest of bytes the body hashed as it read or wrote them."""
        if self.digests.record(path, digest, before):
            self.recorded.add(path)


def _float_line(path: str, value: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(repr(float(value)) + "\n")


# ---------------------------------------------------------------------------
# stage bodies

def _stage_synth(st: _Stage) -> Iterator[None]:
    spec = st.config.synth_spec()
    scene_stem = st.emit_cube(F_SCENE)
    panel_path = st.emit(F_PANEL)
    map_path = st.emit(F_PLOT_MAP)
    yields_path = st.emit(F_YIELDS)
    mask_path = st.emit(F_TRUTH_MASK)
    boxes_path = st.emit(F_TRUTH_BOXES)
    truth_path = st.emit(F_TRUTH_JSON)
    ref_stem = st.emit_cube(F_REFERENCE)
    ref_ems_path = st.emit(F_REFERENCE_EMS)
    yield

    cube, truth = generate_scene(spec)
    write_cube(cube, scene_stem)
    write_panel_reflectance_csv(panel_path, cube.wavelengths, truth.panel_reflectance)
    write_plot_map(map_path, truth.plot_map)
    write_yields_csv(
        yields_path,
        [PlotYieldRecord(pid, truth.plot_yields[pid]) for pid in sorted(truth.plot_yields)],
    )
    write_pbm(mask_path, truth.sl_mask)
    write_boxes_csv(boxes_path, [truth.boxes[pid] for pid in sorted(truth.boxes)])
    payload = {
        "boxes": {
            pid: [b.top, b.left, b.height, b.width]
            for pid, b in sorted(truth.boxes.items())
        },
        "panel_region": list(truth.panel_region),
        "plot_yields": dict(sorted(truth.plot_yields.items())),
        "realized_snr_db": truth.realized_snr_db,
        "side_heavy": dict(sorted(truth.side_heavy.items())),
        "theoretical_r2": truth.theoretical_r2,
        "window_px": truth.window_px,
        "yield_noise_sigma": truth.yield_noise_sigma,
    }
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    ref_cube, ref_ems, _ = generate_reference_cube(
        seed=st.config.getint("synth", "reference_seed")
    )
    write_cube(ref_cube, ref_stem)
    write_endmembers_csv(ref_ems_path, ref_ems)


def _stage_calibrate(st: _Stage) -> Iterator[None]:
    cube_stem = st.need_cube(st.config.get("input", "cube"))
    panel_path = st.need(st.config.get("input", "panel_reflectance"))
    out_stem = st.emit_cube(F_REFLECTANCE)
    yield

    _, panel = read_panel_reflectance_csv(panel_path)
    with CubeStream(cube_stem) as scene:
        head = scene.header
        if panel.size != head.bands:
            raise DataError(
                f"panel reflectance has {panel.size} bands, cube has {head.bands}"
            )
        mask = band_mask_from_windows(
            head.wavelengths,
            keep_range=st.config.window_nm("calibrate", "keep_nm"),
            drop_windows=st.config.drop_windows_nm(),
        )
        region = st.config.panel_region()
        # every panel and mask check of a whole-scene call, on the panel's
        # pixels; its result carries the output's bands, units and dtype
        panel_cube = scene.read_panel(region)
        _, _, height, width = region
        calibrated_panel = to_reflectance(panel_cube, (0, 0, height, width), panel, mask)

        def kept_reflectance() -> Iterator[np.ndarray]:
            for bands, block in scene:
                kept = mask.keep[bands]
                if kept.any():
                    planes = block if kept.all() else block[kept]
                    part = HyperCube(
                        planes.transpose(1, 2, 0), head.wavelengths[bands][kept], head.units
                    )
                    yield to_reflectance(part, region, panel[bands][kept]).data.transpose(2, 0, 1)

        header = CubeHeader.of(calibrated_panel)._replace(rows=head.rows, cols=head.cols)
        digest = write_band_blocks(out_stem, header, kept_reflectance())
    st.record(out_stem + ".raw", digest)
    if scene.digest is not None:
        st.record(scene.raw_path, scene.digest, before=scene.stat)


def _stage_segment(st: _Stage) -> Iterator[None]:
    stem = st.need_cube(F_REFLECTANCE)
    boxes_path = st.emit(F_BOXES)
    mask_path = st.emit(F_SEG_MASK)
    score_path = st.emit(F_SEG_SCORE)
    threshold_path = st.emit(F_SEG_THRESHOLD)
    yield

    cube = read_cube(stem)
    plane = ndpsi(
        cube,
        red_window=st.config.window_nm("segment", "red_window_nm"),
        blue_window=st.config.window_nm("segment", "blue_window_nm"),
    )
    threshold = st.config.segment_threshold()
    if threshold is None:
        threshold = otsu_threshold(plane)
    mask = threshold_mask(plane, threshold)
    se = (st.config.getint("segment", "se_rows"), st.config.getint("segment", "se_cols"))
    mask = binary_open(fill_holes(mask), se=se)
    boxes = extract_plots(mask, st.config.getint("segment", "min_area_px"))
    write_pgm(score_path, plane)
    write_pbm(mask_path, mask)
    write_boxes_csv(boxes_path, boxes)
    _float_line(threshold_path, threshold)
    log.info("segment: %d plots above the area floor", len(boxes))


def _stage_gridmap(st: _Stage) -> Iterator[None]:
    boxes_path = st.need(F_BOXES)
    map_path = st.need(st.config.get("input", "plot_map"))
    out_path = st.emit(F_ASSIGNMENT)
    yield

    boxes = read_boxes_csv(boxes_path)
    plot_map = read_plot_map(map_path)
    row_lines, col_lines = build_grid(
        boxes,
        st.config.getfloat("gridmap", "pitch_row_px"),
        st.config.getfloat("gridmap", "pitch_col_px"),
    )
    anchor = Anchor(
        plot_id=st.config.get("gridmap", "anchor_plot"),
        cell=st.config.anchor_cell(),
    )
    assignment = assign_ids(boxes, row_lines, col_lines, plot_map, anchor)
    write_assignment_csv(out_path, assignment)
    log.info("gridmap: %d boxes labelled", len(assignment.assigned()))


def _stage_endmembers(st: _Stage) -> Iterator[None]:
    source = st.config.get("endmembers", "source").strip().lower()
    out_path = st.emit(F_ENDMEMBERS)
    if source == "csv":
        raw = st.config.get("endmembers", "csv").strip()
        if not raw:
            raise ConfigError("[endmembers] source = csv needs [endmembers] csv = <path>")
        csv_path = st.need(raw)
        yield
        ems = read_endmembers_csv(csv_path)
    elif source == "cube":
        ref_stem = st.need_cube(st.config.get("input", "reference_cube"))
        ref_ems_path = st.need(st.config.get("input", "reference_endmembers"))
        yield
        cube = read_cube(ref_stem)
        pixels = cube.pixels()
        found = svmax(
            pixels,
            count=st.config.getint("endmembers", "count"),
            wavelengths=cube.wavelengths,
        )
        k = st.config.getint("endmembers", "refine_k")
        if k > 1:
            found = refine_by_neighborhood(found, pixels, k=k)
        reference = read_endmembers_csv(ref_ems_path)
        ems = relabel_by_reference(found, reference)
    else:
        raise ConfigError(f"[endmembers] source = {source!r}; expected 'cube' or 'csv'")
    write_endmembers_csv(out_path, ems)


def _stage_unmix(st: _Stage) -> Iterator[None]:
    stem = st.need_cube(F_REFLECTANCE)
    ems_path = st.need(F_ENDMEMBERS)
    abund_stem = st.emit_cube(F_ABUNDANCES)
    mask_path = st.emit(F_SL_MASK)
    residual_path = st.emit(F_RESIDUAL)
    yield

    cube = read_cube(stem)
    endmembers = read_endmembers_csv(ems_path)
    if endmembers.wavelengths.size != cube.bands or not np.allclose(
        endmembers.wavelengths, cube.wavelengths, atol=0.05, rtol=0.0
    ):
        endmembers = endmembers.subset_for_wavelengths(cube.wavelengths)
    abundances, residual = unmix_cube(
        cube,
        endmembers,
        threads=st.config.getint("unmix", "threads"),
        chunk=st.config.getint("unmix", "chunk"),
    )
    foreground = sl_mask(
        abundances,
        spike_label=st.config.get("unmix", "spike_label"),
        leaf_label=st.config.get("unmix", "leaf_label"),
        threshold=st.config.getfloat("unmix", "sl_threshold"),
    )
    write_cube(abundances.to_cube(), abund_stem)
    write_pbm(mask_path, foreground.mask)
    _float_line(residual_path, residual)
    log.info("unmix: residual %.6g, %d foreground pixels",
             residual, int(foreground.mask.sum()))


def _stage_dataset(st: _Stage) -> Iterator[None]:
    stem = st.need_cube(F_REFLECTANCE)
    mask_path = st.need(F_SL_MASK)
    assignment_path = st.need(F_ASSIGNMENT)
    yields_path = st.need(st.config.get("input", "yields"))
    out_path = st.emit(F_RECORDS)
    yield

    cube = read_cube(stem)
    mask = read_pbm(mask_path)
    if mask.shape != (cube.rows, cube.cols):
        raise DataError(
            f"foreground mask {mask.shape} does not match cube "
            f"{(cube.rows, cube.cols)}"
        )
    assigned = read_assignment_csv(assignment_path)
    yields = read_yields_csv(yields_path)
    window_px = st.config.getint("dataset", "window_px")
    records = []
    for plot in sorted(assigned, key=lambda p: p.plot_id):
        if plot.plot_id not in yields:
            raise DataError(f"no measured yield for plot {plot.plot_id!r}")
        box = plot.box
        data = cube.data[box.top : box.top + box.height, box.left : box.left + box.width]
        crop = mask[box.top : box.top + box.height, box.left : box.left + box.width]
        records.extend(
            build_records(plot.plot_id, data, crop, yields[plot.plot_id], window_px)
        )
    write_records_csv(out_path, records)
    log.info("dataset: %d sub-plot records from %d plots", len(records), len(assigned))


def _read_split_csv(path: str, count: int) -> dict[str, np.ndarray]:
    """Record indices per role; each index in [0, count) and listed once."""
    roles: dict[str, list[int]] = {"train": [], "validation": [], "test": []}
    seen: set[int] = set()
    table = read_table(path, ("index", "role"))
    for i, ((index,), role) in enumerate(zip(table.ints("index"), table.text("role"))):
        where = table.where(i)
        if role not in roles:
            raise DataError(f"{where}: unknown split role {role!r}")
        if not 0 <= index < count:
            raise DataError(f"{where}: index {index} outside the {count} records")
        if index in seen:
            raise DataError(f"{where}: index {index} listed twice")
        seen.add(index)
        roles[role].append(index)
    return {role: np.asarray(idx, dtype=np.intp) for role, idx in roles.items()}


def _stage_train(st: _Stage) -> Iterator[None]:
    records_path = st.need(F_RECORDS)
    model_path = st.emit(F_MODEL)
    log_path = st.emit(F_TRAIN_LOG)
    split_path = st.emit(F_SPLIT)
    yield

    records = read_records_csv(records_path)
    x, y, ids = records_to_arrays(records)
    split = stratified_split(y, ids, st.config.split_spec())
    model, logbook = train(
        x[split.train],
        y[split.train],
        x[split.validation],
        y[split.validation],
        hidden_sizes=st.config.hidden_sizes(),
        config=st.config.train_config(),
    )
    save_model(model, model_path)
    write_training_log_csv(log_path, logbook)
    with open(split_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("index,role\n")
        rows = [(int(i), "train") for i in split.train]
        rows += [(int(i), "validation") for i in split.validation]
        rows += [(int(i), "test") for i in split.test]
        for index, role in sorted(rows):
            fh.write(f"{index},{role}\n")
    log.info(
        "train: %d/%d/%d records (train/val/test), best epoch %d",
        split.train.size, split.validation.size, split.test.size, model.best_epoch,
    )


def _stage_evaluate(st: _Stage) -> Iterator[None]:
    model_path = st.need(F_MODEL)
    records_path = st.need(F_RECORDS)
    split_path = st.need(F_SPLIT)
    predictions_path = st.emit(F_PREDICTIONS)
    metrics_path = st.emit(F_METRICS)
    yield

    model = load_model(model_path)
    records = read_records_csv(records_path)
    x, y, ids = records_to_arrays(records)
    roles = _read_split_csv(split_path, len(records))
    if roles["test"].size:
        held_out, split_name = roles["test"], "test"
    elif roles["validation"].size:
        held_out, split_name = roles["validation"], "validation"
    else:
        raise DataError("no held-out records; set [split] test_plots or validation_fraction")

    result = evaluate(
        model,
        x[held_out],
        y[held_out],
        [ids[i] for i in held_out],
    )

    role_of = {}
    for role, indices in roles.items():
        for i in indices:
            role_of[int(i)] = role
    predicted = np.maximum(predict(model, x), 0.0)
    with open(predictions_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("plot_id,window_row,window_col,role,actual_g,predicted_g\n")
        for i, record in enumerate(records):
            fh.write(
                f"{record.plot_id},{record.window_row},{record.window_col},"
                f"{role_of.get(i, 'train')},{y[i]!r},{predicted[i]!r}\n"
            )
    with open(metrics_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("metric,value\n")
        fh.write(f"split,{split_name}\n")
        fh.write(f"subplot_r2,{result.subplot.r2!r}\n")
        fh.write(f"subplot_rmse_g,{result.subplot.rmse!r}\n")
        fh.write(f"subplot_nrmse,{result.subplot.nrmse!r}\n")
        fh.write(f"plot_r2,{result.plot.r2!r}\n")
        fh.write(f"plot_rmse_g,{result.plot.rmse!r}\n")
        fh.write(f"plot_nrmse,{result.plot.nrmse!r}\n")
        fh.write(f"field_actual_g,{result.field_actual!r}\n")
        fh.write(f"field_predicted_g,{result.field_predicted!r}\n")
        fh.write(f"field_percent_error,{result.field_percent_error!r}\n")
    log.info(
        "evaluate: %s split, sub-plot R2 %.4f, plot R2 %.4f",
        split_name, result.subplot.r2, result.plot.r2,
    )


def read_metrics_csv(path: str | os.PathLike) -> dict[str, str]:
    """Key/value metrics as written by the evaluate stage."""
    table = read_table(path, ("metric", "value"), key="metric")
    return dict(zip(table.text("metric"), table.text("value")))


def _read_scatter_rows(path: str) -> list[tuple[str, ...]]:
    """(actual_g, predicted_g, role) fields of each evaluate prediction row.

    Both numbers must be finite; the fields are returned as text.
    ``evaluate`` writes them as ``np.float64(...)`` reprs, so that
    wrapper is accepted around the number.
    """
    table = read_table(path, ("actual_g", "predicted_g", "role"))
    actual, predicted = table.text("actual_g"), table.text("predicted_g")
    for i, fields in enumerate(zip(actual, predicted)):
        try:
            numbers = [float(f.removeprefix("np.float64(").removesuffix(")")) for f in fields]
        except ValueError:
            numbers = [np.nan]
        if not np.isfinite(numbers).all():
            raise DataError(f"{table.where(i)}: actual_g, predicted_g must be finite numbers")
    return list(zip(actual, predicted, table.text("role")))


# What the report summary formats: the split name, then numbers.
_SUMMARY_METRICS = (
    "split", "subplot_r2", "subplot_rmse_g", "subplot_nrmse", "plot_r2", "plot_rmse_g",
    "plot_nrmse", "field_actual_g", "field_predicted_g", "field_percent_error",
)


def _stage_report(st: _Stage) -> Iterator[None]:
    metrics_path = st.need(F_METRICS)
    predictions_path = st.need(F_PREDICTIONS)
    records_path = st.need(F_RECORDS)
    assignment_path = st.need(F_ASSIGNMENT)
    abund_stem = st.need_cube(F_ABUNDANCES)

    assigned = sorted(read_assignment_csv(assignment_path), key=lambda p: p.plot_id)

    out_metrics = st.emit(F_REPORT_METRICS)
    scatter_path = st.emit(F_SCATTER)
    middle_path = st.emit(F_MIDDLE_THIRDS)
    summary_path = st.emit(F_SUMMARY)
    map_paths = {
        plot.plot_id: st.emit(f"{D_SL_MAPS}/{plot.plot_id}.ppm") for plot in assigned
    }
    yield

    records = read_records_csv(records_path)
    metrics = read_metrics_csv(metrics_path)
    missing = [name for name in _SUMMARY_METRICS if name not in metrics]
    if missing:
        raise DataError(f"{metrics_path}: missing metric(s) {', '.join(missing)}")
    value = {}
    for name in _SUMMARY_METRICS[1:]:
        try:
            value[name] = float(metrics[name])
        except ValueError:
            raise DataError(f"{metrics_path}: metric {name} is not a number") from None
    scatter = _read_scatter_rows(predictions_path)

    # metrics: same content as the evaluate stage, under the report roof
    with open(metrics_path, "rb") as src, open(out_metrics, "wb") as dst:
        dst.write(src.read())

    # scatter data: one row per record, for external plotting
    with open(scatter_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("actual_g,predicted_g,role\n")
        for row in scatter:
            fh.write(",".join(row) + "\n")

    # middle-third yield share per plot
    window_px = st.config.getint("dataset", "window_px")
    tau = st.config.getfloat("dataset", "middle_tau")
    by_plot: dict[str, list] = {}
    for record in records:
        by_plot.setdefault(record.plot_id, []).append(record)
    with open(middle_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("plot_id,middle_fraction,label\n")
        for plot in assigned:
            plot_records = by_plot.get(plot.plot_id)
            if not plot_records:
                continue
            shape = window_grid_shape(plot.box.height, plot.box.width, window_px)
            fraction, label = middle_third_ratio(plot_records, *shape, tau=tau)
            fh.write(f"{plot.plot_id},{fraction!r},{label}\n")

    # per-plot foreground-score colormaps
    abund = AbundanceMap.from_cube(read_cube(abund_stem))
    score = abund.plane(st.config.get("unmix", "spike_label"))
    score = score + abund.plane(st.config.get("unmix", "leaf_label"))
    for plot in assigned:
        box = plot.box
        crop = score[box.top : box.top + box.height, box.left : box.left + box.width]
        write_score_ppm(map_paths[plot.plot_id], crop)

    # human-readable summary
    lines = [
        f"held-out split: {metrics['split']}",
        f"sub-plot  R2 {value['subplot_r2']:.4f}  "
        f"RMSE {value['subplot_rmse_g']:.2f} g  "
        f"nRMSE {value['subplot_nrmse']:.4f}",
        f"plot      R2 {value['plot_r2']:.4f}  "
        f"RMSE {value['plot_rmse_g']:.2f} g  "
        f"nRMSE {value['plot_nrmse']:.4f}",
        f"field     actual {value['field_actual_g']:.1f} g  "
        f"predicted {value['field_predicted_g']:.1f} g  "
        f"error {value['field_percent_error']:.2f}%",
        f"plots reported: {len(assigned)}",
        f"sub-plot records: {len(records)}",
    ]
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class _StageDef(NamedTuple):
    help: str  # one line for ``hyperfield --help``
    sections: tuple[str, ...]  # config sections the manifest's config hash covers
    body: Callable[[_Stage], Iterator[None]]


# Every stage in pipeline order. A body declares its files with
# need/emit and yields; the work after its yield runs only when the
# manifest is stale. Bodies reach layer functions through module
# globals, so the table holds no layer function.
STAGES: dict[str, _StageDef] = {
    "synth": _StageDef(
        "generate a synthetic scene, truth files, and reference cube",
        ("synth",), _stage_synth,
    ),
    "calibrate": _StageDef(
        "radiance to reflectance via the panel, then band masking",
        ("input", "calibrate"), _stage_calibrate,
    ),
    "segment": _StageDef(
        "index plane, threshold, cleanup, plot bounding boxes",
        ("segment",), _stage_segment,
    ),
    "gridmap": _StageDef(
        "snap boxes to the field grid and assign plot ids",
        ("input", "gridmap"), _stage_gridmap,
    ),
    "endmembers": _StageDef(
        "extract (or load) and label the endmember spectra",
        ("input", "endmembers"), _stage_endmembers,
    ),
    "unmix": _StageDef(
        "per-pixel constrained abundances and the foreground mask",
        ("unmix",), _stage_unmix,
    ),
    "dataset": _StageDef(
        "window each plot, allocate yields, extract features",
        ("input", "dataset"), _stage_dataset,
    ),
    "train": _StageDef(
        "split records and fit the yield regressor",
        ("split", "model", "train"), _stage_train,
    ),
    "evaluate": _StageDef(
        "held-out metrics at sub-plot, plot, and field level",
        (), _stage_evaluate,
    ),
    "report": _StageDef(
        "metrics, scatter data, colormaps, and the text summary",
        ("dataset", "unmix"), _stage_report,
    ),
}
STAGE_ORDER = tuple(STAGES)[1:]  # what run-all runs: every stage but synth


def run_stage(
    name: str,
    config: PipelineConfig,
    force: bool = False,
    digests: FileDigests | None = None,
) -> None:
    """Run one stage (or skip it when its manifest is still valid).

    ``digests`` carries file hashes between the stages of one run.
    """
    if name not in STAGES:
        raise ConfigError(f"unknown stage {name!r}")
    log.info("stage %s: starting", name)
    stage = STAGES[name]
    st = _Stage(name, config, FileDigests() if digests is None else digests)
    work = stage.body(st)
    next(work)
    config_hash = config.config_hash(stage.sections)
    if not force and _should_skip(st, config_hash):
        log.info("%s: manifest up to date, skipping", name)
        return
    next(work, None)
    _write_manifest(st, config_hash)


def run_all(config: PipelineConfig, force: bool = False) -> None:
    """All pipeline stages in order. The synth stage is not included."""
    digests = FileDigests()
    for name in STAGE_ORDER:
        run_stage(name, config, force, digests)
