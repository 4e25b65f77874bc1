"""Stage orchestration: run, skip, resume, and record provenance.

Each stage reads its inputs from files, writes its outputs under the
output directory, and records a manifest (content hashes of inputs,
the relevant config slice, output hashes, and the code version). A
stage whose manifest still matches is skipped, which makes reruns
cheap and interrupted pipelines resumable. Nothing in a manifest
depends on absolute paths or timestamps, so two runs from the same
inputs produce byte-identical trees.

Layer modules, and numpy with them, are imported inside the stage
bodies after their declaration pass, so a run whose stages all skip
loads neither.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import shutil
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from .config import PipelineConfig
from .errors import ConfigError, DataError, DependencyError

if TYPE_CHECKING:
    import numpy as np

    from .subplot import Records

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

    This is the one place a file's digest comes from: ``of`` hashes it
    from disk. Entries are keyed by the file's stat identity (device,
    inode, size, mtime, ctime) taken before the hash, so a relative and an
    absolute path to the same file share one entry, and any write to a
    file, even during its hash, gives it a new key. A rewrite inside the
    filesystem's timestamp granularity can keep the old key, so the files
    a stage has just written are rehashed (``rehash``) rather than looked
    up. Renaming a stage's directory into place keeps its files' keys.
    Nothing is persisted.
    """

    def __init__(self) -> None:
        self._known: dict[tuple[int, int, int, int, int], str] = {}

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


class ParsedRecords:
    """``dataset/records.csv`` parsed once per run, for every stage that reads it.

    The parse is keyed like a ``FileDigests`` entry, by the file's stat
    identity, so a rewritten file is parsed again; only the latest parse
    is kept. Its arrays are read-only because the stages share them. A
    run writes the records (``dataset``) before any stage reads them.
    """

    def __init__(self) -> None:
        self._key: tuple[int, int, int, int, int] | None = None
        self._records: Records | None = None

    def read(self, path: str) -> Records:
        from .subplot import read_records_csv

        key = _identity(os.stat(path))
        if self._records is None or key != self._key:
            records = read_records_csv(path)
            for column in (records.windows, records.yields, records.features):
                column.flags.writeable = False
            self._key, self._records = key, records
        return self._records


def _manifest_path(out_dir: str, stage: str) -> str:
    return os.path.join(out_dir, "manifests", f"{stage}.json")


def _files_under(st: _Stage) -> list[str]:
    """Every file under the stage's directory, relative to the output directory."""
    return [
        os.path.relpath(os.path.join(dirpath, name), st.out_dir)
        for dirpath, _, names in os.walk(st.dir)
        for name in names
    ]


def _check_inputs(st: _Stage) -> None:
    """Each declared input, in order, exists and lies outside the stage's directory.

    A missing relative file under a stage's directory names that stage,
    since every stage writes only under its own directory.
    """
    own = os.path.realpath(st.dir)  # the swap would delete an input under it
    for key, resolved in st.inputs.items():
        if os.path.commonpath([own, os.path.realpath(resolved)]) == own:
            raise ConfigError(
                f"stage {st.name!r} cannot read {key!r}: it lies under {own}, "
                "which the stage replaces"
            )
        if not os.path.exists(resolved):
            producer, slash, _ = key.partition("/")
            if slash and producer in STAGES:
                raise DependencyError(
                    f"stage {st.name!r} needs {key!r}, which stage {producer!r} "
                    f"produces; run {producer!r} first"
                )
            raise DataError(
                f"stage {st.name!r}: required input not found: {resolved}"
            )


def _should_skip(st: _Stage, config_hash: str) -> bool:
    """Whether the manifest still matches; its outputs must be the files under ``<stage>/``."""
    path = _manifest_path(st.out_dir, st.name)
    if not os.path.exists(path):
        return False
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError, RecursionError):  # also not UTF-8, not JSON or too deep
        return False
    if not isinstance(manifest, dict):
        return False
    if manifest.get("version") != __version__:
        return False
    if manifest.get("config_hash") != config_hash:
        return False
    recorded_inputs = manifest.get("inputs")
    recorded_outputs = manifest.get("outputs")
    if not isinstance(recorded_inputs, dict) or not isinstance(recorded_outputs, dict):
        return False
    if set(recorded_inputs) != set(st.inputs) or not os.path.isdir(st.dir):
        return False
    if set(recorded_outputs) != set(_files_under(st)):
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
    """The manifest of the swapped-in outputs, written last and atomically."""
    written = {rel: os.path.join(st.out_dir, rel) for rel in _files_under(st)}
    found = st.digests.of(
        [*st.inputs.values(), *written.values()],
        rehash=frozenset(written.values()),
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
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(path + ".tmp", path)


class _Stage:
    """Input/output bookkeeping shared by every stage body.

    A body declares its inputs before its ``yield``, touching no disk, and
    after it writes its outputs into ``staging``, which ``run_stage`` swaps
    in as the stage's directory ``dir`` when the body succeeds.
    """

    def __init__(
        self,
        name: str,
        config: PipelineConfig,
        digests: FileDigests,
        records: ParsedRecords | None = None,
    ):
        self.name = name
        self.config = config
        self.digests = digests
        self.records = ParsedRecords() if records is None else records
        self.out_dir = config.out_dir()
        self.dir = os.path.join(self.out_dir, name)
        self.staging = os.path.join(self.out_dir, f".{name}.partial")
        self.inputs: dict[str, str] = {}

    def need(self, key: str) -> str:
        """Declare an input file and return its path; nothing is checked yet.

        ``key`` is relative to the output directory unless absolute.
        ``run_stage`` checks every input once the body has declared them.
        """
        resolved = os.path.join(self.out_dir, key)
        self.inputs[key] = resolved
        return resolved

    def need_cube(self, stem_key: str) -> str:
        for suffix in (".hdr", ".raw"):
            self.need(stem_key + suffix)
        return os.path.join(self.out_dir, stem_key)

    def emit(self, rel: str) -> str:
        """Where the body writes the output ``rel``, a file or a cube stem.

        ``rel`` is relative to the output directory and lies under the
        stage's own directory. The path returned is its place in the
        staging directory, whose parent directories are made.
        """
        inner = os.path.relpath(rel, self.name)
        if inner.partition(os.sep)[0] in (os.curdir, os.pardir):
            raise ValueError(f"stage {self.name!r} writes only under {self.name}/, not {rel!r}")
        path = os.path.join(self.staging, inner)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path


def _float_line(path: str, value: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(repr(float(value)) + "\n")


# ---------------------------------------------------------------------------
# stage bodies

def _stage_synth(st: _Stage) -> Iterator[None]:
    spec = st.config.synth_spec()
    yield
    import numpy as np

    from .cube import HyperCube, write_cube, write_panel_reflectance_csv
    from .endmember import write_endmembers_csv
    from .gridmap import write_plot_map
    from .netpbm import write_pbm
    from .segment import write_boxes_csv
    from .subplot import PlotYieldRecord, write_yields_csv
    from .synth import generate_reference_cube, generate_scene

    cube, truth = generate_scene(spec)
    # stored as float32: the radiance rounded once, straight into the
    # band-major order that write_cube stores as bsq without a copy
    planes = np.ascontiguousarray(cube.data.transpose(2, 0, 1), dtype=np.float32)
    scene = HyperCube(planes.transpose(1, 2, 0), cube.wavelengths, cube.units)
    write_cube(scene, st.emit(F_SCENE))
    write_panel_reflectance_csv(st.emit(F_PANEL), cube.wavelengths, truth.panel_reflectance)
    write_plot_map(st.emit(F_PLOT_MAP), truth.plot_map)
    write_yields_csv(
        st.emit(F_YIELDS),
        [PlotYieldRecord(pid, truth.plot_yields[pid]) for pid in sorted(truth.plot_yields)],
    )
    write_pbm(st.emit(F_TRUTH_MASK), truth.sl_mask)
    write_boxes_csv(st.emit(F_TRUTH_BOXES), [truth.boxes[pid] for pid in sorted(truth.boxes)])
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
    with open(st.emit(F_TRUTH_JSON), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    ref_cube, ref_ems, _ = generate_reference_cube(
        seed=st.config.getint("synth", "reference_seed")
    )
    write_cube(ref_cube, st.emit(F_REFERENCE))
    write_endmembers_csv(st.emit(F_REFERENCE_EMS), ref_ems)


def _stage_calibrate(st: _Stage) -> Iterator[None]:
    cube_stem = st.need_cube(st.config.get("input", "cube"))
    panel_path = st.need(st.config.get("input", "panel_reflectance"))
    yield
    from .cube import (
        CubeHeader,
        CubeStream,
        apply_gain,
        band_mask_from_windows,
        panel_gain,
        read_panel_reflectance_csv,
        to_reflectance,
        write_strips,
    )

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
        # the gain comes from the panel's pixels; calibrating them runs every
        # panel and mask check of a whole-scene call, and the result carries
        # the output's bands, units and dtype
        panel_cube = scene.read_panel(st.config.panel_region())
        whole_panel = (0, 0, panel_cube.rows, panel_cube.cols)
        gain = panel_gain(panel_cube, whole_panel, panel)
        calibrated_panel = to_reflectance(panel_cube, whole_panel, panel, mask)
        header = CubeHeader.of(calibrated_panel)._replace(rows=head.rows, cols=head.cols)
        write_strips(
            st.emit(F_REFLECTANCE),
            header,
            ((top, apply_gain(strip, gain, mask)) for top, strip in scene.read_strips()),
        )


def _stage_segment(st: _Stage) -> Iterator[None]:
    stem = st.need_cube(F_REFLECTANCE)
    yield
    import numpy as np

    from .cube import CubeStream
    from .netpbm import write_pbm, write_pgm
    from .segment import (
        binary_open,
        extract_plots,
        fill_holes,
        ndpsi,
        otsu_threshold,
        threshold_mask,
        window_indices,
        write_boxes_csv,
    )

    red = st.config.window_nm("segment", "red_window_nm")
    blue = st.config.window_nm("segment", "blue_window_nm")
    with CubeStream(stem) as cube:
        # ndpsi reads only its two windows: keep just those planes
        keep = np.zeros(cube.bands, dtype=bool)
        for window in (red, blue):
            keep[window_indices(cube.wavelengths, window)] = True
        windows = cube.read_bands(keep)
    plane = ndpsi(windows, red_window=red, blue_window=blue)
    threshold = st.config.segment_threshold()
    if threshold is None:
        threshold = otsu_threshold(plane)
    mask = threshold_mask(plane, threshold)
    se = (st.config.getint("segment", "se_rows"), st.config.getint("segment", "se_cols"))
    mask = binary_open(fill_holes(mask), se=se)
    boxes = extract_plots(mask, st.config.getint("segment", "min_area_px"))
    write_pgm(st.emit(F_SEG_SCORE), plane)
    write_pbm(st.emit(F_SEG_MASK), mask)
    write_boxes_csv(st.emit(F_BOXES), boxes)
    _float_line(st.emit(F_SEG_THRESHOLD), threshold)
    log.info("segment: %d plots above the area floor", len(boxes))


def _stage_gridmap(st: _Stage) -> Iterator[None]:
    boxes_path = st.need(F_BOXES)
    map_path = st.need(st.config.get("input", "plot_map"))
    yield
    from .gridmap import Anchor, assign_ids, build_grid, read_plot_map, write_assignment_csv
    from .segment import read_boxes_csv

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
    write_assignment_csv(st.emit(F_ASSIGNMENT), assignment)
    log.info("gridmap: %d boxes labelled", len(assignment.assigned()))


def _stage_endmembers(st: _Stage) -> Iterator[None]:
    source = st.config.get("endmembers", "source").strip().lower()
    if source == "csv":
        raw = st.config.get("endmembers", "csv").strip()
        if not raw:
            raise ConfigError("[endmembers] source = csv needs [endmembers] csv = <path>")
        csv_path = st.need(raw)
    elif source == "cube":
        ref_stem = st.need_cube(st.config.get("input", "reference_cube"))
        ref_ems_path = st.need(st.config.get("input", "reference_endmembers"))
    else:
        raise ConfigError(f"[endmembers] source = {source!r}; expected 'cube' or 'csv'")
    yield
    from .cube import read_cube
    from .endmember import (
        read_endmembers_csv,
        refine_by_neighborhood,
        relabel_by_reference,
        svmax,
        write_endmembers_csv,
    )

    if source == "csv":
        ems = read_endmembers_csv(csv_path)
    else:
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
    write_endmembers_csv(st.emit(F_ENDMEMBERS), ems)


def _stage_unmix(st: _Stage) -> Iterator[None]:
    stem = st.need_cube(F_REFLECTANCE)
    ems_path = st.need(F_ENDMEMBERS)
    yield
    import numpy as np

    from .cube import CubeStream, write_cube
    from .endmember import read_endmembers_csv
    from .netpbm import write_pbm
    from .unmix import sl_mask, unmix_cube

    endmembers = read_endmembers_csv(ems_path)
    with CubeStream(stem) as cube:
        if endmembers.wavelengths.size != cube.bands or not np.allclose(
            endmembers.wavelengths, cube.wavelengths, atol=0.05, rtol=0.0
        ):
            endmembers = endmembers.subset_for_wavelengths(cube.wavelengths)
        abundances, residual = unmix_cube(cube, endmembers)
    foreground = sl_mask(
        abundances,
        spike_label=st.config.get("unmix", "spike_label"),
        leaf_label=st.config.get("unmix", "leaf_label"),
        threshold=st.config.getfloat("unmix", "sl_threshold"),
    )
    write_cube(abundances.to_cube(), st.emit(F_ABUNDANCES))
    write_pbm(st.emit(F_SL_MASK), foreground.mask)
    _float_line(st.emit(F_RESIDUAL), residual)
    log.info("unmix: residual %.6g, %d foreground pixels",
             residual, int(foreground.mask.sum()))


def _stage_dataset(st: _Stage) -> Iterator[None]:
    stem = st.need_cube(F_REFLECTANCE)
    mask_path = st.need(F_SL_MASK)
    assignment_path = st.need(F_ASSIGNMENT)
    yields_path = st.need(st.config.get("input", "yields"))
    yield
    import numpy as np

    from .cube import CubeStream
    from .gridmap import read_assignment_csv
    from .netpbm import read_pbm
    from .subplot import Records, build_records, read_yields_csv, write_records_csv

    mask = read_pbm(mask_path)
    assigned = sorted(read_assignment_csv(assignment_path), key=lambda p: p.plot_id)
    yields = read_yields_csv(yields_path)
    window_px = st.config.getint("dataset", "window_px")
    for plot in assigned:
        if plot.plot_id not in yields:
            raise DataError(f"no measured yield for plot {plot.plot_id!r}")
    parts = {}
    with CubeStream(stem) as cube:
        rows, cols = cube.rows, cube.cols
        if mask.shape != (rows, cols):
            raise DataError(f"foreground mask {mask.shape} does not match cube {(rows, cols)}")
        # a row strip may end only where no plot box crosses into the next row
        crossed = np.zeros(rows, dtype=bool)
        for plot in assigned:
            box = plot.box
            if (
                min(box.top, box.left) < 0
                or box.top + box.height > rows
                or box.left + box.width > cols
            ):
                raise DataError(
                    f"{assignment_path}: plot {plot.plot_id!r} box ({box.top},{box.left},"
                    f"{box.height},{box.width}) exceeds cube {rows}x{cols}"
                )
            crossed[box.top + 1 : box.top + box.height] = True
        for top, strip in cube.read_strips(np.flatnonzero(~crossed)):
            for plot in assigned:
                box = plot.box
                if top <= box.top < top + strip.rows:
                    at = box.top - top
                    data = strip.data[at : at + box.height, box.left : box.left + box.width]
                    crop = mask[box.top : box.top + box.height, box.left : box.left + box.width]
                    parts[plot.plot_id] = build_records(
                        plot.plot_id, data, crop, yields[plot.plot_id], window_px
                    )
    records = Records.concat([parts[plot.plot_id] for plot in assigned])
    write_records_csv(st.emit(F_RECORDS), records)
    log.info("dataset: %d sub-plot records from %d plots", len(records), len(assigned))


def _read_split_csv(path: str, count: int) -> dict[str, np.ndarray]:
    """Record indices per role; each index in [0, count) and listed once."""
    import numpy as np

    from .table import read_table

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
    yield
    from .mlp import save_model, stratified_split, train, write_training_log_csv

    records = st.records.read(records_path)
    x, y = records.features, records.yields
    split = stratified_split(y, records.plot_ids, st.config.split_spec())
    model, logbook = train(
        x[split.train],
        y[split.train],
        x[split.validation],
        y[split.validation],
        hidden_sizes=st.config.hidden_sizes(),
        config=st.config.train_config(),
    )
    save_model(model, st.emit(F_MODEL))
    write_training_log_csv(st.emit(F_TRAIN_LOG), logbook)
    with open(st.emit(F_SPLIT), "w", encoding="utf-8", newline="") as fh:
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
    yield
    import numpy as np

    from .mlp import evaluate, load_model, predict

    model = load_model(model_path)
    records = st.records.read(records_path)
    x, y = records.features, records.yields
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
        [records.plot_ids[i] for i in held_out],
    )

    role_of = ["train"] * len(records)
    for role, indices in roles.items():
        for i in indices.tolist():
            role_of[i] = role
    predicted = np.maximum(predict(model, x), 0.0)
    rows = zip(records.plot_ids, records.windows.tolist(), role_of, y.tolist(), predicted.tolist())
    with open(st.emit(F_PREDICTIONS), "w", encoding="utf-8", newline="") as fh:
        fh.write("plot_id,window_row,window_col,role,actual_g,predicted_g\n")
        for plot_id, (row, col, _), role, actual, guess in rows:
            fh.write(f"{plot_id},{row},{col},{role},{actual!r},{guess!r}\n")
    with open(st.emit(F_METRICS), "w", encoding="utf-8", newline="") as fh:
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
    from .table import read_table

    table = read_table(path, ("metric", "value"), key="metric")
    return dict(zip(table.text("metric"), table.text("value")))


def _read_scatter_rows(path: str) -> list[tuple[float, float, str]]:
    """(actual_g, predicted_g, role) of each evaluate prediction row; both numbers finite."""
    from .table import read_table

    table = read_table(path, ("role",), floats=("actual_g", "predicted_g"))
    return [(*numbers, role) for numbers, role in zip(table.floats.tolist(), table.text("role"))]


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
    yield
    import numpy as np

    from .cube import read_cube
    from .gridmap import read_assignment_csv
    from .subplot import middle_third_ratio, window_grid_shape
    from .unmix import AbundanceMap, write_score_ppm

    assigned = sorted(read_assignment_csv(assignment_path), key=lambda p: p.plot_id)
    records = st.records.read(records_path)
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
    with open(metrics_path, "rb") as src, open(st.emit(F_REPORT_METRICS), "wb") as dst:
        dst.write(src.read())

    # scatter data: one row per record, for external plotting
    with open(st.emit(F_SCATTER), "w", encoding="utf-8", newline="") as fh:
        fh.write("actual_g,predicted_g,role\n")
        for actual, predicted, role in scatter:
            fh.write(f"{actual!r},{predicted!r},{role}\n")

    # middle-third yield share per plot
    window_px = st.config.getint("dataset", "window_px")
    tau = st.config.getfloat("dataset", "middle_tau")
    plot_ids = np.array(records.plot_ids)
    with open(st.emit(F_MIDDLE_THIRDS), "w", encoding="utf-8", newline="") as fh:
        fh.write("plot_id,middle_fraction,label\n")
        for plot in assigned:
            rows = np.flatnonzero(plot_ids == plot.plot_id)
            if not rows.size:
                continue
            shape = window_grid_shape(plot.box.height, plot.box.width, window_px)
            fraction, label = middle_third_ratio(
                records.windows[rows], records.yields[rows], *shape, tau=tau
            )
            fh.write(f"{plot.plot_id},{fraction!r},{label}\n")

    # per-plot foreground-score colormaps
    abund = AbundanceMap.from_cube(read_cube(abund_stem))
    score = abund.plane(st.config.get("unmix", "spike_label"))
    score = score + abund.plane(st.config.get("unmix", "leaf_label"))
    for plot in assigned:
        box = plot.box
        crop = score[box.top : box.top + box.height, box.left : box.left + box.width]
        write_score_ppm(st.emit(f"{D_SL_MAPS}/{plot.plot_id}.ppm"), crop)

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
    with open(st.emit(F_SUMMARY), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class _StageDef(NamedTuple):
    help: str  # one line for ``hyperfield --help``
    sections: tuple[str, ...]  # config sections the manifest's config hash covers
    body: Callable[[_Stage], Iterator[None]]


# Every stage in pipeline order. A body declares its inputs with need
# and yields; the work after its yield, which names each output with
# emit, runs only when the manifest is stale. Bodies import the layer
# functions they call after their yield, so a skipped stage loads no
# layer module; hyperbench's tracer rebinds each layer function in its
# defining module, which such an import then finds. No stage hashes
# [output]: the same inputs in another tree are the same computation.
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
    records: ParsedRecords | None = None,
) -> None:
    """Run one stage (or skip it when its manifest is still valid).

    What the body writes replaces the stage's directory only when the
    body succeeds, and the manifest is written after that. Inputs with
    no digest yet are hashed on another thread while the body runs.
    ``digests`` and ``records`` carry file hashes and the parsed records
    between the stages of one run.
    """
    if name not in STAGES:
        raise ConfigError(f"unknown stage {name!r}")
    log.info("stage %s: starting", name)
    stage = STAGES[name]
    st = _Stage(name, config, FileDigests() if digests is None else digests, records)
    work = stage.body(st)
    next(work)
    _check_inputs(st)
    config_hash = config.config_hash(stage.sections)
    old = os.path.join(st.out_dir, f".{name}.old")  # where the swap moves the old directory
    for leftover in (st.staging, old):  # of a failed or killed run
        shutil.rmtree(leftover, ignore_errors=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(_manifest_path(st.out_dir, name) + ".tmp")
    if not force and _should_skip(st, config_hash):
        log.info("%s: manifest up to date, skipping", name)
        return
    os.makedirs(st.staging)
    with ThreadPoolExecutor(max_workers=1) as hashing:
        inputs = hashing.submit(st.digests.of, list(st.inputs.values()))
        try:
            next(work, None)
            with contextlib.suppress(FileNotFoundError):
                os.rename(st.dir, old)
            os.rename(st.staging, st.dir)
        finally:
            shutil.rmtree(st.staging, ignore_errors=True)
        inputs.result()
    shutil.rmtree(old, ignore_errors=True)
    _write_manifest(st, config_hash)


def run_all(config: PipelineConfig, force: bool = False) -> None:
    """All pipeline stages in order. The synth stage is not included."""
    digests, records = FileDigests(), ParsedRecords()
    for name in STAGE_ORDER:
        run_stage(name, config, force, digests, records)
