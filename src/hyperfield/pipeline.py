"""Stage orchestration: run, skip, resume, and record provenance.

Each stage reads its inputs from files, writes its outputs under the
output directory, and records a manifest (content hashes of inputs,
the relevant config slice, output hashes, and the code version). A
stage whose manifest still matches is skipped, which makes reruns
cheap and interrupted pipelines resumable. Every command, one stage or
all of them, runs its stages through ``run_all``, which lets the first
stale stage run while the skipped stages' digests are still being
checked, and commits it only once they match. Nothing in a manifest
depends on absolute paths or timestamps, so two runs from the same
inputs produce byte-identical trees.

Layer modules, and numpy with them, are imported inside the stage
bodies after their declaration pass, so a run whose stages all skip
loads neither.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import json
import logging
import os
import shutil
import threading
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import Future
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from .config import PipelineConfig
from .errors import ConfigError, DataError, DependencyError

if TYPE_CHECKING:
    import numpy as np

    from .gridmap import AssignedPlot
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
    buffer = bytearray(256 << 10)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while done := fh.readinto(buffer):
            h.update(view[:done])
    return h.hexdigest()


_Key = tuple[int, int, int, int, int]  # a file's stat identity


def _identity(st: os.stat_result) -> _Key:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _usable_cpus() -> set[int]:
    """The CPUs this thread may run on: its affinity where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return os.sched_getaffinity(0)
    return set(range(os.cpu_count() or 1))


class FileDigests:
    """sha256 of files, each computed at most once per run, on one hasher.

    This is the one place a file's digest comes from: ``submit`` queues
    the files to hash and ``of`` waits for them. Entries are keyed by the
    file's stat identity (device, inode, size, mtime, ctime) taken before
    the hash, so a relative and an absolute path to the same file share
    one entry, a digest still being computed is handed to a second caller,
    and any write to a file, even during its hash, gives it a new key. A
    rewrite inside the filesystem's timestamp granularity can keep the old
    key, so the files a stage has just written are rehashed (``rehash``)
    rather than looked up. Renaming a stage's directory into place keeps
    its files' keys. Nothing is persisted.

    Used as a context manager, the hasher starts worker threads, at most
    one per usable CPU but the caller's: the caller is pinned to one CPU
    and the workers to the others, since two unpinned threads often share
    one CPU. The caller's affinity is restored on exit, and nothing is
    pinned or started with one usable CPU. Outside the context, and
    whenever it waits, the calling thread hashes the queued files it
    waits for itself.
    """

    def __init__(self) -> None:
        self._known: dict[_Key, Future[str]] = {}
        self._queue: deque[tuple[_Key, str, Future[str]]] = deque()
        self._lock = threading.Lock()
        self._queued = threading.Condition(self._lock)
        self._workers: list[threading.Thread] = []
        self._worker_cpus: set[int] = set()  # empty: start no worker
        self._caller_cpus: set[int] | None = None  # to restore on exit
        self._closed = False

    def __enter__(self) -> FileDigests:
        cpus = _usable_cpus()
        if len(cpus) > 1 and hasattr(os, "sched_setaffinity"):
            own = min(cpus)
            os.sched_setaffinity(0, {own})
            self._caller_cpus, self._worker_cpus = cpus, cpus - {own}
        return self

    def __exit__(self, *exc: object) -> None:
        with self._queued:
            self._closed = True
            for key, _, future in self._queue:  # nobody waits for these any more
                future.cancel()
                if self._known.get(key) is future:
                    del self._known[key]
            self._queue.clear()
            self._queued.notify_all()
        for worker in self._workers:
            worker.join()
        if self._caller_cpus is not None:
            os.sched_setaffinity(0, self._caller_cpus)

    def submit(
        self, paths: list[str], rehash: frozenset[str] = frozenset()
    ) -> dict[str, Future[str]]:
        """{path: digest to come}; unknown files (and ``rehash`` ones) are queued."""
        keys = {path: _identity(os.stat(path)) for path in paths}
        with self._queued:
            for key in {keys[path] for path in rehash & keys.keys()}:
                self._known.pop(key, None)
            for path, key in keys.items():
                if key not in self._known:
                    future = self._known[key] = Future()
                    self._queue.append((key, path, future))
            wanted = min(len(self._worker_cpus), len(self._queue))
            while not self._closed and len(self._workers) < wanted:
                worker = threading.Thread(target=self._work, name="hyperfield-hash")
                worker.start()
                self._workers.append(worker)
            self._queued.notify(len(self._queue))
            return {path: self._known[key] for path, key in keys.items()}

    def of(self, paths: list[str], rehash: frozenset[str] = frozenset()) -> dict[str, str]:
        """{path: sha256}, waiting for every digest; see ``submit``."""
        found = self.submit(paths, rehash)
        self.wait(found.values())
        return {path: future.result() for path, future in found.items()}

    def wait(self, futures: Iterable[Future[str]]) -> None:
        """Until every one of ``futures`` is done, hashing the queued ones here."""
        waiting = set(futures)
        while True:
            with self._lock:
                job = next((job for job in self._queue if job[2] in waiting), None)
                if job is not None:
                    self._queue.remove(job)
            if job is None:
                break
            self._hash(*job)
        concurrent.futures.wait(waiting)

    def _hash(self, key: _Key, path: str, future: Future[str]) -> None:
        if not future.set_running_or_notify_cancel():
            return
        try:
            future.set_result(_sha256(path))
        except Exception as exc:  # handed to every waiter, and not kept
            with self._lock:
                if self._known.get(key) is future:
                    del self._known[key]
            future.set_exception(exc)

    def _work(self) -> None:
        os.sched_setaffinity(0, self._worker_cpus)
        while True:
            with self._queued:
                while not self._queue and not self._closed:
                    self._queued.wait()
                if not self._queue:
                    return
                job = self._queue.popleft()
            self._hash(*job)


def _manifest_path(out_dir: str, stage: str) -> str:
    return os.path.join(out_dir, "manifests", f"{stage}.json")


def _files_under(st: _Stage) -> list[str]:
    """Every file under the stage's directory, relative to the output directory."""
    return [
        os.path.relpath(os.path.join(dirpath, name), st.out_dir)
        for dirpath, _, names in os.walk(st.dir)
        for name in names
    ]


def _check_out_dir(out_dir: str) -> None:
    """The output directory and its ``manifests`` directory are directories,
    or can be made as ones: the nearest of ``manifests`` and its ancestors
    that exists is a directory."""
    path = os.path.abspath(os.path.dirname(_manifest_path(out_dir, "")))
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"output directory {out_dir}: {path} is not a directory")


def _remove(path: str) -> None:
    """Remove ``path`` whatever kind of entry it is, if it exists."""
    if os.path.isdir(path) and not os.path.islink(path):
        shutil.rmtree(path)
    else:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def _check_inputs(st: _Stage) -> None:
    """Each declared input, in order, exists as a regular file and lies
    outside the stage's directory.

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
        if not os.path.isfile(resolved):
            raise DataError(
                f"stage {st.name!r}: input {key!r} is not a regular file: {resolved}"
            )


def _check_structure(
    st: _Stage, config_hash: str, sections: tuple[str, ...]
) -> tuple[str | None, list[tuple[str, str, str]]]:
    """Why the manifest no longer fits the stage, found without hashing.

    Returns the reason, or None and the (name, path, recorded digest) of
    each file the content check compares. The outputs must be the files
    under ``<stage>/``.
    """
    path = _manifest_path(st.out_dir, st.name)
    if not os.path.exists(path):
        return "no manifest", []
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError, RecursionError):  # also not UTF-8, not JSON or too deep
        manifest = None
    if not isinstance(manifest, dict) or not all(
        isinstance(manifest.get(part), dict) for part in ("inputs", "outputs")
    ):
        return "the manifest is unreadable", []
    if manifest.get("version") != __version__:
        return f"the manifest is from version {manifest.get('version')!r}", []
    if manifest.get("config_hash") != config_hash:
        # one hash covers all of the stage's sections, so name them all
        return f"the config of {' '.join(f'[{s}]' for s in sections)} changed", []
    recorded_inputs, recorded_outputs = manifest["inputs"], manifest["outputs"]
    if set(recorded_inputs) != set(st.inputs):
        return "the input keys changed", []
    outputs = set(_files_under(st))
    if not os.path.isdir(st.dir) or outputs != set(recorded_outputs):
        changed = ", ".join(sorted(outputs ^ set(recorded_outputs))) or st.name + "/"
        return f"the output set changed: {changed}", []
    files = [(key, resolved, recorded_inputs[key]) for key, resolved in st.inputs.items()]
    files += [
        (rel, os.path.join(st.out_dir, rel), digest) for rel, digest in recorded_outputs.items()
    ]
    return None, files


def _check_content(
    st: _Stage, files: list[tuple[str, str, str]]
) -> Callable[[], str | None]:
    """Queue the digests of ``files`` on the hasher. The call returned
    waits for them and gives the first file whose digest differs from the
    recorded one, or None when every one matches."""
    names = {resolved: name for name, resolved, _ in files}
    try:
        found = st.digests.submit(list(names))
    except FileNotFoundError as exc:  # removed since the structure was checked
        gone = f"{names.get(exc.filename, exc.filename)} changed"
        return lambda: gone

    def reason() -> str | None:
        st.digests.wait(found.values())
        for name, resolved, digest in files:
            try:
                if found[resolved].result() != digest:
                    return f"{name} changed"
            except FileNotFoundError:
                return f"{name} changed"
        return None

    return reason


class _Stale(Exception):
    """A stage taken as skipped failed its content check; the run resumes there."""


class _Run:
    """What the stages of one command share: the hasher, the records
    parse, and the content checks deferred while none of them has run."""

    def __init__(self, digests: FileDigests) -> None:
        self.digests = digests
        # (stage, check) of each stage taken as skipped on its manifest's
        # structure alone; None once settled, when no check may be deferred
        self.deferred: list[tuple[str, Callable[[], str | None]]] | None = []
        self._records_key: _Key | None = None
        self._records: Records | None = None

    def records(self, path: str) -> Records:
        """``dataset/records.csv`` parsed once per run, for every stage that reads it.

        The parse is keyed like a ``FileDigests`` entry, by the file's stat
        identity, so a rewritten file is parsed again; only the latest parse
        is kept. Its arrays are read-only because the stages share them. A
        run writes the records (``dataset``) before any stage reads them.
        """
        from .subplot import read_records_csv

        key = _identity(os.stat(path))
        if self._records is None or key != self._records_key:
            records = read_records_csv(path)
            for column in (records.windows, records.yields, records.features):
                column.flags.writeable = False
            self._records_key, self._records = key, records
        return self._records

    def settle(self) -> None:
        """Wait for every deferred check, in stage order, and defer no more.

        Raises ``_Stale`` naming the first stage whose files changed; the
        stages before it are skipped.
        """
        checks, self.deferred = self.deferred or [], None
        for stage, check in checks:
            if check() is not None:
                raise _Stale(stage)
            log.info("%s: manifest up to date, skipping", stage)


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

    def __init__(self, name: str, config: PipelineConfig, run: _Run):
        self.name = name
        self.config = config
        self.digests = run.digests
        self.records = run.records
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
    from .cube import (
        CubeHeader,
        block_rows,
        write_cube,
        write_panel_reflectance_csv,
        write_strips,
    )
    from .endmember import write_endmembers_csv
    from .gridmap import write_plot_map
    from .netpbm import write_pbm
    from .segment import write_boxes_csv
    from .subplot import write_yields_csv
    from .synth import generate_reference_cube, generate_scene

    radiance, truth = generate_scene(spec)
    # stored as float32 in bsq: each float64 strip is rounded once as it is written
    lam = radiance.wavelengths
    header = CubeHeader(radiance.rows, radiance.cols, radiance.bands, "float32", "bsq",
                        "radiance", lam)
    height = block_rows(radiance.cols, radiance.bands)
    write_strips(st.emit(F_SCENE), header, radiance.strips(height))
    write_panel_reflectance_csv(st.emit(F_PANEL), lam, truth.panel_reflectance)
    write_plot_map(st.emit(F_PLOT_MAP), truth.plot_map)
    write_yields_csv(st.emit(F_YIELDS), dict(sorted(truth.plot_yields.items())))
    write_pbm(st.emit(F_TRUTH_MASK), truth.sl_mask)
    write_boxes_csv(st.emit(F_TRUTH_BOXES), [truth.boxes[pid] for pid in sorted(truth.boxes)])
    payload = {
        "boxes": {
            pid: [b.top, b.left, b.height, b.width]
            for pid, b in sorted(truth.boxes.items())
        },
        "panel_region": list(truth.panel_region),
        "plot_yields": dict(sorted(truth.plot_yields.items())),
        "realized_snr_db": radiance.realized_snr_db,
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
        WAVELENGTH_TOL_NM,
        CubeStream,
        apply_gain,
        band_mask_from_windows,
        panel_calibration,
        read_panel_reflectance_csv,
        wavelengths_match,
        write_strips,
    )

    wavelengths, panel = read_panel_reflectance_csv(panel_path)
    with CubeStream(cube_stem) as scene:
        head = scene.header
        if not wavelengths_match(wavelengths, head.wavelengths):
            raise DataError(
                f"{panel_path}: the panel's {wavelengths.size} wavelengths do not "
                f"match the scene's {head.bands} within {WAVELENGTH_TOL_NM} nm"
            )
        mask = band_mask_from_windows(
            head.wavelengths,
            keep_range=st.config.window_nm("calibrate", "keep_nm"),
            drop_windows=st.config.drop_windows_nm(),
        )
        gain, header = panel_calibration(scene, st.config.panel_region(), panel, mask)
        write_strips(
            st.emit(F_REFLECTANCE),
            header,
            ((top, apply_gain(strip, gain, mask)) for top, strip in scene.read_strips()),
        )


def _stage_segment(st: _Stage) -> Iterator[None]:
    stem = st.need_cube(F_REFLECTANCE)
    yield
    from .cube import CubeStream
    from .netpbm import write_pbm, write_pgm
    from .segment import (
        binary_open,
        extract_plots,
        fill_holes,
        ndpsi,
        otsu_threshold,
        threshold_mask,
        write_boxes_csv,
    )

    red = st.config.window_nm("segment", "red_window_nm")
    blue = st.config.window_nm("segment", "blue_window_nm")
    with CubeStream(stem) as cube:
        plane = ndpsi(cube, red_window=red, blue_window=blue)
    threshold = st.config.segment_threshold()
    if threshold is None:  # computed here, not in threshold_mask: threshold.txt records it
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
    from .gridmap import assign_ids, build_grid, read_plot_map, write_assignment_csv
    from .segment import read_boxes_csv

    boxes = read_boxes_csv(boxes_path)
    plot_map = read_plot_map(map_path)
    row_lines, col_lines = build_grid(
        boxes,
        st.config.getfloat("gridmap", "pitch_row_px"),
        st.config.getfloat("gridmap", "pitch_col_px"),
    )
    anchor = (st.config.get("gridmap", "anchor_plot"), st.config.anchor_cell())
    assigned = assign_ids(boxes, row_lines, col_lines, plot_map, *anchor)
    write_assignment_csv(st.emit(F_ASSIGNMENT), assigned)
    log.info("gridmap: %d boxes labelled", len(assigned))


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


def _sl_labels(config: PipelineConfig) -> tuple[str, str]:
    """``[unmix]``'s spike and leaf labels, which must name two members."""
    spike, leaf = config.get("unmix", "spike_label"), config.get("unmix", "leaf_label")
    if spike == leaf:
        raise ConfigError(
            f"[unmix] spike_label and leaf_label are both {spike!r}: they must name two members"
        )
    return spike, leaf


def _stage_unmix(st: _Stage) -> Iterator[None]:
    threshold = st.config.getfloat("unmix", "sl_threshold")
    if not 0 <= threshold < 1:  # also NaN
        raise ConfigError(f"[unmix] sl_threshold = {threshold} must lie in [0, 1)")
    spike_label, leaf_label = _sl_labels(st.config)
    stem = st.need_cube(F_REFLECTANCE)
    ems_path = st.need(F_ENDMEMBERS)
    yield
    from .cube import CubeStream, write_cube
    from .endmember import read_endmembers_csv
    from .netpbm import write_pbm
    from .unmix import sl_mask, unmix_cube

    endmembers = read_endmembers_csv(ems_path)
    with CubeStream(stem) as cube:
        endmembers = endmembers.subset_for_wavelengths(cube.wavelengths)
        abundances, residual = unmix_cube(cube, endmembers)
    foreground = sl_mask(
        abundances, spike_label=spike_label, leaf_label=leaf_label, threshold=threshold
    )
    write_cube(abundances.to_cube(), st.emit(F_ABUNDANCES))
    write_pbm(st.emit(F_SL_MASK), foreground)
    _float_line(st.emit(F_RESIDUAL), residual)
    log.info("unmix: residual %.6g, %d foreground pixels",
             residual, int(foreground.sum()))


def _assigned_plots(path: str, rows: int, cols: int) -> list[AssignedPlot]:
    """The labelled plots of the assignment file at ``path``, by plot id,
    each box checked to lie inside a ``rows`` x ``cols`` cube."""
    from .cube import check_box
    from .gridmap import read_assignment_csv

    assigned = sorted(read_assignment_csv(path), key=lambda p: p.plot_id)
    for plot in assigned:
        box = plot.box
        check_box(f"{path}: plot {plot.plot_id!r} box",
                  (box.top, box.left, box.height, box.width), rows, cols)
    return assigned


def _stage_dataset(st: _Stage) -> Iterator[None]:
    stem = st.need_cube(F_REFLECTANCE)
    mask_path = st.need(F_SL_MASK)
    assignment_path = st.need(F_ASSIGNMENT)
    yields_path = st.need(st.config.get("input", "yields"))
    yield
    import numpy as np

    from .cube import CubeStream, block_rows
    from .netpbm import read_pbm
    from .subplot import Records, build_records, read_yields_csv, write_records_csv

    mask = read_pbm(mask_path)
    yields = read_yields_csv(yields_path)
    window_px = st.config.getint("dataset", "window_px")
    with CubeStream(stem) as cube:
        rows, cols = cube.rows, cube.cols
        assigned = _assigned_plots(assignment_path, rows, cols)
        for plot in assigned:
            if plot.plot_id not in yields:
                raise DataError(f"no measured yield for plot {plot.plot_id!r}")
        if mask.shape != (rows, cols):
            raise DataError(f"foreground mask {mask.shape} does not match cube {(rows, cols)}")
        # a row strip may end only where no plot box crosses into the next row
        crossed = np.zeros(rows, dtype=bool)
        for plot in assigned:
            crossed[plot.box.top + 1 : plot.box.top + plot.box.height] = True
        cuts = np.flatnonzero(~crossed)
        # strips taller than block_rows are read in as many band groups as it
        # takes to hold about as many samples as block_rows rows of every band.
        # A group holds two bands or more: numpy sums a lone band's pixels
        # pairwise, and its features would get other bits.
        tallest = max(bottom - top for top, bottom in cube.strip_bounds(cuts))
        count = max(1, min(cube.bands // 2, -(-tallest // block_rows(cols, cube.bands))))
        groups = np.array_split(np.arange(cube.bands), count)
        # one buffer for every pass: a fresh one per pass can stay resident beside the last
        buffer = np.empty(tallest * cols * len(groups[0]), cube.header.dtype)
        parts: dict[str, list[Records]] = {plot.plot_id: [] for plot in assigned}
        for group in groups:
            for top, strip in cube.read_strips(cuts, range(group[0], group[-1] + 1), buffer):
                for plot in assigned:
                    box = plot.box
                    if top <= box.top < top + strip.rows:
                        at = box.top - top
                        data = strip.data[at : at + box.height, box.left : box.left + box.width]
                        crop = mask[box.top : box.top + box.height, box.left : box.left + box.width]
                        parts[plot.plot_id].append(build_records(
                            plot.plot_id, data, crop, yields[plot.plot_id], window_px
                        ))
    records = Records.concat([Records.join_bands(parts[plot.plot_id]) for plot in assigned])
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
    from .table import write_table

    records = st.records(records_path)
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
    rows = [(i, "train") for i in split.train.tolist()]
    rows += [(i, "validation") for i in split.validation.tolist()]
    rows += [(i, "test") for i in split.test.tolist()]
    write_table(st.emit(F_SPLIT), ["index", "role"], sorted(rows), line_end="\n")
    log.info(
        "train: %d/%d/%d records (train/val/test), best epoch %d",
        split.train.size, split.validation.size, split.test.size, model.best_epoch,
    )


# The metrics evaluate writes, in this order, and the report summary
# formats: the split name, then numbers.
_SUMMARY_METRICS = (
    "split", "subplot_r2", "subplot_rmse_g", "subplot_nrmse", "plot_r2", "plot_rmse_g",
    "plot_nrmse", "field_actual_g", "field_predicted_g", "field_percent_error",
)


def _stage_evaluate(st: _Stage) -> Iterator[None]:
    model_path = st.need(F_MODEL)
    records_path = st.need(F_RECORDS)
    split_path = st.need(F_SPLIT)
    yield
    import numpy as np

    from .mlp import evaluate, load_model, predict
    from .table import write_table

    model = load_model(model_path)
    records = st.records(records_path)
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
    window_rows, window_cols, _ = records.windows.T.tolist()
    rows = zip(records.plot_ids, window_rows, window_cols, role_of, y.tolist(), predicted.tolist())
    header = ["plot_id", "window_row", "window_col", "role", "actual_g", "predicted_g"]
    write_table(st.emit(F_PREDICTIONS), header, rows, line_end="\n")
    values = (
        split_name, result.subplot.r2, result.subplot.rmse, result.subplot.nrmse,
        result.plot.r2, result.plot.rmse, result.plot.nrmse,
        result.field_actual, result.field_predicted, result.field_percent_error,
    )
    write_table(
        st.emit(F_METRICS), ["metric", "value"], zip(_SUMMARY_METRICS, values), line_end="\n"
    )
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


def _stage_report(st: _Stage) -> Iterator[None]:
    metrics_path = st.need(F_METRICS)
    predictions_path = st.need(F_PREDICTIONS)
    records_path = st.need(F_RECORDS)
    assignment_path = st.need(F_ASSIGNMENT)
    abund_stem = st.need_cube(F_ABUNDANCES)
    spike_label, leaf_label = _sl_labels(st.config)
    yield
    import numpy as np

    from .cube import read_cube
    from .subplot import middle_third_ratio, window_grid_shape
    from .table import write_table
    from .unmix import AbundanceMap, write_score_ppm

    tau = st.config.getfloat("dataset", "middle_tau")
    if not 0 <= tau < np.inf:
        raise ConfigError(f"[dataset] middle_tau = {tau} must be finite and at least 0")
    abund = AbundanceMap.from_cube(read_cube(abund_stem))
    rows, cols, _ = abund.values.shape
    assigned = _assigned_plots(assignment_path, rows, cols)
    records = st.records(records_path)
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
        if not np.isfinite(value[name]):
            raise DataError(f"{metrics_path}: metric {name} is {value[name]}, not finite")
    scatter = _read_scatter_rows(predictions_path)

    # metrics: same content as the evaluate stage, under the report roof
    with open(metrics_path, "rb") as src, open(st.emit(F_REPORT_METRICS), "wb") as dst:
        dst.write(src.read())

    # scatter data: one row per record, for external plotting
    write_table(st.emit(F_SCATTER), ["actual_g", "predicted_g", "role"], scatter, line_end="\n")

    # middle-third yield share per plot
    window_px = st.config.getint("dataset", "window_px")
    plot_ids = np.array(records.plot_ids)
    thirds = []
    for plot in assigned:
        rows = np.flatnonzero(plot_ids == plot.plot_id)
        if not rows.size:
            continue
        shape = window_grid_shape(plot.box.height, plot.box.width, window_px)
        fraction, label = middle_third_ratio(
            records.windows[rows], records.yields[rows], *shape, tau=tau
        )
        thirds.append((plot.plot_id, fraction, label))
    write_table(
        st.emit(F_MIDDLE_THIRDS), ["plot_id", "middle_fraction", "label"], thirds, line_end="\n"
    )

    # per-plot foreground-score colormaps, each score summed over its plot's crop only
    spike, leaf = abund.plane(spike_label), abund.plane(leaf_label)
    for plot in assigned:
        box = plot.box
        crop = np.s_[box.top : box.top + box.height, box.left : box.left + box.width]
        write_score_ppm(st.emit(f"{D_SL_MAPS}/{plot.plot_id}.ppm"), spike[crop] + leaf[crop])

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


def _trim_heap() -> None:
    """Hand the heap pages freed so far back to the system: glibc's
    ``malloc_trim``, and nothing where the C library has none.

    glibc returns freed heap memory only from the top of the heap, so one
    small block that a stage keeps above its freed strip buffers pins
    them, and the next stages allocate beside them: in about two cold
    ``run-all`` runs of three the 27 MB that ``unmix`` freed stayed
    resident, and ``train`` took the peak to 80 MiB instead of
    ``unmix``'s 69 MiB.
    """
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim(0)


def run_stage(name: str, config: PipelineConfig, force: bool, run: _Run) -> None:
    """Run one stage of ``run``, or skip it when its manifest still matches.

    The skip check has two parts: the manifest's structure (readable,
    same version, config hash, input keys and output files), which hashes
    nothing, then its content (every digest equal). The reason a stage
    reruns is logged at INFO. Inputs with no digest yet are hashed on the
    hasher while the body runs. What the body writes replaces the stage's
    directory only when the body succeeds, and the manifest is written
    after that; then the heap pages the body freed go back to the system.
    Until ``run`` is settled, a stage whose structure matches queues its
    content check there and returns; a stage that runs settles ``run``
    before it swaps its outputs in, and raises ``_Stale`` instead if a
    deferred check failed.
    """
    st = _Stage(name, config, run)
    log.info("stage %s: starting", name)
    stage = STAGES[name]
    work = stage.body(st)
    next(work)
    _check_inputs(st)
    config_hash = config.config_hash(stage.sections)
    old = os.path.join(st.out_dir, f".{name}.old")  # where the swap moves the old directory
    for leftover in (st.staging, old, _manifest_path(st.out_dir, name) + ".tmp"):
        _remove(leftover)  # of a failed or killed run
    if force:
        reason = "--stage-force"
    else:
        reason, files = _check_structure(st, config_hash, stage.sections)
        if reason is None:
            check = _check_content(st, files)
            if run.deferred is not None:
                run.deferred.append((name, check))
                return
            reason = check()
            if reason is None:
                log.info("%s: manifest up to date, skipping", name)
                return
    log.info("%s: rerunning: %s", name, reason)
    os.makedirs(st.staging)
    st.digests.submit(list(st.inputs.values()))
    try:
        try:
            next(work, None)
        except Exception:
            run.settle()  # a stale earlier stage outranks the body's error
            raise
        run.settle()
        with contextlib.suppress(FileNotFoundError):
            os.rename(st.dir, old)
        os.rename(st.staging, st.dir)
    finally:
        shutil.rmtree(st.staging, ignore_errors=True)
    _remove(old)
    _write_manifest(st, config_hash)
    _trim_heap()


def run_all(
    config: PipelineConfig, force: bool = False, stages: tuple[str, ...] = STAGE_ORDER
) -> None:
    """Run ``stages`` in order on one ``_Run``: every stage but synth by
    default, or the one stage that ``hyperfield <stage>`` names.

    Until a stage runs, each stage whose manifest structure matches is
    taken as skipped and its content check is deferred to the hasher, so
    the first stale stage starts its body at once. That stage waits for
    the deferred checks before it swaps its outputs in, and so does
    ``run_all`` before it returns. If one failed, that stage's outputs are
    discarded and the run resumes at the failed stage, with checks that
    wait.
    """
    for name in stages:
        if name not in STAGES:
            raise ConfigError(f"unknown stage {name!r}")
    _check_out_dir(config.out_dir())
    with FileDigests() as digests:
        run = _Run(digests)
        start = 0
        while True:
            try:
                for name in stages[start:]:
                    run_stage(name, config, force, run)
                run.settle()
                return
            except _Stale as stale:
                start = stages.index(*stale.args)
