"""Workloads: build a starting tree, time ``hyperfield run-all`` on it, check the output.

Every timed invocation is a child process (``python3 -m hyperfield.cli``
with ``src/`` on the path), timed from this process with its CPU time
and peak memory taken from ``wait4``. A traced invocation runs the same
command under ``tracing.py`` instead.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import envinfo
import layers

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Scene:
    """Config text under the benchmark's seed, and the held-out R2 its runs must reach."""

    ini: str
    min_subplot_r2: float


# The default config with the benchmark's seed as the scene seed
# (380x836 px, 240 bands, 64 plots), held to acceptance test 07's bar.
DEFAULT_SCENE = Scene(ini="", min_subplot_r2=0.75)

# [train] seed values: the set-up trains with the first (the config
# default); retrain alternates, starting with the second.
TRAIN_SEEDS = (0, 1)

# (name, unit, better); BENCHMARK.json's end_to_end list mirrors this.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("tree_mb", "MB", "lower"),
    ("subplot_r2", "ratio", "higher"),
]


@dataclass(frozen=True)
class Workload:
    setup_runs_pipeline: bool  # set-up is synth + run-all, not synth alone
    reset_each_rep: bool  # each timed run starts from synth's outputs only
    alternate_train_seed: bool  # each timed run flips [train] seed
    reruns: tuple[str, ...]  # stages whose outputs and manifests a timed run may change
    setup_reps: int


WORKLOADS = {
    "cold": Workload(
        setup_runs_pipeline=False, reset_each_rep=True, alternate_train_seed=False,
        reruns=layers.STAGES, setup_reps=2,
    ),
    "noop": Workload(
        setup_runs_pipeline=True, reset_each_rep=False, alternate_train_seed=False,
        reruns=(), setup_reps=1,
    ),
    "retrain": Workload(
        setup_runs_pipeline=True, reset_each_rep=False, alternate_train_seed=True,
        reruns=("train", "evaluate", "report"), setup_reps=1,
    ),
}


class SetupError(Exception):
    """The starting tree could not be built; nothing was measured."""


@dataclass
class Child:
    command: str
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: str

    @property
    def last_line(self) -> str:
        lines = self.log.strip().splitlines()
        return lines[-1] if lines else "(no output)"


@dataclass
class Rep:
    """One timed run-all and what its output check found."""

    child: Child
    train_seed: int
    traced: bool = False
    problems: list[str] = field(default_factory=list)
    tree_mb: float = 0.0
    subplot_r2: float | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


# ---------------------------------------------------------------------------
# output checks


@dataclass(frozen=True)
class Tree:
    """sha256 of every file under an output tree, by relative path.

    A rescan rehashes only files whose size, mtime, ctime or inode
    changed since the previous scan. Any write changes ctime, so a file
    whose stat is unchanged still holds the bytes hashed before.
    """

    files: dict[str, str]
    stats: dict[str, tuple[int, int, int, int]]
    nbytes: int

    @classmethod
    def scan(cls, out: Path, previous: Tree | None = None) -> Tree:
        files, stats, nbytes = {}, {}, 0
        for dirpath, _, filenames in os.walk(out):
            for name in filenames:
                path = Path(dirpath) / name
                rel = path.relative_to(out).as_posix()
                st = path.stat()
                stats[rel] = (st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino)
                if previous is not None and previous.stats.get(rel) == stats[rel]:
                    files[rel] = previous.files[rel]
                else:
                    with open(path, "rb") as fh:
                        files[rel] = hashlib.file_digest(fh, "sha256").hexdigest()
                nbytes += st.st_size
        return cls(files, stats, nbytes)

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for rel in sorted(self.files):
            h.update(f"{rel}\0{self.files[rel]}\n".encode())
        return h.hexdigest()

    def changed(self, other: Tree) -> list[str]:
        return sorted(
            rel for rel in self.files.keys() | other.files.keys()
            if self.files.get(rel) != other.files.get(rel)
        )


def quality_problems(metrics_csv: Path, min_r2: float) -> tuple[list[str], float | None]:
    """Acceptance test 07's bar on evaluate/metrics.csv, and the sub-plot R2."""
    try:
        with open(metrics_csv, encoding="utf-8", newline="") as fh:
            metrics = dict(row[:2] for row in csv.reader(fh) if len(row) >= 2)
        split = metrics["split"]
        r2 = float(metrics["subplot_r2"])
        subplot_nrmse = float(metrics["subplot_nrmse"])
        plot_nrmse = float(metrics["plot_nrmse"])
    except (OSError, KeyError, ValueError) as exc:
        return [f"cannot read {metrics_csv.name}: {exc!r}"], None
    problems = []
    if split != "test":
        problems.append(f"held-out split is {split!r}, not 'test'")
    if not r2 >= min_r2:
        problems.append(f"sub-plot R2 {r2:.4f} < {min_r2}")
    if not plot_nrmse <= subplot_nrmse:
        problems.append(f"plot nRMSE {plot_nrmse:.4f} > sub-plot nRMSE {subplot_nrmse:.4f}")
    return problems, r2


# ---------------------------------------------------------------------------
# the working tree and its child processes


class Workbench:
    """A scene config and output tree under ``work``, and the children run on them."""

    def __init__(self, root: Path, work: Path, seed: int, scene: Scene, deadline: float):
        self.root = root
        self.work = work
        self.out = work / "out"
        self.ini = work / "scene.ini"
        self.seed = seed
        self.scene = scene
        self.deadline = deadline
        self.env = {
            **os.environ,
            **envinfo.thread_env(),
            "PYTHONPATH": str(root / "src"),
            "HYPERFIELD_LOG": "WARNING",
        }
        self.logs = 0
        work.mkdir(parents=True, exist_ok=True)

    def write_config(self, train_seed: int) -> None:
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(self.scene.ini)
        for section, value in (("synth", self.seed), ("train", train_seed)):
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, "seed", str(value))
        text = io.StringIO()
        parser.write(text)
        self.ini.write_text(text.getvalue(), encoding="utf-8")

    def run(self, command: str, spans: Path | None = None) -> Child:
        """``hyperfield <command>`` on the tree; traced when ``spans`` is given."""
        args = [command, "--config", str(self.ini), "--out", str(self.out)]
        if spans is None:
            argv = [sys.executable, "-m", "hyperfield.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "tracing.py"), str(spans), *args]
        self.logs += 1
        log_path = self.work / f"child{self.logs}.log"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env,
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t0
        return Child(
            command=command,
            returncode=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss * 1024 / layers.MB,
            log=log_path.read_text(encoding="utf-8", errors="replace"),
        )

    def reset_to_synth(self) -> None:
        """Remove every output and manifest except synth's."""
        for entry in self.out.iterdir():
            if entry.name not in ("synth", "manifests"):
                shutil.rmtree(entry)
        for manifest in (self.out / "manifests").iterdir():
            if manifest.name != "synth.json":
                manifest.unlink()

    def clear(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


def _must_succeed(child: Child) -> None:
    if child.returncode != 0:
        raise SetupError(
            f"set-up {child.command} exited {child.returncode}: {child.last_line}"
        )


def set_up(
    wb: Workbench, workload: Workload, reps: int, synth_spans: Path | None = None
) -> list[float]:
    """Build the starting tree ``reps`` times; returns each build's seconds.

    With ``synth_spans`` the synth step runs traced (its spans are the
    ``synth.*`` layer metrics).
    """
    times = []
    for _ in range(reps):
        wb.clear()
        wb.write_config(TRAIN_SEEDS[0])
        child = wb.run("synth", spans=synth_spans)
        _must_succeed(child)
        seconds = child.wall_s
        if workload.setup_runs_pipeline:
            child = wb.run("run-all")
            _must_succeed(child)
            seconds += child.wall_s
        times.append(seconds)
    return times


class Runs:
    """Timed runs of one workload, each checked against the tree it started from."""

    def __init__(self, wb: Workbench, name: str):
        self.wb = wb
        self.workload = WORKLOADS[name]
        self.reps: list[Rep] = []
        self.before: Tree | None = None  # the tree the next timed run starts from
        # Tree digest each run must reproduce, by [train] seed.
        self.digests: dict[int, str] = {}

    def start(self) -> None:
        """Record the set-up tree; a full set-up tree is what TRAIN_SEEDS[0] must leave.

        The tree is flushed to disk first, so the set-up's writeback does
        not overlap the timed runs.
        """
        for dirpath, _, filenames in os.walk(self.wb.out):
            for name in filenames:
                fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
        self.before = Tree.scan(self.wb.out)
        if self.workload.setup_runs_pipeline:
            self.digests[TRAIN_SEEDS[0]] = self.before.digest

    def next_train_seed(self) -> int:
        if not self.workload.alternate_train_seed:
            return TRAIN_SEEDS[0]
        return TRAIN_SEEDS[(len(self.reps) + 1) % 2]

    def timed_run(self, spans: Path | None = None) -> Rep:
        train_seed = self.next_train_seed()
        self.wb.write_config(train_seed)
        if self.workload.reset_each_rep:
            self.wb.reset_to_synth()
        rep = Rep(child=self.wb.run("run-all", spans=spans), train_seed=train_seed,
                  traced=spans is not None)
        self.check(rep)
        self.reps.append(rep)
        return rep

    def _may_change(self, rel: str) -> bool:
        reruns = self.workload.reruns
        top, _, rest = rel.partition("/")
        return top in reruns or (top == "manifests" and rest.removesuffix(".json") in reruns)

    def check(self, rep: Rep) -> None:
        """Exit code, test 07's bar, untouched files, and bytes equal to the same work's."""
        if rep.child.returncode != 0:
            rep.problems.append(f"exit code {rep.child.returncode}: {rep.child.last_line}")
            return
        quality, rep.subplot_r2 = quality_problems(
            self.wb.out / "evaluate" / "metrics.csv", self.wb.scene.min_subplot_r2
        )
        rep.problems += quality
        after = Tree.scan(self.wb.out, self.before)
        digest, rep.tree_mb = after.digest, after.nbytes / layers.MB
        stray = [rel for rel in after.changed(self.before) if not self._may_change(rel)]
        if stray:
            rep.problems.append(
                f"{len(stray)} file(s) outside the rerun stages changed: {', '.join(stray[:3])}"
            )
        expected = self.digests.setdefault(rep.train_seed, digest)
        if digest != expected:
            rep.problems.append(
                f"tree differs from an earlier run of the same work "
                f"({digest[:12]} vs {expected[:12]})"
            )
        if not self.workload.reset_each_rep:
            self.before = after


def end_to_end(reps: list[Rep], setup_times: list[float]) -> dict[str, float]:
    """Medians over the runs that passed their checks; failed runs are not timed."""
    ok = [rep for rep in reps if not rep.failed]
    if not ok:
        return {}
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(rep.child.wall_s for rep in ok),
        "cpu_s": statistics.median(rep.child.cpu_s for rep in ok),
        "peak_rss_mb": statistics.median(rep.child.peak_rss_mb for rep in ok),
        "tree_mb": statistics.median(rep.tree_mb for rep in ok),
        "subplot_r2": statistics.median(rep.subplot_r2 for rep in ok),
    }

