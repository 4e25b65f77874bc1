"""In-process span tracer for the hyperfield CLI.

Run from the root of a checkout as

    python3 hyperbench/tracing.py SPANS.json <hyperfield command and options>

It imports ``hyperfield`` from ``src/``, wraps the public functions of
every layer module (and ``pipeline.run_all`` / ``pipeline.run_stage``)
with timing spans, runs the CLI in this process, and writes the spans
to SPANS.json. The exit code is the CLI's own.

``pipeline.py`` imports layer functions by name, and ``mlp.train``
calls ``forward``/``backward``/``adam_step`` through module globals, so
every binding of a wrapped function in any ``hyperfield`` module is
replaced, not only the defining one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LAYER_MODULES = (
    "cube",
    "segment",
    "gridmap",
    "endmember",
    "unmix",
    "subplot",
    "mlp",
    "synth",
)


class Tracer:
    """Spans kept in memory as [id, parent id, name, start, end, notes].

    A span's parent is the innermost span open on the same thread when
    it started. ``notes`` is what the function's probe recorded (sizes,
    counts) or None.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, probe=None):
        """``fn`` recording one span per call.

        ``name`` is the span name, or a callable taking the call's
        arguments and returning it. ``probe`` takes the call's
        arguments before the call and returns a callable that maps the
        result to the span's notes.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            after = probe(*args, **kwargs) if probe is not None else None
            stack = self._stack()
            span = [next(self._ids), stack[-1] if stack else None, label, 0.0, 0.0, None]
            stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if after is not None:
                span[5] = after(result)
            return result

        return traced


# ---------------------------------------------------------------------------
# probes: sizes and counts taken at the call boundary


def _manifest_state(path: str) -> tuple[int, int, bytes] | None:
    try:
        st = os.stat(path)
        with open(path, "rb") as fh:
            return st.st_mtime_ns, st.st_ino, fh.read()
    except FileNotFoundError:
        return None


def _named_bytes(out_dir: str, state: tuple[int, int, bytes] | None) -> int:
    """Bytes of the files a manifest names (inputs and outputs)."""
    if state is None:
        return 0
    try:
        manifest = json.loads(state[2])
    except ValueError:
        return 0
    total = 0
    for key in (*manifest.get("inputs", {}), *manifest.get("outputs", {})):
        path = os.path.join(out_dir, key)
        if os.path.exists(path):
            total += os.path.getsize(path)
    return total


def _probe_stage(name, config, *args, **kwargs):
    """A stage ran when its manifest was (re)written during the call."""
    out_dir = config.out_dir()
    path = os.path.join(out_dir, "manifests", f"{name}.json")
    before = _manifest_state(path)
    checked = _named_bytes(out_dir, before)

    def after(_):
        now = _manifest_state(path)
        ran = now is not None and now != before
        written = _named_bytes(out_dir, now) if ran else 0
        return {"ran": ran, "hashed_bytes": checked + written}

    return after


def _probe_read_cube(path, *args, **kwargs):
    return lambda cube: {"bytes": cube.data.nbytes, "file": os.fspath(path)}


def _probe_write_cube(cube, *args, **kwargs):
    nbytes = cube.data.nbytes
    return lambda _: {"bytes": nbytes}


def _probe_unmix_cube(cube, *args, **kwargs):
    pixels = cube.rows * cube.cols
    return lambda _: {"pixels": pixels}


def _probe_write_records(path, records, *args, **kwargs):
    count = len(records)
    return lambda _: {"records": count}


def _count_result(key):
    return lambda *args, **kwargs: (lambda result: {key: len(result)})


PROBES = {
    "cube.read_cube": _probe_read_cube,
    "cube.write_cube": _probe_write_cube,
    "segment.extract_plots": _count_result("plots"),
    "unmix.unmix_cube": _probe_unmix_cube,
    "subplot.build_records": _count_result("records"),
    "subplot.read_records_csv": _count_result("records"),
    "subplot.write_records_csv": _probe_write_records,
    "mlp.train": lambda *a, **k: (lambda result: {"best_epoch": result[0].best_epoch}),
}


def install(tracer: Tracer) -> None:
    """Wrap the layer functions and rebind them in every hyperfield module."""
    from hyperfield import cli, pipeline  # noqa: F401 - imports every module

    wrapped = {}
    for short in LAYER_MODULES:
        module = importlib.import_module(f"hyperfield.{short}")
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and not attr.startswith("_")
                and value.__module__ == module.__name__
            ):
                name = f"{short}.{attr}"
                wrapped[value] = tracer.wrap(name, value, PROBES.get(name))
    missing = sorted(
        set(PROBES) - {fn.__module__.rsplit(".", 1)[1] + "." + fn.__name__ for fn in wrapped}
    )
    if missing:
        raise RuntimeError(f"probed functions not found: {', '.join(missing)}")
    wrapped[pipeline.run_all] = tracer.wrap("pipeline.run_all", pipeline.run_all)
    wrapped[pipeline.run_stage] = tracer.wrap(
        lambda name, *a, **k: f"stage.{name}", pipeline.run_stage, _probe_stage
    )

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != "hyperfield" and not name.startswith("hyperfield."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracing.py SPANS.json <hyperfield arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    import hyperfield
    from hyperfield import cli

    if Path(hyperfield.__file__).resolve().parent != ROOT / "src" / "hyperfield":
        print(f"hyperfield imported from {hyperfield.__file__}, not src/", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
