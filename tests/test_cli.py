"""Config, stage orchestration, and command-line behaviour."""

import builtins
import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import hyperfield
from hyperfield import cube as cube_module
from hyperfield import cli, errors, mlp, pipeline, subplot, unmix
from hyperfield.cli import main
from hyperfield.config import DEFAULTS, PipelineConfig, load_config
from hyperfield.cube import read_cube, write_cube
from hyperfield.errors import ConfigError, DataError
from hyperfield.pipeline import (
    STAGE_ORDER,
    STAGES,
    FileDigests,
    read_metrics_csv,
)
from hyperfield.subplot import read_records_csv

HYPERBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "hyperbench")

TINY_INI = """\
[synth]
grid_rows = 4
grid_cols = 4
snr_db = 40
target_subplot_r2 = 0.85

[split]
test_plots = 3

[train]
epochs = 30
"""


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One small synth + run-all tree shared by the read-only tests."""
    root = tmp_path_factory.mktemp("tiny")
    ini = root / "config.ini"
    ini.write_text(TINY_INI)
    out = root / "out"
    assert main(["synth", "--out", str(out), "--config", str(ini)]) == 0
    assert main(["run-all", "--out", str(out), "--config", str(ini)]) == 0
    return ini, out


@pytest.fixture(scope="module")
def memo_base(tmp_path_factory):
    """A tiny synth + run-all tree of its own, copied by ``memo_run``."""
    root = tmp_path_factory.mktemp("memo")
    ini = root / "config.ini"
    ini.write_text(TINY_INI.replace("epochs = 30", "epochs = 10"))
    out = root / "out"
    assert main(["synth", "--out", str(out), "--config", str(ini)]) == 0
    assert main(["run-all", "--out", str(out), "--config", str(ini)]) == 0
    return ini, out


@pytest.fixture
def memo_run(memo_base, tmp_path):
    """A private copy of the ``memo_base`` tree, free to modify."""
    ini, base = memo_base
    out = tmp_path / "out"
    shutil.copytree(base, out)
    return ini, out


def _sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _manifest_mtimes(out) -> dict[str, int]:
    return {p.stem: p.stat().st_mtime_ns for p in (out / "manifests").iterdir()}


def _assert_manifests_match_disk(out) -> None:
    """Every digest in the manifests run-all keeps equals the file's on disk."""
    for stage in STAGE_ORDER:
        manifest = json.loads((out / "manifests" / f"{stage}.json").read_text())
        for key, digest in manifest["inputs"].items():
            assert _sha256_of(out / key) == digest, (stage, key)
        for rel, digest in manifest["outputs"].items():
            assert _sha256_of(out / rel) == digest, (stage, rel)


def _tree_bytes(root) -> dict[str, bytes]:
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


# ---------------------------------------------------------------------------
# config

def test_defaults_load_without_a_file():
    config = load_config(None)
    assert config.get("dataset", "window_px") == "15"
    assert config.getint("train", "epochs") == 100
    assert config.hidden_sizes() == (256, 128, 64, 32)


def test_file_overlays_defaults(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[dataset]\nwindow_px = 10\n")
    config = load_config(path)
    assert config.getint("dataset", "window_px") == 10
    assert config.getint("train", "epochs") == 100


def test_unknown_section_is_an_error(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[nope]\nx = 1\n")
    with pytest.raises(ConfigError, match="nope"):
        load_config(path)


def test_unknown_key_is_an_error(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[dataset]\nwindowpx = 10\n")
    with pytest.raises(ConfigError, match="windowpx"):
        load_config(path)


def test_missing_config_file_is_an_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.ini")


def test_typed_accessors_validate():
    config = load_config(None)
    config.values["train"]["epochs"] = "ten"
    with pytest.raises(ConfigError, match="integer"):
        config.getint("train", "epochs")
    config.values["split"]["train_fraction"] = "a lot"
    with pytest.raises(ConfigError, match="number"):
        config.getfloat("split", "train_fraction")


def test_compound_parsers():
    config = load_config(None)
    assert config.window_nm("segment", "red_window_nm") == (665.0, 675.0)
    assert config.drop_windows_nm() == ((760.0, 10.0), (820.0, 14.0))
    assert config.anchor_cell() == (0, 0)
    assert config.panel_region() == (8, 16, 18, 50)
    assert config.segment_threshold() is None
    config.values["segment"]["threshold"] = "0.25"
    assert config.segment_threshold() == 0.25
    config.values["segment"]["red_window_nm"] = "oops"
    with pytest.raises(ConfigError):
        config.window_nm("segment", "red_window_nm")


def test_split_spec_honours_explicit_test_plots():
    config = load_config(None)
    config.values["split"]["test_plot_ids"] = "P0001, P0002"
    spec = config.split_spec()
    assert spec.test_plot_ids == ("P0001", "P0002")
    assert spec.test_plots == 0


def test_synth_spec_reads_optional_floats():
    config = load_config(None)
    assert config.synth_spec().snr_db is None
    config.values["synth"]["snr_db"] = "35"
    assert config.synth_spec().snr_db == 35.0


def test_config_hash_ignores_output_dir():
    def hashes(config):
        return {name: config.config_hash(stage.sections) for name, stage in STAGES.items()}

    a = load_config(None)
    b = load_config(None)
    b.values["output"]["dir"] = "elsewhere"
    assert hashes(a) == hashes(b)
    b.values["train"]["epochs"] = "7"
    assert hashes(a)["train"] != hashes(b)["train"]


# config_hash of each stage's sections for the default config, as
# existing manifests record them; a change here makes every existing
# tree rerun that stage.
_DEFAULT_STAGE_HASHES = {
    "synth": "02486baed71852044c70ca4c40f1b1eeff3d5c38a5a6f445daebdd41a157afde",
    "calibrate": "a5a371d8c298bf38468ab2c03740b1ccddfa0b96d821ecf3d8f4d57e000ebb27",
    "segment": "b22731443a585df57025ba42c5fd9573522b911f68ead86d05efce2cc8dcce17",
    "gridmap": "2a006c008aafabf149908a05b824dfb1e8ec5a8d2e8351fde22c41c922aba972",
    "endmembers": "a2c7074f9cf95f3e3a182f0482cfbf94cfa984eabfdc8f52366daa22666d6a8a",
    "unmix": "da9442f30bee032079f064c0b2537eda7d1a53831c5b0be8b8ded1f2ff131184",
    "dataset": "2659027f3cdc11eeadbe0bb6942bb19ba378f3ed1ae93acbd77a0e841804d412",
    "train": "27010ad5e97e543ea20e42f5fb107257e8dc071905398f6e1efb5c26a004fa5e",
    "evaluate": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "report": "2cc2fa09bdda2c68d3ad9657f0e7b29a0b49d3b3b1ca7af1ae2397db1e722e39",
}


def test_stage_config_hashes_match_recorded_manifests():
    config = load_config(None)
    found = {name: config.config_hash(stage.sections) for name, stage in STAGES.items()}
    assert found == _DEFAULT_STAGE_HASHES


class _RecordingConfig(PipelineConfig):
    """Notes each ``(stage, section, key)`` it is read for: ``stage`` is the
    stage whose body started last."""

    def __init__(self, values):
        super().__init__(values)
        self.stage = None
        self.reads = set()

    def get(self, section, key):
        self.reads.add((self.stage, section, key))
        return super().get(section, key)


def test_each_stage_reads_only_the_config_sections_its_manifest_hashes(tmp_path, monkeypatch):
    """A body that read a section its config hash leaves out would be skipped
    when that section changed."""
    def recorded(name, body):
        def run(st):
            st.config.stage = name
            yield from body(st)
        return run

    for name, stage in list(STAGES.items()):
        monkeypatch.setitem(STAGES, name, stage._replace(body=recorded(name, stage.body)))
    ini = tmp_path / "config.ini"
    ini.write_text(TINY_INI.replace("epochs = 30", "epochs = 2"))
    config = _RecordingConfig(load_config(ini).values)
    out = tmp_path / "out"
    config.set("output", "dir", str(out))
    pipeline.run_all(config, True, ("synth",))
    pipeline.run_all(config, True)
    # and the endmembers read from a table instead of the reference cube
    shutil.copy(out / "endmembers" / "endmembers.csv", tmp_path / "ems.csv")
    config.set("endmembers", "source", "csv")
    config.set("endmembers", "csv", str(tmp_path / "ems.csv"))
    pipeline.run_all(config, True, ("endmembers",))
    reads = {read for read in config.reads if read[1:] != ("output", "dir")}
    assert ("endmembers", "endmembers", "csv") in reads
    assert {stage for stage, _, _ in reads} == set(STAGES) - {"evaluate"}
    assert sorted(read for read in reads if read[1] not in STAGES[read[0]].sections) == []


def test_stage_order_is_the_pipeline_order():
    assert STAGE_ORDER == (
        "calibrate", "segment", "gridmap", "endmembers", "unmix",
        "dataset", "train", "evaluate", "report",
    )
    assert tuple(STAGES) == ("synth", *STAGE_ORDER)


def test_help_lists_every_stage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for name, stage in STAGES.items():
        assert f"{name} {stage.help}" in text, name


def test_input_paths_resolve_against_out_dir(tmp_path):
    config = load_config(None)
    out = tmp_path / "run1"
    config.values["output"]["dir"] = str(out)
    (out / "synth").mkdir(parents=True)
    (out / "synth" / "scene.hdr").touch()
    stage = pipeline._Stage("calibrate", config, pipeline._Run(FileDigests()))
    hdr = config.get("input", "cube") + ".hdr"
    assert stage.need(hdr) == os.path.join(str(out), "synth/scene.hdr")
    field = tmp_path / "field.hdr"
    field.touch()
    assert stage.need(str(field)) == str(field)


def _ini_text(config) -> str:
    lines = []
    for section in sorted(config.values):
        lines.append(f"[{section}]")
        for key in sorted(config.values[section]):
            lines.append(f"{key} = {config.values[section][key]}")
        lines.append("")
    return "\n".join(lines)


def test_ini_round_trip(tmp_path):
    config = load_config(None)
    config.values["train"]["epochs"] = "17"
    path = tmp_path / "eff.ini"
    path.write_text(_ini_text(config))
    again = load_config(path)
    assert again.values == config.values


def test_defaults_cover_every_stage_section():
    for section in ("input", "calibrate", "segment", "gridmap", "endmembers",
                    "unmix", "dataset", "split", "model", "train", "synth",
                    "output"):
        assert section in DEFAULTS


# ---------------------------------------------------------------------------
# pipeline output tree

def test_run_all_writes_the_expected_tree(tiny_run):
    _, out = tiny_run
    for rel in (
        "synth/scene.hdr", "synth/scene.raw", "synth/panel.csv",
        "synth/plot_map.csv", "synth/yields.csv", "synth/truth_sl_mask.pbm",
        "synth/truth.json", "synth/reference.hdr",
        "synth/reference_endmembers.csv",
        "calibrate/reflectance.hdr", "calibrate/reflectance.raw",
        "segment/boxes.csv", "segment/mask.pbm", "segment/score.pgm",
        "segment/threshold.txt",
        "gridmap/assignment.csv",
        "endmembers/endmembers.csv",
        "unmix/abundances.hdr", "unmix/sl_mask.pbm", "unmix/residual.txt",
        "dataset/records.csv",
        "train/model.ckpt", "train/training_log.csv", "train/split.csv",
        "evaluate/predictions.csv", "evaluate/metrics.csv",
        "report/metrics.csv", "report/scatter.csv",
        "report/middle_thirds.csv", "report/summary.txt",
    ):
        assert (out / rel).exists(), rel
    for stage in ("synth", "calibrate", "segment", "gridmap", "endmembers",
                  "unmix", "dataset", "train", "evaluate", "report"):
        assert (out / "manifests" / f"{stage}.json").exists()


def test_metrics_file_has_all_levels(tiny_run):
    _, out = tiny_run
    metrics = read_metrics_csv(out / "evaluate" / "metrics.csv")
    for key in ("split", "subplot_r2", "subplot_rmse_g", "subplot_nrmse",
                "plot_r2", "plot_rmse_g", "plot_nrmse", "field_actual_g",
                "field_predicted_g", "field_percent_error"):
        assert key in metrics
    assert metrics["split"] == "test"
    assert (out / "report" / "metrics.csv").read_bytes() == \
        (out / "evaluate" / "metrics.csv").read_bytes()


def test_predictions_cover_every_record(tiny_run):
    _, out = tiny_run
    records = read_records_csv(out / "dataset" / "records.csv")
    lines = (out / "evaluate" / "predictions.csv").read_text().splitlines()
    assert lines[0] == "plot_id,window_row,window_col,role,actual_g,predicted_g"
    assert len(lines) == len(records) + 1
    roles = {line.split(",")[3] for line in lines[1:]}
    assert roles == {"train", "validation", "test"}


def test_split_file_partitions_the_records(tiny_run):
    _, out = tiny_run
    records = read_records_csv(out / "dataset" / "records.csv")
    lines = (out / "train" / "split.csv").read_text().splitlines()
    assert lines[0] == "index,role"
    indices = [int(line.split(",")[0]) for line in lines[1:]]
    assert sorted(indices) == list(range(len(records)))


def test_report_artifacts_cover_every_plot(tiny_run):
    _, out = tiny_run
    middle = (out / "report" / "middle_thirds.csv").read_text().splitlines()
    assert middle[0] == "plot_id,middle_fraction,label"
    assert len(middle) == 16 + 1
    maps = sorted(os.listdir(out / "report" / "sl_maps"))
    assert len(maps) == 16
    assert maps[0] == "P0000.ppm"
    summary = (out / "report" / "summary.txt").read_text()
    assert "field" in summary and "sub-plot" in summary


def test_scatter_is_plain_three_columns(tiny_run):
    _, out = tiny_run
    lines = (out / "report" / "scatter.csv").read_text().splitlines()
    assert lines[0] == "actual_g,predicted_g,role"
    assert len(lines[1].split(",")) == 3


def test_prediction_numbers_are_plain_floats(tiny_run):
    _, out = tiny_run
    for rel in ("evaluate/predictions.csv", "report/scatter.csv"):
        header, *rows = (out / rel).read_text().splitlines()
        columns = [header.split(",").index(name) for name in ("actual_g", "predicted_g")]
        for row in rows:
            fields = row.split(",")
            for j in columns:
                float(fields[j])


# sha256 of the TINY_INI synth files as the whole-array generator wrote them
_TINY_SYNTH_DIGESTS = {
    "scene.raw": "f70980c098cb7dd49bf61fef52eeaa01cc82bc9e54b571665026a240eb2c2d72",
    "scene.hdr": "91adbba5489b044b259d0faa83f5c269bca9620b29deddcacf0bdb8aaaaa7e76",
    "truth.json": "f4ce22abe0ba0b4643dff57f40df53303bc9c256a5df1c5ed1fc2787d8329fcd",
}


def test_tiny_synth_keeps_the_whole_array_bytes(tiny_run):
    """The scene made in strips, with its two noise passes, is the same file."""
    _, out = tiny_run
    for name, digest in _TINY_SYNTH_DIGESTS.items():
        assert hashlib.sha256((out / "synth" / name).read_bytes()).hexdigest() == digest, name
    payload = json.loads((out / "synth" / "truth.json").read_text())
    assert payload["realized_snr_db"] == 39.99968061649939


# sha256 of the TINY_INI cube payloads that ``write_strips`` converts from
# C-order strips, and of every manifest. The unmix and MLP outputs, and so
# the manifests that hash them, come from BLAS products and can differ
# under another BLAS build.
_TINY_PAYLOAD_DIGESTS = {
    "calibrate/reflectance.raw": "7ea2c4146ba75bb775cc90f2a31a197e462cd5d9de1c46395b902403b8f15e69",
    "unmix/abundances.raw": "dcbc7a3ff00db9bad78f5a9229c34ad002d967c706fc491959b61c12f532fd3f",
    "synth/reference.raw": "422ff322063f58a03d0b636f4d74ced46c6516ab407a738a30922b61b3183ce7",
    "manifests/calibrate.json": "e092e79841fa46b1d98319e7842cdbbf74a6f407fd459e3dedf614d45da6e02f",
    "manifests/dataset.json": "ec24dde92ed13b16185a7ba6d17e904e5c9abf062c56c3900a2b14f446eef6e0",
    "manifests/endmembers.json": "cc35fe5c2fd2f0a6bb51b075988809bdbb951e5f52bb313502400fa182708c17",
    "manifests/evaluate.json": "a6968a492cfb9430347aa45d9004c1cba2657f4b4806551af08a52fbff9f02f7",
    "manifests/gridmap.json": "549dbf472174f59c390756ba977087ae04064a371eeafd2dbc9ed65029dd4568",
    "manifests/report.json": "b995e74c0691e2f9fc440b05d032b45219a1ed36f09806d8a5934cb4168ebdee",
    "manifests/segment.json": "d023ab3deffb0e68550cc64bb3d147b6cb437d6206a57adff1aa041fc43d9318",
    "manifests/synth.json": "9462eadd3f1c9b7ec021838f2b3dfe3221861f579eebe3f508fef382c0436532",
    "manifests/train.json": "13a5dce6baa392c6edee5414142f325f26abfcac28c551924cd6def85fc04452",
    "manifests/unmix.json": "b0e50a5b5c4a12c72dccad20d1ac080526783dd8d6e8c9a71d8f9c0bbc7cd44f",
}


def test_tiny_payloads_and_manifests_keep_their_bytes(tiny_run):
    _, out = tiny_run
    assert {f"manifests/{p.name}" for p in (out / "manifests").iterdir()} <= set(
        _TINY_PAYLOAD_DIGESTS
    )
    found = {rel: _sha256_of(out / rel) for rel in _TINY_PAYLOAD_DIGESTS}
    assert found == _TINY_PAYLOAD_DIGESTS


def test_truth_json_is_sorted_and_complete(tiny_run):
    _, out = tiny_run
    payload = json.loads((out / "synth" / "truth.json").read_text())
    assert payload["window_px"] == 15
    assert len(payload["boxes"]) == 16
    assert payload["theoretical_r2"] == pytest.approx(0.85)
    assert abs(payload["realized_snr_db"] - 40.0) < 0.5


# ---------------------------------------------------------------------------
# resume, force, determinism

def _leftovers(out) -> list:
    """Temporary files and the staging or replaced directories of a stage,
    whatever kind of entry each is."""
    return [
        p for p in out.rglob("*")
        if p.name.endswith(".tmp") or p.name.startswith(".") and p.suffix in (".partial", ".old")
    ]


def test_run_all_leaves_no_temporary_files(tiny_run):
    ini, out = tiny_run
    assert _leftovers(out) == []


# ---------------------------------------------------------------------------
# publishing a stage: its directory is replaced whole, or not at all

def test_rerun_removes_outputs_the_new_config_does_not_make(memo_run, tmp_path):
    """Another anchor cell labels fewer plots: report keeps no colormap of the old ones."""
    base, out = memo_run
    ini = tmp_path / "anchored.ini"
    ini.write_text(base.read_text() + "\n[gridmap]\nanchor_cell = 0,1\n")
    before = {p.name for p in (out / "report" / "sl_maps").iterdir()}
    assert main(["run-all", "--out", str(out), "--config", str(ini)]) == 0
    maps = {p.name for p in (out / "report" / "sl_maps").iterdir()}
    listed = json.loads((out / "manifests" / "report.json").read_text())["outputs"]
    assert maps == {os.path.basename(rel) for rel in listed if "/sl_maps/" in rel}
    assert maps < before
    fresh = tmp_path / "fresh"
    assert main(["synth", "--out", str(fresh), "--config", str(ini)]) == 0
    assert main(["run-all", "--out", str(fresh), "--config", str(ini)]) == 0
    assert _tree_bytes(out) == _tree_bytes(fresh)
    assert _leftovers(out) == []


def test_failed_stage_keeps_its_old_directory_and_manifest(memo_run, tmp_path, monkeypatch):
    base, out = memo_run
    ini = tmp_path / "reseeded.ini"
    ini.write_text(base.read_text().replace("[train]\n", "[train]\nseed = 5\n"))
    before = _tree_bytes(out)
    calls = []

    def fail(path, logbook):
        calls.append(path)
        raise DataError("disk full")

    monkeypatch.setattr(mlp, "write_training_log_csv", fail)
    assert main(["train", "--out", str(out), "--config", str(ini), "--stage-force"]) == 4
    assert len(calls) == 1  # the failure came from the patched writer
    assert _tree_bytes(out) == before
    assert _leftovers(out) == []


def test_a_leftover_staging_directory_is_removed(memo_run):
    ini, out = memo_run
    before = _tree_bytes(out)
    for leftover in (".gridmap.partial", ".gridmap.old"):
        (out / leftover / "sub").mkdir(parents=True)
        (out / leftover / "sub" / "stale.csv").write_text("x\n")
    assert main(["gridmap", "--out", str(out), "--config", str(ini)]) == 0
    assert _leftovers(out) == []
    assert _tree_bytes(out) == before


def test_a_leftover_manifest_temp_file_is_removed(memo_run):
    """A run killed before replacing a manifest leaves its temp file, even if the stage then skips."""
    ini, out = memo_run
    before = _tree_bytes(out)
    manifests = out / "manifests"
    shutil.copyfile(manifests / "gridmap.json", manifests / "gridmap.json.tmp")
    assert main(["run-all", "--out", str(out), "--config", str(ini)]) == 0
    assert _leftovers(out) == []
    assert _tree_bytes(out) == before


@pytest.mark.parametrize(
    "entry, kind",
    [
        (".gridmap.partial", "file"),
        (".gridmap.old", "file"),
        (".gridmap.old", "symlink"),
        ("gridmap", "file"),
        ("manifests/gridmap.json.tmp", "directory"),
    ],
)
def test_a_leftover_of_any_kind_is_removed(memo_run, entry, kind):
    """Each leftover is removed whatever kind of entry it is, and a symlink
    without what it points to. A file left as the staging or the replaced
    directory used to make the forced stage exit 1, and a file in place of
    the stage's directory was moved aside and left there, so the next
    forced run exited 1."""
    ini, out = memo_run
    before = _tree_bytes(out)
    path = out / entry
    if path.is_dir():
        shutil.rmtree(path)
    if kind == "file":
        path.write_text("x\n")
    elif kind == "symlink":
        path.symlink_to(out / "synth")
    else:
        (path / "sub").mkdir(parents=True)
    for _ in range(2):
        assert main(["gridmap", "--out", str(out), "--config", str(ini), "--stage-force"]) == 0
        assert _leftovers(out) == []
        assert _tree_bytes(out) == before


def test_declaring_a_stage_touches_no_disk(tmp_path, monkeypatch):
    config = load_config(None)
    config.set("output", "dir", str(tmp_path / "absent"))

    def refuse(*args, **kwargs):
        raise AssertionError(f"the declaration touched the disk: {args}")

    with monkeypatch.context() as patched:
        for module, name in [(builtins, "open"), (os, "stat"), (os, "makedirs"),
                             (os.path, "exists")]:
            patched.setattr(module, name, refuse)
        for name, stage in STAGES.items():
            next(stage.body(pipeline._Stage(name, config, pipeline._Run(FileDigests()))))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("absolute", [False, True])
def test_an_input_inside_the_stage_directory_exits_2(tmp_path, capsys, absolute):
    out = tmp_path / "out"
    (out / "endmembers").mkdir(parents=True)
    mine = out / "endmembers" / "mine.csv"
    mine.write_text("wavelength,soil\n400.0,0.1\n")
    key = str(mine) if absolute else "endmembers/mine.csv"
    ini = tmp_path / "csv.ini"
    ini.write_text(f"[endmembers]\nsource = csv\ncsv = {key}\n")
    assert main(["endmembers", "--out", str(out), "--config", str(ini)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["endmembers"]


def test_rerun_skips_every_stage(tiny_run):
    ini, out = tiny_run
    stamps = {}
    for dirpath, _, names in os.walk(out):
        for name in names:
            path = os.path.join(dirpath, name)
            stamps[path] = os.stat(path).st_mtime_ns
    assert main(["run-all", "--out", str(out), "--config", str(ini)]) == 0
    for path, stamp in stamps.items():
        assert os.stat(path).st_mtime_ns == stamp, path


def test_stage_force_rewrites_outputs(tiny_run):
    ini, out = tiny_run
    manifest = out / "manifests" / "segment.json"
    before = manifest.stat().st_mtime_ns
    content = manifest.read_bytes()
    assert main(["segment", "--out", str(out), "--config", str(ini),
                 "--stage-force"]) == 0
    assert manifest.stat().st_mtime_ns != before
    assert manifest.read_bytes() == content


def test_two_runs_build_identical_trees(tmp_path):
    ini = tmp_path / "c.ini"
    ini.write_text(TINY_INI.replace("epochs = 30", "epochs = 10"))
    for out in ("a", "b"):
        assert main(["synth", "--out", str(tmp_path / out), "--config", str(ini)]) == 0
        assert main(["run-all", "--out", str(tmp_path / out), "--config", str(ini)]) == 0
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")


def test_config_change_invalidates_only_affected_stages(tiny_run, tmp_path):
    ini, out = tiny_run
    changed = tmp_path / "changed.ini"
    changed.write_text(TINY_INI + "\n[dataset]\nmiddle_tau = 0.1\n")
    stamps = {}
    for rel in ("calibrate/reflectance.raw", "train/model.ckpt",
                "report/middle_thirds.csv"):
        stamps[rel] = (out / rel).stat().st_mtime_ns
    assert main(["run-all", "--out", str(out), "--config", str(changed)]) == 0
    # tau feeds dataset-section hash: dataset and report reran
    assert (out / "report" / "middle_thirds.csv").stat().st_mtime_ns != \
        stamps["report/middle_thirds.csv"]
    assert (out / "calibrate" / "reflectance.raw").stat().st_mtime_ns == \
        stamps["calibrate/reflectance.raw"]
    # restore the original tree for the other tests
    assert main(["run-all", "--out", str(out), "--config", str(ini)]) == 0


def test_panel_edit_reruns_calibrate_and_its_readers_in_one_run(memo_run):
    ini, out = memo_run
    raw = out / "calibrate" / "reflectance.raw"
    old_digest = _sha256_of(raw)
    panel = out / "synth" / "panel.csv"
    lines = panel.read_text().splitlines()
    row = len(lines) // 2  # a band inside the kept range, away from the ends
    wavelength, value = lines[row].split(",")
    lines[row] = f"{wavelength},{float(value) * 1.01!r}"
    panel.write_text("\n".join(lines) + "\n")
    before = _manifest_mtimes(out)
    assert main(["run-all", "--out", str(out), "--config", str(ini)]) == 0
    after = _manifest_mtimes(out)
    new_digest = _sha256_of(raw)
    assert new_digest != old_digest
    for stage in ("calibrate", "segment", "unmix", "dataset"):
        assert after[stage] != before[stage], stage
    for stage in ("segment", "unmix", "dataset"):
        manifest = json.loads((out / "manifests" / f"{stage}.json").read_text())
        assert manifest["inputs"]["calibrate/reflectance.raw"] == new_digest, stage
    _assert_manifests_match_disk(out)


def test_damaged_output_is_rebuilt_without_touching_its_readers(memo_run):
    ini, out = memo_run
    before = _tree_bytes(out)
    stamps = {}
    for dirpath, _, names in os.walk(out):
        for name in names:
            path = os.path.join(dirpath, name)
            if "calibrate" not in os.path.relpath(path, out):
                stamps[path] = os.stat(path).st_mtime_ns
    raw = out / "calibrate" / "reflectance.raw"
    offset = raw.stat().st_size // 2
    with open(raw, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ 0xFF]))
    assert main(["run-all", "--out", str(out), "--config", str(ini)]) == 0
    assert _tree_bytes(out) == before
    for path, stamp in stamps.items():
        assert os.stat(path).st_mtime_ns == stamp, path
    _assert_manifests_match_disk(out)


def test_manifest_from_another_version_is_stale(memo_run):
    ini, out = memo_run
    before = _tree_bytes(out)
    path = out / "manifests" / "train.json"
    manifest = json.loads(path.read_text())
    manifest["version"] = "0.0.0-other"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    stamps = _manifest_mtimes(out)
    assert main(["run-all", "--out", str(out), "--config", str(ini)]) == 0
    now = _manifest_mtimes(out)
    rerun = {stage for stage in stamps if now[stage] != stamps[stage]}
    assert "train" in rerun
    assert rerun <= {"train", "evaluate", "report"}
    assert json.loads(path.read_text())["version"] == hyperfield.__version__
    assert _tree_bytes(out) == before


def _set_manifest_field(key, value):
    def damage(blob):
        manifest = json.loads(blob)
        manifest[key] = value
        return json.dumps(manifest).encode()
    return damage


@pytest.mark.parametrize(
    "damage",
    [
        lambda blob: blob[:20] + b"\xff" + blob[20:],
        lambda blob: b"[]\n",
        lambda blob: b'"x"\n',
        lambda blob: b"[" * 100_000 + b"]" * 100_000,
        _set_manifest_field("inputs", []),
        _set_manifest_field("outputs", "x"),
    ],
    ids=["not-utf8", "list", "string", "too-deep", "inputs-not-object", "outputs-not-object"],
)
def test_damaged_manifest_is_stale(memo_run, damage):
    ini, out = memo_run
    path = out / "manifests" / "gridmap.json"
    original = path.read_bytes()
    path.write_bytes(damage(original))
    assert main(["gridmap", "--out", str(out), "--config", str(ini)]) == 0
    assert path.read_bytes() == original  # rerun, and rewritten as before


@pytest.mark.parametrize("force", [False, True])
def test_run_all_hashes_each_file_once(memo_run, monkeypatch, force):
    ini, out = memo_run
    hashed = []

    def counting(path):
        hashed.append(os.path.realpath(path))
        return _sha256_of(path)

    _assert_manifests_match_disk(out)
    monkeypatch.setattr(pipeline, "_sha256", counting)
    args = ["run-all", "--out", str(out), "--config", str(ini)]
    assert main(args + ["--stage-force"] * force) == 0
    assert hashed
    assert len(hashed) == len(set(hashed))
    _assert_manifests_match_disk(out)


def _count_records_parses(monkeypatch) -> list[str]:
    parsed = []

    def counting(path):
        parsed.append(path)
        return read_records_csv(path)

    monkeypatch.setattr(subplot, "read_records_csv", counting)
    return parsed


def test_forced_run_all_parses_the_records_once(memo_run, monkeypatch):
    ini, out = memo_run
    parsed = _count_records_parses(monkeypatch)
    assert main(["run-all", "--out", str(out), "--config", str(ini), "--stage-force"]) == 0
    assert parsed == [str(out / "dataset" / "records.csv")]


def test_rewritten_records_are_parsed_again(memo_run, monkeypatch):
    ini, out = memo_run
    config = load_config(str(ini))
    config.set("output", "dir", str(out))
    parsed = _count_records_parses(monkeypatch)
    run_stage = pipeline.run_stage

    def rewriting(name, *args):
        run_stage(name, *args)
        if name == "train":
            path = out / "dataset" / "records.csv"
            fresh = out / "dataset" / "records.csv.new"
            shutil.copyfile(path, fresh)
            os.replace(fresh, path)  # same bytes, new inode: a new stat identity

    monkeypatch.setattr(pipeline, "run_stage", rewriting)
    pipeline.run_all(config, True, ("train", "evaluate", "report"))
    assert len(parsed) == 2


@pytest.mark.parametrize("column", ["features", "yields", "windows"])
def test_shared_records_are_read_only(memo_run, column):
    _, out = memo_run
    records = pipeline._Run(FileDigests()).records(str(out / "dataset" / "records.csv"))
    with pytest.raises(ValueError, match="read-only"):
        getattr(records, column)[0] += 1


def test_file_digests_share_entries_and_rehash_on_request(tmp_path, monkeypatch):
    path = tmp_path / "f.bin"
    path.write_bytes(b"a" * 64)
    digests = FileDigests()
    monkeypatch.chdir(tmp_path)
    found = digests.of([str(path), "f.bin"])
    assert found[str(path)] == found["f.bin"] == hashlib.sha256(b"a" * 64).hexdigest()
    # same size and mtime: only a rehash can see the new bytes
    stat = path.stat()
    path.write_bytes(b"b" * 64)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    found = digests.of(["f.bin"], rehash=frozenset(["f.bin"]))
    assert found["f.bin"] == hashlib.sha256(b"b" * 64).hexdigest()


def test_file_digests_hash_each_file_once_for_concurrent_callers(tmp_path, monkeypatch):
    """More callers than CPUs ask for the same files at once, under a short
    switch interval: each file is hashed once and every caller gets its digest."""
    paths = []
    for i in range(24):
        path = tmp_path / f"{i}.bin"
        path.write_bytes(bytes([i]) * (64 << 10))
        paths.append(str(path))
    hashed = []

    def counting(path):
        hashed.append(path)
        return _sha256_of(path)

    monkeypatch.setattr(pipeline, "_sha256", counting)
    expected = {path: _sha256_of(path) for path in paths}
    results, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with FileDigests() as digests:
            callers = [
                threading.Thread(target=lambda: results.append(digests.of(paths)))
                for _ in range(2 * len(pipeline._usable_cpus()) + 4)
            ]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
            assert not any(caller.is_alive() for caller in callers)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(hashed) == sorted(paths)
    assert results == [expected] * len(callers)


def _pipeline_log(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == "hyperfield.pipeline"]


def _edit_manifest(key, value):
    def edit(out):
        path = out / "manifests" / "gridmap.json"
        manifest = json.loads(path.read_text())
        manifest[key] = value
        path.write_text(json.dumps(manifest))
    return edit


def _append_to(rel):
    def edit(out):
        with open(out / rel, "a") as fh:
            fh.write("\n")
    return edit


@pytest.mark.parametrize(
    "edit, flags, reason",
    [
        (lambda out: (out / "manifests" / "gridmap.json").unlink(), [], "no manifest"),
        (lambda out: (out / "manifests" / "gridmap.json").write_text("[]\n"), [],
         "the manifest is unreadable"),
        (_edit_manifest("version", "0.0.0-other"), [],
         "the manifest is from version '0.0.0-other'"),
        (_edit_manifest("config_hash", "x"), [], "the config of [input] [gridmap] changed"),
        (_edit_manifest("inputs", {"segment/boxes.csv": "x"}), [], "the input keys changed"),
        (lambda out: (out / "gridmap" / "extra.txt").write_text("x\n"), [],
         "the output set changed: gridmap/extra.txt"),
        (_append_to("gridmap/assignment.csv"), [], "gridmap/assignment.csv changed"),
        (lambda out: None, ["--stage-force"], "--stage-force"),
    ],
    ids=["no-manifest", "unreadable", "version", "config", "input-keys", "output-set",
         "file", "force"],
)
def test_a_rerun_logs_its_reason(memo_run, caplog, edit, flags, reason):
    ini, out = memo_run
    before = _tree_bytes(out)
    edit(out)
    caplog.set_level(logging.INFO, logger="hyperfield.pipeline")
    assert main(["gridmap", "--out", str(out), "--config", str(ini), *flags]) == 0
    log = _pipeline_log(caplog)
    assert f"gridmap: rerunning: {reason}" in log
    assert "gridmap: manifest up to date, skipping" not in log
    assert _tree_bytes(out) == before


def _with_train_seed(ini, tmp_path, extra=""):
    """A copy of ``ini`` with ``[train] seed`` edited, plus ``extra`` [train] lines."""
    edited = tmp_path / "seed.ini"
    edited.write_text(ini.read_text().replace("[train]\n", f"[train]\nseed = 7\n{extra}"))
    return edited


def _flip_low_bit(path):
    """Flip the lowest bit of the word at the middle of ``path``: a float32
    sample moves by one ulp and stays finite."""
    offset = path.stat().st_size // 2 // 4 * 4
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ 1]))


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


@pytest.mark.parametrize(
    "rel, damage, stale",
    [
        ("synth/scene.raw", _flip_low_bit, "calibrate"),
        ("calibrate/reflectance.raw", _flip_low_bit, "calibrate"),
        ("segment/boxes.csv", _flip_low_bit, "segment"),
        ("dataset/records.csv", _flip_low_bit, "dataset"),
        ("dataset/records.csv", _truncate, "dataset"),
    ],
    ids=["scene", "reflectance", "boxes", "records", "records-truncated"],
)
def test_a_stage_that_fails_its_deferred_check_reruns_after_the_speculated_train(
    memo_run, tmp_path, caplog, monkeypatch, rel, damage, stale
):
    """With ``[train] seed`` edited, train runs at once while the skip checks
    of calibrate ... dataset run on the hasher. A file damaged under one of
    those stages fails its check: train's outputs are discarded, even when
    its body failed on the damage, and the run resumes at that stage."""
    ini, out = memo_run
    seed_ini = _with_train_seed(ini, tmp_path)
    damage(out / rel)
    forced = tmp_path / "forced"
    shutil.copytree(out, forced)
    assert main(["run-all", "--out", str(forced), "--config", str(seed_ini), "--stage-force"]) == 0
    committed, write_manifest = [], pipeline._write_manifest
    monkeypatch.setattr(
        pipeline, "_write_manifest", lambda st, *a: (committed.append(st.name), write_manifest(st, *a))
    )
    caplog.set_level(logging.INFO, logger="hyperfield.pipeline")
    assert main(["run-all", "--out", str(out), "--config", str(seed_ini)]) == 0
    log = _pipeline_log(caplog)
    speculated = log.index("train: rerunning: the config of [split] [model] [train] changed")
    assert log.index(f"{stale}: rerunning: {rel} changed") > speculated
    assert f"{stale}: manifest up to date, skipping" not in log
    assert committed.count("train") == 1  # only after the resumed run got to it
    assert _tree_bytes(out) == _tree_bytes(forced)
    _assert_manifests_match_disk(out)


def test_a_speculated_train_that_diverges_still_exits_5(memo_run, tmp_path):
    ini, out = memo_run
    manifest = (out / "manifests" / "train.json").read_bytes()
    seed_ini = _with_train_seed(ini, tmp_path, "learning_rate = 1e8\n")
    assert main(["run-all", "--out", str(out), "--config", str(seed_ini)]) == 5
    assert (out / "manifests" / "train.json").read_bytes() == manifest


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs thread affinity")
def test_one_usable_cpu_starts_no_hash_thread(memo_run, tmp_path, caplog, monkeypatch):
    """A forced run-all, then a lone gridmap that skips and one whose input
    changed, whose deferred check the caller hashes when it settles."""
    ini, out = memo_run
    before = _tree_bytes(out)
    one = {min(os.sched_getaffinity(0))}
    started, pinned = [], []
    start = threading.Thread.start
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(one))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pinned.append(cpus))
    monkeypatch.setattr(
        threading.Thread, "start", lambda thread: (started.append(thread.name), start(thread))
    )
    assert main(["run-all", "--out", str(out), "--config", str(ini), "--stage-force"]) == 0
    assert main(["gridmap", "--out", str(out), "--config", str(ini)]) == 0
    assert _tree_bytes(out) == before
    plot_map = out / "synth" / "plot_map.csv"
    header, *rows = plot_map.read_bytes().splitlines(keepends=True)
    plot_map.write_bytes(header + b"".join(reversed(rows)))  # the same plots, other bytes
    forced = tmp_path / "forced"
    shutil.copytree(out, forced)
    assert main(["gridmap", "--out", str(forced), "--config", str(ini), "--stage-force"]) == 0
    caplog.set_level(logging.INFO, logger="hyperfield.pipeline")
    assert main(["gridmap", "--out", str(out), "--config", str(ini)]) == 0
    assert _pipeline_log(caplog).count("gridmap: rerunning: synth/plot_map.csv changed") == 1
    assert started == []
    assert pinned == []
    assert _tree_bytes(out) == _tree_bytes(forced)


@pytest.mark.parametrize("command", ["synth", "gridmap"])
def test_a_lone_stage_runs_through_run_all(memo_run, monkeypatch, command):
    ini, out = memo_run
    entered = []
    run_all, run_stage = pipeline.run_all, pipeline.run_stage

    def counting(name, function):
        def wrapper(*args, **kwargs):
            entered.append(name)
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "run_all", counting("run_all", run_all))
    monkeypatch.setattr(pipeline, "run_stage", counting("run_stage", run_stage))
    assert main([command, "--out", str(out), "--config", str(ini)]) == 0
    assert entered == ["run_all", "run_stage"]


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two usable CPUs and thread affinity",
)
def test_hash_threads_run_beside_the_caller_and_its_affinity_comes_back(memo_run, monkeypatch):
    ini, out = memo_run
    allowed = os.sched_getaffinity(0)
    placed = []
    setaffinity = os.sched_setaffinity

    def recording(pid, cpus):
        placed.append((threading.current_thread() is threading.main_thread(), set(cpus)))
        setaffinity(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", recording)
    assert main(["run-all", "--out", str(out), "--config", str(ini)]) == 0  # every stage skips
    assert os.sched_getaffinity(0) == allowed
    caller = [cpus for on_main, cpus in placed if on_main]
    workers = [cpus for on_main, cpus in placed if not on_main]
    assert len(caller) == 2 and len(caller[0]) == 1 and caller[1] == allowed
    assert workers and all(cpus == allowed - caller[0] for cpus in workers)
    assert not any(t.name == "hyperfield-hash" for t in threading.enumerate())


def test_cli_import_loads_no_scipy():
    """Importing the CLI loads neither scipy nor numpy; stage bodies load them."""
    src = os.path.dirname(os.path.dirname(hyperfield.__file__))
    code = (
        "import sys, hyperfield.cli\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy'))\n"
        "assert not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def _imported(stderr: str) -> list[str]:
    """The modules that ``-X importtime`` lists on ``stderr``."""
    return [
        line.rpartition("|")[2].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:")
    ]


def test_noop_run_all_loads_no_numpy(tiny_run):
    """A run-all whose stages all skip imports neither numpy nor scipy.

    ``-X importtime`` lists every module the process imports on stderr.
    """
    ini, out = tiny_run
    src = os.path.dirname(os.path.dirname(hyperfield.__file__))
    env = {**os.environ, "PYTHONPATH": src, "HYPERFIELD_LOG": "INFO"}
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "hyperfield.cli", "run-all",
         "--out", str(out), "--config", str(ini)],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    skipped = re.findall(r"pipeline: (\w+): manifest up to date, skipping", result.stderr)
    assert skipped == list(STAGE_ORDER)
    imported = _imported(result.stderr)
    assert "hyperfield.pipeline" in imported
    assert [m for m in imported if m.split(".")[0] in ("numpy", "scipy")] == []


def test_forced_run_all_loads_no_scipy(tiny_run, tmp_path):
    """Every stage runs, segment included, and none of them imports scipy.

    The run works on a hard-linked copy of the tree: a stage never writes
    a file in place, so the shared tree is left as it was.
    """
    ini, clean = tiny_run
    out = tmp_path / "out"
    shutil.copytree(clean, out, copy_function=os.link)
    src = os.path.dirname(os.path.dirname(hyperfield.__file__))
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "hyperfield.cli", "run-all",
         "--out", str(out), "--config", str(ini), "--stage-force"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    imported = _imported(result.stderr)
    assert "hyperfield.segment" in imported
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []


def test_cli_runs_blas_on_one_thread():
    """Importing the CLI pins BLAS to one thread, even over the environment.

    The pin only works if it comes before numpy loads, so the child also
    records the thread variables at the moment numpy is imported.
    """
    src = os.path.dirname(os.path.dirname(hyperfield.__file__))
    envinfo = os.path.join(HYPERBENCH, "envinfo.py")
    code = (
        "import importlib.util, json, os, sys\n"
        "seen = []\n"
        "class Watch:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy':\n"
        "            seen.append({v: os.environ.get(v) for v in"
        " ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')})\n"
        "sys.meta_path.insert(0, Watch())\n"
        "import hyperfield.cli\n"
        "import numpy\n"
        f"spec = importlib.util.spec_from_file_location('envinfo', {envinfo!r})\n"
        "envinfo = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(envinfo)\n"
        "print(json.dumps({'seen': seen, 'threads': envinfo._openblas_threads()}))\n"
    )
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2",
           "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "2"}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    found = json.loads(result.stdout.splitlines()[-1])
    pinned = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    assert found["seen"] == [pinned]
    if found["threads"] is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    assert found["threads"] == 1


def test_traced_cold_run_calls_every_layer_the_benchmark_expects(tmp_path):
    """hyperbench's coverage guard for its ``cold`` workload, on the tiny scene.

    A refactor that stops a stage from reaching a layer function through
    its defining module, where the benchmark's tracer rebinds it, fails here.
    """
    spec = importlib.util.spec_from_file_location("hyperbench_layers", os.path.join(HYPERBENCH, "layers.py"))
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    ini = tmp_path / "config.ini"
    ini.write_text(TINY_INI)
    spans = {}
    for command in ("synth", "run-all"):
        path = tmp_path / f"{command}.json"
        result = subprocess.run(
            [sys.executable, os.path.join(HYPERBENCH, "tracing.py"), str(path), command,
             "--out", str(tmp_path / "out"), "--config", str(ini)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        spans[command] = layers.Spans.load(path)
    run = spans["run-all"]
    assert layers.coverage_problems("cold", run, spans["synth"]) == []

    # one Adam call per optimizer step, the epochs scored inside the
    # trainer's own span, and one records parse for the whole run
    config = load_config(str(ini))
    epochs, batch = config.getint("train", "epochs"), config.getint("train", "batch_size")
    with open(tmp_path / "out" / "train" / "split.csv", newline="") as fh:
        n_train = sum(row["role"] == "train" for row in csv.DictReader(fh))
    assert run.calls("mlp.adam_step") == epochs * -(-n_train // batch)
    forward = [row for row in run.rows if row[2] == "mlp.forward"]
    scoring = [row for row in forward if row[1] is not None and run.by_id[row[1]][2] == "mlp.train"]
    assert len(scoring) == 2 * (epochs + 1)
    assert len(forward) == len(scoring) + run.calls("mlp.predict")
    assert run.calls("subplot.read_records_csv") == 1


def test_traced_retrain_reruns_three_stages_the_benchmark_expects(tmp_path):
    """hyperbench's coverage guard for its ``retrain`` workload, on the tiny scene.

    The tracer counts a stage as run when its manifest changes during its
    own ``run_stage`` call, so the train stage that runs beside the
    deferred skip checks must write its manifest inside that call.
    """
    spec = importlib.util.spec_from_file_location("hyperbench_layers", os.path.join(HYPERBENCH, "layers.py"))
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    ini = tmp_path / "config.ini"
    ini.write_text(TINY_INI)
    out = tmp_path / "out"

    def traced(command, config):
        path = tmp_path / f"{command}.json"
        result = subprocess.run(
            [sys.executable, os.path.join(HYPERBENCH, "tracing.py"), str(path), command,
             "--out", str(out), "--config", str(config)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        return layers.Spans.load(path)

    synth = traced("synth", ini)
    assert main(["run-all", "--out", str(out), "--config", str(ini)]) == 0
    run = traced("run-all", _with_train_seed(ini, tmp_path))
    assert layers.coverage_problems("retrain", run, synth) == []
    assert layers.stages_run(run) == 3


# ---------------------------------------------------------------------------
# flags and exit codes

def test_missing_dependency_names_the_stage(tmp_path, capsys):
    code = main(["evaluate", "--out", str(tmp_path / "fresh")])
    assert code == 3
    err = capsys.readouterr().err
    assert "train" in err and "model.ckpt" in err


@pytest.mark.parametrize(
    "yields, code", [("elsewhere/y.csv", 4), ("segment/y.csv", 3)]
)
def test_missing_input_names_the_stage_whose_directory_holds_it(
    tiny_run, tmp_path, capsys, yields, code
):
    ini, out = tiny_run
    moved = tmp_path / "moved.ini"
    moved.write_text(TINY_INI + f"\n[input]\nyields = {yields}\n")
    assert main(["dataset", "--out", str(out), "--config", str(moved)]) == code
    err = capsys.readouterr().err
    assert yields in err
    assert ("run 'segment' first" in err) == (code == 3)


@pytest.mark.parametrize("pointed", [False, True])
@pytest.mark.parametrize("manifest", [True, False])
def test_an_input_that_is_a_directory_exits_4(memo_run, tmp_path, capsys, pointed, manifest):
    """Named by stage, key and path, whether or not the stage's manifest could match."""
    ini, out = memo_run
    if pointed:
        folder = tmp_path / "yields_dir"
        folder.mkdir()
        key = str(folder)
        ini = tmp_path / "pointed.ini"
        ini.write_text(TINY_INI + f"\n[input]\nyields = {key}\n")
    else:
        key = "synth/yields.csv"
        folder = out / key
        folder.unlink()
        folder.mkdir()
    if not manifest:
        (out / "manifests" / "dataset.json").unlink()
    assert main(["run-all", "--out", str(out), "--config", str(ini)]) == 4
    err = capsys.readouterr().err
    assert f"stage 'dataset': input {key!r} is not a regular file: {out / key}" in err


@pytest.mark.parametrize("command", ["gridmap", "run-all"])
def test_a_manifests_entry_that_is_not_a_directory_exits_2(memo_run, capsys, command):
    """Found before any stage runs: a forced stage used to swap its outputs
    in and then exit 1 writing its manifest."""
    ini, out = memo_run
    shutil.rmtree(out / "manifests")
    (out / "manifests").write_text("keep\n")
    before = _tree_bytes(out)
    assert main([command, "--out", str(out), "--config", str(ini), "--stage-force"]) == 2
    assert f"{out / 'manifests'} is not a directory" in capsys.readouterr().err
    assert _tree_bytes(out) == before
    assert _leftovers(out) == []


@pytest.mark.parametrize("below", [False, True])
@pytest.mark.parametrize("command", ["synth", "calibrate", "run-all"])
def test_an_out_that_is_not_a_directory_exits_2(tmp_path, capsys, command, below):
    """A file where the output directory, or one of its parents, should be."""
    blocker = tmp_path / "file"
    blocker.write_text("keep\n")
    out = blocker / "x" if below else blocker
    assert main([command, "--out", str(out)]) == 2
    assert f"{blocker} is not a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert blocker.read_text() == "keep\n"


def test_run_all_without_synth_names_synth(tmp_path, capsys):
    code = main(["run-all", "--out", str(tmp_path / "fresh")])
    assert code == 3
    assert "'synth'" in capsys.readouterr().err


def test_bad_config_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[bogus]\nx = 1\n")
    assert main(["segment", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert main(["segment", "--config", str(tmp_path / "no.ini"),
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_config_file_exits_2_naming_it(tmp_path, capsys, kind):
    config = tmp_path / "config.ini"
    if kind == "directory":
        config.mkdir()
    else:
        config.write_bytes(b"\xff\xfe[train]\nseed = 1\n")
    out = tmp_path / "out"
    assert main(["run-all", "--config", str(config), "--out", str(out)]) == 2
    assert f"error: cannot read config {config}: " in capsys.readouterr().err
    assert not out.exists()


def _error_classes():
    return [
        value for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, errors.HyperfieldError)
        and value is not errors.HyperfieldError
    ]


_FAMILY_CODES = {
    errors.ConfigError: 2,
    errors.DependencyError: 3,
    errors.DataError: 4,
    errors.DivergenceError: 5,
}


@pytest.mark.parametrize("error", _error_classes(), ids=lambda error: error.__name__)
def test_each_error_class_exits_with_its_family_code(monkeypatch, tmp_path, capsys, error):
    [code] = [code for family, code in _FAMILY_CODES.items() if issubclass(error, family)]

    def failing(*args):
        raise error("injected")

    monkeypatch.setattr(cli, "run_all", failing)
    assert main(["run-all", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == "error: injected\n"


def test_the_families_are_the_only_error_classes():
    """A more specific class below a family would be a new decision, made here."""
    assert set(_error_classes()) == set(_FAMILY_CODES)


def test_flag_validation():
    assert main(["synth", "--seed", "-1"]) == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("snr_db", "inf"),
        ("snr_db", "nan"),
        ("margin_boost", "nan"),
        ("margin_boost", "inf"),
        ("yield_per_sl_pixel", "inf"),
        ("yield_noise_sigma", "nan"),
    ],
)
def test_non_finite_synth_floats_exit_2_naming_the_key(tmp_path, capsys, key, value):
    ini = tmp_path / "config.ini"
    ini.write_text(f"[synth]\n{key} = {value}\n")
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--config", str(ini)]) == 2
    assert f"{key} = {value} is not a finite number" in capsys.readouterr().err
    assert not (out / "synth").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("synth", "window_px", "1"),
        ("dataset", "window_px", "1"),
        ("segment", "se_rows", "0"),
        ("segment", "se_cols", "-1"),
        ("gridmap", "pitch_row_px", "0"),
        ("gridmap", "pitch_col_px", "-2.5"),
        ("endmembers", "count", "1"),
        ("synth", "seed", "-1"),
        ("synth", "reference_seed", "-1"),
        ("split", "seed", "-1"),
        ("train", "seed", "-1"),
        ("dataset", "middle_tau", "nan"),
        ("dataset", "middle_tau", "-1"),
        ("dataset", "middle_tau", "1e400"),
    ],
)
def test_out_of_range_sizes_exit_2_naming_the_key(memo_run, tmp_path, capsys, section, key, value):
    """synth reads no data file, and run-all reruns only the stage the key is for.

    Sizes, seeds and ``middle_tau`` are checked alike: a negative seed
    would otherwise reach numpy's ``SeedSequence`` and crash.
    """
    assert _run_with_key(memo_run, tmp_path, section, key, value) == 2
    assert f"[{section}] {key} = " in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "nan", "1e400", "1"])
def test_sl_threshold_outside_0_1_exits_2_before_unmix_runs(memo_run, tmp_path, capsys, value):
    """Unchecked, ``-1`` marked every pixel foreground and exited 0, and the
    others left no foreground, so ``dataset`` exited 4."""
    before = _manifest_mtimes(memo_run[1])
    assert _run_with_key(memo_run, tmp_path, "unmix", "sl_threshold", value) == 2
    assert "[unmix] sl_threshold = " in capsys.readouterr().err
    assert _manifest_mtimes(memo_run[1]) == before


@pytest.mark.parametrize("command", ["unmix", "report"])
def test_spike_label_equal_to_leaf_label_exits_2_naming_both_keys(
    memo_run, tmp_path, capsys, command
):
    """One plane named twice turned the rule into 2 x leaf > threshold:
    ``unmix`` and ``report`` both exited 0."""
    memo_ini, out = memo_run
    ini = tmp_path / "config.ini"
    ini.write_text(memo_ini.read_text() + "\n[unmix]\nspike_label = leaf\n")
    before = _tree_bytes(out)
    assert main([command, "--out", str(out), "--config", str(ini), "--stage-force"]) == 2
    err = capsys.readouterr().err
    assert "[unmix] spike_label and leaf_label are both 'leaf'" in err
    assert _tree_bytes(out) == before


def _run_with_key(memo_run, tmp_path, section, key, value) -> int:
    """``synth`` or ``run-all`` on the ``memo_run`` tree with ``[section] key = value``."""
    memo_ini, out = memo_run
    text = memo_ini.read_text()
    if f"[{section}]\n" in text:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    else:
        text += f"\n[{section}]\n{key} = {value}\n"
    ini = tmp_path / "config.ini"
    ini.write_text(text)
    command = "synth" if section == "synth" else "run-all"
    return main([command, "--out", str(out), "--config", str(ini)])


@pytest.mark.parametrize(
    "key, value",
    [
        ("learning_rate", "nan"),
        ("learning_rate", "1e400"),
        ("eps", "-1"),
        ("eps", "1e400"),
        ("eps", "1e-50"),  # zero in the trainer's float32
    ],
)
def test_bad_learning_rate_or_eps_exits_2_naming_it(memo_run, tmp_path, capsys, key, value):
    assert _run_with_key(memo_run, tmp_path, "train", key, value) == 2
    assert f"{key} = " in capsys.readouterr().err


@pytest.mark.parametrize("key", ["chunk", "threads"])
def test_removed_unmix_speed_keys_exit_2(tmp_path, capsys, key):
    old = tmp_path / "old.ini"
    old.write_text(TINY_INI + f"\n[unmix]\n{key} = 1\n")
    assert main(["unmix", "--out", str(tmp_path / "out"), "--config", str(old)]) == 2
    assert f"unknown config value [unmix] {key}" in capsys.readouterr().err


def test_data_error_exits_4(tiny_run, tmp_path, capsys):
    ini, out = tiny_run
    broken = tmp_path / "broken.ini"
    broken.write_text(TINY_INI + f"\n[input]\nyields = {tmp_path / 'y.csv'}\n")
    (tmp_path / "y.csv").write_text("plot_id,yield_grams\nP0000,not-a-number\n")
    code = main(["dataset", "--out", str(out), "--config", str(broken),
                 "--stage-force"])
    assert code == 4
    # restore the dataset stage outputs for later tests
    assert main(["run-all", "--out", str(out), "--config", str(ini)]) == 0


@pytest.mark.parametrize("value", ["-5", "nan", "inf"])
def test_negative_or_non_finite_yield_exits_4(tiny_run, tmp_path, capsys, value):
    ini, out = tiny_run
    broken = tmp_path / "broken.ini"
    broken.write_text(TINY_INI + f"\n[input]\nyields = {tmp_path / 'y.csv'}\n")
    lines = (out / "synth" / "yields.csv").read_text().splitlines()
    lines[2] = lines[2].split(",")[0] + "," + value
    (tmp_path / "y.csv").write_text("\n".join(lines) + "\n")
    code = main(["dataset", "--out", str(out), "--config", str(broken),
                 "--stage-force"])
    assert code == 4
    assert "y.csv: line 3" in capsys.readouterr().err
    assert main(["run-all", "--out", str(out), "--config", str(ini)]) == 0


@pytest.mark.parametrize("row", ["7", "seven,train"])
def test_malformed_split_row_exits_4(memo_run, capsys, row):
    ini, out = memo_run
    split = out / "train" / "split.csv"
    split.write_text(split.read_text() + row + "\n")
    lines = len(split.read_text().splitlines())
    assert main(["evaluate", "--out", str(out), "--config", str(ini)]) == 4
    assert f"split.csv: line {lines}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, message",
    [
        ("-1,test", "index -1 outside the 192 records"),
        ("192,test", "index 192 outside the 192 records"),
        ("0,test", "index 0 listed twice"),
    ],
    ids=["negative", "past-the-end", "duplicate"],
)
def test_split_index_out_of_range_or_repeated_exits_4(memo_run, capsys, row, message):
    ini, out = memo_run
    split = out / "train" / "split.csv"
    assert len(split.read_text().splitlines()) == 193
    split.write_text(split.read_text() + row + "\n")
    assert main(["evaluate", "--out", str(out), "--config", str(ini)]) == 4
    assert f"split.csv: line 194: {message}" in capsys.readouterr().err


_PAST_EDGE = "plot 'P0000' box (42,18,30,9000) exceeds cube 212x428"
_NEGATIVE = "plot 'P0000' box (-42,18,30,90) exceeds cube 212x428"


@pytest.mark.parametrize(
    "damage, command, message",
    [
        ("rename", "dataset", "missing column(s) grid_col"),
        ("short", "dataset", "line 2: expected 7 fields"),
        ("value", "dataset",
         "line 3: top, left, height, width, grid_row, grid_col must be integers"),
        ("duplicate", "dataset", "line 18: duplicate plot id 'P0000'"),
        ("header-only", "dataset", "assignment.csv: no data rows"),
        ("unsafe-id", "dataset",
         "line 2: plot id '../P0000' is unsafe as a file name or CSV field"),
        ("past-edge", "dataset", _PAST_EDGE),
        ("negative", "dataset", _NEGATIVE),
        ("past-edge", "report", _PAST_EDGE),
        ("negative", "report", _NEGATIVE),
    ],
    ids=["rename", "short", "value", "duplicate", "header-only", "unsafe-id", "past-edge",
         "negative", "past-edge-report", "negative-report"],
)
def test_malformed_assignment_exits_4(memo_run, capsys, damage, command, message):
    """Also from report, which crops each plot's box out of the abundances."""
    ini, out = memo_run
    assignment = out / "gridmap" / "assignment.csv"
    lines = assignment.read_text().splitlines()
    assert len(lines) == 17
    if damage == "rename":
        lines[0] = lines[0].replace("grid_col", "col")
    elif damage == "short":
        lines[1] = lines[1].rsplit(",", 1)[0]
    elif damage == "value":
        lines[2] = lines[2].replace(",", ",x", 1)
    elif damage == "duplicate":
        lines.append(lines[1])
    elif damage == "unsafe-id":
        lines[1] = "../" + lines[1]
    elif damage == "past-edge":
        lines[1] = lines[1].replace(",30,90,", ",30,9000,")
    elif damage == "negative":
        lines[1] = lines[1].replace(",42,", ",-42,")
    else:
        lines = lines[:1]
    assignment.write_text("\n".join(lines) + "\n")
    assert main([command, "--out", str(out), "--config", str(ini)]) == 4
    err = capsys.readouterr().err
    assert "assignment.csv" in err and message in err


@pytest.mark.parametrize("metric", ["split", "plot_rmse_g"])
def test_report_names_a_missing_metric(memo_run, capsys, metric):
    ini, out = memo_run
    metrics = out / "evaluate" / "metrics.csv"
    lines = metrics.read_text().splitlines()
    metrics.write_text("\n".join(l for l in lines if l.split(",")[0] != metric) + "\n")
    assert main(["report", "--out", str(out), "--config", str(ini)]) == 4
    assert f"metrics.csv: missing metric(s) {metric}" in capsys.readouterr().err


def test_report_names_a_non_numeric_metric(memo_run, capsys):
    ini, out = memo_run
    metrics = out / "evaluate" / "metrics.csv"
    text = metrics.read_text()
    metrics.write_text(text.replace("\nplot_r2,", "\nplot_r2,x"))
    assert main(["report", "--out", str(out), "--config", str(ini)]) == 4
    assert "metrics.csv: metric plot_r2 is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_report_names_a_non_finite_metric(memo_run, capsys, value):
    ini, out = memo_run
    summary = (out / "report" / "summary.txt").read_bytes()
    metrics = out / "evaluate" / "metrics.csv"
    lines = metrics.read_text().splitlines()
    metrics.write_text("\n".join(
        f"subplot_r2,{value}" if line.startswith("subplot_r2,") else line for line in lines
    ) + "\n")
    assert main(["report", "--out", str(out), "--config", str(ini)]) == 4
    assert f"metrics.csv: metric subplot_r2 is {float(value)}, not finite" in \
        capsys.readouterr().err
    assert (out / "report" / "summary.txt").read_bytes() == summary


@pytest.mark.parametrize(
    "column, value, message",
    [
        (None, None, "records.csv: no feature column"),
        (4, "-5.0", "records.csv: line 2: yield_g -5.0 is below 0"),
        (1, "-3", "records.csv: line 2: window_row -3 is below 0"),
        (2, "-1", "records.csv: line 2: window_col -1 is below 0"),
        (3, "0", "records.csv: line 2: n_sl 0 is below 1"),
    ],
    ids=["no-features", "negative-yield", "negative-window-row", "negative-window-col", "no-sl"],
)
def test_damaged_records_exit_4_naming_the_file(memo_run, capsys, column, value, message):
    ini, out = memo_run
    records = out / "dataset" / "records.csv"
    rows = [line.split(",") for line in records.read_text().splitlines()]
    if column is None:
        rows = [row[:5] for row in rows]
    else:
        rows[1][column] = value
    records.write_text("".join(",".join(row) + "\n" for row in rows))
    assert main(["train", "--out", str(out), "--config", str(ini), "--stage-force"]) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "rel, damage, message",
    [
        (
            "dataset/records.csv",
            lambda lines: [lines[0], lines[1].rsplit(",", 1)[0], *lines[2:]],
            "records.csv: line 2: expected 386 fields, got 385",
        ),
        (
            "evaluate/metrics.csv",
            lambda lines: [*lines, "plot_r2,0.99"],
            "metrics.csv: line 12: duplicate metric 'plot_r2'",
        ),
    ],
    ids=["records-short-row", "metrics-repeated"],
)
def test_report_rejects_a_short_record_or_a_repeated_metric(
    memo_run, capsys, rel, damage, message
):
    ini, out = memo_run
    path = out / rel
    path.write_text("\n".join(damage(path.read_text().splitlines())) + "\n")
    assert main(["report", "--out", str(out), "--config", str(ini)]) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncate", "header", "short-header"])
def test_damaged_mask_exits_4(memo_run, capsys, damage):
    ini, out = memo_run
    mask = out / "unmix" / "sl_mask.pbm"
    data = mask.read_bytes()
    if damage == "truncate":
        mask.write_bytes(data[: len(data) // 2])
    elif damage == "header":
        magic, dims, payload = data.split(b"\n", 2)
        mask.write_bytes(b"\n".join([magic, dims + b".5", payload]))
    else:
        mask.write_bytes(b"P4\n12")
    assert main(["dataset", "--out", str(out), "--config", str(ini)]) == 4
    assert "sl_mask.pbm" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "missing column(s) role, actual_g, predicted_g"),
        ("plot_id,window_row\nP0000,0\n", "missing column(s) role, actual_g"),
        ("role,actual_g,predicted_g\ntest,1.0\n", "line 2: expected 3 fields, got 2"),
        (
            "role,actual_g,predicted_g\ntest,1.0,2.0\ntest,x,2.0\n",
            "line 3: non-numeric value 'x' in actual_g",
        ),
        ("role,actual_g,predicted_g\ntest,1.0,x\n", "line 2: non-numeric value 'x' in predicted_g"),
        ("role,actual_g,predicted_g\ntest,1.0,nan\n", "line 2: non-finite value nan in predicted_g"),
        ("role,actual_g,predicted_g\ntest,1.0,2.0\nbogus,1.0,2.0\n", "line 3: unknown role 'bogus'"),
        ("role,actual_g,predicted_g\n,1.0,2.0\n", "line 2: unknown role ''"),
    ],
    ids=["empty", "no-columns", "short-row", "actual-x", "predicted-x", "predicted-nan",
         "unknown-role", "empty-role"],
)
def test_malformed_predictions_exit_4(memo_run, capsys, text, message):
    ini, out = memo_run
    (out / "evaluate" / "predictions.csv").write_text(text)
    assert main(["report", "--out", str(out), "--config", str(ini)]) == 4
    err = capsys.readouterr().err
    assert "predictions.csv" in err and message in err


def test_report_rejects_a_records_plot_that_no_assignment_row_names(memo_run, capsys):
    """train and evaluate take a renamed plot id as it is; report joins the
    records to the plots it maps."""
    ini, out = memo_run
    records = out / "dataset" / "records.csv"
    lines = records.read_text().splitlines()
    lines[1] = "ZZZ" + lines[1][lines[1].index(","):]
    records.write_text("\n".join(lines) + "\n")
    for stage in ("train", "evaluate"):
        assert main([stage, "--out", str(out), "--config", str(ini)]) == 0
    summary = (out / "report" / "summary.txt").read_bytes()
    assert main(["report", "--out", str(out), "--config", str(ini)]) == 4
    assert f"records.csv: plot 'ZZZ' has no row in {out / 'gridmap' / 'assignment.csv'}" in \
        capsys.readouterr().err
    assert (out / "report" / "summary.txt").read_bytes() == summary


@pytest.mark.parametrize("stage", ["train", "evaluate", "report"])
def test_unsafe_plot_id_in_records_exits_4(memo_run, capsys, stage):
    """A plot id that would break the predictions row stops every reader of records.csv."""
    ini, out = memo_run
    records = out / "dataset" / "records.csv"
    lines = records.read_text().splitlines()
    lines[1] = '"a,b"' + lines[1][lines[1].index(","):]
    records.write_text("\n".join(lines) + "\n")
    assert main([stage, "--out", str(out), "--config", str(ini), "--stage-force"]) == 4
    assert "records.csv: line 2: plot id 'a,b' is unsafe" in capsys.readouterr().err


@pytest.mark.parametrize(
    "damage, message",
    [("rename", "missing column(s) width"), ("value", "line 3: "), ("short", "line 2: ")],
    ids=["rename", "value", "short"],
)
def test_malformed_boxes_exit_4(memo_run, capsys, damage, message):
    ini, out = memo_run
    boxes = out / "segment" / "boxes.csv"
    lines = boxes.read_text().splitlines()
    if damage == "rename":
        lines[0] = lines[0].replace("width", "wide")
    elif damage == "value":
        lines[2] = lines[2].replace(",", ",x", 1)
    else:
        lines[1] = lines[1].rsplit(",", 1)[0]
    boxes.write_text("\n".join(lines) + "\n")
    assert main(["gridmap", "--out", str(out), "--config", str(ini)]) == 4
    err = capsys.readouterr().err
    assert "boxes.csv" in err and message in err


# plot ids that would name a file outside its directory, or break a CSV row
UNSAFE_PLOT_IDS = ["", ".", "..", "../../../escaped", "a/b", "a\\b", "a,b", 'a"b', "a\tb", "a\x7fb"]


def _csv_field(text: str) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([text])
    return buf.getvalue()


@pytest.mark.parametrize(
    "damage, message",
    [
        ("rename", "missing column(s) field_col"),
        ("short", "line 2: expected 3 fields"),
        ("value", "line 3: field_row, field_col must be integers"),
        ("position", "line 3: plots 'P0000' and 'P0001' share field position (0, 0)"),
        ("negative-row", "line 3: field position (-1, 1) is below 0"),
        ("negative-col", "line 3: field position (0, -1) is below 0"),
        *[
            (("id", plot_id), f"line 17: plot id {plot_id!r} is unsafe as a file name")
            for plot_id in UNSAFE_PLOT_IDS
        ],
    ],
    ids=["rename", "short", "value", "position", "negative-row", "negative-col",
         *(f"id-{repr(p)[1:-1]}" for p in UNSAFE_PLOT_IDS)],
)
def test_malformed_plot_map_exits_4(memo_run, tmp_path, capsys, damage, message):
    ini, out = memo_run
    plot_map = out / "synth" / "plot_map.csv"
    lines = plot_map.read_text().splitlines()
    if damage == "rename":
        lines[0] = lines[0].replace("field_col", "column")
    elif damage == "short":
        lines[1] = lines[1].rsplit(",", 1)[0]
    elif damage == "value":
        lines[2] = lines[2] + ".5"
    elif damage == "position":
        lines[2] = lines[2].split(",")[0] + "," + lines[1].split(",", 1)[1]
    elif damage == "negative-row":
        lines[2] = lines[2].split(",")[0] + ",-1,1"
    elif damage == "negative-col":
        lines[2] = lines[2].split(",")[0] + ",0,-1"
    else:  # rename the last plot, in the field book and in the yields
        old, position = lines[-1].split(",", 1)
        new = _csv_field(damage[1])
        lines[-1] = f"{new},{position}"
        yields = out / "synth" / "yields.csv"
        yields.write_text(yields.read_text().replace(f"\n{old},", f"\n{new},"))
    plot_map.write_text("\n".join(lines) + "\n")
    assert main(["run-all", "--out", str(out), "--config", str(ini)]) == 4
    err = capsys.readouterr().err
    assert "plot_map.csv" in err and message in err
    assert os.listdir(tmp_path) == ["out"]


# an ASCII locale: no coercion to C.UTF-8 and no UTF-8 mode, so open()
# without an encoding, and the file system, encode to ASCII
ASCII_LOCALE = {"PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C"}


def _cli(args, env):
    """``python -m hyperfield.cli`` with ``args``, with ``env`` over this environment."""
    src = os.path.dirname(os.path.dirname(hyperfield.__file__))
    return subprocess.run(
        [sys.executable, "-m", "hyperfield.cli", *map(str, args)],
        env={**os.environ, "PYTHONPATH": src, **env}, capture_output=True,
    )


def test_the_ascii_locale_encodes_file_names_in_ascii():
    code = "import sys; print(sys.getfilesystemencoding())"
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, **ASCII_LOCALE},
                            capture_output=True, text=True)
    assert result.stdout.strip() == "ascii"


@pytest.mark.parametrize("env, code", [(ASCII_LOCALE, 4), ({}, 0)], ids=["ascii", "default"])
def test_a_plot_id_the_file_system_cannot_encode_exits_4(memo_run, env, code):
    """``Pé101`` names ``report/sl_maps/Pé101.ppm`` only where the file system
    can encode it; elsewhere ``gridmap`` stops at the plot map, naming it."""
    ini, out = memo_run
    plot_map = out / "synth" / "plot_map.csv"
    lines = plot_map.read_text(encoding="utf-8").splitlines()
    old, position = lines[-1].split(",", 1)
    lines[-1] = f"Pé101,{position}"
    plot_map.write_text("\n".join(lines) + "\n", encoding="utf-8")
    yields = out / "synth" / "yields.csv"
    text = yields.read_text(encoding="utf-8")
    yields.write_text(text.replace(f"\n{old},", "\nPé101,"), encoding="utf-8")
    result = _cli(["run-all", "--out", out, "--config", ini], env)
    assert result.returncode == code, result.stderr.decode("utf-8", "backslashreplace")
    if code:
        assert b"plot_map.csv: line 17: plot id 'P\\xe9101' is unsafe" in result.stderr
    else:
        assert "Pé101.ppm" in os.listdir(out / "report" / "sl_maps")
        assert "\nPé101,".encode() in (out / "gridmap" / "assignment.csv").read_bytes()


def test_a_non_ascii_library_label_is_written_in_utf8_in_any_locale(tmp_path):
    library = tmp_path / "library.csv"
    library.write_text("label,400.0,500.0\nsolé,0.1,0.2\nleaf,0.3,0.4\n", encoding="utf-8")
    ini = tmp_path / "csv.ini"
    ini.write_text(f"[endmembers]\nsource = csv\ncsv = {library}\n")
    out = tmp_path / "out"
    result = _cli(["endmembers", "--out", out, "--config", ini], ASCII_LOCALE)
    assert result.returncode == 0, result.stderr.decode("utf-8", "backslashreplace")
    written = (out / "endmembers" / "endmembers.csv").read_bytes()
    assert written == "label,400.0,500.0\r\nsolé,0.1,0.2\r\nleaf,0.3,0.4\r\n".encode()


@pytest.mark.parametrize(
    "damage, message",
    [
        ("value", "line 3: non-numeric value"),
        ("short", "line 2: expected 2 fields, got 1"),
        ("nan-kept", "line 61: non-finite value"),
        ("nan-dropped", "line 6: non-finite value"),
        ("shifted", "panel's 240 wavelengths do not match the scene's 240 within 0.05 nm"),
        ("one-off", "panel's 240 wavelengths do not match the scene's 240 within 0.05 nm"),
    ],
    ids=["value", "short", "nan-kept", "nan-dropped", "shifted", "one-off"],
)
def test_malformed_panel_csv_exits_4(memo_run, capsys, damage, message):
    ini, out = memo_run
    panel = out / "synth" / "panel.csv"
    lines = panel.read_text().splitlines()
    if damage == "value":
        lines[2] = lines[2].split(",")[0] + ",bright"
    elif damage == "short":
        lines[1] = lines[1].split(",")[0]
    elif damage in ("shifted", "one-off"):
        # every wavelength 50 nm too long, or one band 0.06 nm too short
        rows = range(1, len(lines)) if damage == "shifted" else [60]
        shift = 50.0 if damage == "shifted" else -0.06
        for row in rows:
            wavelength, value = lines[row].split(",")
            lines[row] = f"{float(wavelength) + shift!r},{value}"
    else:
        # line 61 is 529.5 nm, inside the kept range; line 6 is 411.0 nm, outside
        row = 60 if damage == "nan-kept" else 5
        lines[row] = lines[row].split(",")[0] + ",nan"
    panel.write_text("\n".join(lines) + "\n")
    assert main(["calibrate", "--out", str(out), "--config", str(ini)]) == 4
    err = capsys.readouterr().err
    assert "panel.csv" in err and message in err


@pytest.mark.parametrize(
    "damage, message",
    [
        ("wavelength", "line 1: non-numeric wavelength"),
        ("value", "line 2: non-numeric value"),
        ("short", "line 3: expected "),
        ("empty-label", "line 3: label '' is empty or holds a comma"),
        ("comma-label", "line 3: label 'a,b' is empty or holds a comma"),
        ("repeated-label", "line 3: duplicate label "),
    ],
    ids=["wavelength", "value", "short", "empty-label", "comma-label", "repeated-label"],
)
def test_malformed_endmembers_csv_exits_4(memo_run, capsys, damage, message):
    ini, out = memo_run
    ems = out / "endmembers" / "endmembers.csv"
    lines = ems.read_text().splitlines()
    if damage == "wavelength":
        lines[0] = lines[0].replace(",", ",nm", 1)
    elif damage == "value":
        lines[1] = lines[1].replace(",", ",x", 1)
    elif damage.endswith("-label"):
        label = {"empty-label": "", "comma-label": '"a,b"'}.get(damage, lines[1].split(",")[0])
        lines[2] = label + lines[2][lines[2].index(","):]
    else:
        lines[2] = lines[2].rsplit(",", 1)[0]
    ems.write_text("\n".join(lines) + "\n")
    assert main(["unmix", "--out", str(out), "--config", str(ini)]) == 4
    err = capsys.readouterr().err
    assert "endmembers.csv" in err and message in err


# Every table a stage reads, the stage that reads it, and whether rows
# carry a key (plot id, split index, metric name) that must not repeat.
_TABLES = [
    ("synth/panel.csv", "calibrate", False),
    ("synth/plot_map.csv", "gridmap", True),
    ("segment/boxes.csv", "gridmap", False),
    ("endmembers/endmembers.csv", "unmix", False),
    ("synth/yields.csv", "dataset", True),
    ("gridmap/assignment.csv", "dataset", True),
    ("train/split.csv", "evaluate", True),
    ("dataset/records.csv", "report", False),
    ("gridmap/assignment.csv", "report", True),
    ("evaluate/metrics.csv", "report", True),
    ("evaluate/predictions.csv", "report", False),
]
_TABLE_DAMAGES = {
    "empty": lambda lines: [],
    "header-only": lambda lines: lines[:1],
    "short-row": lambda lines: [lines[0], lines[1].rsplit(",", 1)[0], *lines[2:]],
    "long-row": lambda lines: [lines[0], lines[1] + ",0", *lines[2:]],
    "repeated-row": lambda lines: [*lines[:2], *lines[1:]],
}


@pytest.mark.parametrize(
    "rel, stage, damage",
    [
        (rel, stage, damage)
        for rel, stage, keyed in _TABLES
        for damage in _TABLE_DAMAGES
        if keyed or damage != "repeated-row"
    ],
)
def test_damaged_table_exits_4(memo_base, capsys, rel, stage, damage):
    """Damages ``memo_base`` in place and puts the original bytes back.

    ``--stage-force`` skips the manifest check, so no case hashes the
    cubes. Every reader fails before its stage writes anything.
    """
    ini, out = memo_base
    path = out / rel
    original = path.read_bytes()
    lines = original.decode().splitlines()
    try:
        path.write_text("".join(line + "\n" for line in _TABLE_DAMAGES[damage](lines)))
        code = main([stage, "--out", str(out), "--config", str(ini), "--stage-force"])
    finally:
        path.write_bytes(original)
    assert code == 4
    assert path.name in capsys.readouterr().err


# Each stage that reads a cube, and the stem of the cube it reads.
_CUBE_READERS = [
    ("calibrate", "synth/scene"),
    ("segment", "calibrate/reflectance"),
    ("unmix", "calibrate/reflectance"),
    ("dataset", "calibrate/reflectance"),
    ("endmembers", "synth/reference"),
    ("report", "unmix/abundances"),
]


def _swap_first_wavelengths(blob):
    lines = blob.decode().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("wavelength"))
    key, _, values = lines[at].partition("=")
    first, second, *rest = values.split(",")
    lines[at] = key + "=" + ",".join([second, first, *rest])
    return "".join(line + "\n" for line in lines).encode()


_HEADER_DAMAGES = {
    "not-utf8": lambda blob: blob[: len(blob) // 2] + b"\xff" + blob[len(blob) // 2 :],
    "units": lambda blob: re.sub(rb"(?m)^units = .*$", b"units = counts", blob),
    "label-count": lambda blob: re.sub(rb"(?m)^band labels = .*\n", b"", blob)
    + b"band labels = only\n",
    "wavelength-order": _swap_first_wavelengths,
}


@pytest.mark.parametrize("stage, stem", _CUBE_READERS)
@pytest.mark.parametrize("damage", _HEADER_DAMAGES)
def test_damaged_cube_header_exits_4_naming_it(memo_base, capsys, stage, stem, damage):
    """Damages ``memo_base`` in place and puts the original bytes back."""
    ini, out = memo_base
    path = out / f"{stem}.hdr"
    original = path.read_bytes()
    try:
        path.write_bytes(_HEADER_DAMAGES[damage](original))
        code = main([stage, "--out", str(out), "--config", str(ini), "--stage-force"])
    finally:
        path.write_bytes(original)
    assert code == 4
    assert f"error: {path}: " in capsys.readouterr().err


def test_forced_run_all_checks_each_sample_once(memo_run, monkeypatch):
    """Bytes passed to the finite check, per stage and cube, equal the cube's payload.

    Calibrate also reads and checks the scene's panel rows before its
    pass. ``to_reflectance`` checks what it computes under the name
    ``reflectance``: in calibrate, the payload it writes and the panel's
    kept bands, which calibrate computes first and does not write.
    """
    ini, out = memo_run
    checked: dict[tuple[str, str], int] = {}
    stages = []
    run_stage, check_finite = pipeline.run_stage, cube_module._check_finite

    def tracking(name, *args, **kwargs):
        stages.append(name)
        return run_stage(name, *args, **kwargs)

    def counting(block, source):
        key = stages[-1], os.path.relpath(source, out) if os.path.isabs(source) else source
        checked[key] = checked.get(key, 0) + block.nbytes
        check_finite(block, source)

    monkeypatch.setattr(pipeline, "run_stage", tracking)
    monkeypatch.setattr(cube_module, "_check_finite", counting)
    assert main(["run-all", "--out", str(out), "--config", str(ini), "--stage-force"]) == 0

    def size(rel):
        return os.path.getsize(out / rel)

    _, _, height, width = load_config(str(ini)).panel_region()
    header = cube_module._read_header(out / "calibrate" / "reflectance")[0]
    panel_bytes = height * width * header.bands * header.dtype.itemsize
    scene = cube_module._read_header(out / "synth" / "scene")[0]
    panel_rows = height * scene.cols * scene.bands * scene.dtype.itemsize
    reflectance = os.path.join("calibrate", "reflectance.raw")
    assert checked == {
        ("calibrate", os.path.join("synth", "scene.raw")): size("synth/scene.raw") + panel_rows,
        ("calibrate", "reflectance"): size(reflectance) + panel_bytes,
        ("segment", reflectance): size(reflectance),
        ("endmembers", os.path.join("synth", "reference.raw")): size("synth/reference.raw"),
        ("unmix", reflectance): size(reflectance),
        ("dataset", reflectance): size(reflectance),
        ("report", os.path.join("unmix", "abundances.raw")): size("unmix/abundances.raw"),
    }


def test_forced_run_all_reads_each_payload_byte_once(memo_run, monkeypatch):
    """Bytes read through ``CubeStream._pread``, per stage and cube, equal
    the cube's payload; calibrate also reads the scene's panel rows before
    its pass."""
    ini, out = memo_run
    read: dict[tuple[str, str], int] = {}
    stages = []
    run_stage, pread = pipeline.run_stage, cube_module.CubeStream._pread

    def tracking(name, *args, **kwargs):
        stages.append(name)
        return run_stage(name, *args, **kwargs)

    def counting(stream, buffer, offset):
        key = stages[-1], os.path.relpath(stream.raw_path, out).replace(os.sep, "/")
        read[key] = read.get(key, 0) + buffer.nbytes
        pread(stream, buffer, offset)

    monkeypatch.setattr(pipeline, "run_stage", tracking)
    monkeypatch.setattr(cube_module.CubeStream, "_pread", counting)
    assert main(["run-all", "--out", str(out), "--config", str(ini), "--stage-force"]) == 0

    def size(rel):
        return os.path.getsize(out / rel)

    _, _, height, _ = load_config(str(ini)).panel_region()
    scene = cube_module._read_header(out / "synth" / "scene")[0]
    panel_rows = height * scene.cols * scene.bands * scene.dtype.itemsize
    reflectance = "calibrate/reflectance.raw"
    assert read == {
        ("calibrate", "synth/scene.raw"): size("synth/scene.raw") + panel_rows,
        ("segment", reflectance): size(reflectance),
        ("endmembers", "synth/reference.raw"): size("synth/reference.raw"),
        ("unmix", reflectance): size(reflectance),
        ("dataset", reflectance): size(reflectance),
        ("report", "unmix/abundances.raw"): size("unmix/abundances.raw"),
    }


def test_forced_unmix_solves_each_strip_in_blocks_of_at_most_its_bytes(memo_run, monkeypatch):
    """Each strip's pixels are solved exactly once, in order, in blocks whose
    float64 bytes would be at most the strip's own: two for a float32 strip.
    A block's correlations come from float64 copies of its pixels, in order,
    none larger than one image row."""
    ini, out = memo_run
    header, _ = cube_module._read_header(out / "calibrate" / "reflectance")
    row_bytes = header.cols * header.bands * 8
    strips, blocks, copies, current = [], [], [], {}
    read_strips = cube_module.CubeStream.read_strips
    correlate, solve = unmix._correlate, unmix._solve_block

    def recording(stream, *args):
        for top, strip in read_strips(stream, *args):
            pixels = strip.data.reshape(-1, strip.bands)
            strips.append((len(pixels), strip.data.nbytes))
            blocks.append([])
            current.update(pixels=pixels, copied=0, solved=0)
            yield top, strip

    def copying(X, W):
        copied = current["copied"]
        assert X.dtype == np.float64 and X.flags.f_contiguous and X.nbytes <= row_bytes
        assert np.array_equal(X, current["pixels"][copied : copied + X.shape[1]].T)
        current["copied"] += X.shape[1]
        copies.append(X.shape[1])
        return correlate(X, W)

    def counting(T, sq, solvers):
        n = T.shape[1]
        assert sq.shape == (n,) and n * header.bands * 8 <= strips[-1][1]
        current["solved"] += n
        assert current["solved"] == current["copied"]  # the block's pixels, all copied
        blocks[-1].append(n)
        return solve(T, sq, solvers)

    monkeypatch.setattr(cube_module.CubeStream, "read_strips", recording)
    monkeypatch.setattr(unmix, "_correlate", copying)
    monkeypatch.setattr(unmix, "_solve_block", counting)
    assert main(["unmix", "--out", str(out), "--config", str(ini), "--stage-force"]) == 0
    assert len(strips) == 9  # 25 float64 rows of 428 x 190 samples fit in 16 MiB, of 212
    assert [sum(sizes) for sizes in blocks] == [pixels for pixels, _ in strips]
    assert sum(map(len, blocks)) == 18
    assert sum(copies) == header.rows * header.cols and len(copies) >= header.rows


@pytest.mark.parametrize(
    "header",
    [
        b"{}",
        b"[]",
        b'{"best_epoch": 0, "layer_sizes": ["a", 1], "normalized": true, "rng_seed": 0}',
        b'{"best_epoch": 0, "layer_sizes": [-3, 1], "normalized": true, "rng_seed": 0}',
    ],
    ids=["empty", "list", "non-integer-size", "negative-size"],
)
def test_damaged_checkpoint_header_exits_4(memo_run, capsys, header):
    ini, out = memo_run
    path = out / "train" / "model.ckpt"
    magic, _, payload = path.read_bytes().split(b"\n", 2)
    path.write_bytes(b"\n".join([magic, header, payload]))
    assert main(["evaluate", "--out", str(out), "--config", str(ini), "--stage-force"]) == 4
    assert f"error: {path}: checkpoint" in capsys.readouterr().err


def test_checkpoint_with_more_than_one_output_exits_4(memo_run, capsys):
    ini, out = memo_run
    path = out / "train" / "model.ckpt"
    model = mlp.load_model(path)
    w, b = model.weights[-1], model.biases[-1]
    wide = dataclasses.replace(
        model,
        layer_sizes=(*model.layer_sizes[:-1], 2),
        weights=[*model.weights[:-1], np.hstack([w, w])],
        biases=[*model.biases[:-1], np.concatenate([b, b])],
    )
    mlp.save_model(wide, path)
    assert main(["evaluate", "--out", str(out), "--config", str(ini), "--stage-force"]) == 4
    assert f"error: {path}: checkpoint has 2 outputs" in capsys.readouterr().err


def test_panel_degenerate_in_a_dropped_band_still_fails_calibrate(memo_run, capsys):
    ini, out = memo_run
    top, left, height, width = load_config(str(ini)).panel_region()
    stem = out / "synth" / "scene"
    scene = read_cube(stem)
    data = scene.data.copy()
    data[top : top + height, left : left + width, 0] = 0.0  # 400 nm is masked out
    write_cube(dataclasses.replace(scene, data=data), stem)
    assert main(["calibrate", "--out", str(out), "--config", str(ini)]) == 4
    assert "panel mean is not positive in band 0 (400.0 nm)" in capsys.readouterr().err


# sha256 of TINY_INI's calibrate output: float32 reflectance of the float32
# scene, each sample the float64 product rounded once. Calibration is
# elementwise IEEE arithmetic, so the digests do not depend on the BLAS build.
_TINY_REFLECTANCE_SHA256 = {
    "reflectance.raw": "7ea2c4146ba75bb775cc90f2a31a197e462cd5d9de1c46395b902403b8f15e69",
    "reflectance.hdr": "488b38799de0a514ed0fb8fccc019229af31904a3f04117d5d49b605d0ef2661",
}


def test_calibrate_output_bytes_are_pinned(tmp_path):
    ini = tmp_path / "config.ini"
    ini.write_text(TINY_INI)
    out = tmp_path / "out"
    for stage in ("synth", "calibrate"):
        assert main([stage, "--out", str(out), "--config", str(ini)]) == 0
    found = {name: _sha256_of(out / "calibrate" / name) for name in _TINY_REFLECTANCE_SHA256}
    assert found == _TINY_REFLECTANCE_SHA256


def test_measurement_cubes_are_float32_and_derived_cubes_float64(tiny_run):
    _, out = tiny_run
    sample_types = {
        stem: cube_module._read_header(out / stem)[0].dtype_name
        for stem in ("synth/scene", "calibrate/reflectance", "unmix/abundances", "synth/reference")
    }
    assert sample_types == {
        "synth/scene": "float32",
        "calibrate/reflectance": "float32",
        "unmix/abundances": "float64",
        "synth/reference": "float64",
    }


def test_divergence_exits_5(tiny_run, tmp_path):
    ini, out = tiny_run
    div = tmp_path / "div.ini"
    text = TINY_INI.replace(
        "[train]\nepochs = 30",
        "[train]\nepochs = 30\nlearning_rate = 1e28",
    )
    div.write_text(text + "\n[model]\nhidden = 8,8,8,8,8,8,8\n")
    result = _cli(["train", "--out", out, "--config", div, "--stage-force"], {})
    assert result.returncode == 5
    err = result.stderr.decode()
    assert "error: non-finite loss at epoch" in err
    assert "RuntimeWarning" not in err
    # restore
    assert main(["run-all", "--out", str(out), "--config", str(ini)]) == 0


def test_seed_flag_changes_the_scene(tmp_path):
    ini = tmp_path / "c.ini"
    ini.write_text("[synth]\ngrid_rows = 1\ngrid_cols = 2\nplot_height_px = 20\n"
                   "plot_width_px = 40\nwindow_px = 10\nalley_px = 8\n")
    for seed in ("0", "1"):
        assert main(["synth", "--out", str(tmp_path / f"s{seed}"),
                     "--config", str(ini), "--seed", seed]) == 0
    a = (tmp_path / "s0" / "synth" / "scene.raw").read_bytes()
    b = (tmp_path / "s1" / "synth" / "scene.raw").read_bytes()
    assert a != b


def test_unknown_stage_is_a_config_error():
    config = load_config(None)
    with pytest.raises(ConfigError, match="unknown stage"):
        pipeline.run_all(config, stages=("polish",))


def test_read_metrics_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="metric,value"):
        read_metrics_csv(path)


def test_read_metrics_csv_rejects_short_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("metric,value\nsplit\n")
    with pytest.raises(DataError, match="m.csv: line 2"):
        read_metrics_csv(path)
