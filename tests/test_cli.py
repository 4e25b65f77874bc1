"""Config, stage orchestration, and command-line behaviour."""

import dataclasses
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import hyperfield
from hyperfield import pipeline
from hyperfield.cli import main
from hyperfield.config import DEFAULTS, load_config
from hyperfield.cube import read_cube, write_cube
from hyperfield.errors import ConfigError, DataError
from hyperfield.pipeline import (
    STAGE_ORDER,
    STAGES,
    FileDigests,
    read_metrics_csv,
    run_stage,
)
from hyperfield.subplot import read_records_csv

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
    a = load_config(None)
    b = load_config(None)
    b.values["output"]["dir"] = "elsewhere"
    assert a.config_hash() == b.config_hash()
    b.values["train"]["epochs"] = "7"
    assert a.config_hash() != b.config_hash()


# config_hash of each stage's sections for the default config, as
# existing manifests record them; a change here makes every existing
# tree rerun that stage.
_DEFAULT_STAGE_HASHES = {
    "synth": "02486baed71852044c70ca4c40f1b1eeff3d5c38a5a6f445daebdd41a157afde",
    "calibrate": "a5a371d8c298bf38468ab2c03740b1ccddfa0b96d821ecf3d8f4d57e000ebb27",
    "segment": "b22731443a585df57025ba42c5fd9573522b911f68ead86d05efce2cc8dcce17",
    "gridmap": "2a006c008aafabf149908a05b824dfb1e8ec5a8d2e8351fde22c41c922aba972",
    "endmembers": "a2c7074f9cf95f3e3a182f0482cfbf94cfa984eabfdc8f52366daa22666d6a8a",
    "unmix": "ef5cee5535ccdbd3bf4bf1a84e90721430c154bd02b4d5c62693f2cb528711a7",
    "dataset": "2659027f3cdc11eeadbe0bb6942bb19ba378f3ed1ae93acbd77a0e841804d412",
    "train": "27010ad5e97e543ea20e42f5fb107257e8dc071905398f6e1efb5c26a004fa5e",
    "evaluate": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "report": "2d88b2a706c2de9f9473b9ace0fb54d0b485b03baf7a9c7ddf77ab6b2f3e565a",
}


def test_stage_config_hashes_match_recorded_manifests():
    config = load_config(None)
    found = {name: config.config_hash(stage.sections) for name, stage in STAGES.items()}
    assert found == _DEFAULT_STAGE_HASHES


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


def test_input_paths_resolve_against_out_dir():
    config = load_config(None)
    config.values["output"]["dir"] = "/work/run1"
    assert config.input_path("cube") == os.path.join("/work/run1", "synth/scene")
    config.values["input"]["cube"] = "/data/field.hdr"
    assert config.input_path("cube") == "/data/field.hdr"


def test_ini_round_trip(tmp_path):
    config = load_config(None)
    config.values["train"]["epochs"] = "17"
    path = tmp_path / "eff.ini"
    path.write_text(config.to_ini_text())
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


def test_truth_json_is_sorted_and_complete(tiny_run):
    _, out = tiny_run
    payload = json.loads((out / "synth" / "truth.json").read_text())
    assert payload["window_px"] == 15
    assert len(payload["boxes"]) == 16
    assert payload["theoretical_r2"] == pytest.approx(0.85)
    assert abs(payload["realized_snr_db"] - 40.0) < 0.5


# ---------------------------------------------------------------------------
# resume, force, determinism

def test_run_all_leaves_no_temporary_files(tiny_run):
    ini, out = tiny_run
    assert [p for p in out.rglob("*") if p.name.endswith(".tmp")] == []


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


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(hyperfield.__file__))
    code = (
        "import sys, hyperfield.cli\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_traced_cold_run_calls_every_layer_the_benchmark_expects(tmp_path):
    """hyperbench's coverage guard for its ``cold`` workload, on the tiny scene.

    A refactor that stops a stage from calling a layer function through
    module globals (which is how the benchmark's tracer sees it) fails here.
    """
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "hyperbench")
    spec = importlib.util.spec_from_file_location("hyperbench_layers", os.path.join(bench, "layers.py"))
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    ini = tmp_path / "config.ini"
    ini.write_text(TINY_INI)
    spans = {}
    for command in ("synth", "run-all"):
        path = tmp_path / f"{command}.json"
        result = subprocess.run(
            [sys.executable, os.path.join(bench, "tracing.py"), str(path), command,
             "--out", str(tmp_path / "out"), "--config", str(ini)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        spans[command] = layers.Spans.load(path)
    assert layers.coverage_problems("cold", spans["run-all"], spans["synth"]) == []


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


def test_flag_validation():
    assert main(["synth", "--seed", "-1"]) == 2
    assert main(["synth", "--threads", "0"]) == 2


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


@pytest.mark.parametrize(
    "damage, message",
    [
        ("rename", "missing column(s) grid_col"),
        ("short", "line 2: expected 7 fields"),
        ("value", "line 3: top, left, height, width, grid_row, grid_col must be integers"),
        ("duplicate", "line 18: duplicate plot id 'P0000'"),
        ("header-only", "assignment.csv: no data rows"),
    ],
    ids=["rename", "short", "value", "duplicate", "header-only"],
)
def test_malformed_assignment_exits_4(memo_run, capsys, damage, message):
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
    else:
        lines = lines[:1]
    assignment.write_text("\n".join(lines) + "\n")
    assert main(["dataset", "--out", str(out), "--config", str(ini)]) == 4
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
        ("", "missing column(s) actual_g, predicted_g, role"),
        ("plot_id,window_row\nP0000,0\n", "missing column(s) actual_g"),
        ("role,actual_g,predicted_g\ntest,1.0\n", "line 2: expected 3 fields, got 2"),
        ("role,actual_g,predicted_g\ntest,1.0,2.0\ntest,x,2.0\n", "line 3: actual_g, predicted_g"),
        ("role,actual_g,predicted_g\ntest,1.0,x\n", "line 2: actual_g, predicted_g"),
        ("role,actual_g,predicted_g\ntest,1.0,np.float64(nan)\n", "line 2: actual_g, predicted_g"),
    ],
    ids=["empty", "no-columns", "short-row", "actual-x", "predicted-x", "predicted-nan"],
)
def test_malformed_predictions_exit_4(memo_run, capsys, text, message):
    ini, out = memo_run
    (out / "evaluate" / "predictions.csv").write_text(text)
    assert main(["report", "--out", str(out), "--config", str(ini)]) == 4
    err = capsys.readouterr().err
    assert "predictions.csv" in err and message in err


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


@pytest.mark.parametrize(
    "damage, message",
    [
        ("rename", "missing column(s) field_col"),
        ("short", "line 2: expected 3 fields"),
        ("value", "line 3: field_row, field_col must be integers"),
        ("position", "line 3: plots 'P0000' and 'P0001' share field position (0, 0)"),
    ],
    ids=["rename", "short", "value", "position"],
)
def test_malformed_plot_map_exits_4(memo_run, capsys, damage, message):
    ini, out = memo_run
    plot_map = out / "synth" / "plot_map.csv"
    lines = plot_map.read_text().splitlines()
    if damage == "rename":
        lines[0] = lines[0].replace("field_col", "column")
    elif damage == "short":
        lines[1] = lines[1].rsplit(",", 1)[0]
    elif damage == "value":
        lines[2] = lines[2] + ".5"
    else:
        lines[2] = lines[2].split(",")[0] + "," + lines[1].split(",", 1)[1]
    plot_map.write_text("\n".join(lines) + "\n")
    assert main(["gridmap", "--out", str(out), "--config", str(ini)]) == 4
    err = capsys.readouterr().err
    assert "plot_map.csv" in err and message in err


@pytest.mark.parametrize(
    "damage, message",
    [
        ("value", "line 3: non-numeric value"),
        ("short", "line 2: expected 2 fields, got 1"),
        ("nan-kept", "line 61: non-finite value"),
        ("nan-dropped", "line 6: non-finite value"),
    ],
    ids=["value", "short", "nan-kept", "nan-dropped"],
)
def test_malformed_panel_csv_exits_4(memo_run, capsys, damage, message):
    ini, out = memo_run
    panel = out / "synth" / "panel.csv"
    lines = panel.read_text().splitlines()
    if damage == "value":
        lines[2] = lines[2].split(",")[0] + ",bright"
    elif damage == "short":
        lines[1] = lines[1].split(",")[0]
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
    ],
    ids=["wavelength", "value", "short"],
)
def test_malformed_endmembers_csv_exits_4(memo_run, capsys, damage, message):
    ini, out = memo_run
    ems = out / "endmembers" / "endmembers.csv"
    lines = ems.read_text().splitlines()
    if damage == "wavelength":
        lines[0] = lines[0].replace(",", ",nm", 1)
    elif damage == "value":
        lines[1] = lines[1].replace(",", ",x", 1)
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


def test_panel_degenerate_in_a_dropped_band_still_fails_calibrate(memo_run, capsys):
    ini, out = memo_run
    top, left, height, width = load_config(str(ini)).panel_region()
    stem = out / "synth" / "scene"
    scene = read_cube(stem)
    data = scene.data.copy()
    data[top : top + height, left : left + width, 0] = 0.0  # 400 nm is masked out
    write_cube(dataclasses.replace(scene, data=data), stem)
    assert main(["calibrate", "--out", str(out), "--config", str(ini)]) == 4
    assert "panel mean is nonpositive in band 0 (400.0 nm)" in capsys.readouterr().err


# sha256 of TINY_INI's calibrate output as written before cubes kept their
# file order in memory. Calibration is elementwise IEEE arithmetic, so the
# digests do not depend on the BLAS build.
_TINY_REFLECTANCE_SHA256 = {
    "reflectance.raw": "1fc4b1c6bf97cb257a7837fcf41fc0f052706bf77c2b557e6fa1ced4ea0dbd08",
    "reflectance.hdr": "af44101db495c6bdd864abf33fa09c3a85a3d953f8a591e6aa80f0dfa49058d6",
}


def test_calibrate_output_bytes_are_pinned(tmp_path):
    ini = tmp_path / "config.ini"
    ini.write_text(TINY_INI)
    out = tmp_path / "out"
    for stage in ("synth", "calibrate"):
        assert main([stage, "--out", str(out), "--config", str(ini)]) == 0
    found = {name: _sha256_of(out / "calibrate" / name) for name in _TINY_REFLECTANCE_SHA256}
    assert found == _TINY_REFLECTANCE_SHA256


def test_divergence_exits_5(tiny_run, tmp_path):
    ini, out = tiny_run
    div = tmp_path / "div.ini"
    text = TINY_INI.replace(
        "[train]\nepochs = 30",
        "[train]\nepochs = 30\nlearning_rate = 1e28",
    )
    div.write_text(text + "\n[model]\nhidden = 8,8,8,8,8,8,8\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--out", str(out), "--config", str(div),
                     "--stage-force"])
    assert code == 5
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
        run_stage("polish", config)


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
