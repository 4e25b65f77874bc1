"""Pipeline configuration: one INI file, every unstated constant overridable.

Defaults reproduce the reference setup end to end, so ``synth`` followed
by ``run-all`` works with no config file at all. Relative paths in the
``[input]`` section resolve against the output directory, which is where
the ``synth`` stage writes its files; absolute paths switch a run onto
real data. Unknown sections or keys fail loudly: a typo must never fall
back to a default silently.
"""

from __future__ import annotations

import configparser
import hashlib
import os
from typing import TYPE_CHECKING

from .errors import ConfigError

if TYPE_CHECKING:  # imported where used, so loading the config loads no layer module
    from .mlp import SplitSpec, TrainConfig
    from .synth import SynthSpec

DEFAULTS: dict[str, dict[str, str]] = {
    "input": {
        "cube": "synth/scene",
        "panel_reflectance": "synth/panel.csv",
        "plot_map": "synth/plot_map.csv",
        "yields": "synth/yields.csv",
        "reference_cube": "synth/reference",
        "reference_endmembers": "synth/reference_endmembers.csv",
    },
    "calibrate": {
        "panel_top": "8",
        "panel_left": "16",
        "panel_height": "18",
        "panel_width": "50",
        "keep_nm": "430:870",
        "drop_nm": "760:10,820:14",
    },
    "segment": {
        "red_window_nm": "665:675",
        "blue_window_nm": "445:455",
        "threshold": "otsu",
        "se_rows": "10",
        "se_cols": "5",
        "min_area_px": "1000",
    },
    "gridmap": {
        "pitch_row_px": "42",
        "pitch_col_px": "102",
        "anchor_plot": "P0000",
        "anchor_cell": "0,0",
    },
    "endmembers": {
        "source": "cube",
        "csv": "",
        "count": "4",
        "refine_k": "1",
    },
    "unmix": {
        "sl_threshold": "0.5",
        "spike_label": "spike",
        "leaf_label": "leaf",
    },
    "dataset": {
        "window_px": "15",
        "middle_tau": "0.05",
    },
    "split": {
        "train_fraction": "0.85",
        "validation_fraction": "0.15",
        "strata": "10",
        "seed": "0",
        "test_plots": "10",
        "test_plot_ids": "",
    },
    "model": {
        "hidden": "256,128,64,32",
    },
    "train": {
        "epochs": "100",
        "batch_size": "64",
        "learning_rate": "0.001",
        "beta1": "0.9",
        "beta2": "0.999",
        "eps": "1e-8",
        "seed": "0",
    },
    "synth": {
        "seed": "0",
        "grid_rows": "8",
        "grid_cols": "8",
        "plot_height_px": "30",
        "plot_width_px": "90",
        "alley_px": "12",
        "jitter_px": "2",
        "window_px": "15",
        "density_lo": "0.3",
        "density_hi": "0.8",
        "margin_boost": "1.0",
        "side_heavy_fraction": "0.0",
        "snr_db": "",
        "yield_per_sl_pixel": "0.2",
        "target_subplot_r2": "",
        "yield_noise_sigma": "",
        "reference_seed": "1",
    },
    "output": {
        "dir": "out",
    },
}


# Each numeric key here must be greater than its bound. The stage that
# reads one would reject a smaller value too, but only as a data error
# raised after it has read its inputs, or for a seed as a crash.
_ABOVE: dict[tuple[str, str], int] = {
    ("synth", "seed"): -1,
    ("synth", "reference_seed"): -1,
    ("split", "seed"): -1,
    ("train", "seed"): -1,
    ("segment", "se_rows"): 0,
    ("segment", "se_cols"): 0,
    ("gridmap", "pitch_row_px"): 0,
    ("gridmap", "pitch_col_px"): 0,
    ("endmembers", "count"): 1,
    ("dataset", "window_px"): 1,
}


class PipelineConfig:
    """Merged section/key/value table with typed, validating accessors."""

    def __init__(self, values: dict[str, dict[str, str]]):
        self.values = values

    # -- raw accessors ------------------------------------------------

    def get(self, section: str, key: str) -> str:
        try:
            return self.values[section][key]
        except KeyError:
            raise ConfigError(f"missing config value [{section}] {key}")

    def getint(self, section: str, key: str) -> int:
        return self._number(section, key, int, "an integer")

    def getfloat(self, section: str, key: str) -> float:
        return self._number(section, key, float, "a number")

    def getfloat_or_none(self, section: str, key: str) -> float | None:
        if self.get(section, key).strip() == "":
            return None
        return self.getfloat(section, key)

    def _number(self, section: str, key: str, kind: type, noun: str):
        raw = self.get(section, key)
        try:
            value = kind(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not {noun}")
        bound = _ABOVE.get((section, key))
        if bound is not None and not value > bound:
            raise ConfigError(f"[{section}] {key} = {raw!r} must be greater than {bound}")
        return value

    def set(self, section: str, key: str, value: str) -> None:
        if section not in self.values or key not in self.values[section]:
            raise ConfigError(f"unknown config value [{section}] {key}")
        self.values[section][key] = value

    # -- parsed compound values ----------------------------------------

    def window_nm(self, section: str, key: str) -> tuple[float, float]:
        raw = self.get(section, key)
        try:
            lo, hi = (float(p) for p in raw.split(":"))
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {raw!r}; expected 'lo:hi'")
        return lo, hi

    def drop_windows_nm(self) -> tuple[tuple[float, float], ...]:
        raw = self.get("calibrate", "drop_nm").strip()
        if not raw:
            return ()
        out = []
        for part in raw.split(","):
            try:
                centre, width = (float(p) for p in part.split(":"))
            except ValueError:
                raise ConfigError(
                    f"[calibrate] drop_nm entry {part!r}; expected 'centre:width'"
                )
            out.append((centre, width))
        return tuple(out)

    def panel_region(self) -> tuple[int, int, int, int]:
        return (
            self.getint("calibrate", "panel_top"),
            self.getint("calibrate", "panel_left"),
            self.getint("calibrate", "panel_height"),
            self.getint("calibrate", "panel_width"),
        )

    def anchor_cell(self) -> tuple[int, int]:
        raw = self.get("gridmap", "anchor_cell")
        try:
            r, c = (int(p) for p in raw.split(","))
        except ValueError:
            raise ConfigError(f"[gridmap] anchor_cell = {raw!r}; expected 'row,col'")
        return r, c

    def segment_threshold(self) -> float | None:
        raw = self.get("segment", "threshold").strip().lower()
        if raw == "otsu":
            return None
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(
                f"[segment] threshold = {raw!r}; expected 'otsu' or a number"
            )

    def hidden_sizes(self) -> tuple[int, ...]:
        raw = self.get("model", "hidden").strip()
        if not raw:
            raise ConfigError("[model] hidden cannot be empty")
        try:
            sizes = tuple(int(p) for p in raw.split(","))
        except ValueError:
            raise ConfigError(f"[model] hidden = {raw!r}; expected comma ints")
        if any(s < 1 for s in sizes):
            raise ConfigError(f"[model] hidden = {raw!r}; sizes must be positive")
        return sizes

    def split_spec(self) -> SplitSpec:
        from .mlp import SplitSpec

        ids_raw = self.get("split", "test_plot_ids").strip()
        ids = tuple(p.strip() for p in ids_raw.split(",") if p.strip()) or None
        return SplitSpec(
            train_fraction=self.getfloat("split", "train_fraction"),
            validation_fraction=self.getfloat("split", "validation_fraction"),
            strata=self.getint("split", "strata"),
            seed=self.getint("split", "seed"),
            test_plots=0 if ids else self.getint("split", "test_plots"),
            test_plot_ids=ids,
        )

    def train_config(self) -> TrainConfig:
        from .mlp import TrainConfig

        return TrainConfig(
            epochs=self.getint("train", "epochs"),
            batch_size=self.getint("train", "batch_size"),
            learning_rate=self.getfloat("train", "learning_rate"),
            beta1=self.getfloat("train", "beta1"),
            beta2=self.getfloat("train", "beta2"),
            eps=self.getfloat("train", "eps"),
            seed=self.getint("train", "seed"),
        )

    def synth_spec(self) -> SynthSpec:
        from .synth import SynthSpec

        return SynthSpec(
            seed=self.getint("synth", "seed"),
            grid_rows=self.getint("synth", "grid_rows"),
            grid_cols=self.getint("synth", "grid_cols"),
            plot_height_px=self.getint("synth", "plot_height_px"),
            plot_width_px=self.getint("synth", "plot_width_px"),
            alley_px=self.getint("synth", "alley_px"),
            jitter_px=self.getint("synth", "jitter_px"),
            window_px=self.getint("synth", "window_px"),
            density_range=(
                self.getfloat("synth", "density_lo"),
                self.getfloat("synth", "density_hi"),
            ),
            margin_boost=self.getfloat("synth", "margin_boost"),
            side_heavy_fraction=self.getfloat("synth", "side_heavy_fraction"),
            snr_db=self.getfloat_or_none("synth", "snr_db"),
            yield_per_sl_pixel=self.getfloat("synth", "yield_per_sl_pixel"),
            target_subplot_r2=self.getfloat_or_none("synth", "target_subplot_r2"),
            yield_noise_sigma=self.getfloat_or_none("synth", "yield_noise_sigma"),
        )

    # -- paths ----------------------------------------------------------

    def out_dir(self) -> str:
        return self.get("output", "dir")

    # -- hashing and serialization ----------------------------------------

    def config_hash(self, sections: tuple[str, ...]) -> str:
        """Digest of ``sections`` in the order given, for stage manifests."""
        h = hashlib.sha256()
        for section in sections:
            for key in sorted(self.values[section]):
                h.update(f"[{section}] {key} = {self.values[section][key]}\n".encode())
        return h.hexdigest()


def load_config(path: str | os.PathLike | None = None) -> PipelineConfig:
    """Defaults, overlaid with the INI file at ``path`` when given."""
    values = {section: dict(keys) for section, keys in DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}")
        for section in parser.sections():
            if section not in values:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in values[section]:
                    raise ConfigError(f"unknown config value [{section}] {key}")
                values[section][key] = value
    return PipelineConfig(values)
