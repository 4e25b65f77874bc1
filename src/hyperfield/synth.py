"""Synthetic scenes with planted truth for every pipeline stage.

The generator mixes an analytic endmember library over a plot grid:
each plot gets a smooth canopy density field, per-pixel dithering turns
density into a crisp foreground mask (mixing fractions keep a gap
around the 0.5 decision line), and plot yields are planted proportional
to true foreground counts with an optional per-plot noise factor tuned
to hit a requested theoretical coefficient of determination. The scene
is radiance, made a strip of rows at a time, with a flat reference panel
in the top margin so the calibration stage has real work to do.
Everything derives from named seed streams, so a spec is
bit-reproducible, whatever the strip height.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .config import load_config
from .cube import HyperCube, default_wavelengths
from .endmember import EndmemberSet
from .errors import ConfigError, DataError
from .gridmap import PlotMap
from .pairwise import PairwiseSum
from .segment import PlotBox
from .subplot import window_counts
from .unmix import AbundanceMap

LIBRARY_LABELS = ("spike", "leaf", "soil", "shadow", "winter_wheat", "panel")
SCENE_LABELS = ("spike", "leaf", "soil", "shadow", "panel")
CROP_LABELS = ("spike", "leaf", "soil", "shadow")
REFERENCE_PATCH_PX = 12  # side of each pure patch in the reference cube

_MARGIN_PX = 16
_PANEL_TOP_MARGIN_PX = 40
# (top, left, height, width) of the reference panel: in the top margin, where
# ``[calibrate]`` reads it by default. A narrow field widens the right margin.
_PANEL_REGION = load_config().panel_region()
_SL_LO, _SL_SPAN = 0.55, 0.40          # foreground mixing fraction range
_BARE_LO, _BARE_SPAN = 0.25, 0.20      # in-plot background range
_ALLEY_LO, _ALLEY_SPAN = 0.02, 0.10    # alley and margin range


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _bump(lam: np.ndarray, centre: float, width: float) -> np.ndarray:
    return np.exp(-0.5 * ((lam - centre) / width) ** 2)


def endmember_library() -> EndmemberSet:
    """Analytic reflectance spectra on the instrument grid.

    Shapes are qualitative: senescent tissue climbs from blue to red
    and stays high, soil is a gentle ramp, shadow is low and flat,
    green vegetation has the red edge, and the panel is flat grey.
    """
    lam = default_wavelengths()
    spike = 0.10 + 0.48 * _sigmoid((lam - 575.0) / 40.0)
    leaf = 0.08 + 0.40 * _sigmoid((lam - 590.0) / 55.0) + 0.06 * _bump(lam, 900.0, 70.0)
    soil = 0.15 + 0.00028 * (lam - 400.0)
    shadow = 0.015 + 0.02 * _sigmoid((lam - 700.0) / 150.0)
    wheat = (
        0.05
        + 0.03 * _bump(lam, 550.0, 35.0)
        - 0.01 * _bump(lam, 670.0, 25.0)
        + 0.38 * _sigmoid((lam - 715.0) / 18.0)
    )
    panel = np.full(lam.size, 0.4)
    spectra = np.column_stack([spike, leaf, soil, shadow, wheat, panel])
    return EndmemberSet(labels=LIBRARY_LABELS, wavelengths=lam, spectra=spectra)


def illumination_spectrum(wavelengths: np.ndarray) -> np.ndarray:
    """Smooth positive irradiance curve used to lift reflectance to radiance."""
    lam = np.asarray(wavelengths, dtype=np.float64)
    return 1.1 + 0.9 * _bump(lam, 560.0, 130.0)


@dataclass(frozen=True)
class SynthSpec:
    """Everything that determines a generated scene."""

    seed: int
    grid_rows: int
    grid_cols: int
    plot_height_px: int
    plot_width_px: int
    alley_px: int
    jitter_px: int
    window_px: int
    density_range: tuple[float, float]
    margin_boost: float
    side_heavy_fraction: float
    snr_db: float | None
    yield_per_sl_pixel: float
    target_subplot_r2: float | None
    yield_noise_sigma: float | None

    def __post_init__(self):
        for name in ("margin_boost", "snr_db", "yield_per_sl_pixel", "yield_noise_sigma"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} = {value} is not a finite number")
        if min(self.grid_rows, self.grid_cols) < 1:
            raise ConfigError("grid must have at least one row and column")
        if self.window_px < 2:
            raise ConfigError(f"[synth] window_px = {self.window_px} must be at least 2")
        if min(self.plot_height_px, self.plot_width_px) < self.window_px:
            raise ConfigError("plots must be at least one window across")
        if self.alley_px < 2:
            raise ConfigError("alley must be at least 2 px")
        if self.jitter_px < 0 or 2 * self.jitter_px >= self.alley_px:
            raise ConfigError("jitter must fit inside the alley")
        lo, hi = self.density_range
        if not (0.0 < lo <= hi < 1.0):
            raise ConfigError(f"density range ({lo}, {hi}) not inside (0, 1)")
        if self.margin_boost < 1.0:
            raise ConfigError("margin boost must be at least 1")
        if not (0.0 <= self.side_heavy_fraction <= 1.0):
            raise ConfigError("side-heavy fraction must lie in [0, 1]")
        if self.snr_db is not None and self.snr_db <= 0:
            raise ConfigError("SNR must be positive (or None for noiseless)")
        if self.yield_per_sl_pixel <= 0:
            raise ConfigError("yield per foreground pixel must be positive")
        if self.target_subplot_r2 is not None:
            if self.yield_noise_sigma is not None:
                raise ConfigError("give target_subplot_r2 or yield_noise_sigma, not both")
            if not (0.0 < self.target_subplot_r2 < 1.0):
                raise ConfigError("target coefficient of determination not in (0, 1)")
        if self.yield_noise_sigma is not None and self.yield_noise_sigma < 0:
            raise ConfigError("yield noise sigma cannot be negative")

    @property
    def pitch_row_px(self) -> int:
        return self.plot_height_px + self.alley_px

    @property
    def pitch_col_px(self) -> int:
        return self.plot_width_px + self.alley_px

    @property
    def scene_shape(self) -> tuple[int, int]:
        rows = _PANEL_TOP_MARGIN_PX + self.grid_rows * self.pitch_row_px - self.alley_px
        cols = 2 * _MARGIN_PX + self.grid_cols * self.pitch_col_px - self.alley_px
        _, left, _, width = _PANEL_REGION
        return rows + _MARGIN_PX, max(cols, left + width + _MARGIN_PX)


@dataclass
class SynthTruth:
    """Planted ground truth for a generated scene."""

    endmembers: EndmemberSet
    abundances: AbundanceMap
    sl_mask: np.ndarray
    plot_map: PlotMap
    boxes: dict[str, PlotBox]
    plot_yields: dict[str, float]
    window_yields: dict[str, np.ndarray]
    side_heavy: dict[str, bool]
    panel_region: tuple[int, int, int, int]
    panel_reflectance: np.ndarray
    illumination: np.ndarray
    yield_noise_sigma: float
    theoretical_r2: float | None
    window_px: int


@dataclass
class SceneRadiance:
    """The scene's radiance, made a strip of rows at a time.

    A pixel's radiance is its abundances mixed over the scene spectra,
    times the illumination, plus, with ``snr_db``, white noise whose sigma
    gives that ratio over the whole noiseless scene. The noise is drawn in
    row order from one stream, and the signal and noise powers are means
    taken by ``PairwiseSum``, so every strip height gives the bits of one
    whole-array computation.

    What the noise came to, ``realized_snr_db``, is known once ``strips``
    has run out.
    """

    planes: np.ndarray  # (rows, cols, endmembers) abundances
    spectra: np.ndarray  # (bands, endmembers) reflectance
    illumination: np.ndarray
    wavelengths: np.ndarray
    snr_db: float | None
    noise_seed: np.random.SeedSequence
    realized_snr_db: float | None = None

    rows = property(lambda self: self.planes.shape[0])
    cols = property(lambda self: self.planes.shape[1])
    bands = property(lambda self: self.spectra.shape[0])

    def _mixture(self, top: int, buffer: np.ndarray) -> np.ndarray:
        """The noiseless rows from ``top`` that fit in ``buffer``, made in it."""
        planes = self.planes[top : top + len(buffer)]
        strip = np.einsum("rce,be->rcb", planes, self.spectra, out=buffer[: len(planes)])
        strip *= self.illumination
        return strip

    def strips(self, height: int) -> Iterator[tuple[int, HyperCube]]:
        """Every row once, top to bottom, as ``(top, strip)``: float64 radiance
        of ``height`` rows (fewer in the last strip).

        Every strip is made in one C-order buffer, so a strip is valid only
        until the next one is made; copy it to keep it. With noise the
        noiseless strips are made twice: once for the signal power, which
        sizes the noise, then again to add the noise.
        """
        tops = range(0, self.rows, height)
        size = self.rows * self.cols * self.bands
        buffer = np.empty((min(height, self.rows), self.cols, self.bands))
        if self.snr_db is not None:
            signal = PairwiseSum(size)
            for top in tops:
                strip = self._mixture(top, buffer)
                strip *= strip
                signal.add(strip)
            signal_power = signal.total / size
            sigma = np.sqrt(signal_power / 10.0 ** (self.snr_db / 10.0))
            noise_rng = np.random.default_rng(self.noise_seed)
            noise_power = PairwiseSum(size)
            noise = np.empty_like(buffer)
        for top in tops:
            strip = self._mixture(top, buffer)
            if self.snr_db is not None:
                drawn = noise_rng.standard_normal(out=noise[: len(strip)])
                drawn *= sigma
                strip += drawn
                drawn *= drawn
                noise_power.add(drawn)
            yield top, HyperCube(strip, self.wavelengths, "radiance")
        if self.snr_db is not None:
            self.realized_snr_db = 10.0 * np.log10(signal_power / (noise_power.total / size))


def _bilinear_field(rng: np.random.Generator, shape, nodes, lo, hi) -> np.ndarray:
    """Smooth random field: coarse uniform nodes, bilinear upsampling."""
    coarse = rng.uniform(lo, hi, size=nodes)
    rows = np.linspace(0.0, nodes[0] - 1.0, shape[0])
    cols = np.linspace(0.0, nodes[1] - 1.0, shape[1])
    r0 = np.clip(np.floor(rows).astype(int), 0, nodes[0] - 2)
    c0 = np.clip(np.floor(cols).astype(int), 0, nodes[1] - 2)
    fr = (rows - r0)[:, None]
    fc = (cols - c0)[None, :]
    top = coarse[r0][:, c0] * (1 - fc) + coarse[r0][:, c0 + 1] * fc
    bottom = coarse[r0 + 1][:, c0] * (1 - fc) + coarse[r0 + 1][:, c0 + 1] * fc
    return top * (1 - fr) + bottom * fr


def _plot_ids(grid_rows: int, grid_cols: int) -> list[str]:
    return [f"P{r:02d}{c:02d}" for r in range(grid_rows) for c in range(grid_cols)]


def generate_scene(spec: SynthSpec) -> tuple[SceneRadiance, SynthTruth]:
    """Plan the scene: its radiance, to be made a strip at a time, and its
    complete planted truth."""
    lam = default_wavelengths()
    library = endmember_library()
    scene_lib = library.select(SCENE_LABELS)
    rows, cols = spec.scene_shape

    streams = np.random.SeedSequence(spec.seed).spawn(6)
    layout_rng = np.random.default_rng(streams[0])
    density_rng = np.random.default_rng(streams[1])
    dither_rng = np.random.default_rng(streams[2])
    heavy_rng = np.random.default_rng(streams[3])
    plot_rng = np.random.default_rng(streams[4])

    ids = _plot_ids(spec.grid_rows, spec.grid_cols)
    plot_map = PlotMap(
        positions={
            pid: (i // spec.grid_cols, i % spec.grid_cols)
            for i, pid in enumerate(ids)
        }
    )
    side_heavy = dict.fromkeys(ids, False)
    if spec.side_heavy_fraction > 0 and spec.margin_boost > 1.0:
        n_heavy = int(np.ceil(spec.side_heavy_fraction * len(ids)))
        for i in heavy_rng.permutation(len(ids))[:n_heavy]:
            side_heavy[ids[i]] = True

    # Foreground mixing fraction per pixel; background everywhere first.
    s = _ALLEY_LO + _ALLEY_SPAN * dither_rng.uniform(size=(rows, cols))
    sl_mask = np.zeros((rows, cols), dtype=bool)
    boxes: dict[str, PlotBox] = {}
    lo, hi = spec.density_range
    third = spec.plot_width_px // 3
    for i, pid in enumerate(ids):
        gr, gc = i // spec.grid_cols, i % spec.grid_cols
        jr = layout_rng.integers(-spec.jitter_px, spec.jitter_px + 1)
        jc = layout_rng.integers(-spec.jitter_px, spec.jitter_px + 1)
        top = _PANEL_TOP_MARGIN_PX + gr * spec.pitch_row_px + int(jr)
        left = _MARGIN_PX + gc * spec.pitch_col_px + int(jc)
        ph, pw = spec.plot_height_px, spec.plot_width_px
        boxes[pid] = PlotBox(
            top=top, left=left, height=ph, width=pw, area_px=ph * pw
        )
        density = _bilinear_field(density_rng, (ph, pw), (3, 6), lo, hi)
        if side_heavy[pid]:
            density[:, :third] = np.minimum(density[:, :third] * spec.margin_boost, 0.95)
            density[:, pw - third :] = np.minimum(
                density[:, pw - third :] * spec.margin_boost, 0.95
            )
        u = dither_rng.uniform(size=(ph, pw))
        fg = u < density
        mix = np.where(
            fg,
            _SL_LO + _SL_SPAN * dither_rng.uniform(size=(ph, pw)),
            _BARE_LO + _BARE_SPAN * dither_rng.uniform(size=(ph, pw)),
        )
        s[top : top + ph, left : left + pw] = mix
        sl_mask[top : top + ph, left : left + pw] = fg

    # Split the two fraction pools into the four crop endmembers.
    spike_share = 0.3 + 0.4 * dither_rng.uniform(size=(rows, cols))
    soil_share = 0.5 + 0.4 * dither_rng.uniform(size=(rows, cols))
    planes = np.empty((rows, cols, len(SCENE_LABELS)), dtype=np.float64)
    planes[:, :, 0] = s * spike_share
    planes[:, :, 1] = s * (1.0 - spike_share)
    planes[:, :, 2] = (1.0 - s) * soil_share
    planes[:, :, 3] = (1.0 - s) * (1.0 - soil_share)
    planes[:, :, 4] = 0.0

    pt, pl, ph_, pw_ = _PANEL_REGION
    planes[pt : pt + ph_, pl : pl + pw_, :] = 0.0
    planes[pt : pt + ph_, pl : pl + pw_, 4] = 1.0
    abundances = AbundanceMap(values=planes, labels=SCENE_LABELS)

    # Radiance: reflectance mixture times illumination, plus noise.
    illum = illumination_spectrum(lam)
    radiance = SceneRadiance(planes, scene_lib.spectra, illum, lam, spec.snr_db, streams[5])

    # Yields: proportional to true counts, with plot-level noise sized
    # for the requested theoretical coefficient of determination.
    counts = {
        pid: window_counts(
            sl_mask[box.top : box.top + box.height, box.left : box.left + box.width],
            spec.window_px,
        )
        for pid, box in boxes.items()
    }
    populated = np.concatenate([c[c > 0] for c in counts.values()])
    if populated.size == 0:
        raise DataError("scene has no foreground pixels; densities too low")
    var_n = float(populated.var())
    mean_sq = float(np.mean(populated.astype(np.float64) ** 2))
    if spec.target_subplot_r2 is not None:
        if var_n == 0.0:
            raise DataError("window counts are constant; target ratio unreachable")
        r = spec.target_subplot_r2
        sigma_y = float(np.sqrt(var_n * (1.0 - r) / (r * mean_sq)))
    else:
        sigma_y = float(spec.yield_noise_sigma or 0.0)
    if sigma_y > 0:
        theoretical_r2 = var_n / (var_n + mean_sq * sigma_y**2)
    else:
        theoretical_r2 = None if spec.target_subplot_r2 is None else 1.0

    plot_yields: dict[str, float] = {}
    window_yields: dict[str, np.ndarray] = {}
    for pid, grid in counts.items():
        factor = 1.0 + sigma_y * float(plot_rng.standard_normal())
        factor = max(factor, 0.1)  # yields stay positive
        window_yields[pid] = spec.yield_per_sl_pixel * factor * grid.astype(np.float64)
        plot_yields[pid] = float(window_yields[pid].sum())

    truth = SynthTruth(
        endmembers=scene_lib,
        abundances=abundances,
        sl_mask=sl_mask,
        plot_map=plot_map,
        boxes=boxes,
        plot_yields=plot_yields,
        window_yields=window_yields,
        side_heavy=side_heavy,
        panel_region=_PANEL_REGION,
        panel_reflectance=library.spectra[:, library.index_of("panel")].copy(),
        illumination=illum,
        yield_noise_sigma=sigma_y,
        theoretical_r2=theoretical_r2,
        window_px=spec.window_px,
    )
    return radiance, truth


def generate_reference_cube(
    seed: int,
) -> tuple[HyperCube, EndmemberSet, dict[str, tuple[int, int, int, int]]]:
    """Close-range reflectance cube with one pure patch per crop class.

    Pure pixels carry the library spectra exactly; the filler is random
    simplex mixtures, so volume-maximizing extraction must land on the
    patches. Returned regions are (top, left, height, width).
    """
    lam = default_wavelengths()
    crop = endmember_library().select(CROP_LABELS)
    gap = max(4, REFERENCE_PATCH_PX // 2)
    rows = REFERENCE_PATCH_PX + 2 * gap
    cols = len(CROP_LABELS) * (REFERENCE_PATCH_PX + gap) + gap
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    h = rng.dirichlet(np.ones(len(CROP_LABELS)), size=rows * cols).reshape(
        rows, cols, -1
    )
    regions: dict[str, tuple[int, int, int, int]] = {}
    for i, label in enumerate(CROP_LABELS):
        top, left = gap, gap + i * (REFERENCE_PATCH_PX + gap)
        h[top : top + REFERENCE_PATCH_PX, left : left + REFERENCE_PATCH_PX, :] = 0.0
        h[top : top + REFERENCE_PATCH_PX, left : left + REFERENCE_PATCH_PX, i] = 1.0
        regions[label] = (top, left, REFERENCE_PATCH_PX, REFERENCE_PATCH_PX)
    data = np.einsum("rce,be->rcb", h, crop.spectra)
    cube = HyperCube(data=data, wavelengths=lam, units="reflectance")
    return cube, crop, regions
