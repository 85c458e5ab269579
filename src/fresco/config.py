"""Run configuration: JSON loading, validation, and key=value overrides."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass


class ConfigError(Exception):
    """Bad configuration file or override; the message names the field."""


@dataclass
class Config:
    version: int = 1
    window_m: float = 80.0
    grid_size: int = 128
    crop_size: int = 64
    radial_bins: int = 32
    angular_bins: int = 120
    num_candidates: int = 20
    # accepts rotated revisits (off-bin rotations cost ~0.3) while staying
    # clear of the ~0.46 floor observed between unrelated scenes
    l1_threshold: float = 0.40
    cosine_threshold: float = 0.10
    exclusion_horizon: int = 30
    keyframe_spacing_m: float = 2.0
    tp_radius_m: float = 10.0
    ground_cell_m: float = 1.0
    ground_margin_m: float = 0.3
    coarse_grid_m: float = 4.0
    cell_cap: int = 10
    voxel_m: float = 0.4
    normal_neighbors: int = 10
    max_flatness_ratio: float = 0.8
    nicp_max_iters: int = 30
    nicp_gate_start_m: float = 8.0
    nicp_gate_end_m: float = 0.5
    stage2: bool = True


_FIELDS = {f.name: f for f in dataclasses.fields(Config)}
_LENGTHS_M = ("window_m", "ground_cell_m", "ground_margin_m", "coarse_grid_m", "voxel_m",
              "nicp_gate_start_m")  # finite; the thresholds may be inf, meaning no gate
# MAX_GRID_SIDE**2 (about 4.2e6) entries cap every dense per-scan array: the
# per-cell arrays of ground removal and compaction (each laid on the
# cloud.grid_cells grid of its cell size over the window_m crop, so
# window_m / cell bounds its side), the grid_size**2 BEV image and its FFT,
# and, at twice its size, the (angular_bins // 2) x (radial_bins *
# angular_bins // 2) block of shifted query halves the shift search builds.
MAX_GRID_SIDE = 2048
# MAX_WORK_FACTOR caps each count that multiplies a query's registration work:
# the planar ICP's iterations (nicp_max_iters, run for two branches per pose),
# the neighbors of each compacted point's normal fit (normal_neighbors), and
# the points kept per coarse cell (cell_cap), which with the coarse grid bounds
# how many points are compacted.  README.md states the worst case per query.
MAX_WORK_FACTOR = 256
_CELLS_M = ("ground_cell_m", "coarse_grid_m", "voxel_m")


def validate(cfg: Config) -> Config:
    """Range-check every field; raises ConfigError naming the offender."""
    checks = [
        ("version", cfg.version == 1, "must be 1"),
        *((f, 0 < getattr(cfg, f) < math.inf, "must be positive and finite") for f in _LENGTHS_M),
        # a product, not a quotient: a zero cell is named by the check above
        *((f, cfg.window_m <= MAX_GRID_SIDE * getattr(cfg, f),
           f"must be at least window_m / {MAX_GRID_SIDE}") for f in _CELLS_M),
        ("grid_size", 8 <= cfg.grid_size <= MAX_GRID_SIDE, f"must lie in [8, {MAX_GRID_SIDE}]"),
        ("crop_size", 2 <= cfg.crop_size <= cfg.grid_size, "must lie in [2, grid_size]"),
        ("crop_size", cfg.crop_size % 2 == 0, "must be even"),
        ("radial_bins", cfg.radial_bins >= 1, "must be positive"),
        # an even grid's spectrum holds the unpaired Nyquist frequency in row and column 0
        ("radial_bins", cfg.crop_size < cfg.grid_size or 2 * cfg.radial_bins < cfg.grid_size,
         "must be below grid_size / 2 when crop_size equals grid_size, or the outer ring"
         " samples the unpaired Nyquist row and the descriptor stops repeating after half"
         " its width"),
        ("angular_bins", cfg.angular_bins >= 2, "must be at least 2"),
        ("angular_bins", cfg.angular_bins % 2 == 0, "must be even"),
        ("angular_bins",
         (cfg.angular_bins // 2) * cfg.radial_bins * cfg.angular_bins <= MAX_GRID_SIDE**2,
         f"must keep (angular_bins // 2) * radial_bins * angular_bins <= {MAX_GRID_SIDE**2}"
         f" at radial_bins {cfg.radial_bins}"),
        ("num_candidates", cfg.num_candidates >= 1, "must be positive"),
        ("l1_threshold", cfg.l1_threshold > 0, "must be positive"),
        ("cosine_threshold", cfg.cosine_threshold > 0, "must be positive"),
        ("exclusion_horizon", cfg.exclusion_horizon >= 0, "must be >= 0"),
        ("keyframe_spacing_m", cfg.keyframe_spacing_m > 0, "must be positive"),
        ("tp_radius_m", cfg.tp_radius_m > 0, "must be positive"),
        ("cell_cap", 1 <= cfg.cell_cap <= MAX_WORK_FACTOR, f"must lie in [1, {MAX_WORK_FACTOR}]"),
        ("normal_neighbors", 2 <= cfg.normal_neighbors <= MAX_WORK_FACTOR,
         f"must lie in [2, {MAX_WORK_FACTOR}]"),
        ("max_flatness_ratio", 0 < cfg.max_flatness_ratio <= 1, "must lie in (0, 1]"),
        ("nicp_max_iters", 1 <= cfg.nicp_max_iters <= MAX_WORK_FACTOR,
         f"must lie in [1, {MAX_WORK_FACTOR}]"),
        ("nicp_gate_end_m", 0 < cfg.nicp_gate_end_m <= cfg.nicp_gate_start_m,
         "must be positive and <= nicp_gate_start_m"),
    ]
    for name, ok, why in checks:
        if not ok:
            raise ConfigError(f"{name} {why} (got {getattr(cfg, name)!r})")
    return cfg


def _coerce(name: str, value):
    kind = _FIELDS[name].type
    try:
        if kind == "bool":
            if isinstance(value, bool):
                return value
            text = str(value).strip().lower()
            if text in ("1", "true", "on", "yes"):
                return True
            if text in ("0", "false", "off", "no"):
                return False
            raise ValueError(value)
        if isinstance(value, bool):  # a JSON true is not the number 1
            raise ValueError(value)
        if kind == "int":
            out = int(value)
            if isinstance(value, float) and value != out:
                raise ValueError(value)
            return out
        if kind == "float":
            return float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: int(inf)
        raise ConfigError(f"{name}: cannot interpret {value!r} as {kind}") from None
    raise ConfigError(f"{name}: unsupported field type {kind}")


def from_dict(data: dict, base: Config | None = None) -> Config:
    """Build a Config from a mapping; unknown keys are rejected by name."""
    cfg = dataclasses.replace(base) if base else Config()
    for key, value in data.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key: {key}")
        setattr(cfg, key, _coerce(key, value))
    return validate(cfg)


def load_config(path) -> Config:
    """Read a JSON config; a version field is required."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    if "version" not in data:
        raise ConfigError(f"{path}: missing required key: version")
    return from_dict(data)


def apply_overrides(cfg: Config, pairs: list[str]) -> Config:
    """Apply ``key=value`` strings on top of a config; overrides win."""
    data = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, value = pair.split("=", 1)
        data[key.strip()] = value.strip()
    return from_dict(data, base=cfg)


def to_dict(cfg: Config) -> dict:
    return dataclasses.asdict(cfg)
