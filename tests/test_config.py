"""Configuration loading, validation, coercion, and overrides."""

import ast
import dataclasses
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import fresco
from fresco.bev import make_bev
from fresco.cloud import remove_ground
from fresco.config import (
    MAX_GRID_SIDE,
    MAX_WORK_FACTOR,
    Config,
    ConfigError,
    apply_overrides,
    from_dict,
    load_config,
    to_dict,
    validate,
)
from fresco.index import KeyframeIndex
from fresco.matching import best_shift_l1, circular_shift
from fresco.pose import extract_compact_2d, nicp_2d, refine_pose_3d
from fresco.properties import SHIFT_L1_TOL
from fresco.spectrum import log_spectrum, polar_unroll


def test_defaults_validate():
    validate(Config())


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError, match="unknown config key: granularity"):
        from_dict({"version": 1, "granularity": 4})


def test_validation_names_the_field():
    with pytest.raises(ConfigError, match=r"angular_bins must be even \(got 121\)"):
        from_dict({"version": 1, "angular_bins": 121})
    with pytest.raises(ConfigError, match="crop_size"):
        from_dict({"version": 1, "crop_size": 256})
    with pytest.raises(ConfigError, match="nicp_gate_end_m"):
        from_dict({"version": 1, "nicp_gate_start_m": 1.0, "nicp_gate_end_m": 2.0})
    with pytest.raises(ConfigError, match="version must be 1"):
        from_dict({"version": 3})


@pytest.mark.parametrize(
    "field",
    ["window_m", "ground_cell_m", "ground_margin_m", "coarse_grid_m", "voxel_m",
     "nicp_gate_start_m", "nicp_gate_end_m"],
)
def test_geometry_fields_must_be_finite(field):
    with pytest.raises(ConfigError, match=rf"^{field} .*\(got inf\)"):
        from_dict({"version": 1, field: "inf"})


@pytest.mark.parametrize("field", ["ground_cell_m", "coarse_grid_m", "voxel_m"])
@pytest.mark.parametrize("value", ["1e-300", "0.001", str(80.0 / MAX_GRID_SIDE * 0.999)])
def test_grid_cells_too_fine_for_the_window_are_rejected(field, value):
    # validated only: these values would make the pipeline allocate
    # window_m / cell cells per side, or cast every point to one voxel
    why = rf"^{field} must be at least window_m / {MAX_GRID_SIDE} "
    with pytest.raises(ConfigError, match=why):
        from_dict({"version": 1, field: value})


@pytest.mark.parametrize("field", ["ground_cell_m", "coarse_grid_m", "voxel_m"])
def test_grid_cell_bound_scales_with_the_window(field):
    finest = 80.0 / MAX_GRID_SIDE
    assert getattr(from_dict({"version": 1, field: finest}), field) == finest
    with pytest.raises(ConfigError, match=rf"^{field} "):
        from_dict({"version": 1, "window_m": 160.0, field: finest})
    from_dict({"version": 1, "window_m": 40.0, field: finest / 2})


@pytest.mark.parametrize(
    "values, field",
    [
        ({"grid_size": MAX_GRID_SIDE + 1}, "grid_size"),
        ({"grid_size": 1_000_000}, "grid_size"),
        ({"angular_bins": 20_000}, "angular_bins"),
        ({"radial_bins": 64, "angular_bins": 400}, "angular_bins"),
        ({"radial_bins": 100_000}, "angular_bins"),
    ],
    ids=["grid-side-past-max", "grid-side-1e6", "angular-20000", "radial-64-angular-400",
         "radial-100000"],
)
def test_dense_per_scan_arrays_are_bounded(values, field):
    # validated only: the BEV image has grid_size**2 cells, and the shift search
    # builds an (angular_bins // 2) x (radial_bins * angular_bins) table per query
    with pytest.raises(ConfigError, match=rf"^{field} must "):
        from_dict({"version": 1, **values})


def test_dense_array_bounds_admit_their_largest_values():
    from_dict({"version": 1, "grid_size": MAX_GRID_SIDE})
    from_dict({"version": 1, "radial_bins": 64, "angular_bins": 360})


@pytest.mark.parametrize("field", ["nicp_max_iters", "normal_neighbors", "cell_cap"])
@pytest.mark.parametrize("value", [MAX_WORK_FACTOR + 1, 1_000_000])
def test_per_query_work_factors_are_bounded(field, value):
    # validated only: nicp_max_iters sets the planar ICP's iterations per branch,
    # normal_neighbors the neighbor block per compacted point, cell_cap how many
    # points are compacted
    with pytest.raises(ConfigError, match=rf"^{field} must lie in \[\d, {MAX_WORK_FACTOR}\] "):
        from_dict({"version": 1, field: value})


def test_per_query_work_bounds_admit_their_largest_values():
    fields = ("nicp_max_iters", "normal_neighbors", "cell_cap")
    cfg = from_dict({"version": 1, **{f: MAX_WORK_FACTOR for f in fields}})
    assert all(getattr(cfg, f) == MAX_WORK_FACTOR for f in fields)


def test_every_accepted_geometry_gives_a_descriptor_that_repeats_after_half_its_width():
    # grid 8-24, every even crop, radial 1-12: on an even grid the outer ring
    # reaches the unpaired Nyquist row once crop == grid and radial >= grid / 2
    rng = np.random.default_rng(27)
    accepted = rejected = 0
    for grid in range(8, 25):
        mag = log_spectrum(rng.uniform(0.0, 30.0, (grid, grid)))
        for crop in range(2, grid + 1, 2):
            for radial in range(1, 13):
                desc = polar_unroll(mag, crop, radial, 24)
                geometry = {"grid_size": grid, "crop_size": crop, "radial_bins": radial}
                try:
                    from_dict({"version": 1, "angular_bins": 24, **geometry})
                except ConfigError as err:
                    assert str(err).startswith("radial_bins ")
                    with pytest.raises(ValueError, match="does not repeat after half its width"):
                        KeyframeIndex().insert(0, desc)
                    rejected += 1
                    continue
                KeyframeIndex().insert(0, desc)
                for k in (0, 5, 11):
                    score = best_shift_l1(desc, circular_shift(desc, k + 12))
                    assert (score.best_shift, geometry) == (k, geometry)
                    assert score.d_l1 <= SHIFT_L1_TOL, geometry
                accepted += 1
    assert (accepted, rejected) == (1539, 45)


def test_thresholds_and_spacings_accept_inf():
    # pr_sweep reads an infinite cosine threshold as "no cosine gate"
    fields = ("l1_threshold", "cosine_threshold", "keyframe_spacing_m", "tp_radius_m")
    cfg = from_dict({"version": 1, **{f: "inf" for f in fields}})
    assert all(getattr(cfg, f) == float("inf") for f in fields)


def test_string_coercion():
    cfg = from_dict({"version": "1", "angular_bins": "60", "l1_threshold": "0.5",
                     "stage2": "off"})
    assert cfg.angular_bins == 60
    assert cfg.l1_threshold == 0.5
    assert cfg.stage2 is False
    assert from_dict({"version": 1, "stage2": "on"}).stage2 is True


def test_fractional_int_rejected():
    with pytest.raises(ConfigError, match="grid_size"):
        from_dict({"version": 1, "grid_size": 128.5})
    with pytest.raises(ConfigError, match="stage2"):
        from_dict({"version": 1, "stage2": "maybe"})


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(Config) if f.type == "int"]
)
def test_infinite_int_is_a_config_error(field, tmp_path):
    # JSON's Infinity and 1e999 both load as a float infinity
    for value in (float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match=rf"^{field}: cannot interpret -?inf as int$"):
            from_dict({"version": 1, field: value})
    p = tmp_path / "cfg.json"
    for text in ("Infinity", "1e999"):
        p.write_text(f'{{"version": 1, "{field}": {text}}}')
        with pytest.raises(ConfigError, match=rf"^{field}: cannot interpret inf as int$"):
            load_config(p)


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(Config) if f.type in ("int", "float")]
)
def test_json_boolean_for_a_numeric_field_is_a_config_error(field, tmp_path):
    # bool is an int subclass in Python, so int(True) would read as 1
    p = tmp_path / "cfg.json"
    for value in (True, False):
        p.write_text(json.dumps({"version": 1, field: value}))
        with pytest.raises(ConfigError, match=rf"^{field}: cannot interpret (True|False) as "):
            load_config(p)


def test_load_config_round_trip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"version": 1, "num_candidates": 7}))
    cfg = load_config(p)
    assert cfg.num_candidates == 7
    assert cfg.grid_size == 128  # untouched defaults stay


def test_load_config_requires_version(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{}")
    with pytest.raises(ConfigError, match="version"):
        load_config(p)


def test_load_config_rejects_bad_json(tmp_path):
    p = tmp_path / "cfg.json"
    for raw in (b"{not json", b'{"version": 1, "x": "\xff"}'):
        p.write_bytes(raw)
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(p)
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(p)


def test_overrides_win():
    cfg = from_dict({"version": 1, "l1_threshold": 0.4})
    cfg = apply_overrides(cfg, ["l1_threshold=0.7", "stage2=false"])
    assert cfg.l1_threshold == 0.7
    assert cfg.stage2 is False


def test_override_must_be_key_value():
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(Config(), ["l1_threshold"])


def test_to_dict_round_trip():
    cfg = Config(num_candidates=9, stage2=False)
    assert from_dict(to_dict(cfg)) == cfg


def test_library_reads_no_environment_variable():
    # a run is set by its Config alone; test-only variables live in tests/
    found = []
    for path in sorted(Path(fresco.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names
                      if n in ("environ", "getenv", "putenv")]
    assert found == []


@pytest.mark.parametrize(
    "function, parameter, field",
    [
        (make_bev, "window_m", "window_m"),
        (make_bev, "grid_size", "grid_size"),
        (polar_unroll, "crop_size", "crop_size"),
        (polar_unroll, "radial_bins", "radial_bins"),
        (polar_unroll, "angular_bins", "angular_bins"),
        (remove_ground, "cell_m", "ground_cell_m"),
        (remove_ground, "z_margin", "ground_margin_m"),
        (extract_compact_2d, "coarse_grid_m", "coarse_grid_m"),
        (extract_compact_2d, "cell_cap", "cell_cap"),
        (extract_compact_2d, "voxel_m", "voxel_m"),
        (extract_compact_2d, "normal_neighbors", "normal_neighbors"),
        (extract_compact_2d, "max_flatness_ratio", "max_flatness_ratio"),
        (nicp_2d, "max_iters", "nicp_max_iters"),
        (nicp_2d, "gate_start_m", "nicp_gate_start_m"),
        (nicp_2d, "gate_end_m", "nicp_gate_end_m"),
        (refine_pose_3d, "voxel_m", "voxel_m"),
        (KeyframeIndex.__init__, "exclusion_horizon", "exclusion_horizon"),
        (KeyframeIndex.load, "exclusion_horizon", "exclusion_horizon"),
    ],
    ids=lambda v: getattr(v, "__qualname__", v),
)
def test_layer_keyword_defaults_are_the_config_defaults(function, parameter, field):
    default = inspect.signature(function).parameters[parameter].default
    assert default == getattr(Config(), field)
