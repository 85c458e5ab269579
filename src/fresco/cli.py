"""Command-line front end: index building, single queries, dataset
evaluation, and a self-test of the library's core properties.

Exit codes: 0 success, 1 usage or configuration problem, 2 IO or file
format problem, 3 degenerate input data (e.g. an all-ground scan).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import matching, properties, synth
from .cloud import FormatError
from .config import Config, ConfigError, apply_overrides, load_config
from .datasets import load_dataset, load_scan
from .evaluate import json_safe, pose_fields, run_evaluation
from .index import DegenerateDescriptorError, KeyframeIndex, make_key
from .pipeline import describe, describe_preprocessed, match, preprocess, relative_pose
from .pose import InsufficientStructureError


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for IO
    # problems, so route usage failures to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config field; wins over --config",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fresco", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    b = sub.add_parser("build", help="index every scan of a dataset")
    b.add_argument("--dataset", required=True, help="dataset directory")
    b.add_argument("--format", choices=("kitti", "generic"), default="generic")
    b.add_argument("--out", default="fresco.frix", help="index file to write")
    _add_common(b)
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="match one scan against an index")
    q.add_argument("cloud", help="scan file to query")
    q.add_argument("--index", required=True, help="index file")
    q.add_argument(
        "--dataset",
        help="dataset the index was built from; enables pose estimation",
    )
    q.add_argument("--format", choices=("kitti", "generic"), default="generic")
    _add_common(q)
    q.set_defaults(func=cmd_query)

    e = sub.add_parser("eval", help="run the evaluation protocol on a dataset")
    e.add_argument("--dataset", required=True, help="dataset directory")
    e.add_argument("--format", choices=("kitti", "generic"), default="generic")
    e.add_argument("--out", default="eval_out", help="output directory")
    e.add_argument("--svg", action="store_true", help="also write trajectory.svg")
    _add_common(e)
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("selftest", help="run the built-in property suite")
    _add_common(s)
    s.set_defaults(func=cmd_selftest)
    return parser


def _load_cfg(args) -> Config:
    cfg = load_config(args.config) if args.config else Config()
    if args.overrides:
        cfg = apply_overrides(cfg, args.overrides)
    return cfg


@contextmanager
def _naming(scan):
    """Prefix a degenerate-data error raised inside with the scan it came from."""
    try:
        yield
    except (DegenerateDescriptorError, InsufficientStructureError) as exc:
        raise type(exc)(f"{scan}: {exc}") from None


def cmd_build(args, cfg: Config) -> int:
    dataset = load_dataset(args.dataset, args.format)
    if not dataset.scans:
        print(f"warning: no scans found under {dataset.root}", file=sys.stderr)
    idx = KeyframeIndex()  # build only inserts and saves; the file stores no horizon
    t0 = time.perf_counter()
    for fid, scan in dataset.scans.items():
        with _naming(scan):
            idx.insert(fid, describe(load_scan(scan), cfg))
    idx.save(args.out)
    dt = time.perf_counter() - t0
    print(f"indexed {len(dataset.scans)} frames in {dt:.2f} s -> {args.out}")
    return 0


def cmd_query(args, cfg: Config) -> int:
    # the exclusion horizon keeps a vehicle from matching the scene it is in;
    # a saved map holds no such scene, so every map frame may be returned
    idx = KeyframeIndex.load(args.index, exclusion_horizon=0)
    if len(idx):
        shape = idx.descriptor(idx.ids[0]).shape
        for field, have in zip(("radial_bins", "angular_bins"), shape):
            want = getattr(cfg, field)
            if have != want:
                raise ConfigError(f"{field} is {want}; {args.index} was built with {field}={have}")
    query = preprocess(load_scan(args.cloud), cfg)
    desc = describe_preprocessed(query, cfg)
    with _naming(args.cloud):
        res = match(idx, desc, cfg)
    pose = None
    if res.accepted and args.dataset:
        dataset = load_dataset(args.dataset, args.format)
        if res.candidate_id not in dataset.scans:
            raise FileNotFoundError(
                f"{args.dataset}: no scan of frame {res.candidate_id}, the match in"
                f" {args.index}; --dataset must hold the scans the index was built from"
            )
        path = dataset.scans[res.candidate_id]
        candidate = preprocess(load_scan(path), cfg)
        with _naming(f"{args.cloud} against {path}"):
            est = relative_pose(query, candidate, res.best_shift, cfg)
        pose = pose_fields(est)
    out = {
        "match": res.candidate_id if res.accepted else None,
        "d_l1": res.d_l1,
        "d_r": res.d_r,
        "shift": res.best_shift,
        "rotation_deg": res.rotation_deg,
        "pose": pose,
    }
    print(json.dumps(json_safe(out), sort_keys=True))
    return 0


def cmd_eval(args, cfg: Config) -> int:
    dataset = load_dataset(args.dataset, args.format)
    report = run_evaluation(
        dataset,
        cfg,
        args.out,
        svg=args.svg,
        log=lambda m: print(m, file=sys.stderr),
    )
    pr = report["pr"]
    print(f"max F1 {pr['max_f1']:.4f} at d_l1 <= {pr['threshold']:.4f}")
    return 0


def cmd_selftest(args, cfg: Config) -> int:
    """Judge small fixed samples by the rules in ``fresco.properties``; each
    check below yields one verdict per sample."""
    cfg = Config()  # the samples are drawn for the default geometry

    def translation():
        rng = np.random.default_rng(11)
        for _ in range(20):
            img = rng.uniform(0.0, 30.0, (128, 128))
            dr, dc = int(rng.integers(1, 128)), int(rng.integers(1, 128))
            yield properties.translation_deviation(img, dr, dc) <= properties.TRANSLATION_RTOL

    def half_period():
        for seed in range(3):
            scene = synth.generate(synth.SceneSpec(seed, range_limit=30.0))
            yield properties.half_periodic(describe(scene, cfg))

    def shift():
        rng = np.random.default_rng(5)
        for seed in range(5):
            desc = describe(synth.generate(synth.SceneSpec(100 + seed, range_limit=30.0)), cfg)
            yield properties.shift_recovered(desc, int(rng.integers(1, desc.shape[1] // 2)))

    def rotation():
        rng = np.random.default_rng(17)
        for seed in range(5):
            base = synth.generate(synth.SceneSpec(200 + seed, range_limit=30.0))
            yaw = float(rng.uniform(0.0, 360.0))
            turned = synth.perturb(base, yaw_deg=yaw)
            yield properties.rotation_recovered(describe(turned, cfg), describe(base, cfg), yaw)

    def pose():
        rng = np.random.default_rng(23)
        for seed in range(5):
            base = synth.generate(synth.SceneSpec(300 + seed, walls=10, range_limit=30.0))
            tx, ty = rng.uniform(-2.0, 2.0, 2)
            yaw = float(rng.uniform(0.0, 360.0))
            moved = preprocess(synth.perturb(base, tx, ty, yaw), cfg)
            base = preprocess(base, cfg)
            descs = (describe_preprocessed(moved, cfg), describe_preprocessed(base, cfg))
            k = matching.best_shift_l1(*descs).best_shift
            est = relative_pose(moved, base, k, cfg)
            yield properties.pose_recovered(est, tx, ty, yaw)

    def retrieval():
        rng = np.random.default_rng(31)
        idx = KeyframeIndex(exclusion_horizon=0)
        # random halves, tiled, as the index stores them; drawn repeatedly, so keys tie
        descs = np.tile(rng.uniform(0.1, 2.0, (50, 8, 6)), 2)[rng.integers(0, 50, 200)]
        for i, d in enumerate(descs):
            idx.insert(i, d)
        keys = [make_key(d) for d in descs]
        for q in np.concatenate([descs[:5], rng.uniform(0.1, 2.0, (5, 8, 12))]):
            want = properties.linear_scan(keys, make_key(q), 7)
            yield [fid for fid, _ in idx.retrieve(q, 7)] == want

    failures = 0
    for name, verdicts in [
        ("translation-invariance", translation),
        ("descriptor-half-period", half_period),
        ("shift-recovery", shift),
        ("rotation-mod-180", rotation),
        ("pose-round-trip", pose),
        ("retrieval-linear-scan", retrieval),
    ]:
        ok = all(verdicts())
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += not ok
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_cfg(args)
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"fresco: config error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, OSError) as exc:
        print(f"fresco: {exc}", file=sys.stderr)
        return 2
    except (DegenerateDescriptorError, InsufficientStructureError) as exc:
        print(f"fresco: degenerate data: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
