"""The workloads: inputs, set-up, one round of operations, and checks.

Every workload drives the program through its public functions, the same
calls ``fresco build`` and ``fresco eval`` make, from one closed-loop caller.
A round is a fixed list of operations; a run repeats whole rounds, so the
share of failed operations does not depend on how many rounds fit.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import scans
from fresco import datasets, evaluate, index, pipeline, pose
from fresco.config import Config


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _revisit(rng, place: int, occlusion_share: float = 0.0) -> scans.Scan:
    """A viewpoint up to 2 m from the place's origin at any yaw; a share of
    them lose a 10 degree sector to occlusion."""
    r, a = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0 * np.pi)
    occ = (rng.uniform(0.0, 360.0), 10.0) if rng.random() < occlusion_share else None
    return scans.Scan(place, r * np.cos(a), r * np.sin(a), rng.uniform(-180.0, 180.0), occ)


@dataclass
class Round:
    seconds: float  # wall time of the round's operations
    op_ms: list[float]  # one latency per operation
    out: list = field(default_factory=list)  # per-operation outputs to check
    extra: dict = field(default_factory=dict)


class Relocalize:
    """A stream of queries localized against a fixed prior map loaded from FRIX.

    Set-up builds the map the way ``fresco build`` does: 200 scans loaded,
    described and inserted, the index saved as FRIX, then loaded back.
    Most queries are places never mapped, which must be rejected; a third
    revisit mapped places from up to 2 m away at any yaw, a quarter of those
    with a 10 degree occlusion sector, and must be accepted at their place
    with the right coarse rotation and a pose within bounds.  Whether a
    revisit lands on the 180 degree alias depends on the scene and the
    viewpoint, so the map and the queries are the same for every seed and
    the seed only orders the stream and picks the map scans checked against
    the reference descriptor (see README.md).
    """

    map_places, new_places, revisits, samples = 200, 30, 15, 8
    cfg = Config(exclusion_horizon=0)

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.frix = work / "map.frix"
        self.build_s, self.load_ms, self.save_ms = [], [], []

    def generate(self) -> None:
        root = self.work / "map"
        root.mkdir(parents=True)
        for place in range(self.map_places):
            cloud = scans.observe(scans.scene(1_000_000 + place), scans.Scan(place, 0.0, 0.0, 0.0),
                                  _rng(0, 4, place))
            scans.write_bin(root / f"{place:06d}.bin", cloud)
        rng = _rng(0, 5)
        queries = [("new", scans.Scan(-1, *rng.uniform(-1.0, 1.0, 2), rng.uniform(-180.0, 180.0)))
                   for _ in range(self.new_places)]
        queries += [("revisit", _revisit(rng, int(rng.integers(self.map_places)), 0.25))
                    for _ in range(self.revisits)]
        order = _rng(self.seed, 5).permutation(len(queries))
        self.queries = [queries[j] for j in order]
        qroot = self.work / "queries"
        qroot.mkdir()
        for i, j in enumerate(order):
            kind, view = queries[j]
            structure = scans.scene((2_000_000 + j) if kind == "new" else (1_000_000 + view.place))
            scans.write_bin(qroot / f"{i:06d}.bin", scans.observe(structure, view, _rng(0, 6, j)))
        self.sample = sorted(_rng(self.seed, 7).choice(self.map_places, self.samples, replace=False))

    def setup(self):
        cfg = self.cfg
        t0 = time.perf_counter()
        ds = datasets.load_dataset(self.work / "map", "generic")
        built = index.KeyframeIndex(exclusion_horizon=0)
        for fid, path in ds.scans.items():
            built.insert(fid, pipeline.describe(datasets.load_scan(path), cfg))
        t1 = time.perf_counter()
        built.save(self.frix)
        t2 = time.perf_counter()
        idx = index.KeyframeIndex.load(self.frix, exclusion_horizon=0)
        t3 = time.perf_counter()
        self.build_s.append(t2 - t0)
        self.save_ms.append((t2 - t1) * 1000.0)
        self.load_ms.append((t3 - t2) * 1000.0)
        # warm-up: one localization and one pose, untimed by the rounds
        warm = datasets.load_scan(ds.scans[0])
        res = idx.match(pipeline.describe(warm, cfg), cfg.num_candidates, cfg.l1_threshold,
                        cfg.cosine_threshold)
        est = pipeline.stage1_pose(warm, warm, res.best_shift, cfg)
        pre = pipeline.preprocess(warm, cfg)
        pose.refine_pose_3d(pre, pre, est, cfg.voxel_m)
        return idx, ds, built

    def round(self, state) -> Round:
        idx, ds, _ = state
        cfg = self.cfg
        op_ms, out, pose_ms = [], [], []
        seconds = 0.0
        for i, (kind, view) in enumerate(self.queries):
            t0 = time.perf_counter()
            cloud = datasets.load_scan(self.work / "queries" / f"{i:06d}.bin")
            t1 = time.perf_counter()
            res = idx.match(pipeline.describe(cloud, cfg), cfg.num_candidates, cfg.l1_threshold,
                            cfg.cosine_threshold)
            t2 = time.perf_counter()
            est, end = None, t2
            if res.accepted:
                keyframe = datasets.load_scan(ds.scans[res.candidate_id])
                t3 = time.perf_counter()
                planar = pipeline.stage1_pose(cloud, keyframe, res.best_shift, cfg)
                est = pose.refine_pose_3d(pipeline.preprocess(cloud, cfg),
                                          pipeline.preprocess(keyframe, cfg), planar, cfg.voxel_m)
                end = time.perf_counter()
                pose_ms.append((end - t3) * 1000.0)
            seconds += end - t0
            op_ms.append((t2 - t1) * 1000.0)
            out.append((res, est))
        return Round(seconds, op_ms, out, {"pose_ms": pose_ms})

    def check(self, state, rounds: list[Round]) -> tuple[list[int], list[str], dict]:
        failed, named = [], set()
        for r in rounds:
            bad = 0
            for (kind, view), (res, est) in zip(self.queries, r.out):
                why = None
                if kind == "new":
                    if res.accepted:
                        why = f"new place accepted as {res.candidate_id}"
                elif not res.accepted or res.candidate_id != view.place:
                    why = f"revisit of {view.place} gave {res.candidate_id}, accepted={res.accepted}"
                elif checks.rotation_error_mod180(res.rotation_deg, view.yaw_deg) > checks.ROTATION_TOL_DEG:
                    why = f"revisit of {view.place}: rotation {res.rotation_deg} for yaw {view.yaw_deg:.1f}"
                else:
                    rte, rre = checks.pose_error(est.tx, est.ty, est.yaw, view.tx, view.ty, view.yaw_deg)
                    if rte > checks.RTE_BOUND_M or rre > checks.RRE_BOUND_DEG:
                        why = (f"revisit of {view.place} at yaw {view.yaw_deg:.1f}: pose off by "
                               f"{rte:.2f} m, {rre:.1f} deg")
                if why:
                    bad += 1
                    named.add(why)
            failed.append(bad)
        whole, notes = self._check_map(state)
        notes["failed_ops"] = sorted(named)
        return failed, whole, notes

    def _check_map(self, state) -> tuple[list[str], dict]:
        """The map-build path against the method's properties and a reference."""
        idx, ds, built = state
        cfg = self.cfg
        whole = []
        worst = max(checks.half_period_error(built.descriptor(fid)) for fid in built.ids)
        if worst > checks.HALF_PERIOD_TOL:
            whole.append(f"a map descriptor is not half-periodic ({worst:.2e})")
        ref_err, splits = 0.0, []
        for fid in self.sample:
            raw = datasets.load_scan(ds.scans[int(fid)])
            pre = pipeline.preprocess(raw, cfg)
            ref = checks.reference_descriptor(pre.xyz, cfg)
            ref_err = max(ref_err, float(np.abs(built.descriptor(int(fid)) - ref).max()))
            splits.append(checks.ground_split(raw.intensity, pre.intensity))
        dropped, kept = min(s[0] for s in splits), min(s[1] for s in splits)
        if ref_err > checks.REFERENCE_TOL:
            whole.append(f"map descriptors differ from the reference by up to {ref_err:.2e}")
        if dropped < checks.GROUND_DROPPED_MIN or kept < checks.STRUCTURE_KEPT_MIN:
            whole.append(f"remove_ground dropped {dropped:.3f} of the ground, kept {kept:.4f} "
                         "of the structure, on the worst sampled scan")
        for i, (kind, _) in enumerate(self.queries):
            desc = pipeline.describe(datasets.load_scan(self.work / "queries" / f"{i:06d}.bin"), cfg)
            a = built.match(desc, cfg.num_candidates, cfg.l1_threshold, cfg.cosine_threshold)
            b = idx.match(desc, cfg.num_candidates, cfg.l1_threshold, cfg.cosine_threshold)
            if (a.candidate_id, a.best_shift, a.accepted) != (b.candidate_id, b.best_shift, b.accepted) \
                    or abs(a.d_l1 - b.d_l1) > 1e-5 or abs(a.d_r - b.d_r) > 1e-5:
                whole.append(f"query {i}: the FRIX-loaded map matches differently: {a} vs {b}")
        return whole, {"reference_max_err": ref_err, "ground_dropped_min": dropped,
                       "structure_kept_min": kept}

    def summary(self, state, rounds: list[Round]) -> dict:
        localize = [ms for r in rounds for ms in r.op_ms]
        poses = [ms for r in rounds for ms in r.extra["pose_ms"]]
        n = len(state[0])
        tracemalloc.start()
        held = index.KeyframeIndex.load(self.frix, exclusion_horizon=0)
        mem = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        del held
        # a 30 s run has 180 to 270 queries, 9 to 13 of them beyond p95
        return {
            "build_scans_per_s": (n / float(np.median(self.build_s)), "scans/s"),
            "index_bytes_per_keyframe": (self.frix.stat().st_size / n, "B"),
            "index_load_ms": (float(np.median(self.load_ms)), "ms"),
            "map_mem_bytes_per_keyframe": (mem / n, "B"),
            "localize_ms_p50": (float(np.median(localize)), "ms"),
            "localize_ms_p95": (float(np.percentile(localize, 95)), "ms"),
            "pose_ms_p50": (float(np.median(poses)), "ms"),
        }

    def layer_extra(self, traced: list[Round]) -> dict:
        """Index write and read times of the set-ups, which are not traced."""
        return {"index.save.ms": float(np.median(self.save_ms)),
                "index.load.ms": float(np.median(self.load_ms))}


class LoopEval:
    """``run_evaluation`` over a route of three passes over the same places:
    out, back 4 m to the side at 180 degrees, and out again 4 m to the other
    side.  The index grows by insert-after-match.  Which loop closures land
    on the 180 degree alias depends on the scenes, so the route is the same
    for every seed (see README.md)."""

    places, spacing_m = 10, 12.0
    cfg = Config(exclusion_horizon=4)

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def generate(self) -> None:
        rng = _rng(0, 7)
        n = self.places
        legs = [(p, 0.0, 0.0) for p in range(n)]
        legs += [(p, 4.0, 180.0) for p in reversed(range(n))]
        legs += [(p, -4.0, 0.0) for p in range(n)]
        self.route, self.place_of = [], []
        root = self.work / "route"
        root.mkdir(parents=True)
        for fid, (place, side, heading) in enumerate(legs):
            view = scans.Scan(place, rng.uniform(-0.4, 0.4), side + rng.uniform(-0.3, 0.3),
                              heading + rng.uniform(-5.0, 5.0))
            scans.write_bin(root / f"{fid:06d}.bin",
                            scans.observe(scans.scene(3_000_000 + place), view, _rng(0, 8, fid)))
            self.route.append((self.spacing_m * place + view.tx, view.ty, view.yaw_deg))
            self.place_of.append(place)
        rows = "".join(f"{i},{x!r},{y!r},0.0,{yaw!r}\n" for i, (x, y, yaw) in enumerate(self.route))
        (root / "poses.csv").write_text("frame,x,y,z,yaw_deg\n" + rows)

    def setup(self):
        ds = datasets.load_dataset(self.work / "route", "generic")
        # warm-up: the first pass alone, which has nothing to close a loop with
        first = datasets.Dataset(ds.root, ds.fmt, dict(list(ds.scans.items())[: self.places]),
                                 ds.poses[: self.places], ds.planar_axes)
        evaluate.run_evaluation(first, self.cfg, self.work / "warm")
        return ds

    def round(self, ds) -> Round:
        out_dir = self.work / "eval"
        t0 = time.perf_counter()
        evaluate.run_evaluation(ds, self.cfg, out_dir)
        seconds = time.perf_counter() - t0
        bad, whole = checks.recount_evaluation(out_dir, self.route, self.place_of, self.cfg)
        size = sum(p.stat().st_size for p in out_dir.iterdir())
        n = len(self.route)
        return Round(seconds, [seconds * 1000.0 / n] * n, [(bad, whole)], {"artifact_bytes": size})

    def check(self, ds, rounds: list[Round]) -> tuple[list[int], list[str], dict]:
        failed, whole, named = [], [], set()
        for r in rounds:
            bad, problems = r.out[0]
            failed.append(len(bad))
            whole += problems
            named.update(f"frame {q}: {why}" for q, why in bad.items())
        return failed, sorted(set(whole)), {"failed_ops": sorted(named)}

    def layer_extra(self, traced: list[Round]) -> dict:
        return {"evaluate.artifact_bytes": float(traced[-1].extra["artifact_bytes"])}

    def summary(self, ds, rounds: list[Round]) -> dict:
        n = len(self.route) * len(rounds)
        return {"eval_keyframes_per_s": (n / sum(r.seconds for r in rounds), "keyframes/s")}


WORKLOADS = {"relocalize": Relocalize, "loop-eval": LoopEval}
