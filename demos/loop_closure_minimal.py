"""Online loop-closure on a simulated drive, entirely in memory.

A vehicle visits 60 distinct places, then returns to three of them from
different headings.  Every frame is described, queried against the index,
and then inserted; the exclusion horizon keeps the vehicle from "closing"
against the frames it just left behind.

Run:  python demos/loop_closure_minimal.py
"""

import numpy as np

from fresco import synth
from fresco.config import Config
from fresco.index import KeyframeIndex
from fresco.pipeline import compact_2d, describe_preprocessed, match, planar_pose, preprocess

REVISITS = {60: (12, 170.0), 61: (30, 85.0), 62: (47, -15.0)}


def main() -> None:
    cfg = Config()
    idx = KeyframeIndex(exclusion_horizon=10)
    scenes = {}
    clouds = []
    for i in range(60):
        scenes[i] = synth.generate(
            synth.SceneSpec(seed=900 + i, pillars=20, walls=6, rings=2, range_limit=30.0)
        )
        clouds.append(scenes[i])
    rng = np.random.default_rng(4)
    for fid, (back_to, yaw) in REVISITS.items():
        tx, ty = rng.uniform(-2.0, 2.0, 2)
        clouds.append(synth.perturb(scenes[back_to], tx=tx, ty=ty, yaw_deg=yaw))

    closures = 0
    pres = [preprocess(cloud, cfg) for cloud in clouds]  # each frame preprocessed once
    for fid, pre in enumerate(pres):
        desc = describe_preprocessed(pre, cfg)
        res = match(idx, desc, cfg)
        if res.accepted:
            closures += 1
            query, candidate = (compact_2d(p, cfg) for p in (pre, pres[res.candidate_id]))
            est = planar_pose(query, candidate, res.best_shift, cfg)
            expect = REVISITS.get(fid, (None, None))[0]
            mark = "ok" if res.candidate_id == expect else "WRONG PLACE"
            print(
                f"frame {fid:3d}: loop closed against frame {res.candidate_id} [{mark}]\n"
                f"           d_l1 {res.d_l1:.3f}, d_r {res.d_r:.4f}, "
                f"descriptor rotation {res.rotation_deg:.0f} deg\n"
                f"           relative pose ({est.tx:+.2f} m, {est.ty:+.2f} m, "
                f"{np.degrees(est.yaw):+.1f} deg), alignment mse {est.mse:.4f}"
            )
        idx.insert(fid, desc)

    print(f"\n{closures} closures accepted over {len(clouds)} frames "
          f"({len(REVISITS)} were genuine revisits)")


if __name__ == "__main__":
    main()
