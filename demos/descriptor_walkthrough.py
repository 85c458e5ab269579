"""Walk one synthetic scan through the descriptor pipeline, stage by stage.

Shows what each stage contributes: ground removal, the height-encoded
bird's-eye grid, the magnitude spectrum that makes the descriptor ignore
translation, and the polar unroll that turns scene rotation into a column
shift we can search.

Run:  python demos/descriptor_walkthrough.py [--out DIR]
"""

import argparse
from pathlib import Path

import numpy as np

from fresco import synth
from fresco.bev import make_bev, write_pgm
from fresco.cloud import PointCloud, crop_window, remove_ground
from fresco.config import Config
from fresco.matching import best_shift_l1
from fresco.pipeline import describe
from fresco.spectrum import log_spectrum, polar_unroll


def scene_with_ground(seed: int) -> PointCloud:
    """A pillar/wall/ring scene sitting on a sampled ground plane."""
    scene = synth.generate(synth.SceneSpec(seed=seed, pillars=24, walls=6, rings=2))
    g = np.arange(-30.0, 30.0 + 1e-9, 0.5)
    gx, gy = np.meshgrid(g, g)
    ground = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, -1.6)])
    return PointCloud(xyz=np.vstack([scene.xyz, ground]))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=None, help="write the BEV image as bev.pgm here")
    args = ap.parse_args()

    cfg = Config()
    cloud = scene_with_ground(seed=5)
    print(f"raw scan: {len(cloud)} points")

    cropped = crop_window(cloud, cfg.window_m)
    cleaned = remove_ground(cropped, cfg.ground_cell_m, cfg.ground_margin_m)
    print(f"after {cfg.window_m:.0f} m window crop: {len(cropped)} points")
    print(f"after ground removal:        {len(cleaned)} points "
          f"({len(cropped) - len(cleaned)} ground returns dropped)")

    bev = make_bev(cleaned, cfg.window_m, cfg.grid_size)
    occupied = int((bev > 0).sum())
    print(f"bird's-eye grid: {cfg.grid_size}x{cfg.grid_size} cells, "
          f"{occupied} occupied, max height-encoded value {bev.max():.2f}")

    mag = log_spectrum(bev)
    print(f"log magnitude spectrum: {mag.shape[0]}x{mag.shape[1]}, "
          f"dc term {mag[cfg.grid_size // 2, cfg.grid_size // 2]:.2f} at center")

    desc = polar_unroll(mag, cfg.crop_size, cfg.radial_bins, cfg.angular_bins)
    print(f"descriptor: {desc.shape[0]} radii x {desc.shape[1]} bearings "
          f"({360.0 / cfg.angular_bins:.0f} deg per column)\n")

    # translation does not move the descriptor
    shifted = synth.perturb(cloud, tx=4.0, ty=-2.5)
    d_shift = best_shift_l1(describe(shifted, cfg), desc)
    print(f"same scene re-observed 4.7 m away:   d_l1 = {d_shift.d_l1:.4f}")

    # rotation moves it by whole columns, which the matcher recovers
    yaw = 51.0
    turned = synth.perturb(cloud, yaw_deg=yaw)
    d_turn = best_shift_l1(describe(turned, cfg), desc)
    print(f"same scene re-observed {yaw:.0f} deg turned: d_l1 = {d_turn.d_l1:.4f}, "
          f"best shift {d_turn.best_shift} columns -> "
          f"{d_turn.best_shift * 360.0 / cfg.angular_bins:.0f} deg "
          f"(spectrum sees rotation modulo 180)")

    other = describe(synth.generate(synth.SceneSpec(seed=77, pillars=24, walls=6, rings=2)), cfg)
    d_other = best_shift_l1(other, desc)
    print(f"a different place entirely:          d_l1 = {d_other.d_l1:.4f}")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        write_pgm(bev, args.out / "bev.pgm")
        print(f"\nwrote {args.out / 'bev.pgm'}")


if __name__ == "__main__":
    main()
