"""FreSCo benchmark: relocalize and loop-eval on ground-bearing scans.

One run:

    python3 benchmarks/run.py --workload relocalize --seed 1 --seconds 30 --trace 0

generates the workload's inputs from the seed, sets up three times, repeats
whole rounds of operations for at least ``--seconds`` of measured time,
checks every output, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the rounds alternate
untraced and traced, and the metrics are the per-layer ones of the traced
rounds plus the tracing overhead.

Steadiness mode, ``--repeat N``, runs N single runs one after another, each
its own process with seeds seed, seed+1, ..., and prints each metric's
median, quartiles and quartile spread as a share of the median.

Run it from the root of a source checkout: it imports ``fresco`` from
``src/`` there and writes only under ``benchmarks/``.
"""

from __future__ import annotations

import os

# one process, one closed-loop caller, pinned before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS = 3

# end-to-end metric -> unit; definitions per workload are in README.md
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_mean": "ms",
    "peak_rss_mb": "MiB",
}


def _import_program():
    if not (SRC / "fresco" / "__init__.py").is_file():
        raise SystemExit(f"error: no fresco sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fresco  # noqa: F401


def run_once(args) -> int:
    _import_program()
    import numpy as np
    import scipy

    import spans
    from workloads import WORKLOADS

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](work, args.seed)
        wl.generate()
        setup_s = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            state = wl.setup()
            setup_s.append(time.perf_counter() - t0)

        tracer = spans.Tracer() if args.trace else None
        plain, traced = [], []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        while (sum(r.seconds for r in plain + traced) < args.seconds
               or (tracer is not None and not (plain and traced))):
            # untraced, traced, traced, untraced, ...: a steady drift cancels
            on = tracer is not None and len(plain + traced) % 4 in (1, 2)
            with tracer if on else nullcontext():
                (traced if on else plain).append(wl.round(state))
        rounds = plain + traced
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        failed, whole, notes = wl.check(state, rounds)
        summary = wl.summary(state, rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(r.op_ms) for r in rounds)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary["peak_rss_mb"] = (peak_mib, "MiB")
    summary["rounds_wall_s"] = (wall, "s")
    summary["rounds_cpu_s"] = (cpu, "s")
    for name, (value, unit) in summary.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    for line in notes.pop("failed_ops"):
        print(f"failed: {line}")
    for line in whole:
        print(f"check: {line}")
    print("notes: " + json.dumps(notes))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"env: nproc={os.cpu_count()} numpy={np.__version__} scipy={scipy.__version__} "
          f"blas={blas.get('name')}-{blas.get('version')} FRESCO_THREADS={os.environ['FRESCO_THREADS']}")

    if tracer is None:
        per_op = [ms for r in plain for ms in r.op_ms]
        metrics = {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": attempted / sum(r.seconds for r in plain),
            # the mean, not the median: the host's slow stretches cover a
            # varying share of a run, and the median jumps between them
            "op_ms_mean": float(np.mean(per_op)),
            "peak_rss_mb": peak_mib,
        }
        units = END_TO_END
    else:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        extra = {"trace.overhead_pct": 100.0 * (
            statistics.median(r.seconds for r in traced)
            / statistics.median(r.seconds for r in plain) - 1.0)}
        extra.update(wl.layer_extra(traced))
        ops = sum(len(r.op_ms) for r in traced)
        metrics = spans.per_layer(tracer, ops, extra)
        units = {k: u for k, (u, _) in spans.PER_LAYER.items()}
        if tracer.absent:
            print("absent: " + ", ".join(tracer.absent))
    result = {
        "correct": not whole,
        "attempted": attempted,
        "failed": sum(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def repeat(args) -> int:
    """Run N single runs in turn and print each metric's median and quartiles."""
    values: dict[str, list[float]] = {}
    for i in range(args.repeat):
        cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
               "--seed", str(args.seed + i), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--threads", str(args.threads)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            if line.startswith(f"{args.workload}: "):
                name, rest = line.split(": ", 1)[1].split(" = ")
                values.setdefault(name, []).append(float(rest.split()[0]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {args.seed + i}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
              flush=True)
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("relocalize", "loop-eval"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, help="steadiness mode: N runs in turn")
    ap.add_argument("--threads", type=int, default=1,
                    help="FRESCO_THREADS for the program; 1 unless taking a reference figure")
    args = ap.parse_args(argv)
    os.environ["FRESCO_THREADS"] = str(args.threads)
    return repeat(args) if args.repeat else run_once(args)


if __name__ == "__main__":
    sys.exit(main())
