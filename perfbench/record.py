"""Record the benchmark's baseline into ``perfbench/baseline.json``.

Run from the repository root::

    python3 perfbench/record.py --seed 1

For every workload this runs ``perfbench/run.py`` once untraced (the
end-to-end metrics) and once traced (the per-layer metrics, among them each
layer's share of the traced wall), and writes them together with
the run settings and an environment fingerprint: core count, Python, numpy
and scipy versions, whether ``highspy`` is importable, and the LP backend
``"auto"`` resolves to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fingerprint() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    from repro.lp.backends import highs_available, resolve_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highspy": highs_available(),
        "lp_backend": resolve_backend("auto").name,
    }


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        check=True,
        capture_output=True,
        text=True,
        cwd=str(ROOT),
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    sys.path.insert(0, str(HERE))
    import run as bench
    from layers import LAYERS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    baseline = {
        "environment": fingerprint(),
        "settings": {
            "run_seconds": seconds,
            "seed": args.seed,
            "offered_rate_rps": bench.OFFERED_RATE,
            "open_loop_pairs_per_request": bench.OPEN_LOOP_PAIRS,
            "latency_limit_ms": bench.LATENCY_LIMIT_S * 1000.0,
            "clients": bench.CLIENTS,
            "replicas": bench.REPLICAS,
            "closed_loop_share": bench.CLOSED_LOOP_SHARE,
            "setup_repeats": bench.SETUP_REPEATS,
            "hash_seed": bench.HASH_SEED,
        },
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        traced = run(name, args.seed, seconds, 1)
        baseline["workloads"][name] = {
            "why": workload["why"],
            "end_to_end": run(name, args.seed, seconds, 0),
            "per_layer": traced,
            "layer_share": {
                layer: traced["metrics"][f"{layer}.share"] for layer in LAYERS
            },
        }
        print(f"recorded {name}", flush=True)
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
