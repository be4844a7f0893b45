#!/usr/bin/env python
"""E15: the Eq. (8) containment seed for row generation — BENCH_4.json.

The Theorem 3.1 containment system of an ``n``-cycle vs. the vee query is
decided by row generation on HiGHS (:func:`repro.lp.rowgen.minimize_lazy`)
from the generic seed and from ``seed="containment"`` (all ``|K| ≤ 1``
submodularity rows), recording rounds, active rows and seconds.  The
E14 problem grid on row generation is ``bench_rowgen.py``'s (BENCH_3).

The cells drive native ``highspy`` when it is installed and the bindings
scipy bundles otherwise; the report's ``native_highspy`` field says which.

Each cell runs in a fresh subprocess (cold process caches) under a
wall-clock budget; over-budget cells are recorded as ``"timeout"``.

Usage::

    PYTHONPATH=src python benchmarks/bench_backend.py               # n = 6 8 10 12
    PYTHONPATH=src python benchmarks/bench_backend.py --budget 60
    PYTHONPATH=src python benchmarks/bench_backend.py --seed-sizes 6 8
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SEED_SIZES = (6, 8, 10, 12)


def _cycle_vs_vee(n):
    """The Theorem 3.1 / Eq. (8) system of the n-cycle vs the vee query."""
    from repro.core.containment_inequality import build_containment_inequality
    from repro.cq.parser import parse_query
    from repro.cq.reductions import to_boolean_pair
    from repro.infotheory.shannon import shannon_prover

    body = ", ".join(f"R(x{i}, x{i % n + 1})" for i in range(1, n + 1))
    q1, q2 = to_boolean_pair(parse_query(body), parse_query("R(a,b), R(a,c)"))
    inequality = build_containment_inequality(q1, q2)
    prover = shannon_prover(inequality.ground)
    branches = [
        branch.with_ground(inequality.ground)
        for branch in inequality.as_max_ii().branches
    ]
    import numpy as np

    rows = np.array([prover.expression_vector(branch) for branch in branches])
    return inequality.ground, rows


def run_seed_cell(n: int, seed: str) -> dict:
    """Worker body: the Eq. (8) system with one seed choice, by row generation."""
    import numpy as np

    from repro.lp.backends import resolve_backend
    from repro.lp.rowgen import RowGenOptions, minimize_lazy, shannon_row_oracle
    from repro.lp.solver import LPStatus

    ground, rows = _cycle_vs_vee(n)
    oracle = shannon_row_oracle(ground)
    # The HiGHS bindings load at the first solve; keep that out of the timing.
    resolve_backend()
    started = time.perf_counter()
    result = minimize_lazy(
        np.zeros(rows.shape[1]),
        oracle,
        A_ub=rows,
        b_ub=-np.ones(rows.shape[0]),
        options=RowGenOptions(seed=seed),
    )
    return {
        "seconds": round(time.perf_counter() - started, 3),
        "rounds": result.rowgen.rounds,
        "rows": result.rowgen.rows_used,
        "ground_size": len(ground),
        "verdict": "point-found" if result.status == LPStatus.OPTIMAL else "no-point",
    }


def _launch(command, env, budget, record, results):
    print(
        "  ".join(f"{k}={v}" for k, v in record.items()) + " ... ",
        end="",
        flush=True,
    )
    try:
        completed = subprocess.run(
            command,
            env=env,
            capture_output=True,
            text=True,
            timeout=budget,
            cwd=REPO_ROOT,
        )
    except subprocess.TimeoutExpired:
        print(f"TIMEOUT (> {budget:.0f}s)")
        results.append({**record, "status": "timeout", "budget_seconds": budget})
        return
    if completed.returncode != 0:
        print("ERROR")
        sys.stderr.write(completed.stderr)
        results.append({**record, "status": "error"})
        return
    cell = json.loads(completed.stdout.strip().splitlines()[-1])
    print(f"{cell['seconds']:8.2f}s  rows={cell['rows']:6d}  rounds={cell['rounds']}")
    results.append({**record, "status": "ok", **cell})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--budget",
        type=float,
        default=180.0,
        help="per-cell wall-clock budget in seconds (default 180)",
    )
    parser.add_argument(
        "--seed-sizes", type=int, nargs="*", default=list(SEED_SIZES),
        help="arities for the Eq. (8) seed comparison (default: 6 8 10 12)",
    )
    parser.add_argument(
        "--output", default="BENCH_4.json", help="output path relative to repo root"
    )
    parser.add_argument("--seed-worker", nargs=2, metavar=("N", "SEED"), default=None)
    args = parser.parse_args(argv)

    if args.seed_worker is not None:
        print(json.dumps(run_seed_cell(int(args.seed_worker[0]), args.seed_worker[1])))
        return 0

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.lp.backends import highs_available

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    script = str(Path(__file__).resolve())

    seed_results = []
    for n in args.seed_sizes:
        for seed in ("generic", "containment"):
            record = {"n": n, "seed": seed}
            command = [sys.executable, script, "--seed-worker", str(n), seed]
            _launch(command, env, args.budget, record, seed_results)

    output = REPO_ROOT / args.output
    report = {
        "experiment": "E15-containment-seed",
        "description": (
            "The Eq. (8) containment system of the n-cycle vs the vee query by "
            "row generation on HiGHS, generic vs |K|<=1 seeding; fresh "
            "subprocess per cell, per-cell budget"
        ),
        "native_highspy": highs_available(),
        "budget_seconds": args.budget,
        "seed_results": seed_results,
    }
    output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {output} ({len(seed_results)} seed cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
