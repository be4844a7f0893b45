#!/usr/bin/env python
"""E15: LP solver backends on the E14 grid — BENCH_4.json.

For each arity ``n`` and the four canonical ``Γn`` problems of
``bench_rowgen.py`` (E14) — ``valid-han``, ``invalid-pair``,
``feasible-point``, ``infeasible-system`` — the script runs the *row
generation* path through each solver backend:

* ``scipy`` — the keyed loop with every round a fresh ``linprog`` solve;
* ``highs`` — the keyed loop on one HiGHS model kept across rounds (cuts
              enter through ``addRows``), which these loops re-solve cold
              every round (see :func:`repro.lp.rowgen.minimize_lazy`).

The ``highs`` cells drive native ``highspy`` when it is installed and the
bindings scipy bundles otherwise; the report's ``native_highspy`` field
says which.

A second section benchmarks the Eq. (8)-aware seed: the Theorem 3.1
containment system of an ``n``-cycle vs. the vee query is decided by row
generation from the generic seed and from ``seed="containment"`` (all
``|K| ≤ 1`` submodularity rows), recording rounds, active rows and seconds.

Each cell runs in a fresh subprocess (cold process caches) under a
wall-clock budget; over-budget cells are recorded as ``"timeout"``.

Usage::

    PYTHONPATH=src python benchmarks/bench_backend.py               # full grid
    PYTHONPATH=src python benchmarks/bench_backend.py --budget 60
    PYTHONPATH=src python benchmarks/bench_backend.py --sizes 6 8
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
DEFAULT_SIZES = (6, 8, 10, 12)
PROBLEMS = ("valid-han", "invalid-pair", "feasible-point", "infeasible-system")
BACKEND_CONFIGS = ("scipy", "highs")
SEED_SIZES = (6, 8, 10, 12)


def _ground(n):
    return tuple(f"X{i}" for i in range(1, n + 1))


def _expressions(n):
    from repro.infotheory.expressions import LinearExpression

    ground = _ground(n)
    full = frozenset(ground)
    han = LinearExpression(
        ground=ground,
        coefficients={**{full - {v}: 1.0 for v in ground}, full: -(n - 1)},
    )
    bad = LinearExpression(
        ground=ground,
        coefficients={
            frozenset({ground[0]}): 1.0,
            frozenset({ground[1]}): 1.0,
            frozenset({ground[0], ground[1]}): -1.5,
        },
    )
    return ground, han, bad


def run_cell(n: int, problem: str, config: str) -> dict:
    """Worker body: solve one (n, problem, backend) cell, return measurements."""
    import numpy as np
    import scipy.sparse as sp

    from repro.infotheory.shannon import ShannonProver
    from repro.lp.backends import resolve_backend
    from repro.lp.rowgen import (
        RowGenOptions,
        check_feasibility_lazy,
        minimize_lazy,
        shannon_row_oracle,
    )
    from repro.utils.lattice import lattice_context

    ground, han, bad = _expressions(n)
    oracle = shannon_row_oracle(ground)
    backend = resolve_backend(config)
    started = time.perf_counter()
    if problem in ("valid-han", "invalid-pair"):
        expression = han if problem == "valid-han" else bad
        prover = ShannonProver(ground)
        objective = prover.expression_vector(expression)
        # h(V) is the last canonical non-empty subset: the normalization row.
        total_row = sp.csr_matrix(
            ([1.0], ([0], [len(objective) - 1])), shape=(1, len(objective))
        )
        result = minimize_lazy(
            objective,
            oracle,
            A_ub=total_row,
            b_ub=np.array([1.0]),
            bounds=(0, 1),
            options=RowGenOptions(early_stop_objective=-1e-9),
            backend=backend,
        )
        seconds = time.perf_counter() - started
        verdict = "valid" if result.objective >= -1e-7 else "invalid"
        report = result.rowgen
    else:
        branch = bad if problem == "feasible-point" else han
        lattice = lattice_context(ground)
        width = lattice.size - 1
        row = np.zeros((1, width))
        for subset, coefficient in branch.coefficients.items():
            row[0, lattice.canon_pos[lattice.mask_of(subset)] - 1] += coefficient
        feasible, _, report = check_feasibility_lazy(
            width, oracle, A_ub=row, b_ub=[-1.0], backend=backend
        )
        seconds = time.perf_counter() - started
        verdict = "point-found" if feasible else "no-point"
    return {
        "seconds": round(seconds, 3),
        "rows": report.rows_used,
        "rounds": report.rounds,
        "verdict": verdict,
    }


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
    """Worker body: the Eq. (8) system with one seed choice, on scipy rowgen."""
    import numpy as np

    from repro.lp.rowgen import RowGenOptions, check_feasibility_lazy, shannon_row_oracle

    ground, rows = _cycle_vs_vee(n)
    oracle = shannon_row_oracle(ground)
    started = time.perf_counter()
    feasible, _, report = check_feasibility_lazy(
        rows.shape[1],
        oracle,
        A_ub=rows,
        b_ub=-np.ones(rows.shape[0]),
        options=RowGenOptions(seed=seed),
    )
    return {
        "seconds": round(time.perf_counter() - started, 3),
        "rounds": report.rounds,
        "rows": report.rows_used,
        "ground_size": len(ground),
        "verdict": "point-found" if feasible else "no-point",
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
        "--sizes", type=int, nargs="*", default=list(DEFAULT_SIZES),
        help="arities to benchmark (default: 6 8 10 12)",
    )
    parser.add_argument(
        "--problems", nargs="*", default=list(PROBLEMS), choices=list(PROBLEMS),
        help="problem subset (default: all four)",
    )
    parser.add_argument(
        "--backends", nargs="*", default=list(BACKEND_CONFIGS),
        choices=list(BACKEND_CONFIGS), help="backend subset (default: all)",
    )
    parser.add_argument(
        "--seed-sizes", type=int, nargs="*", default=list(SEED_SIZES),
        help="arities for the Eq. (8) seed comparison (default: 6 8 10 12)",
    )
    parser.add_argument(
        "--output", default="BENCH_4.json", help="output path relative to repo root"
    )
    parser.add_argument("--worker", nargs=3, metavar=("N", "PROBLEM", "BACKEND"), default=None)
    parser.add_argument("--seed-worker", nargs=2, metavar=("N", "SEED"), default=None)
    args = parser.parse_args(argv)

    if args.worker is not None:
        n, problem, config = int(args.worker[0]), args.worker[1], args.worker[2]
        print(json.dumps(run_cell(n, problem, config)))
        return 0
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

    results = []
    for n in args.sizes:
        for problem in args.problems:
            for config in args.backends:
                record = {"n": n, "problem": problem, "backend": config}
                command = [sys.executable, script, "--worker", str(n), problem, config]
                _launch(command, env, args.budget, record, results)

    seed_results = []
    for n in args.seed_sizes:
        for seed in ("generic", "containment"):
            record = {"n": n, "seed": seed}
            command = [sys.executable, script, "--seed-worker", str(n), seed]
            _launch(command, env, args.budget, record, seed_results)

    output = REPO_ROOT / args.output
    report = {
        "experiment": "E15-backend-grid",
        "description": (
            "Row-generation Γn decisions across solver backends (the keyed loop "
            "on linprog solves and on one HiGHS model) on the "
            "E14 problem grid, plus the Eq. (8) "
            "containment-seed comparison (generic vs |K|<=1 seeding); fresh "
            "subprocess per cell, per-cell budget"
        ),
        "native_highspy": highs_available(),
        "budget_seconds": args.budget,
        "results": results,
        "seed_results": seed_results,
    }
    output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {output} ({len(results)} grid cells, {len(seed_results)} seed cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
