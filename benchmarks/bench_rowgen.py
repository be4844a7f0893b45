#!/usr/bin/env python
"""E14: dense elemental LP vs lazy row generation across ``n`` — BENCH_3.json.

For each arity ``n ∈ {6, 8, 10, 12}`` and four canonical ``Γn`` problems
covering both primitives in both verdict directions —

* ``valid-han``: minimize-over-the-slice on the Shannon-valid Han-type
  inequality ``Σ_i h(V \\ i) ≥ (n-1)·h(V)`` (rowgen early-stops on the
  relaxation lower bound);
* ``invalid-pair``: the same primitive on the invalid
  ``h(1) + h(2) ≥ 1.5·h(12)`` — the minimum is a *negative vertex*, which
  the dense LP grinds towards over all ``C(n,2)·2^(n-2)`` rows;
* ``feasible-point``: ``find_point_below`` with the violating branch (a
  cone point exists);
* ``infeasible-system``: ``find_point_below`` with the valid branch (the
  system is infeasible)

— the script runs both solver paths in fresh subprocesses (cold caches for
both, so dense pays its matrix build exactly as a new serving process
would) under a per-cell wall-clock budget, and writes ``BENCH_3.json`` at
the repo root with wall-clock seconds, peak row counts (full matrix for
dense, final active set for rowgen), rowgen rounds and verdicts.  A cell
exceeding the budget is recorded as ``"timeout"``; at ``n = 12`` the dense
``invalid-pair`` cell is the expected timeout, and the rowgen cell deciding
the same problem inside the budget is the acceptance evidence for this PR.

Usage::

    PYTHONPATH=src python benchmarks/bench_rowgen.py              # full grid
    PYTHONPATH=src python benchmarks/bench_rowgen.py --budget 60
    PYTHONPATH=src python benchmarks/bench_rowgen.py --sizes 6 8
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
PATHS = ("dense", "rowgen")


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


def _pin_path(path: str) -> None:
    """Send every ``Γn`` LP of this worker process down ``path``.

    The library picks the path from the row count alone; the cell pins it
    by moving both thresholds out of reach (dense) or below every row count
    (rowgen).  Each cell runs in its own worker, so nothing is restored.
    """
    from repro.lp import rowgen

    threshold = sys.maxsize if path == "dense" else -1
    rowgen.AUTO_ROW_THRESHOLD = rowgen.AUTO_BLOCK_ROW_THRESHOLD = threshold


def run_cell(n: int, problem: str, path: str) -> dict:
    """Worker body: solve one (n, problem, path) cell, return measurements."""
    from repro.lp.backends import resolve_backend
    from repro.lp.rowgen import shannon_row_oracle

    _pin_path(path)
    ground, han, bad = _expressions(n)
    oracle = shannon_row_oracle(ground)
    # The HiGHS bindings load at the first solve; keep that out of the timing.
    resolve_backend()
    started = time.perf_counter()
    if problem in ("valid-han", "invalid-pair"):
        from repro.infotheory.shannon import ShannonProver

        expression = han if problem == "valid-han" else bad
        prover = ShannonProver(ground)
        if path == "rowgen":
            # The LP-layer call the prover makes, issued directly so the one
            # timed solve also reports its active set and rounds.
            valid, report = _rowgen_validity(prover, expression)
            seconds = time.perf_counter() - started
        else:
            valid = prover.is_valid(expression)
            seconds = time.perf_counter() - started
            report = None
        verdict = "valid" if valid else "invalid"
    else:
        branch = bad if problem == "feasible-point" else han
        if path == "rowgen":
            import numpy as np

            from repro.lp.rowgen import minimize_lazy
            from repro.lp.solver import LPStatus
            from repro.utils.lattice import lattice_context

            lattice = lattice_context(ground)
            width = lattice.size - 1
            row = np.zeros((1, width))
            for subset, coefficient in branch.coefficients.items():
                row[0, lattice.canon_pos[lattice.mask_of(subset)] - 1] += coefficient
            result = minimize_lazy(np.zeros(width), oracle, A_ub=row, b_ub=[-1.0])
            seconds = time.perf_counter() - started
            verdict = "point-found" if result.status == LPStatus.OPTIMAL else "no-point"
            report = result.rowgen
        else:
            from repro.infotheory.cones import cone_by_name

            cone = cone_by_name("gamma", ground)
            point = cone.find_point_below([branch])
            seconds = time.perf_counter() - started
            verdict = "point-found" if point is not None else "no-point"
            report = None
    cell = {"seconds": round(seconds, 3), "verdict": verdict}
    if report is None:
        cell["rows"] = oracle.row_count
    else:
        cell.update(rows=report.rows_used, rounds=report.rounds)
    return cell


def _rowgen_validity(prover, expression):
    """The rowgen validity decision with its :class:`RowGenReport` (one solve)."""
    import numpy as np
    import scipy.sparse as sp

    from repro.lp.rowgen import RowGenOptions
    from repro.lp.solver import minimize

    objective = prover.expression_vector(expression)
    # h(V) is the last canonical non-empty subset: the normalization row.
    total_row = sp.csr_matrix(
        ([1.0], ([0], [len(objective) - 1])), shape=(1, len(objective))
    )
    result = minimize(
        objective,
        A_ub=total_row,
        b_ub=np.array([1.0]),
        bounds=(0, 1),
        lazy_rows=prover._oracle,
        rowgen_options=RowGenOptions(early_stop_objective=-1e-9),
    )
    return result.objective >= -1e-7, result.rowgen


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
        "--output", default="BENCH_3.json", help="output path relative to repo root"
    )
    parser.add_argument("--worker", nargs=3, metavar=("N", "PROBLEM", "PATH"), default=None)
    args = parser.parse_args(argv)

    if args.worker is not None:
        n, problem, path = int(args.worker[0]), args.worker[1], args.worker[2]
        print(json.dumps(run_cell(n, problem, path)))
        return 0

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    results = []
    for n in args.sizes:
        for problem in args.problems:
            for path in PATHS:
                command = [
                    sys.executable,
                    str(Path(__file__).resolve()),
                    "--worker",
                    str(n),
                    problem,
                    path,
                ]
                print(f"n={n:2d} {problem:24s} {path:6s} ... ", end="", flush=True)
                try:
                    completed = subprocess.run(
                        command,
                        env=env,
                        capture_output=True,
                        text=True,
                        timeout=args.budget,
                        cwd=REPO_ROOT,
                    )
                except subprocess.TimeoutExpired:
                    print(f"TIMEOUT (> {args.budget:.0f}s)")
                    results.append(
                        {
                            "n": n,
                            "problem": problem,
                            "path": path,
                            "status": "timeout",
                            "budget_seconds": args.budget,
                        }
                    )
                    continue
                if completed.returncode != 0:
                    print("ERROR")
                    sys.stderr.write(completed.stderr)
                    results.append(
                        {"n": n, "problem": problem, "path": path, "status": "error"}
                    )
                    continue
                cell = json.loads(completed.stdout.strip().splitlines()[-1])
                print(
                    f"{cell['seconds']:8.2f}s  rows={cell['rows']:6d}  {cell['verdict']}"
                )
                results.append(
                    {"n": n, "problem": problem, "path": path, "status": "ok", **cell}
                )

    output = REPO_ROOT / args.output
    report = {
        "experiment": "E14-rowgen-vs-dense",
        "description": (
            "Wall-clock and peak row counts for Γn decisions through the dense "
            "elemental LP vs lazy row generation; fresh subprocess per cell, "
            "per-cell budget; dense timeouts at large n are the expected result"
        ),
        "budget_seconds": args.budget,
        "results": results,
    }
    output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {output} ({len(results)} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
