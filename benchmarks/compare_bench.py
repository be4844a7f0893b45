#!/usr/bin/env python
"""Diff a quick-mode E15 benchmark run against a committed baseline.

The CI ``bench-smoke`` job runs ``bench_backend.py`` on the small end of its
seed comparison (``--seed-sizes 6``) and feeds its output here together with
the committed ``BENCH_4.json``.  Every *shared* metric — a seed cell with the
same ``(n, seed)`` and status ``ok`` on both sides — is compared on its
``seconds`` field; a regression beyond ``--factor`` (default 2x) emits a
GitHub Actions ``::warning::`` annotation.

Deliberately non-blocking: CI runners are noisy and the baseline was
measured on different hardware, so the diff is an early-warning signal on
the Actions UI, not a gate.  Cells faster than ``--floor`` seconds on the
baseline side are skipped outright (sub-10ms timings are mostly noise).

Exit code is 0 unless the inputs are unreadable or no metric is shared at
all (which would mean the smoke run silently stopped covering the grid).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _indexed(report: dict) -> dict:
    return {
        ("seed", cell["n"], cell["seed"]): cell
        for cell in report.get("seed_results", [])
        if cell.get("status") == "ok"
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="quick-mode benchmark JSON (the fresh run)")
    parser.add_argument("baseline", help="committed baseline JSON (e.g. BENCH_4.json)")
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="warn when current/baseline exceeds this ratio (default 2.0)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=0.01,
        help="skip cells whose baseline is below this many seconds (default 0.01)",
    )
    args = parser.parse_args(argv)

    try:
        current = _indexed(json.loads(Path(args.current).read_text()))
        baseline = _indexed(json.loads(Path(args.baseline).read_text()))
    except (OSError, json.JSONDecodeError) as error:
        print(f"::error::compare_bench could not read its inputs: {error}")
        return 1

    shared = sorted(set(current) & set(baseline))
    if not shared:
        print(
            "::error::the quick benchmark run shares no ok-status metric with "
            f"{args.baseline} — the smoke grid no longer overlaps the baseline"
        )
        return 1

    regressions = 0
    compared = 0
    for key in shared:
        base_seconds = baseline[key]["seconds"]
        now_seconds = current[key]["seconds"]
        label = ":".join(str(part) for part in key)
        if base_seconds < args.floor:
            print(f"  skip {label}: baseline {base_seconds:.4f}s below the noise floor")
            continue
        compared += 1
        ratio = now_seconds / base_seconds if base_seconds > 0 else float("inf")
        marker = " <-- REGRESSION" if ratio > args.factor else ""
        print(
            f"  {label}: baseline {base_seconds:.3f}s, current {now_seconds:.3f}s "
            f"(x{ratio:.2f}){marker}"
        )
        if ratio > args.factor:
            regressions += 1
            print(
                f"::warning::bench-smoke regression in {label}: "
                f"{base_seconds:.3f}s -> {now_seconds:.3f}s "
                f"(x{ratio:.2f} > x{args.factor:g} budget)"
            )

    print(
        f"compare_bench: {len(shared)} shared metrics, {compared} compared, "
        f"{regressions} over the x{args.factor:g} budget"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
