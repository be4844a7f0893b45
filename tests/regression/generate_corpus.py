"""Regenerate ``containment_corpus.json`` (run manually, never from CI).

The corpus freezes known-verdict containment pairs — the paper's worked
examples plus deterministic seeds of the batch-workload generator — so that
future solver changes cannot silently flip verdicts.  Regeneration refuses
to write a corpus on which the dense and rowgen paths disagree, and it
refuses to *change* a frozen verdict (delete the entry explicitly if a
verdict is ever revised on purpose — that is the point of the file).

Usage::

    PYTHONPATH=src python tests/regression/generate_corpus.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# The path-pinning helper lives in tests/, one level up.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from lp_paths import pin_path  # noqa: E402
from repro.core.containment import decide_containment  # noqa: E402
from repro.workloads.generators import mixed_containment_pairs  # noqa: E402
from repro.workloads.paper_examples import (  # noqa: E402
    chaudhuri_vardi_example,
    example_3_5,
    example_e2_queries,
    vee_example,
)

CORPUS_PATH = Path(__file__).with_name("containment_corpus.json")


def serialize_query(query):
    return {
        "name": query.name,
        "body": ", ".join(str(atom) for atom in query.atoms),
        "head": list(query.head),
    }


def collect_pairs():
    pairs = []
    for example in (vee_example(), example_3_5()):
        pairs.append((example.name, example.q1, example.q2))
    cv_q1, cv_q2 = chaudhuri_vardi_example()
    pairs.append(("chaudhuri-vardi", cv_q1, cv_q2))
    e2 = example_e2_queries()
    pairs.append((e2.name, e2.q1, e2.q2))
    # Deterministic batch-workload seeds (the PR 2 benchmark families):
    # pure fresh pairs, no duplicates, so every entry is a distinct instance.
    for seed, count in ((0, 8), (1, 8)):
        workload = mixed_containment_pairs(
            count, seed=seed, duplicate_fraction=0.0, isomorphic_fraction=0.0
        )
        for index, (q1, q2) in enumerate(workload):
            pairs.append((f"workload-seed{seed}-{index}", q1, q2))
    return pairs


def main():
    previous = {}
    if CORPUS_PATH.exists():
        for entry in json.loads(CORPUS_PATH.read_text())["pairs"]:
            previous[entry["name"]] = entry["status"]
    entries = []
    for name, q1, q2 in collect_pairs():
        with pin_path("dense"):
            dense = decide_containment(q1, q2)
        with pin_path("rowgen"):
            rowgen = decide_containment(q1, q2)
        if dense.status != rowgen.status:
            raise SystemExit(
                f"{name}: dense={dense.status.value} rowgen={rowgen.status.value} — "
                "refusing to freeze a disagreement"
            )
        if name in previous and previous[name] != dense.status.value:
            raise SystemExit(
                f"{name}: frozen verdict {previous[name]!r} changed to "
                f"{dense.status.value!r} — delete the entry explicitly if intended"
            )
        entries.append(
            {
                "name": name,
                "q1": serialize_query(q1),
                "q2": serialize_query(q2),
                "status": dense.status.value,
                "method": dense.method,
            }
        )
    CORPUS_PATH.write_text(
        json.dumps(
            {
                "description": (
                    "Frozen known-verdict containment pairs; replayed through "
                    "both LP solver paths by test_containment_corpus.py"
                ),
                "pairs": entries,
            },
            indent=1,
        )
        + "\n"
    )
    print(f"wrote {CORPUS_PATH} ({len(entries)} pairs)")


if __name__ == "__main__":
    main()
