"""The pair sets the benchmark and the parity tests share.

``batch-cold`` is the benchmark's catalogue (E13's 48 family pairs and the 3
LP pairs, read from ``perfbench/workloads.py``), ``e13`` is
``mixed_containment_pairs(128, seed=7)`` and ``corpus`` the 20 frozen pairs
of ``tests/regression/containment_corpus.json``.  Importable from every test
module: pytest puts ``tests/`` (the directory of the root ``conftest.py``)
on ``sys.path``.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from repro.cq.parser import parse_query
from repro.cq.query import ConjunctiveQuery
from repro.service.canonical import pair_key
from repro.workloads.generators import mixed_containment_pairs

ROOT = Path(__file__).resolve().parents[1]


def benchmark_workloads():
    """``perfbench/workloads.py``, loaded once per process."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    return workloads


def benchmark_catalogue():
    """The ``batch-cold`` catalogue: E13's 48 family pairs and the 3 LP pairs."""
    return benchmark_workloads().cold_catalogue(lambda pair: pair_key(*pair))[0]


def corpus_pairs():
    def query(record):
        parsed = parse_query(record["body"], name=record["name"])
        if record["head"]:
            return ConjunctiveQuery(atoms=parsed.atoms, head=tuple(record["head"]))
        return parsed

    corpus = json.loads((ROOT / "tests" / "regression" / "containment_corpus.json").read_text())
    return [(query(entry["q1"]), query(entry["q2"])) for entry in corpus["pairs"]]


PAIR_SETS = {
    "batch-cold": benchmark_catalogue,
    "e13": lambda: mixed_containment_pairs(128, seed=7),
    "corpus": corpus_pairs,
}
