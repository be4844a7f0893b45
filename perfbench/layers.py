"""Per-layer tracing from outside the program.

The benchmark adds no tracing inside ``src/``.  Instead, :class:`LayerTracer`
wraps each layer's public functions at the names their callers import them
by (``repro.core.witness.count_query_homomorphisms``,
``repro.service.engine.decide_max_ii_many``, ...) and records one span per
outermost call: ``(id, parent, layer, start, end, request)``.  Spans are kept
in memory and written out at the end of a run; a layer's self time is its
spans' durations minus the part of each span its child spans cover.

The program's own public counters complete the picture:
:func:`lp_counters` reads the LP layer's process-global registry and
:func:`exposition_deltas` turns two scrapes of a daemon's or gateway's
``metrics`` verb into histogram means and counter increments.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (module, attribute, layer, counter).  ``attribute`` may be ``Class.method``.
#: ``counter`` names a count the wrapper derives from each call's result.
WRAP_POINTS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    # Homomorphism counting: witness checks, brute force, hom(Q2, Q1).
    ("repro.cq.homomorphism", "count_query_homomorphisms", "cq.hom_count", None),
    ("repro.core.witness", "count_query_homomorphisms", "cq.hom_count", None),
    ("repro.core.brute_force", "count_query_homomorphisms", "cq.hom_count", None),
    ("repro.core.containment", "count_query_to_query_homomorphisms", "cq.hom_count", None),
    # Witness construction and verification.
    ("repro.core.witness", "verify_witness", "core.witness_verify", None),
    ("repro.core.containment", "verify_witness", "core.witness_verify", None),
    ("repro.core.brute_force", "verify_witness", "core.witness_verify", None),
    ("repro.core.containment", "witness_from_normal_coefficients", "core.witness_build", None),
    ("repro.core.containment", "witness_from_modular_weights", "core.witness_build", None),
    ("repro.core.containment", "brute_force_refute", "core.brute_force", None),
    # Eq. (8) inequality and the tree decompositions it is built from.
    (
        "repro.core.containment",
        "build_containment_inequality",
        "core.inequality_build",
        "core.inequality_branches",
    ),
    ("repro.core.containment", "has_simple_junction_tree", "cq.decomposition", None),
    ("repro.core.containment", "junction_tree", "cq.decomposition", None),
    ("repro.core.containment", "candidate_tree_decompositions", "cq.decomposition", None),
    (
        "repro.core.containment",
        "has_totally_disconnected_junction_tree",
        "cq.decomposition",
        None,
    ),
    ("repro.core.containment", "is_acyclic", "cq.decomposition", None),
    ("repro.core.containment", "is_chordal", "cq.decomposition", None),
    (
        "repro.core.containment_inequality",
        "candidate_tree_decompositions",
        "cq.decomposition",
        None,
    ),
    ("repro.cq.decompositions", "TreeDecomposition.validate", "cq.decomposition", None),
    # The Γn LP: grouped block solves and single-request solves.
    ("repro.service.engine", "decide_max_ii_many", "lp.block_solve", None),
    ("repro.service.engine", "decide_max_ii", "lp.scalar_solve", None),
    ("repro.service.engine", "BatchEngine.run_specs", "service.engine", None),
    # The durable store.
    ("repro.store.serialize", "find_convex_certificate", "store.certificate", None),
    ("repro.store.sqlite_store", "VerdictStore.record", "store.record", None),
    (
        "repro.store.sqlite_store",
        "VerdictStore.flush",
        "store.flush",
        "store.records_written",
    ),
    # Serving: canonical keys, evidence renaming, the daemon's wire codec.
    ("repro.service.service", "pair_key_with_labelings", "service.canonicalize", None),
    ("repro.service.service", "rename_result", "service.evidence_rename", None),
    ("repro.service.cache", "rename_result", "service.evidence_rename", None),
    ("repro.service.daemon", "parse_request", "daemon.parse", None),
    ("repro.service.daemon", "parse_query", "daemon.parse", None),
    ("repro.service.daemon", "encode_batch_response", "daemon.encode", None),
)

#: Every layer a traced run reports, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(point[2] for point in WRAP_POINTS))

_COUNTS: Dict[str, Callable[[object], float]] = {
    "core.inequality_branches": lambda inequality: len(inequality.branches),
    "store.records_written": lambda written: written,
}


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class LayerTracer:
    """Wraps the layer functions while installed; keeps spans in memory.

    Use as a context manager around the traced region.  Re-entrant calls of
    the same layer (a wrapped function calling another wrapped entry point
    of the same layer) are folded into the outermost span, so ``calls``
    counts entries into a layer, not internal recursion.
    """

    def __init__(self):
        self.spans: List[Tuple[int, Optional[int], str, float, float, Optional[int]]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Request id stamped on every span recorded from now on.
        self.request_id: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[Tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, function, layer: str, counter: Optional[str]):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == layer:
                return function(*args, **kwargs)
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            stack.append((span_id, layer))
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, layer, start, end, tracer.request_id)
                )
            if counter is not None:
                tracer.counts[counter] += _COUNTS[counter](result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("the layer tracer is already installed")
        for module_name, attribute, layer, counter in WRAP_POINTS:
            owner, name = _resolve(module_name, attribute)
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # Reports
    # ------------------------------------------------------------------ #
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``self_s`` (duration minus child coverage) and ``calls``."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for span_id, _, layer, start, end, _ in self.spans:
            covered = _covered(start, end, children.get(span_id, ()))
            entry = totals[layer]
            entry["self_s"] += (end - start) - covered
            entry["calls"] += 1
        return totals

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, layer, start, end, request in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": layer,
                            "start": start,
                            "end": end,
                            "request": request,
                        }
                    )
                    + "\n"
                )


def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


# ---------------------------------------------------------------------- #
# The program's public counters
# ---------------------------------------------------------------------- #
def _series_total(samples, name: str) -> float:
    return float(sum(samples.get(name, {}).values()))


def lp_counters() -> Dict[str, float]:
    """Row-generation rounds and cuts from the process-global LP registry."""
    from repro.obs.metrics import global_registry, parse_exposition

    samples = parse_exposition(global_registry().render())
    return {
        "lp.rowgen_rounds": _series_total(samples, "repro_rowgen_rounds_total"),
        "lp.rowgen_cuts": _series_total(samples, "repro_rowgen_cuts_total"),
    }


def exposition_deltas(before: str, after: str) -> Dict[str, float]:
    """Counter and histogram ``_sum``/``_count`` increments between two scrapes.

    Labelled series are summed, so the result is keyed by metric name only.
    """
    from repro.obs.metrics import parse_exposition

    first, second = parse_exposition(before), parse_exposition(after)
    return {
        name: _series_total(second, name) - _series_total(first, name)
        for name in second
        if not name.endswith("_bucket")
    }
