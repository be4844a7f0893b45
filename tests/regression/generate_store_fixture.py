"""Write ``store_records_nested_values.jsonl`` (run manually, never from CI).

The fixture is a ``repro cache export`` of a small verdict store that holds
one record of each kind of evidence, written by the build *before* witness
records were renumbered: its witnesses keep their original domain values
(nested ``{"t": [...]}`` objects for the tuples of the normal-witness
construction) and every list is sorted by its JSON text.
``test_store_fixture.py`` imports it into a fresh store and checks that the
current build still reads and verifies that encoding.

Do not regenerate the committed file: a current build writes the current
encoding, and the fixture would then no longer test the older one.  The
script is kept to say how the fixture was made.

Usage::

    PYTHONPATH=src python tests/regression/generate_store_fixture.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.cli import main as repro_main
from repro.cq.parser import parse_query
from repro.service import BatchOptions, ContainmentService

FIXTURE_PATH = Path(__file__).with_name("store_records_nested_values.jsonl")

CYCLE4 = "R(x0, x1), R(x1, x2), R(x2, x3), R(x3, x0)"

#: ``(name, Q1, Q2, expected status, expected method)``, one per evidence kind.
PAIRS = (
    # A Lemma E.1 normal witness: values nest one tuple level per step copy.
    (
        "path4-path2",
        "R(x0, x1), R(x1, x2), R(x2, x3), R(x3, x4)",
        "R(x0, x1), R(x1, x2)",
        "not_contained",
        "theorem-3.1",
    ),
    # A product witness (512 relation rows, 384 facts).
    (
        "clique3-star1",
        "R(x0, x1), R(x0, x2), R(x1, x0), R(x1, x2), R(x2, x0), R(x2, x1)",
        "R(c, x1)",
        "not_contained",
        "theorem-3.1",
    ),
    # The general route (non-chordal Q2) refuted by witness search.
    (
        "random-cycle4-search",
        "R(x3, x2), R(x2, x1), R(x3, x3), R(x0, x1)",
        CYCLE4,
        "not_contained",
        "witness-search",
    ),
    # No homomorphism Q2 -> Q1: the canonical database of Q1 refutes.
    (
        "random-cycle4-nohom",
        "R(x1, x2), R(x1, x0)",
        CYCLE4,
        "not_contained",
        "no-homomorphism",
    ),
    # CONTAINED verdicts carrying Theorem 6.1 certificates.
    (
        "triangle-vee",
        "R(x, y), R(y, z), R(z, x)",
        "R(a, b), R(a, c)",
        "contained",
        "theorem-3.1",
    ),
    (
        "cycle4-path3",
        CYCLE4,
        "R(x0, x1), R(x1, x2), R(x2, x3)",
        "contained",
        "theorem-3.1",
    ),
)


def main():
    pairs = [(parse_query(q1, name=f"{name}-q1"), parse_query(q2, name=f"{name}-q2"))
             for name, q1, q2, _status, _method in PAIRS]
    with tempfile.TemporaryDirectory() as directory:
        store_path = str(Path(directory) / "fixture.sqlite")
        service = ContainmentService(BatchOptions(on_error="raise", store_path=store_path))
        try:
            results = service.run(pairs).results
        finally:
            service.close()
        for (name, _q1, _q2, status, method), result in zip(PAIRS, results):
            if (result.status.value, result.method) != (status, method):
                raise SystemExit(
                    f"{name}: got {result.status.value}/{result.method}, "
                    f"expected {status}/{method}"
                )
        code = repro_main(["cache", "export", "--store", store_path, str(FIXTURE_PATH)])
        if code != 0:
            raise SystemExit(code)
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
