"""Decide the ``batch-cold`` catalogue one pair at a time.

Run from the repository root::

    python3 perfbench/single.py

Runs :func:`~repro.core.containment.decide_containment` over every pair of
the ``batch-cold`` catalogue, in catalogue order, and prints one JSON object
with the status of each pair.  These are the reference verdicts of both
workloads: the catalogue starts with the E13 catalogue that ``serve-warm``
primes.  ``perfbench/run.py`` runs it in a process of its own, outside the
timed phases, so that its heap does not weigh on the measured process's
garbage collections.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.containment import decide_containment  # noqa: E402
from repro.exceptions import ReproError  # noqa: E402
from repro.service.canonical import pair_key  # noqa: E402
from workloads import cold_catalogue  # noqa: E402


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    catalogue, _ = cold_catalogue(key=lambda pair: pair_key(*pair))
    statuses = []
    for pair in catalogue:
        try:
            statuses.append(decide_containment(*pair).status.value)
        except ReproError as error:
            statuses.append(f"error: {error}")
    print(json.dumps({"statuses": statuses}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
