"""Pin the ``Γn`` LP path for the duration of a ``with`` block.

The library picks the dense elemental matrix or row generation from the
cone description's row count alone (:func:`repro.lp.rowgen.choose_path`).
The equivalence tests compare the two paths on the same small inputs, so
they pin one path at a time by patching the two row-count thresholds that
:func:`~repro.lp.rowgen.choose_path` reads at call time: ``"dense"`` raises
both out of reach and ``"rowgen"`` drops both below every row count.

A context manager rather than a fixture, so a Hypothesis test can switch
paths inside one example.  Importable from every test module: pytest puts
``tests/`` (the directory of the root ``conftest.py``) on ``sys.path``.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from unittest import mock

from repro.lp import rowgen

#: The two ``Γn`` LP paths, in the order the comparisons run them.
PATHS = ("dense", "rowgen")

_THRESHOLDS = {"dense": sys.maxsize, "rowgen": -1}


@contextmanager
def pin_path(path: str):
    """Send every ``Γn`` LP decided inside the block down ``path``."""
    threshold = _THRESHOLDS[path]
    with mock.patch.object(rowgen, "AUTO_ROW_THRESHOLD", threshold), mock.patch.object(
        rowgen, "AUTO_BLOCK_ROW_THRESHOLD", threshold
    ):
        yield
