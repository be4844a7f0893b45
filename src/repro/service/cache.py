"""The plan cache: structural pair key → previously computed result.

A bounded LRU mapping from :data:`~repro.service.canonical.PairKey` to
:class:`~repro.core.containment.ContainmentResult`.  Entries are stored in
*canonical* variables (the ``c0, c1, ...`` names of the key's labeling), and
the same canonical entry is what the durable verdict store persists (see
:mod:`repro.store`).  A hit returns the canonical entry; the service renames
it onto the requesting pair's variables when its evidence is read, so the
witness and inequality a caller sees are always expressed over the
requester's own variable names — never a representative's.

Membership semantics: ``key in cache`` is a first-class cache read.  It
counts a hit or a miss and refreshes the entry's LRU recency exactly like
:meth:`PlanCache.get`, so probe-then-get code paths cannot skew the hit
accounting relative to the entries they actually consume, and a just-probed
entry is the *most* recently used one (a probe can never be followed by the
probed entry's eviction before the get).  Use :meth:`PlanCache.peek` for
side-effect-free introspection.

Where the cache sits in the stack (and the durable tier behind it) is
diagrammed in ``docs/architecture.md``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional

from repro.core.containment import ContainmentResult
from repro.service.canonical import PairLabelings
from repro.service.evidence import canonical_mappings, rename_result


class PlanCache:
    """Bounded LRU cache of containment results keyed by structural hash."""

    def __init__(self, maxsize: Optional[int] = 4096):
        if maxsize is not None and maxsize <= 0:
            raise ValueError("cache maxsize must be positive (or None for unbounded)")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, ContainmentResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """A counting, recency-refreshing membership probe (see module docs)."""
        if key not in self._entries:
            self.misses += 1
            return False
        self._entries.move_to_end(key)
        self.hits += 1
        return True

    def peek(self, key: Hashable) -> Optional[ContainmentResult]:
        """The entry as stored (canonical variables), without counting a
        hit/miss or refreshing recency."""
        return self._entries.get(key)

    def get(self, key: Hashable) -> Optional[ContainmentResult]:
        """Look up an entry, counting the hit/miss and refreshing recency.

        The entry is returned as stored, in canonical variables.  The caller
        renames it onto a requester's variables only when the evidence is
        read (:attr:`repro.service.service.PairOutcome.result`, which also
        tags a replay ``provenance="cache-hit"``).
        """
        result = self._entries.get(key)
        if result is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return result

    def put(
        self,
        key: Hashable,
        result: ContainmentResult,
        labelings: Optional[PairLabelings] = None,
    ) -> ContainmentResult:
        """Insert a result; returns the entry as stored.

        With ``labelings`` the result's evidence is renamed onto the
        canonical ``c<i>`` variables first, so the entry answers every
        isomorphic pair (the returned canonical result is also what the
        durable store persists).  Without, the result is stored verbatim —
        the caller asserts it is already in canonical form.
        """
        if labelings is not None and isinstance(result, ContainmentResult):
            mapping1, mapping2 = canonical_mappings(labelings)
            result = rename_result(result, mapping1, mapping2)
        self._entries[key] = result
        self._entries.move_to_end(key)
        if self.maxsize is not None:
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return result

    def clear(self) -> None:
        self._entries.clear()
