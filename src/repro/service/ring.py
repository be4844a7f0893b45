"""Consistent-hash ring for fleet routing.

Role
----
Maps 256-bit structural-hash integers (``repro.store.serialize.structural_hash``
of a canonical :class:`~repro.service.canonical.PairKey`) onto replica names so
that fleet membership changes move as few keys as possible.  The previous
``hash % n`` scheme remapped almost every key whenever a replica joined or
left; a ring with ``vnodes`` virtual points per member reshuffles only about
``1/n`` of the key space on a single add or remove, so a drained replica that
is re-warmed and re-admitted comes back to a mostly-warm shard.

Invariants
----------
* **Deterministic from the manifest.**  Ring points are SHA-256 digests of
  ``"{member}#{index}"`` labels — no process-seeded hashing — so two gateways
  built from identical ``fleet.json`` manifests (or the same gateway before
  and after a restart) route every key identically.  Member *order* does not
  matter; only the set of names and the vnode count do.
* **Drain is a membership filter, not a rebuild.**  :meth:`HashRing.owner`
  takes the currently-eligible member subset and walks clockwise past points
  owned by drained members.  Keys owned by healthy members never move while
  another member drains, and a re-admitted member reclaims exactly its old
  points.
* All points live on a fixed ``2**256`` circle, matching the width of
  ``structural_hash`` so routing needs no rescaling.

See ``docs/architecture.md`` (fleet layer) and ``docs/operations.md``
(drain/re-admit runbook) for how the gateway uses this module.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["DEFAULT_VNODES", "HashRing", "ring_point", "reshuffle_fraction"]

DEFAULT_VNODES = 64
"""Default virtual nodes per member.

64 points per replica keeps the expected load imbalance of a small fleet
within a few percent while the ring stays tiny (a 4-replica fleet has 256
points, i.e. one sorted list of ints).
"""

_RING_BITS = 256
_RING_SPACE = 1 << _RING_BITS


def ring_point(label: str) -> int:
    """Deterministic position of *label* on the ``2**256`` circle."""
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest(), "big")


class HashRing:
    """A consistent-hash ring over a fixed set of member names.

    The member set is fixed at construction (it mirrors the fleet manifest);
    transient unavailability is expressed per-lookup via the ``eligible``
    argument of :meth:`owner`, which keeps drain/re-admit cheap and keeps the
    ring itself immutable and trivially comparable.
    """

    def __init__(self, members: Sequence[str], vnodes: int = DEFAULT_VNODES) -> None:
        names = list(members)
        if not names:
            raise ValueError("a hash ring needs at least one member")
        if len(set(names)) != len(names):
            raise ValueError("ring member names must be unique")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self._members: Tuple[str, ...] = tuple(sorted(names))
        self._vnodes = vnodes
        points: List[Tuple[int, str]] = []
        for member in self._members:
            for index in range(vnodes):
                points.append((ring_point(f"{member}#{index}"), member))
        # Sorting on (point, member) makes the walk order total even in the
        # astronomically unlikely event of a SHA-256 point collision.
        points.sort()
        self._points = points
        self._positions = [point for point, _ in points]

    @property
    def members(self) -> Tuple[str, ...]:
        return self._members

    @property
    def vnodes(self) -> int:
        return self._vnodes

    def __len__(self) -> int:
        return len(self._points)

    def owner(self, hash_int: int, eligible: Optional[Iterable[str]] = None) -> str:
        """Return the member owning *hash_int*, walking clockwise.

        ``eligible`` restricts the walk to a subset of members (the healthy
        ones); points owned by other members are skipped, which is what makes
        a drain move only the drained member's keys.  Raises ``LookupError``
        when no eligible member exists and ``KeyError`` when ``eligible``
        names a member the ring does not know.
        """
        allowed: Optional[Set[str]] = None
        if eligible is not None:
            allowed = set(eligible)
            unknown = allowed.difference(self._members)
            if unknown:
                raise KeyError(f"unknown ring members: {sorted(unknown)}")
            if not allowed:
                raise LookupError("no eligible ring members")
        position = hash_int % _RING_SPACE
        start = bisect.bisect_left(self._positions, position)
        count = len(self._points)
        for step in range(count):
            _, member = self._points[(start + step) % count]
            if allowed is None or member in allowed:
                return member
        raise LookupError("no eligible ring members")  # pragma: no cover


def reshuffle_fraction(
    before: HashRing,
    after: HashRing,
    hashes: Sequence[int],
) -> float:
    """Fraction of *hashes* whose owner differs between two rings.

    The ring tests (``tests/unit/test_service_ring.py``) use it to check
    the consistent-hashing contract: adding or removing one member out of
    ``n`` should remap about ``1/n`` of a key sample, not all of it.
    """
    if not hashes:
        return 0.0
    moved = sum(1 for h in hashes if before.owner(h) != after.owner(h))
    return moved / len(hashes)


def assignment_counts(ring: HashRing, hashes: Sequence[int]) -> Dict[str, int]:
    """Per-member key counts for a hash sample (load-balance diagnostics)."""
    counts: Dict[str, int] = {member: 0 for member in ring.members}
    for h in hashes:
        counts[ring.owner(h)] += 1
    return counts
