"""Tests for the ring-sharded, deduping fleet gateway.

The gateway is transport-complete without a bound socket: ``handle_batch``
and ``handle_line`` are coroutines driven directly under ``asyncio.run``,
with fake replicas served by ``asyncio.start_unix_server`` inside the same
loop for the failure-path tests.  Real daemons (served from background
threads, as in ``test_service_daemon``) cover verdict parity and the
end-to-end wire path; the deadline-propagation class is the satellite
coverage for gateway queueing + replica time.
"""

import asyncio
import json
import random
import sys
import threading
import time

import pytest

from repro.core.containment import decide_containment
from repro.cq.parser import parse_query
from repro.obs.metrics import parse_exposition
from repro.service import BatchOptions
from repro.service import fleet as fleet_module
from repro.service.canonical import canonical_text, pair_key
from repro.service.daemon import (
    DaemonClient,
    DaemonUnavailable,
    ShedOptions,
    daemon_available,
    serve,
)
from repro.service.fleet import (
    FleetError,
    FleetGateway,
    ReplicaSpec,
    _merge_stats,
    merge_stores,
)
from repro.service.protocol import (
    BatchRequest,
    BatchResponse,
    PairSpec,
    PairVerdict,
    encode_batch_response,
    parse_address,
    parse_request,
)

TRIANGLE_TEXT = "R(x,y), R(y,z), R(z,x)"
VEE_TEXT = "R(a,b), R(a,c)"
# The same shapes under renamed variables: structurally isomorphic pairs.
TRIANGLE_ISO = "R(u,v), R(v,w), R(w,u)"
VEE_ISO = "R(s,t), R(s,r)"


def batch_request(*pairs, **kwargs):
    return BatchRequest(pairs=tuple(PairSpec(q1, q2) for q1, q2 in pairs), **kwargs)


def start_replica(socket_path):
    """Serve a real daemon over ``socket_path`` from a background thread."""
    ready = threading.Event()
    thread = threading.Thread(
        target=serve,
        args=(parse_address(socket_path),),
        kwargs={
            "options": BatchOptions(on_error="capture"),
            "shed": ShedOptions(),
            "ready_callback": lambda daemon: ready.set(),
        },
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=10)
    return thread


@pytest.fixture
def live_replicas(tmp_path):
    """Two real daemon replicas behind ready-to-route specs."""
    specs = []
    threads = []
    for index in range(2):
        socket_path = str(tmp_path / f"replica-{index}.sock")
        threads.append(start_replica(socket_path))
        specs.append(ReplicaSpec(name=f"replica-{index}", address=socket_path))
    yield specs
    for spec in specs:
        try:
            DaemonClient(spec.address, timeout=5.0).stop()
        except DaemonUnavailable:
            pass
    for thread in threads:
        thread.join(timeout=10)


class TestConstruction:
    def test_needs_at_least_one_replica(self):
        with pytest.raises(FleetError):
            FleetGateway([])

    def test_rejects_duplicate_names(self):
        specs = [ReplicaSpec("a", "/tmp/a.sock"), ReplicaSpec("a", "/tmp/b.sock")]
        with pytest.raises(FleetError):
            FleetGateway(specs)


class TestRouting:
    def test_route_hashes_are_deterministic_and_cached(self):
        gateway = FleetGateway(
            [ReplicaSpec("only", "/tmp/x.sock")], probe_interval=None
        )
        pairs = (PairSpec(TRIANGLE_TEXT, VEE_TEXT),)
        first = gateway._route_hashes(pairs)
        second = gateway._route_hashes(pairs)
        assert first == second
        # The text cache holds the routing hash with the canonical pair.
        ((hash_int, canonical),) = first
        assert isinstance(hash_int, int)
        assert canonical == PairSpec(
            "R(c0, c1), R(c1, c2), R(c2, c0)", "R(c0, c1), R(c0, c2)"
        )
        info = gateway._route_cache.cache_info()
        assert (info.currsize, info.hits, info.misses) == (1, 1, 1)

    def test_route_cache_is_safe_across_executor_threads(self, monkeypatch):
        # Routing runs on asyncio's executor threads, so two requests in
        # flight share the text cache; with more texts than it holds, one
        # thread's lookup races another's eviction.
        monkeypatch.setattr(fleet_module, "ROUTE_CACHE_SIZE", 4)
        gateway = FleetGateway(
            [ReplicaSpec("only", "/tmp/x.sock")], probe_interval=None
        )
        texts = [PairSpec(f"R(x{i},y), R(y,z)", VEE_TEXT) for i in range(6)]
        expected = gateway._route_hashes(texts[:1])[0]
        errors = []

        def route(seed):
            rng = random.Random(seed)
            try:
                for _ in range(600):
                    routes = gateway._route_hashes(rng.choices(texts, k=4))
                    assert all(route == expected for route in routes)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=route, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert gateway._route_cache.cache_info().currsize == 4

    def test_isomorphic_pairs_share_a_shard(self):
        # Routing hashes the canonical pair key, so renamed-variable copies
        # land on the same replica and hit its plan cache.
        gateway = FleetGateway(
            [ReplicaSpec("only", "/tmp/x.sock")], probe_interval=None
        )
        hashes = gateway._route_hashes(
            (
                PairSpec(TRIANGLE_TEXT, VEE_TEXT),
                PairSpec(TRIANGLE_ISO, VEE_ISO),
            )
        )
        assert hashes[0] == hashes[1]

    def test_fallback_is_stable_when_the_primary_is_drained(self):
        specs = [ReplicaSpec(f"r{i}", f"/tmp/r{i}.sock") for i in range(3)]
        gateway = FleetGateway(specs, probe_interval=None)
        hash_int = 7
        primary = gateway._replica_for(hash_int, [0, 1, 2])
        assert primary in (0, 1, 2)
        # With the primary drained, the ring walks to a deterministic
        # fallback among the remaining candidates...
        survivors = [i for i in (0, 1, 2) if i != primary]
        fallback = gateway._replica_for(hash_int, survivors)
        assert fallback in survivors
        assert gateway._replica_for(hash_int, survivors) == fallback
        # ...and the key snaps back to its primary owner on re-admit.
        assert gateway._replica_for(hash_int, [0, 1, 2]) == primary

    def test_draining_one_replica_leaves_other_keys_in_place(self):
        # The consistent-hashing contract at the gateway: keys whose
        # primary owner is still admitted never move while another
        # replica drains.
        specs = [ReplicaSpec(f"r{i}", f"/tmp/r{i}.sock") for i in range(3)]
        gateway = FleetGateway(specs, probe_interval=None)
        sample = range(0, 4000, 7)
        owners = {h: gateway._replica_for(h, [0, 1, 2]) for h in sample}
        drained = 1
        survivors = [0, 2]
        for h, owner in owners.items():
            if owner != drained:
                assert gateway._replica_for(h, survivors) == owner

    def test_ring_is_deterministic_across_gateways(self):
        # Two gateways built from identical manifest specs own the
        # identical ring and route every key the same way.
        specs = [ReplicaSpec(f"r{i}", f"/tmp/r{i}.sock") for i in range(3)]
        first = FleetGateway(specs, probe_interval=None)
        second = FleetGateway(specs, probe_interval=None)
        sample = range(0, 3000, 13)
        for h in sample:
            assert first._replica_for(h, [0, 1, 2]) == second._replica_for(
                h, [0, 1, 2]
            )


class TestBatchPath:
    def test_parity_order_and_stats_against_live_replicas(self, live_replicas):
        gateway = FleetGateway(live_replicas, probe_interval=None)
        request = batch_request(
            (TRIANGLE_TEXT, VEE_TEXT),
            (VEE_TEXT, TRIANGLE_TEXT),
            (TRIANGLE_ISO, VEE_ISO),
        )
        response = asyncio.run(gateway.handle_batch(request))
        assert response.ok
        assert not response.degraded
        assert [v.index for v in response.verdicts] == [0, 1, 2]
        assert [v.status for v in response.verdicts] == [
            "contained",
            "not_contained",
            "contained",
        ]
        # Pair 2 is isomorphic to pair 0, so it folds at the gateway and
        # never reaches a replica; the merged report must still account
        # for every requested pair exactly once.
        assert response.verdicts[2].source == "gateway-dedup"
        assert response.stats["pairs_submitted"] == 3
        assert response.stats["gateway"]["dedup_folded"] == 1
        assert response.stats["gateway"]["representatives_dispatched"] == 2
        assert gateway.requests_served == 1

    def test_unparseable_pair_fails_without_touching_replicas(self):
        gateway = FleetGateway(
            [ReplicaSpec("only", "/tmp/never-bound.sock")], probe_interval=None
        )
        response = asyncio.run(
            gateway.handle_batch(batch_request(("R(x,y", VEE_TEXT)))
        )
        assert not response.ok
        assert "unparseable" in response.error
        assert gateway._states[0].requests == 0

    def test_dead_replica_is_drained_and_pairs_reroute(self, tmp_path, live_replicas):
        # One live replica plus one that was never started: whichever pairs
        # shard onto the dead one must be re-routed, the batch must still
        # complete with every verdict, and the drain must be counted.
        dead = ReplicaSpec("dead", str(tmp_path / "dead.sock"))
        gateway = FleetGateway(
            [live_replicas[0], dead], probe_interval=None
        )
        request = batch_request(
            (TRIANGLE_TEXT, VEE_TEXT),
            (VEE_TEXT, TRIANGLE_TEXT),
            (TRIANGLE_TEXT, TRIANGLE_ISO),
            (VEE_TEXT, VEE_ISO),
        )
        response = asyncio.run(gateway.handle_batch(request))
        assert response.ok
        assert response.degraded
        assert len(response.verdicts) == 4
        assert all(v is not None for v in response.verdicts)
        assert [v.index for v in response.verdicts] == [0, 1, 2, 3]
        dead_state = gateway._states[1]
        assert not dead_state.healthy
        assert dead_state.drains == 1

    def test_all_replicas_dead_is_an_error_not_a_hang(self, tmp_path):
        gateway = FleetGateway(
            [ReplicaSpec("dead", str(tmp_path / "dead.sock"))],
            probe_interval=None,
        )
        response = asyncio.run(
            gateway.handle_batch(batch_request((TRIANGLE_TEXT, VEE_TEXT)))
        )
        assert not response.ok
        assert "no healthy replicas" in response.error

    def test_shed_response_propagates_to_the_caller(self, monkeypatch):
        gateway = FleetGateway(
            [ReplicaSpec("only", "/tmp/x.sock")], probe_interval=None
        )

        async def refuse(spec, line):
            return encode_batch_response(
                BatchResponse(
                    ok=False, error="queue-full", shed="rejected"
                )
            ).encode("utf-8")

        monkeypatch.setattr(gateway, "_replica_roundtrip", refuse)
        response = asyncio.run(
            gateway.handle_batch(batch_request((TRIANGLE_TEXT, VEE_TEXT)))
        )
        assert not response.ok
        assert response.error == "queue-full"
        assert response.shed == "rejected"

    def test_short_replica_answers_do_not_spin_forever(self, monkeypatch):
        # A replica that answers ok with zero verdicts makes no progress;
        # the gateway must fail the request instead of looping.
        gateway = FleetGateway(
            [ReplicaSpec("only", "/tmp/x.sock")], probe_interval=None
        )

        async def empty_ok(spec, line):
            return encode_batch_response(BatchResponse(ok=True)).encode("utf-8")

        monkeypatch.setattr(gateway, "_replica_roundtrip", empty_ok)
        response = asyncio.run(
            gateway.handle_batch(batch_request((TRIANGLE_TEXT, VEE_TEXT)))
        )
        assert not response.ok
        assert "without resolving" in response.error


class TestGatewayDedup:
    """The tentpole: fold duplicates before sharding, fan verdicts back out."""

    def test_all_isomorphic_batch_dispatches_one_representative(self, monkeypatch):
        gateway = FleetGateway(
            [ReplicaSpec("only", "/tmp/x.sock")], probe_interval=None
        )
        dispatched = []

        async def capture(spec, line):
            sub = parse_request(line)
            dispatched.append(sub.pairs)
            return encode_batch_response(
                BatchResponse(
                    ok=True,
                    verdicts=tuple(
                        PairVerdict(i, "contained", "theorem-3.1", "solved")
                        for i in range(len(sub.pairs))
                    ),
                    stats={"pairs_submitted": len(sub.pairs)},
                )
            ).encode("utf-8")

        monkeypatch.setattr(gateway, "_replica_roundtrip", capture)
        request = batch_request(
            (TRIANGLE_TEXT, VEE_TEXT),
            (TRIANGLE_ISO, VEE_ISO),
            (TRIANGLE_TEXT, VEE_TEXT),
            (TRIANGLE_ISO, VEE_TEXT),
        )
        response = asyncio.run(gateway.handle_batch(request))
        assert response.ok
        # One canonical key -> one dispatched pair, four answered verdicts.
        assert len(dispatched) == 1
        assert len(dispatched[0]) == 1
        assert [v.index for v in response.verdicts] == [0, 1, 2, 3]
        assert all(v.status == "contained" for v in response.verdicts)
        assert response.verdicts[0].source == "solved"
        assert [v.source for v in response.verdicts[1:]] == ["gateway-dedup"] * 3
        # Merged totals must equal the request pair count, not the
        # representative count the replica saw.
        assert response.stats["pairs_submitted"] == 4
        assert response.stats["gateway"]["dedup_folded"] == 3
        assert response.stats["gateway"]["representatives_dispatched"] == 1

    def test_dedup_counter_is_exported(self, monkeypatch):
        gateway = FleetGateway(
            [ReplicaSpec("only", "/tmp/x.sock")], probe_interval=None
        )

        async def answer(spec, line):
            sub = parse_request(line)
            return encode_batch_response(
                BatchResponse(
                    ok=True,
                    verdicts=tuple(
                        PairVerdict(i, "contained", "theorem-3.1", "solved")
                        for i in range(len(sub.pairs))
                    ),
                )
            ).encode("utf-8")

        monkeypatch.setattr(gateway, "_replica_roundtrip", answer)
        request = batch_request(
            (TRIANGLE_TEXT, VEE_TEXT),
            (TRIANGLE_TEXT, VEE_TEXT),
        )
        asyncio.run(gateway.handle_batch(request))
        samples = parse_exposition(gateway.registry.render())
        assert sum(samples["repro_gateway_dedup_folded_total"].values()) == 1.0

    def test_folded_pairs_share_deadline_synthesis(self, monkeypatch):
        # When the budget dies before dispatch, folded duplicates are
        # synthesized alongside their representative — nobody hangs.
        gateway = FleetGateway(
            [ReplicaSpec("only", "/tmp/x.sock")], probe_interval=None
        )
        original = gateway._route_hashes

        def slow_route(pairs):
            time.sleep(0.05)
            return original(pairs)

        monkeypatch.setattr(gateway, "_route_hashes", slow_route)
        response = asyncio.run(
            gateway.handle_batch(
                batch_request(
                    (TRIANGLE_TEXT, VEE_TEXT),
                    (TRIANGLE_ISO, VEE_ISO),
                    deadline_seconds=0.01,
                )
            )
        )
        assert response.ok
        assert [v.method for v in response.verdicts] == [
            "deadline-exceeded",
            "deadline-exceeded",
        ]
        assert gateway._states[0].requests == 0

    def test_folded_pairs_survive_a_drain_reroute(self, tmp_path, live_replicas):
        # Duplicates fold onto a representative that first routes to a dead
        # replica; the re-route must still resolve every folded requester.
        dead = ReplicaSpec("dead", str(tmp_path / "dead.sock"))
        gateway = FleetGateway([live_replicas[0], dead], probe_interval=None)
        request = batch_request(
            (TRIANGLE_TEXT, VEE_TEXT),
            (TRIANGLE_ISO, VEE_ISO),
            (VEE_TEXT, TRIANGLE_TEXT),
            (VEE_ISO, TRIANGLE_ISO),
        )
        response = asyncio.run(gateway.handle_batch(request))
        assert response.ok
        assert all(v is not None for v in response.verdicts)
        assert [v.status for v in response.verdicts] == [
            "contained",
            "contained",
            "not_contained",
            "not_contained",
        ]
        assert {v.source for v in response.verdicts} >= {"gateway-dedup"}
        assert response.stats["pairs_submitted"] == 4
        assert response.stats["gateway"]["dedup_folded"] == 2


def recording_stub(dispatched):
    """A replica stand-in that records each sub-batch and answers CONTAINED."""

    async def answer(spec, line):
        sub = parse_request(line)
        dispatched.append((spec.name, sub.pairs))
        return encode_batch_response(
            BatchResponse(
                ok=True,
                verdicts=tuple(
                    PairVerdict(i, "contained", "theorem-3.1", "solved")
                    for i in range(len(sub.pairs))
                ),
            )
        ).encode("utf-8")

    return answer


def canonical_spec(q1_text, q2_text):
    key = pair_key(parse_query(q1_text), parse_query(q2_text))
    return PairSpec(canonical_text(key[0]), canonical_text(key[1]))


class TestCanonicalForwarding:
    """Representatives travel to their replica as the text of their canonical key."""

    PAIRS = (
        (TRIANGLE_TEXT, VEE_TEXT),
        (VEE_TEXT, TRIANGLE_TEXT),
        ("(x, x) :- R(x, y)", "(a, b) :- R(a, b)"),
        ("R(x,y), S(y,z,x)", "R(a,b)"),
        ("R(x,y), R(y,z)", "R(a,b), R(b,c), R(c,d)"),
    )

    def test_every_subbatch_carries_canonical_text(self, monkeypatch):
        gateway = FleetGateway(
            [ReplicaSpec("a", "/tmp/a.sock"), ReplicaSpec("b", "/tmp/b.sock")],
            probe_interval=None,
        )
        dispatched = []
        monkeypatch.setattr(gateway, "_replica_roundtrip", recording_stub(dispatched))
        response = asyncio.run(gateway.handle_batch(batch_request(*self.PAIRS)))
        assert response.ok
        assert len(dispatched) == 2  # both replicas own some of the pairs
        forwarded = [spec for _, specs in dispatched for spec in specs]
        assert sorted(forwarded, key=str) == sorted(
            (canonical_spec(*pair) for pair in self.PAIRS), key=str
        )
        for spec in forwarded:
            assert all(v.startswith("c") for v in parse_query(spec.q1).variables)
            key = pair_key(parse_query(spec.q1), parse_query(spec.q2))
            assert (canonical_text(key[0]), canonical_text(key[1])) == (spec.q1, spec.q2)

    def test_isomorphs_reach_their_replica_as_one_text(self, monkeypatch):
        gateway = FleetGateway(
            [ReplicaSpec("a", "/tmp/a.sock"), ReplicaSpec("b", "/tmp/b.sock")],
            probe_interval=None,
        )
        dispatched = []
        monkeypatch.setattr(gateway, "_replica_roundtrip", recording_stub(dispatched))
        # One pair under two namings and two atom orders, one request each.
        copies = (
            ("R(x,y), R(y,z), S(z,x)", "(a) :- R(a,b), R(b,c)"),
            ("S(w,u), R(u,v), R(v,w)", "(p) :- R(q,r), R(p,q)"),
            ("R(y,z), S(z,x), R(x,y)", "(a) :- R(b,c), R(a,b)"),
            ("R(k,l), R(l,m), S(m,k)", "(s) :- R(s,t), R(t,r)"),
        )
        for copy in copies:
            response = asyncio.run(gateway.handle_batch(batch_request(copy)))
            assert response.ok
        assert len(dispatched) == len(copies)
        assert len({name for name, _ in dispatched}) == 1
        assert {specs for _, specs in dispatched} == {(canonical_spec(*copies[0]),)}

    def test_raw_texts_answer_the_same_verdicts(self, tmp_path, live_replicas):
        # A replica fed the clients' own texts, as from an older gateway or
        # a direct client, answers as it does through the gateway.
        gateway = FleetGateway(live_replicas, probe_interval=None)
        through_gateway = asyncio.run(gateway.handle_batch(batch_request(*self.PAIRS)))
        socket_path = str(tmp_path / "direct.sock")
        thread = start_replica(socket_path)
        client = DaemonClient(socket_path, timeout=30.0)
        try:
            direct = client.batch(list(self.PAIRS))
        finally:
            client.stop()
            thread.join(timeout=10)
        assert through_gateway.ok and direct.ok
        assert [(v.status, v.method) for v in through_gateway.verdicts] == [
            (v.status, v.method) for v in direct.verdicts
        ]
        assert [v.status for v in direct.verdicts] == [
            decide_containment(parse_query(q1), parse_query(q2)).status.value
            for q1, q2 in self.PAIRS
        ]


class TestBoundedDispatch:
    """In-flight dispatches are capped at the host's effective parallelism."""

    # These four pairs split 2/2 across an a/b ring, giving two shards.
    SPLIT_PAIRS = (
        (TRIANGLE_TEXT, VEE_TEXT),
        (VEE_TEXT, TRIANGLE_TEXT),
        (TRIANGLE_TEXT, TRIANGLE_TEXT),
        (VEE_TEXT, VEE_TEXT),
    )

    def two_replica_gateway(self, **kwargs):
        return FleetGateway(
            [ReplicaSpec("a", "/tmp/a.sock"), ReplicaSpec("b", "/tmp/b.sock")],
            probe_interval=None,
            **kwargs,
        )

    def test_parallelism_defaults_to_the_host_cpu_count(self):
        import os

        gateway = self.two_replica_gateway()
        assert gateway.dispatch_parallelism == max(1, os.cpu_count() or 1)

    def test_rejects_a_nonpositive_cap(self):
        with pytest.raises(FleetError):
            self.two_replica_gateway(dispatch_parallelism=0)

    def test_one_slot_serializes_the_shards(self, monkeypatch):
        gateway = self.two_replica_gateway(dispatch_parallelism=1)
        in_flight = {"now": 0, "peak": 0}

        async def answer(spec, line):
            in_flight["now"] += 1
            in_flight["peak"] = max(in_flight["peak"], in_flight["now"])
            await asyncio.sleep(0.02)
            in_flight["now"] -= 1
            sub = parse_request(line)
            return encode_batch_response(
                BatchResponse(
                    ok=True,
                    verdicts=tuple(
                        PairVerdict(i, "contained", "theorem-3.1", "solved")
                        for i in range(len(sub.pairs))
                    ),
                )
            ).encode("utf-8")

        monkeypatch.setattr(gateway, "_replica_roundtrip", answer)
        response = asyncio.run(gateway.handle_batch(batch_request(*self.SPLIT_PAIRS)))
        assert response.ok
        assert [v.index for v in response.verdicts] == [0, 1, 2, 3]
        assert in_flight["peak"] == 1
        # Both shards were really dispatched, one after the other.
        assert gateway._states[0].requests == 1
        assert gateway._states[1].requests == 1

    def test_queued_dispatch_does_not_inherit_a_stale_budget(self, monkeypatch):
        # A shard that waits behind a slow peer must see its *remaining*
        # budget at slot-open — not the budget computed when the round
        # started.  Here the first shard eats the whole deadline, so the
        # queued shard synthesizes without a roundtrip.
        gateway = self.two_replica_gateway(
            dispatch_parallelism=1, reply_margin=0.01
        )
        roundtrips = []

        async def stall(spec, line):
            roundtrips.append(spec.name)
            await asyncio.sleep(10.0)  # cancelled by the dispatch timeout

        monkeypatch.setattr(gateway, "_replica_roundtrip", stall)
        response = asyncio.run(
            gateway.handle_batch(
                batch_request(*self.SPLIT_PAIRS, deadline_seconds=0.2)
            )
        )
        assert response.ok
        assert all(v.method == "deadline-exceeded" for v in response.verdicts)
        # Only the first shard ever reached a replica; the queued shard
        # found its budget already spent and synthesized at slot-open.
        assert len(roundtrips) == 1


class TestDeadlinePropagation:
    """The satellite: deadlines cover gateway time and never hang reassembly."""

    def test_remaining_deadline_is_forwarded_to_replicas(self, monkeypatch):
        gateway = FleetGateway(
            [ReplicaSpec("only", "/tmp/x.sock")], probe_interval=None
        )
        seen = {}

        async def capture(spec, line):
            sub = parse_request(line)
            seen["deadline"] = sub.deadline_seconds
            seen["priority"] = sub.priority
            return encode_batch_response(
                BatchResponse(
                    ok=True,
                    verdicts=(
                        PairVerdict(0, "contained", "theorem-3.1", "solved"),
                    ),
                )
            ).encode("utf-8")

        monkeypatch.setattr(gateway, "_replica_roundtrip", capture)
        response = asyncio.run(
            gateway.handle_batch(
                batch_request(
                    (TRIANGLE_TEXT, VEE_TEXT),
                    deadline_seconds=30.0,
                    priority="high",
                )
            )
        )
        assert response.ok
        # The replica sees the *remaining* budget: the original deadline
        # minus whatever the gateway already spent (hashing, queueing).
        assert seen["deadline"] is not None
        assert 0 < seen["deadline"] <= 30.0
        assert seen["priority"] == "high"

    def test_expired_budget_synthesizes_deadline_verdicts(self, monkeypatch):
        gateway = FleetGateway(
            [ReplicaSpec("only", "/tmp/x.sock")], probe_interval=None
        )

        # Routing alone consumes the whole (tiny) budget.
        original = gateway._route_hashes

        def slow_route(pairs):
            time.sleep(0.05)
            return original(pairs)

        monkeypatch.setattr(gateway, "_route_hashes", slow_route)
        response = asyncio.run(
            gateway.handle_batch(
                batch_request(
                    (TRIANGLE_TEXT, VEE_TEXT),
                    (VEE_TEXT, TRIANGLE_TEXT),
                    deadline_seconds=0.01,
                )
            )
        )
        assert response.ok
        assert [v.method for v in response.verdicts] == [
            "deadline-exceeded",
            "deadline-exceeded",
        ]
        assert all(v.source == "gateway" for v in response.verdicts)
        assert all(v.status == "unknown" for v in response.verdicts)
        # Nothing was dispatched: the replica was never contacted.
        assert gateway._states[0].requests == 0

    def test_unresponsive_replica_cannot_hang_a_deadlined_batch(self, tmp_path):
        # A replica that accepts the connection but never answers: with a
        # deadline the gateway must give up at deadline + margin and answer
        # the stranded pairs itself.
        socket_path = str(tmp_path / "mute.sock")

        async def scenario():
            async def mute(reader, writer):
                await reader.readline()
                await asyncio.sleep(30)  # never answer

            server = await asyncio.start_unix_server(mute, path=socket_path)
            gateway = FleetGateway(
                [ReplicaSpec("mute", socket_path)],
                probe_interval=None,
                reply_margin=0.1,
            )
            started = time.monotonic()
            response = await gateway.handle_batch(
                batch_request((TRIANGLE_TEXT, VEE_TEXT), deadline_seconds=0.3)
            )
            elapsed = time.monotonic() - started
            server.close()
            await server.wait_closed()
            return response, elapsed

        response, elapsed = asyncio.run(scenario())
        assert response.ok
        assert response.verdicts[0].method == "deadline-exceeded"
        assert response.verdicts[0].source == "gateway"
        assert elapsed < 5.0  # bounded by deadline + margin, not the 30 s nap

    def test_deadline_free_transport_loss_reroutes_not_hangs(
        self, tmp_path, live_replicas
    ):
        # No deadline, and one replica drops the connection mid-request:
        # that is a transport failure (drain + re-route), not a hang.
        socket_path = str(tmp_path / "dropper.sock")

        async def scenario():
            async def drop(reader, writer):
                await reader.readline()
                writer.close()

            server = await asyncio.start_unix_server(drop, path=socket_path)
            gateway = FleetGateway(
                [live_replicas[0], ReplicaSpec("dropper", socket_path)],
                probe_interval=None,
            )
            response = await gateway.handle_batch(
                batch_request(
                    (TRIANGLE_TEXT, VEE_TEXT),
                    (VEE_TEXT, TRIANGLE_TEXT),
                    (TRIANGLE_TEXT, TRIANGLE_ISO),
                    (VEE_TEXT, VEE_ISO),
                )
            )
            server.close()
            await server.wait_closed()
            return response, gateway

        response, gateway = asyncio.run(scenario())
        assert response.ok
        assert response.degraded
        assert all(v.method != "deadline-exceeded" for v in response.verdicts)
        assert not gateway._states[1].healthy


class TestControlVerbs:
    def test_ping_status_metrics_and_stop(self):
        gateway = FleetGateway(
            [ReplicaSpec("only", "/tmp/x.sock")], probe_interval=None
        )

        async def scenario():
            ping = json.loads(await gateway.handle_line(b'{"op": "ping"}'))
            status = json.loads(await gateway.handle_line(b'{"op": "status"}'))
            metrics = json.loads(await gateway.handle_line(b'{"op": "metrics"}'))
            stop = json.loads(await gateway.handle_line(b'{"op": "stop"}'))
            return ping, status, metrics, stop

        ping, status, metrics, stop = asyncio.run(scenario())
        assert ping["ok"] and ping["role"] == "gateway"
        assert status["fleet_size"] == 1
        assert status["healthy_replicas"] == 1
        assert status["replicas"][0]["name"] == "only"
        samples = parse_exposition(metrics["body"])
        assert "repro_gateway_deadline_pairs_total" in samples
        assert "repro_gateway_uptime_seconds" in samples
        assert sum(samples["repro_gateway_replicas_healthy"].values()) == 1.0
        assert stop["ok"] and stop["stopping"]

    def test_malformed_line_is_an_error_response(self):
        gateway = FleetGateway(
            [ReplicaSpec("only", "/tmp/x.sock")], probe_interval=None
        )
        response = json.loads(asyncio.run(gateway.handle_line(b"not json")))
        assert response["ok"] is False
        assert "JSON" in response["error"]


class TestGatewayOverTheWire:
    def test_serve_batch_status_stop_and_unlink(self, tmp_path, live_replicas):
        gateway_path = str(tmp_path / "gateway.sock")
        gateway = FleetGateway(live_replicas, probe_interval=None)
        ready = threading.Event()
        thread = threading.Thread(
            target=lambda: asyncio.run(
                gateway.serve(
                    parse_address(gateway_path),
                    ready_callback=lambda _gw: ready.set(),
                )
            ),
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=10)

        client = DaemonClient(gateway_path, timeout=60.0)
        assert client.ping()["role"] == "gateway"
        response = client.batch([(TRIANGLE_TEXT, VEE_TEXT), (VEE_TEXT, TRIANGLE_TEXT)])
        assert response.ok
        assert [v.status for v in response.verdicts] == [
            "contained",
            "not_contained",
        ]
        status = client.status()
        assert status["requests_served"] == 1
        assert sum(r["pairs"] for r in status["replicas"]) == 2
        samples = parse_exposition(client.metrics())
        routed = sum(
            samples.get("repro_gateway_pairs_routed_total", {}).values()
        )
        assert routed == 2.0

        client.stop()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert not daemon_available(gateway_path, timeout=0.5)
        import os

        assert not os.path.exists(gateway_path)


def _canonical_result(q1_text, q2_text):
    """Solve a pair and return (key, canonical-variable result)."""
    from repro.core.containment import decide_containment
    from repro.cq.parser import parse_query
    from repro.service.cache import PlanCache
    from repro.service.canonical import pair_key_with_labelings

    q1, q2 = parse_query(q1_text), parse_query(q2_text)
    key, labelings = pair_key_with_labelings(q1, q2)
    return key, PlanCache().put(key, decide_containment(q1, q2), labelings)


class TestStoreMerge:
    def test_merge_stores_is_idempotent_and_order_free(self, tmp_path):
        from repro.store import VerdictStore

        key_a, result_a = _canonical_result(TRIANGLE_TEXT, VEE_TEXT)
        key_b, result_b = _canonical_result(VEE_TEXT, TRIANGLE_TEXT)
        peer_a = str(tmp_path / "a.sqlite")
        peer_b = str(tmp_path / "b.sqlite")
        target = str(tmp_path / "target.sqlite")
        with VerdictStore(peer_a) as store:
            store.record(key_a, result_a)
        with VerdictStore(peer_b) as store:
            store.record(key_b, result_b)

        imported, skipped = merge_stores(target, [peer_a, peer_b])
        assert (imported, skipped) == (2, 0)
        # Re-merging (any order) converges: everything is a skip.
        imported, skipped = merge_stores(target, [peer_b, peer_a])
        assert (imported, skipped) == (0, 2)
        with VerdictStore(target) as store:
            assert len(store) == 2
            assert store.get(key_a).status == result_a.status

    def test_missing_peer_files_are_skipped(self, tmp_path):
        target = str(tmp_path / "target.sqlite")
        imported, skipped = merge_stores(
            target, [str(tmp_path / "ghost.sqlite")]
        )
        assert (imported, skipped) == (0, 0)


class TestStatsMerging:
    def test_numeric_fields_sum_and_nested_dicts_merge(self):
        merged = _merge_stats(
            [
                {"pairs_submitted": 2, "cache_hits": 1, "by_arity": {"2": {"solves": 1}}},
                {"pairs_submitted": 3, "cache_hits": 0, "by_arity": {"2": {"solves": 2}}},
            ]
        )
        assert merged["pairs_submitted"] == 5
        assert merged["cache_hits"] == 1
        assert merged["by_arity"]["2"]["solves"] == 3

    def test_booleans_and_strings_do_not_sum(self):
        merged = _merge_stats([{"flag": True, "name": "a"}, {"flag": True, "name": "b"}])
        assert "flag" not in merged
        assert merged["name"] == "a"
