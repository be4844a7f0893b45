"""Command-line interface.

Eight sub-commands expose the main workflows::

    python -m repro contain "R(x,y), R(y,z), R(z,x)" "R(a,b), R(a,c)"
    python -m repro inspect "A(y1,y2), B(y1,y3), C(y4,y2)"
    python -m repro dominate --base "R:0,1;1,2;2,0" --dominating "R:a,b;a,c"
    python -m repro batch pairs.txt --stats --trace spans.jsonl
    python -m repro trace summarize spans.jsonl
    python -m repro daemon start --store verdicts.sqlite
    python -m repro batch pairs.txt --daemon
    python -m repro daemon status --prom
    python -m repro soak --clients 4 --qps 8 --duration 60 --report soak.json
    python -m repro cache verify --store verdicts.sqlite

``contain`` decides bag containment and prints the verdict, the decision
method and (for refutations) the witness database.  ``inspect`` reports the
structural properties that determine which fragment of the paper a query
falls into.  ``dominate`` runs the DOM problem on two structures given in a
compact facts syntax (``Rel:v1,v2;v1,v3 Rel2:...``).  ``batch`` reads a file
of query pairs and decides them all through the batch containment service,
emitting one JSON verdict per line; ``--trace FILE`` exports a span trace
of the run and ``trace summarize`` turns such a file into per-phase totals,
the critical path and the slowest pairs.  ``daemon`` manages the persistent
containment daemon (``start``/``run``/``stop``/``status``): a long-lived
process whose plan cache and warm provers survive across ``batch --daemon``
invocations (see :mod:`repro.service.daemon`); ``status --prom`` prints its
Prometheus metrics exposition.  ``soak`` drives a daemon (an ephemeral one
by default) with the endless mixed workload from several paced clients and
reports throughput, latency percentiles, the cache hit-rate trajectory and
verdict parity (see :mod:`repro.obs.soak`).  ``cache`` operates on the
durable verdict store written by ``batch --store`` / ``daemon --store``
(see :mod:`repro.store`): ``verify`` independently re-checks every stored
certificate and witness, ``export``/``import`` move records as JSONL,
``compact`` rewrites the append-only log to one row per verdict, and
``info`` prints the store's summary.

The ``batch`` input format is one pair per line, either as the two query
bodies separated by ``|``::

    R(x,y), R(y,z), R(z,x) | R(a,b), R(a,c)

or as a JSON object ``{"q1": "...", "q2": "..."}``.  Blank lines and lines
starting with ``#`` are ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

from repro.core.containment import decide_containment
from repro.core.domination import dominates
from repro.cq.decompositions import (
    has_simple_junction_tree,
    has_totally_disconnected_junction_tree,
    is_acyclic,
    is_chordal,
)
from repro.cq.parser import parse_query
from repro.cq.query import ConjunctiveQuery
from repro.cq.structures import Structure
from repro.exceptions import ReproError
from repro.obs import tracer as obs_tracer
from repro.service import BatchOptions, ContainmentService
from repro.service.daemon import (
    DaemonClient,
    DaemonUnavailable,
    ShedOptions,
    default_socket_path,
    serve,
    spawn_daemon,
    stop_daemon,
)
from repro.service.fleet import (
    fleet_metrics,
    fleet_status,
    serve_gateway,
    start_fleet,
    stop_fleet,
)
from repro.service.protocol import PRIORITIES, SHED_POLICIES, parse_address
from repro.service.ring import DEFAULT_VNODES


def _parse_structure(text: str) -> Structure:
    """Parse the compact facts syntax ``Rel:v1,v2;v3,v4 Rel2:v5``."""
    facts = []
    for block in text.split():
        if ":" not in block:
            raise ReproError(f"cannot parse structure block {block!r}")
        relation, rows_text = block.split(":", 1)
        for row_text in rows_text.split(";"):
            if not row_text:
                continue
            facts.append((relation, tuple(value.strip() for value in row_text.split(","))))
    if not facts:
        raise ReproError("the structure has no facts")
    return Structure.from_facts(facts)


def _print_result(result, out) -> None:
    print(f"verdict : {result.status.value}", file=out)
    print(f"method  : {result.method}", file=out)
    if result.inequality is not None and not result.inequality.is_trivially_false:
        print(f"branches: {len(result.inequality.branches)}", file=out)
    if result.witness is not None:
        witness = result.witness
        print(
            f"witness : |hom(Q1,D)| = {witness.hom_q1} > |hom(Q2,D)| = {witness.hom_q2}",
            file=out,
        )
        for relation, row in witness.database.facts():
            print(f"    {relation}{row}", file=out)


def _cmd_contain(args, out) -> int:
    q1 = parse_query(args.q1, name="Q1")
    q2 = parse_query(args.q2, name="Q2")
    result = decide_containment(q1, q2, method=args.method)
    _print_result(result, out)
    return 0 if result.status.value != "unknown" else 2


def _cmd_inspect(args, out) -> int:
    query = parse_query(args.query, name="Q")
    print(f"query     : {query}", file=out)
    print(f"variables : {len(query.variables)}", file=out)
    print(f"atoms     : {len(query.atoms)}", file=out)
    print(f"acyclic   : {is_acyclic(query)}", file=out)
    chordal = is_chordal(query)
    print(f"chordal   : {chordal}", file=out)
    if chordal:
        print(f"simple junction tree : {has_simple_junction_tree(query)}", file=out)
        print(
            f"totally disconnected : {has_totally_disconnected_junction_tree(query)}",
            file=out,
        )
    return 0


def _cmd_dominate(args, out) -> int:
    base = _parse_structure(args.base)
    dominating = _parse_structure(args.dominating)
    result = dominates(base, dominating)
    _print_result(result, out)
    return 0 if result.status.value != "unknown" else 2


def _parse_pair_line(
    line: str, line_number: int
) -> Tuple[Tuple[ConjunctiveQuery, ConjunctiveQuery], Tuple[str, str]]:
    """Parse one ``batch`` input line (``Q1 | Q2`` or a JSON object).

    Returns the parsed pair together with the raw body texts (the daemon
    path re-sends the texts over the wire; parsing here still validates them
    client-side first).
    """
    if line.lstrip().startswith("{"):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ReproError(f"line {line_number}: invalid JSON ({error})") from None
        if not isinstance(record, dict) or "q1" not in record or "q2" not in record:
            raise ReproError(f"line {line_number}: JSON pairs need 'q1' and 'q2' keys")
        q1_text, q2_text = record["q1"], record["q2"]
        if not isinstance(q1_text, str) or not isinstance(q2_text, str):
            raise ReproError(
                f"line {line_number}: 'q1' and 'q2' must be query strings"
            )
    else:
        parts = line.split("|")
        if len(parts) != 2:
            raise ReproError(
                f"line {line_number}: expected 'Q1 | Q2' (exactly one '|' separator)"
            )
        q1_text, q2_text = parts
    q1_text, q2_text = q1_text.strip(), q2_text.strip()
    pair = (
        parse_query(q1_text, name=f"Q1@{line_number}"),
        parse_query(q2_text, name=f"Q2@{line_number}"),
    )
    return pair, (q1_text, q2_text)


def _read_pairs(
    path: str,
) -> Tuple[List[Tuple[ConjunctiveQuery, ConjunctiveQuery]], List[Tuple[str, str]]]:
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    pairs = []
    texts = []
    for line_number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        pair, pair_texts = _parse_pair_line(stripped, line_number)
        pairs.append(pair)
        texts.append(pair_texts)
    if not pairs:
        raise ReproError("the batch input contains no query pairs")
    return pairs, texts


def _batch_exit_code(statuses: Sequence[str]) -> int:
    return 0 if all(status != "unknown" for status in statuses) else 2


def _print_group_table(groups, stream) -> None:
    """The per-arity block-LP timing table (``stats["groups"]``) for humans."""
    if not groups:
        return
    print(
        f"{'group':<16} {'chunks':>7} {'requests':>9} {'rows':>7} {'seconds':>9}",
        file=stream,
    )
    for key in sorted(groups):
        bucket = groups[key]
        print(
            f"{key:<16} {int(bucket['chunks']):>7} {int(bucket['requests']):>9} "
            f"{int(bucket['rows']):>7} {bucket['seconds']:>9.4f}",
            file=stream,
        )


def _emit_batch_stats(stats, args) -> None:
    """Honour ``--stats`` (stderr JSON + group table) and ``--stats-json``."""
    if args.stats:
        # Table first, JSON last: scripted consumers parse the *last* stderr
        # line as the stats record (see tests/integration/test_daemon_e2e.py).
        _print_group_table(stats.get("groups") or {}, sys.stderr)
        print(json.dumps({"stats": stats}), file=sys.stderr)
    if args.stats_json:
        with open(args.stats_json, "w", encoding="utf-8") as handle:
            json.dump(stats, handle, indent=2)
            handle.write("\n")


#: Engine flags the batch subparser accepts but a daemon cannot honour per
#: request (it decides with the configuration it was started with):
#: (args attribute, parser default, flag spelling).
_DAEMON_SIDE_FLAGS = (
    ("method", "auto", "--method"),
    ("chunk_size", 32, "--chunk-size"),
    ("budget", None, "--budget"),
    ("store", None, "--store"),
)


def _batch_via_daemon(args, pairs, texts, out) -> Optional[int]:
    """Decide the batch through a daemon; None means "fall back in-process"."""
    overridden = [
        flag
        for attribute, default, flag in _DAEMON_SIDE_FLAGS
        if getattr(args, attribute) != default
    ]
    if overridden:
        print(
            f"note: {', '.join(overridden)} configure the engine and are ignored "
            "with --daemon — the daemon decides with the settings it was started "
            "with (they apply again if this request falls back in-process)",
            file=sys.stderr,
        )
    address = args.daemon if args.daemon else None
    client = DaemonClient(address)
    try:
        response = client.batch(
            texts, deadline_seconds=args.deadline, priority=args.priority
        )
    except DaemonUnavailable as error:
        if args.daemon_only:
            raise
        print(
            f"note: {error}; deciding in-process instead", file=sys.stderr
        )
        return None
    if not response.ok:
        # The daemon answered but shed the request (queue-full under the
        # reject policy) — an explicit overload answer, not an outage, so
        # no silent in-process fallback that would defeat the shedding.
        print(f"error: daemon refused the batch: {response.error}", file=out)
        return 3
    for verdict, (q1, q2) in zip(response.verdicts, pairs):
        record = {
            "index": verdict.index,
            "status": verdict.status,
            "method": verdict.method,
            "source": verdict.source,
            "q1": str(q1),
            "q2": str(q2),
        }
        if verdict.witness_rows is not None:
            record["witness_rows"] = verdict.witness_rows
        print(json.dumps(record), file=out)
    _emit_batch_stats(response.stats, args)
    return _batch_exit_code([verdict.status for verdict in response.verdicts])


def _cmd_batch(args, out) -> int:
    if args.fleet is not None:
        if args.daemon is not None:
            print("error: --fleet and --daemon are mutually exclusive", file=out)
            return 2
        # The gateway speaks the daemon protocol, so --fleet is --daemon
        # pointed at the gateway — minus the in-process fallback: a fleet
        # outage should be loud, not silently absorbed by one local solve.
        args.daemon = args.fleet
        args.daemon_only = True
    pairs, texts = _read_pairs(args.pairs_file)
    if args.daemon is not None:
        if args.trace:
            print(
                "note: --trace applies to in-process solving only; the daemon "
                "decides remotely and its spans are not exported here",
                file=sys.stderr,
            )
        code = _batch_via_daemon(args, pairs, texts, out)
        if code is not None:
            return code
    service = ContainmentService(
        BatchOptions(
            method=args.method,
            chunk_size=args.chunk_size,
            pair_budget=args.budget,
            on_error="capture",
            deadline=args.deadline,
            store_path=args.store,
        )
    )
    tracer = None
    if args.trace:
        tracer = obs_tracer.activate(obs_tracer.Tracer())
    try:
        report = service.run(pairs)
    finally:
        service.close()
        if tracer is not None:
            obs_tracer.deactivate()
            spans = tracer.export_jsonl(args.trace)
            print(f"trace: wrote {spans} spans to {args.trace}", file=sys.stderr)
    for outcome, (q1, q2) in zip(report.outcomes, pairs):
        record = {
            "index": outcome.index,
            "status": outcome.result.status.value,
            "method": outcome.result.method,
            "source": outcome.source,
            "q1": str(q1),
            "q2": str(q2),
        }
        if outcome.result.witness is not None:
            record["witness_rows"] = outcome.result.witness.database.total_tuples()
        print(json.dumps(record), file=out)
    _emit_batch_stats(report.stats, args)
    return _batch_exit_code(
        [outcome.result.status.value for outcome in report.outcomes]
    )


# ---------------------------------------------------------------------- #
# Daemon management
# ---------------------------------------------------------------------- #
def _daemon_options(args) -> BatchOptions:
    return BatchOptions(
        method=args.method,
        chunk_size=args.chunk_size,
        pair_budget=args.budget,
        on_error="capture",
        store_path=args.store,
    )


def _daemon_shed(args) -> ShedOptions:
    return ShedOptions(
        max_queue_depth=args.max_queue_depth,
        policy=args.shed_policy,
        degrade_pair_budget=args.degrade_budget,
        default_deadline=args.default_deadline,
    )


def _daemon_run_args(args) -> List[str]:
    """Re-serialize the engine/shedding flags for the detached child."""
    forwarded = [
        "--method", args.method,
        "--chunk-size", str(args.chunk_size),
        "--shed-policy", args.shed_policy,
        "--degrade-budget", str(args.degrade_budget),
    ]
    if args.budget is not None:
        forwarded += ["--budget", str(args.budget)]
    if args.store is not None:
        forwarded += ["--store", args.store]
    if args.max_queue_depth is not None:
        forwarded += ["--max-queue-depth", str(args.max_queue_depth)]
    if args.default_deadline is not None:
        forwarded += ["--default-deadline", str(args.default_deadline)]
    return forwarded


def _cmd_daemon_run(args, out) -> int:
    address = parse_address(args.socket)

    def announce(daemon):
        print(f"daemon pid {daemon.status()['pid']} serving at {address}", file=out)
        if out is sys.stdout:
            out.flush()

    serve(
        address,
        options=_daemon_options(args),
        shed=_daemon_shed(args),
        ready_callback=announce,
        warmup=args.warmup,
    )
    print("daemon stopped", file=out)
    return 0


def _cmd_daemon_start(args, out) -> int:
    pid = spawn_daemon(
        args.socket,
        extra_args=_daemon_run_args(args),
        log_path=args.log,
    )
    print(f"daemon started: pid {pid}, address {args.socket}", file=out)
    return 0


def _cmd_daemon_stop(args, out) -> int:
    stop_daemon(args.socket)
    print(f"daemon at {args.socket} stopped", file=out)
    return 0


def _cmd_daemon_status(args, out) -> int:
    client = DaemonClient(args.socket)
    if args.prom:
        print(client.metrics(), end="", file=out)
        return 0
    status = client.status()
    status.pop("ok", None)
    status.pop("protocol", None)
    print(json.dumps(status, indent=2, sort_keys=True), file=out)
    return 0


# ---------------------------------------------------------------------- #
# Fleet management
# ---------------------------------------------------------------------- #
def _cmd_fleet_start(args, out) -> int:
    if args.store is not None:
        print(
            "error: --store is per-replica in a fleet and is derived from "
            "--dir; remove the flag",
            file=out,
        )
        return 2
    manifest = start_fleet(
        directory=args.dir,
        replicas=args.replicas,
        gateway_address=args.socket,
        engine_args=_daemon_run_args(args),
        probe_interval=args.probe_interval,
        verify_every=args.verify_every,
        ring_vnodes=args.ring_vnodes,
        dispatch_parallelism=args.dispatch_parallelism,
    )
    gateway = manifest["gateway"]
    print(
        f"fleet started: {len(manifest['replicas'])} replicas behind "
        f"gateway {gateway['address']} (pid {gateway['pid']})",
        file=out,
    )
    for entry in manifest["replicas"]:
        print(
            f"  {entry['name']}: pid {entry['pid']}, address "
            f"{entry['address']}, store {entry['store']}",
            file=out,
        )
    return 0


def _cmd_fleet_stop(args, out) -> int:
    summary = stop_fleet(args.dir)
    print(json.dumps(summary, indent=2, sort_keys=True), file=out)
    return 0


def _cmd_fleet_status(args, out) -> int:
    if args.prom:
        print(
            fleet_metrics(address=args.socket, directory=args.dir),
            end="",
            file=out,
        )
        return 0
    status = fleet_status(address=args.socket, directory=args.dir)
    status.pop("ok", None)
    status.pop("protocol", None)
    print(json.dumps(status, indent=2, sort_keys=True), file=out)
    return 0


def _cmd_fleet_gateway(args, out) -> int:
    def announce(gateway):
        print(
            f"gateway pid {os.getpid()} serving {gateway.status()['fleet_size']} "
            f"replicas at {gateway.address}",
            file=out,
        )
        if out is sys.stdout:
            out.flush()

    serve_gateway(args.manifest, address=args.socket, ready_callback=announce)
    print("gateway stopped", file=out)
    return 0


# ---------------------------------------------------------------------- #
# Durable verdict store operations
# ---------------------------------------------------------------------- #
def _cmd_cache_info(args, out) -> int:
    from repro.store import VerdictStore

    with VerdictStore(args.store) as store:
        print(json.dumps(store.info(), indent=2, sort_keys=True), file=out)
    return 0


def _cmd_cache_verify(args, out) -> int:
    from repro.store import VerdictStore, verify_store

    with VerdictStore(args.store) as store:
        report = verify_store(store)
        dropped = store.dropped
    print(
        f"checked {report.checked} records: {report.certificates} certificates, "
        f"{report.witnesses} witnesses, {report.unchecked} unchecked"
        + (f" ({dropped} torn log rows dropped on open)" if dropped else ""),
        file=out,
    )
    for hash_, reason in report.failures:
        print(f"FAIL {hash_}: {reason}", file=out)
    if report.failures:
        print(f"error: {len(report.failures)} records failed verification", file=out)
        return 1
    return 0


def _cmd_cache_export(args, out) -> int:
    from repro.store import VerdictStore

    with VerdictStore(args.store) as store:
        if args.output == "-":
            count = store.export_jsonl(out)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                count = store.export_jsonl(handle)
    print(f"exported {count} records", file=sys.stderr)
    return 0


def _cmd_cache_import(args, out) -> int:
    from repro.store import VerdictStore

    with VerdictStore(args.store) as store:
        if args.input == "-":
            imported, skipped = store.import_jsonl(sys.stdin)
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                imported, skipped = store.import_jsonl(handle)
    print(f"imported {imported} records, skipped {skipped} already present", file=out)
    return 0


def _cmd_cache_compact(args, out) -> int:
    from repro.store import VerdictStore

    with VerdictStore(args.store) as store:
        removed = store.compact()
        entries = len(store)
    print(f"compacted: {entries} records kept, {removed} superseded rows removed", file=out)
    return 0


def _cmd_trace_summarize(args, out) -> int:
    from repro.obs.trace_tools import format_summary, summarize
    from repro.obs.tracer import read_spans_jsonl

    summary = summarize(read_spans_jsonl(args.trace_file), top=args.top)
    if args.json:
        print(json.dumps(summary, indent=2), file=out)
    else:
        print(format_summary(summary), file=out)
    return 0


def _cmd_soak(args, out) -> int:
    from repro.obs.soak import SoakOptions, format_report, run_soak, write_report

    report = run_soak(
        SoakOptions(
            clients=args.clients,
            qps=args.qps,
            duration_seconds=args.duration,
            address=args.socket,
            seed=args.seed,
            deadline_seconds=args.deadline,
            priority=args.priority,
            check_parity=not args.no_parity,
        )
    )
    print(format_report(report), file=out)
    if args.report:
        write_report(report, args.report)
        print(f"report: {args.report}", file=out)
    parity = report.get("parity")
    if parity is not None and not parity["ok"]:
        return 4
    return 0 if not report["requests_errored"] else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bag query containment via information theory (PODS 2020 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    contain = subparsers.add_parser("contain", help="decide Q1 ⊑ Q2 under bag semantics")
    contain.add_argument("q1", help="the contained query, e.g. 'R(x,y), R(y,z)'")
    contain.add_argument("q2", help="the containing query")
    contain.add_argument(
        "--method",
        default="auto",
        choices=["auto", "theorem-3.1", "sufficient", "brute-force"],
    )
    contain.set_defaults(handler=_cmd_contain)

    inspect = subparsers.add_parser("inspect", help="report a query's structural class")
    inspect.add_argument("query")
    inspect.set_defaults(handler=_cmd_inspect)

    dominate = subparsers.add_parser("dominate", help="decide structure domination (DOM)")
    dominate.add_argument("--base", required=True, help="structure A in 'R:0,1;1,2' syntax")
    dominate.add_argument("--dominating", required=True, help="structure B")
    dominate.set_defaults(handler=_cmd_dominate)

    batch = subparsers.add_parser(
        "batch",
        help="decide a file of query pairs through the batch service (JSONL out)",
    )
    batch.add_argument(
        "pairs_file",
        help="path to the pairs file ('-' for stdin); one 'Q1 | Q2' or JSON pair per line",
    )
    _add_engine_arguments(batch)
    batch.add_argument(
        "--daemon",
        nargs="?",
        const="",
        default=None,
        metavar="ADDRESS",
        help=(
            "send the batch to a running containment daemon instead of solving "
            "in-process (socket path or host:port; no value = the default "
            f"socket, {default_socket_path()}).  Falls back to in-process "
            "solving when no daemon is reachable."
        ),
    )
    batch.add_argument(
        "--daemon-only",
        action="store_true",
        help="with --daemon: fail instead of falling back when no daemon answers",
    )
    batch.add_argument(
        "--fleet",
        default=None,
        metavar="ADDRESS",
        help=(
            "send the batch to a fleet gateway (see 'repro fleet start'); the "
            "gateway speaks the daemon protocol, so this is --daemon pointed "
            "at the gateway, without the in-process fallback"
        ),
    )
    batch.add_argument(
        "--deadline",
        type=float,
        default=None,
        help=(
            "wall-clock deadline in seconds for the whole batch (daemon: queue "
            "wait included); undecided pairs report unknown/deadline-exceeded"
        ),
    )
    batch.add_argument(
        "--priority",
        default="normal",
        choices=list(PRIORITIES),
        help="daemon queue priority of this request (default normal)",
    )
    batch.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print service statistics as JSON plus the per-arity block-LP "
            "timing table to stderr after the verdicts"
        ),
    )
    batch.add_argument(
        "--stats-json",
        default=None,
        metavar="FILE",
        help="also write the full stats snapshot (group timings included) to FILE",
    )
    batch.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "record a span trace of the run (admission, canonicalization, "
            "plan cache, LP chunks, row-generation rounds) and export it as "
            "JSONL to FILE; summarize with 'repro trace summarize FILE'"
        ),
    )
    batch.set_defaults(handler=_cmd_batch)

    trace = subparsers.add_parser(
        "trace", help="tools over span traces exported by 'batch --trace'"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_commands.add_parser(
        "summarize",
        help="per-phase totals, the critical path and the slowest pairs",
    )
    trace_summarize.add_argument("trace_file", help="a JSONL span file from --trace")
    trace_summarize.add_argument(
        "--top", type=int, default=5, help="how many slowest pairs to list (default 5)"
    )
    trace_summarize.add_argument(
        "--json", action="store_true", help="emit the summary as JSON instead of text"
    )
    trace_summarize.set_defaults(handler=_cmd_trace_summarize)

    soak = subparsers.add_parser(
        "soak",
        help="drive a daemon with the mixed stream workload and report qps/latency",
    )
    soak.add_argument(
        "--clients", type=int, default=4, help="concurrent client threads (default 4)"
    )
    soak.add_argument(
        "--qps",
        type=float,
        default=8.0,
        help="aggregate offered request rate across all clients (default 8)",
    )
    soak.add_argument(
        "--duration", type=float, default=60.0, help="soak length in seconds (default 60)"
    )
    soak.add_argument(
        "--socket",
        default=None,
        metavar="ADDRESS",
        help=(
            "daemon to drive (socket path or host:port); default: spin up an "
            "ephemeral in-process daemon for the run"
        ),
    )
    soak.add_argument("--seed", type=int, default=0, help="workload stream seed")
    soak.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request deadline in seconds (daemon semantics: queue wait included)",
    )
    soak.add_argument(
        "--priority", default="normal", choices=list(PRIORITIES), help="request priority"
    )
    soak.add_argument(
        "--no-parity",
        action="store_true",
        help="skip the post-run in-process verdict parity check",
    )
    soak.add_argument(
        "--report", default=None, metavar="FILE", help="write the full JSON report to FILE"
    )
    soak.set_defaults(handler=_cmd_soak)

    daemon = subparsers.add_parser(
        "daemon",
        help="manage the persistent containment daemon (warm caches across runs)",
    )
    daemon_commands = daemon.add_subparsers(dest="daemon_command", required=True)

    def add_address(sub):
        sub.add_argument(
            "--socket",
            default=default_socket_path(),
            metavar="ADDRESS",
            help=(
                "daemon endpoint: a Unix socket path, or host:port for the "
                f"localhost TCP fallback (default {default_socket_path()})"
            ),
        )

    run = daemon_commands.add_parser(
        "run", help="run a daemon in the foreground until 'repro daemon stop'"
    )
    add_address(run)
    run.add_argument(
        "--warmup",
        action="store_true",
        help=(
            "pre-solve a tiny built-in batch before binding the socket, so "
            "the first real request hits warm code paths (fleets always "
            "warm their replicas)"
        ),
    )
    _add_engine_arguments(run)
    _add_shed_arguments(run)
    run.set_defaults(handler=_cmd_daemon_run)

    start = daemon_commands.add_parser(
        "start", help="start a detached daemon and wait until it answers pings"
    )
    add_address(start)
    _add_engine_arguments(start)
    _add_shed_arguments(start)
    start.add_argument(
        "--log",
        default=None,
        help="daemon log file (default: a repro-daemon-<pid>.log under the temp dir)",
    )
    start.set_defaults(handler=_cmd_daemon_start)

    stop = daemon_commands.add_parser("stop", help="ask the daemon to shut down")
    add_address(stop)
    stop.set_defaults(handler=_cmd_daemon_stop)

    status = daemon_commands.add_parser(
        "status", help="print the daemon's status and stats snapshot as JSON"
    )
    add_address(status)
    status.add_argument(
        "--prom",
        action="store_true",
        help="print the Prometheus text exposition instead of the JSON status",
    )
    status.set_defaults(handler=_cmd_daemon_status)

    fleet = subparsers.add_parser(
        "fleet",
        help="run N daemon replicas behind a hash-sharding asyncio gateway",
    )
    fleet_commands = fleet.add_subparsers(dest="fleet_command", required=True)

    def add_fleet_dir(sub):
        sub.add_argument(
            "--dir",
            default=None,
            metavar="DIRECTORY",
            help=(
                "the fleet directory holding the manifest, per-replica "
                "sockets, stores and logs (default: repro-fleet-<uid> under "
                "the temp dir)"
            ),
        )

    fleet_start = fleet_commands.add_parser(
        "start",
        help="spawn N replicas on per-replica stores plus the gateway",
    )
    add_fleet_dir(fleet_start)
    fleet_start.add_argument(
        "--replicas", type=int, default=2, help="replica count (default 2)"
    )
    fleet_start.add_argument(
        "--socket",
        default=None,
        metavar="ADDRESS",
        help="gateway endpoint (default <dir>/gateway.sock)",
    )
    fleet_start.add_argument(
        "--probe-interval",
        type=float,
        default=2.0,
        help="seconds between gateway health probes of each replica (default 2)",
    )
    fleet_start.add_argument(
        "--verify-every",
        type=int,
        default=0,
        help=(
            "additionally audit each replica's store (cache-verify semantics) "
            "every N probe sweeps; 0 disables the audit (default)"
        ),
    )
    fleet_start.add_argument(
        "--ring-vnodes",
        type=int,
        default=DEFAULT_VNODES,
        help=(
            "virtual nodes per replica on the consistent-hash routing ring "
            f"(default {DEFAULT_VNODES}); recorded in the manifest so every "
            "gateway restart rebuilds the identical ring"
        ),
    )
    fleet_start.add_argument(
        "--dispatch-parallelism",
        type=int,
        default=None,
        help=(
            "cap on concurrently in-flight sub-batch dispatches (default: "
            "the gateway host's CPU count — replicas spawned by 'fleet "
            "start' share its cores; set to the fleet size for replicas "
            "on other hosts)"
        ),
    )
    _add_engine_arguments(fleet_start)
    _add_shed_arguments(fleet_start)
    fleet_start.set_defaults(handler=_cmd_fleet_start)

    fleet_stop = fleet_commands.add_parser(
        "stop", help="stop the gateway first, then every replica"
    )
    add_fleet_dir(fleet_stop)
    fleet_stop.set_defaults(handler=_cmd_fleet_stop)

    fleet_status_cmd = fleet_commands.add_parser(
        "status", help="print the gateway's fleet status as JSON"
    )
    add_fleet_dir(fleet_status_cmd)
    fleet_status_cmd.add_argument(
        "--socket",
        default=None,
        metavar="ADDRESS",
        help="gateway endpoint (default: resolved from the manifest in --dir)",
    )
    fleet_status_cmd.add_argument(
        "--prom",
        action="store_true",
        help="print the gateway's Prometheus exposition instead of JSON",
    )
    fleet_status_cmd.set_defaults(handler=_cmd_fleet_status)

    fleet_gateway = fleet_commands.add_parser(
        "gateway",
        help="run the gateway in the foreground (used by 'fleet start')",
    )
    fleet_gateway.add_argument(
        "--manifest", required=True, help="path to the fleet.json manifest"
    )
    fleet_gateway.add_argument(
        "--socket",
        default=None,
        metavar="ADDRESS",
        help="bind address override (default: the manifest's gateway address)",
    )
    fleet_gateway.set_defaults(handler=_cmd_fleet_gateway)

    cache = subparsers.add_parser(
        "cache",
        help="operate on a durable verdict store (verify/export/import/compact/info)",
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)

    def add_store(sub):
        sub.add_argument(
            "--store",
            required=True,
            metavar="PATH",
            help="the SQLite verdict store (as passed to batch/daemon --store)",
        )

    cache_verify = cache_commands.add_parser(
        "verify",
        help=(
            "independently re-check every stored certificate (solver-free "
            "Shannon sum within 1e-6 + Farkas recheck) and witness "
            "(homomorphism recount)"
        ),
    )
    add_store(cache_verify)
    cache_verify.set_defaults(handler=_cmd_cache_verify)

    cache_export = cache_commands.add_parser(
        "export", help="write the store's records as JSONL (canonical payloads)"
    )
    add_store(cache_export)
    cache_export.add_argument(
        "output", nargs="?", default="-", help="output file (default '-' = stdout)"
    )
    cache_export.set_defaults(handler=_cmd_cache_export)

    cache_import = cache_commands.add_parser(
        "import", help="merge a JSONL export into the store (present hashes skipped)"
    )
    add_store(cache_import)
    cache_import.add_argument(
        "input", nargs="?", default="-", help="input file (default '-' = stdin)"
    )
    cache_import.set_defaults(handler=_cmd_cache_import)

    cache_compact = cache_commands.add_parser(
        "compact", help="rewrite the append-only log to one row per verdict"
    )
    add_store(cache_compact)
    cache_compact.set_defaults(handler=_cmd_cache_compact)

    cache_info = cache_commands.add_parser(
        "info", help="print the store summary (entries, recovery counts, evidence)"
    )
    add_store(cache_info)
    cache_info.set_defaults(handler=_cmd_cache_info)
    return parser


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """The service/engine knobs shared by ``batch`` and ``daemon run/start``."""
    parser.add_argument(
        "--method",
        default="auto",
        choices=["auto", "theorem-3.1", "sufficient", "brute-force"],
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=32,
        help="max Γn decisions folded into one block-LP solve (default 32)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="per-pair wall-clock budget in seconds (over-budget pairs report unknown)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help=(
            "durable verdict store (SQLite) behind the plan cache: previously "
            "decided pairs are answered from disk and every new verdict is "
            "recorded with its certificate or witness (see 'repro cache')"
        ),
    )


def _add_shed_arguments(parser: argparse.ArgumentParser) -> None:
    """The daemon's admission-control knobs."""
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="max batch requests in the daemon at once (default: unbounded)",
    )
    parser.add_argument(
        "--shed-policy",
        default="reject",
        choices=list(SHED_POLICIES),
        help=(
            "what happens to requests over --max-queue-depth: reject with a "
            "queue-full answer, or degrade (run with --degrade-budget per pair)"
        ),
    )
    parser.add_argument(
        "--degrade-budget",
        type=float,
        default=1.0,
        help="per-pair budget (seconds) the degrade policy clamps to (default 1.0)",
    )
    parser.add_argument(
        "--default-deadline",
        type=float,
        default=None,
        help="deadline for batch requests that do not carry their own (seconds)",
    )


#: Exit status when stdout's reader goes away before the output is written
#: (``repro ... | head``): 128 + SIGPIPE, what a shell reports for a process
#: that signal ended.
EXIT_BROKEN_PIPE = 141


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        try:
            code = args.handler(args, out)
        except ReproError as error:
            print(f"error: {error}", file=out)
            code = 1
        out.flush()
        return code
    except BrokenPipeError:
        # Point stdout at /dev/null, so the interpreter's exit-time flush of
        # what is still buffered cannot fail again, and end quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
