"""The ``serve-warm`` fleet and its load generator.

The fleet is started and stopped by the program itself, through
:func:`repro.service.fleet.start_fleet` and
:func:`~repro.service.fleet.stop_fleet` (what ``repro fleet start`` and
``repro fleet stop`` run): the replicas come up one after another on unix
sockets in the fleet directory, each on its own verdict store, then the
gateway.  The members are child processes of the benchmark, so
:func:`stop_and_reap` waits for each one to end after ``stop_fleet``, and
``RUSAGE_CHILDREN`` then holds their peak memory.

:func:`closed_loop` and :func:`open_loop` drive batch requests at the
gateway from this one process with at most ``clients`` threads, one
connection per request (the :class:`~repro.service.daemon.DaemonClient`
contract).
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError
from repro.service.daemon import DaemonClient
from repro.service.fleet import start_fleet, stop_fleet
from repro.service.protocol import BatchResponse

#: Longest unix socket path the kernel accepts (``sun_path`` less its NUL).
MAX_SOCKET_PATH = 107


def start(directory: str, replicas: int) -> Dict[str, object]:
    """Start a fleet in ``directory``; returns its manifest."""
    longest = os.path.join(os.path.abspath(directory), f"replica-{replicas - 1}.sock")
    if len(longest.encode()) > MAX_SOCKET_PATH:
        raise RuntimeError(
            f"the fleet's socket path {longest} is longer than "
            f"{MAX_SOCKET_PATH} bytes; run the benchmark from a shorter path"
        )
    return start_fleet(directory, replicas=replicas, wait_seconds=60.0)


def stop_and_reap(directory: str, manifest: Dict[str, object], wait_seconds: float = 10.0) -> None:
    """``stop_fleet``, then wait for every member process to end.

    A member still running ``wait_seconds`` after the stop is killed.
    """
    pids = [manifest["gateway"]["pid"]] + [entry["pid"] for entry in manifest["replicas"]]
    try:
        stop_fleet(directory, wait_seconds=wait_seconds)
    finally:
        deadline = time.monotonic() + wait_seconds
        for pid in pids:
            while True:
                try:
                    ended, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    break  # already reaped
                if ended:
                    break
                if time.monotonic() > deadline:
                    with contextlib.suppress(OSError):
                        os.kill(pid, signal.SIGKILL)
                    with contextlib.suppress(ChildProcessError):
                        os.waitpid(pid, 0)
                    break
                time.sleep(0.02)


def scrape(manifest: Dict[str, object]) -> List[str]:
    """Exposition documents of the gateway and then every replica."""
    addresses = [manifest["gateway"]["address"]]
    addresses += [entry["address"] for entry in manifest["replicas"]]
    return [DaemonClient(address, timeout=10.0).metrics() for address in addresses]


# ---------------------------------------------------------------------- #
# Load generation
# ---------------------------------------------------------------------- #
@dataclass
class Sample:
    """One request's outcome: latency from its due time, and its response.

    ``done`` is the ``time.perf_counter()`` reading when the answer arrived.
    """

    request: object
    latency: float
    lateness: float
    done: float
    response: Optional[BatchResponse]
    error: Optional[str] = None


@dataclass
class LoadResult:
    samples: List[Sample] = field(default_factory=list)
    started: float = 0.0
    seconds: float = 0.0


def _send(client: DaemonClient, texts) -> Tuple[Optional[BatchResponse], Optional[str]]:
    try:
        return client.batch(texts), None
    except ReproError as error:
        return None, f"{type(error).__name__}: {error}"


def closed_loop(
    address: str,
    requests: Iterator[Tuple[object, List[Tuple[str, str]]]],
    seconds: float,
    clients: int,
) -> LoadResult:
    """``clients`` threads each send their next request when the last returns."""
    lock = threading.Lock()
    started = time.perf_counter()
    result = LoadResult(started=started)
    stop_at = started + seconds

    def worker():
        client = DaemonClient(address, timeout=30.0)
        while time.perf_counter() < stop_at:
            with lock:
                request, texts = next(requests)
            sent = time.perf_counter()
            response, error = _send(client, texts)
            done = time.perf_counter()
            sample = Sample(request, done - sent, 0.0, done, response, error)
            with lock:
                result.samples.append(sample)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.seconds = time.perf_counter() - started
    return result


def open_loop(
    address: str,
    requests: Sequence[Tuple[object, List[Tuple[str, str]]]],
    rate: float,
    clients: int,
) -> LoadResult:
    """Send ``requests`` on a fixed schedule of ``rate`` per second.

    Request ``i`` is due at ``start + i / rate``; each of the ``clients``
    threads takes the next due request, waits for its due time and sends
    it.  Latency is measured from the due time, so a stalled generator or a
    backlog shows up in every later request; ``lateness`` is how late the
    request actually left.
    """
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    started = time.perf_counter() + 0.05
    result = LoadResult(started=started)

    def worker():
        client = DaemonClient(address, timeout=30.0)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = started + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            request, texts = requests[index]
            response, error = _send(client, texts)
            done = time.perf_counter()
            sample = Sample(request, done - due, max(0.0, sent - due), done, response, error)
            with lock:
                result.samples.append(sample)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.seconds = time.perf_counter() - started
    return result


def checked(
    result: LoadResult, expected: Callable[[object], List[str]]
) -> Tuple[int, int, List[bool]]:
    """``(pairs attempted, pairs failed, per-sample correctness)``.

    A refused or errored request fails every pair it carried; a wrong
    verdict fails its pair.
    """
    attempted = failed = 0
    correct: List[bool] = []
    for sample in result.samples:
        statuses = expected(sample.request)
        attempted += len(statuses)
        response = sample.response
        if response is None or not response.ok or len(response.verdicts) != len(statuses):
            failed += len(statuses)
            correct.append(False)
            continue
        wrong = sum(
            1
            for verdict, status in zip(response.verdicts, statuses)
            if verdict.status != status
        )
        failed += wrong
        correct.append(wrong == 0)
    return attempted, failed, correct
