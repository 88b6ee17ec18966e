"""HTTP load generators: one process, at most two connections.

The box has two cores and one of them belongs to the server under
test, so the generators never run more than two client threads, each
owning one keep-alive connection. Responses are kept raw and checked
after the timed phase, which keeps the checking cost out of the
latencies and out of a closed loop's think time.

* :func:`closed_loop` -- every client sends its next request when the
  previous answer arrived (callers that wait for a reply);
* :func:`open_loop` -- requests are due on a schedule regardless of
  how the server is doing (independent users). Latency is timed from
  the *due* time, so a stall charges the requests queued behind it,
  and the generator reports how late it ran itself.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection
from typing import Sequence

CLIENTS = 2
REQUEST_TIMEOUT = 30.0


@dataclass
class Sample:
    """One completed request."""

    index: int        # which request of the workload's list
    latency: float    # seconds (from the due time in an open loop)
    status: int
    body: bytes
    late: float = 0.0  # open loop: send time minus due time
    at: float = 0.0    # completion time, seconds since the load began


@dataclass
class LoadResult:
    samples: list[Sample]
    wall: float
    errors: list[str]


def fetch(connection: HTTPConnection, path: str) -> tuple[int, bytes]:
    connection.request("GET", path)
    response = connection.getresponse()
    return response.status, response.read()


def _run_clients(port: int, worker, count: int = CLIENTS) -> LoadResult:
    """Run ``worker(client_id, connection, samples)`` on ``count``
    threads; a worker that raises is reported, not swallowed."""
    per_client: list[list[Sample]] = [[] for _ in range(count)]
    errors: list[str] = []

    def guarded(client_id: int) -> None:
        connection = HTTPConnection("127.0.0.1", port,
                                    timeout=REQUEST_TIMEOUT)
        try:
            worker(client_id, connection, per_client[client_id])
        except Exception as error:  # reported to the caller below
            errors.append(f"client {client_id}: "
                          f"{type(error).__name__}: {error}")
        finally:
            connection.close()

    threads = [threading.Thread(target=guarded, args=(client_id,))
               for client_id in range(count)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return LoadResult([sample for samples in per_client
                       for sample in samples], wall, errors)


def closed_loop(port: int, paths: Sequence[str], seconds: float,
                clients: int = CLIENTS) -> LoadResult:
    """``clients`` keep-alive clients cycle through ``paths`` (each
    starting at its own offset) until ``seconds`` have passed."""
    stride = max(1, len(paths) // clients)
    origin = time.perf_counter()

    def worker(client_id: int, connection, samples: list[Sample]) -> None:
        position = client_id * stride
        while True:
            index = position % len(paths)
            started = time.perf_counter()
            if started - origin >= seconds:
                return
            status, body = fetch(connection, paths[index])
            done = time.perf_counter()
            samples.append(Sample(index, done - started, status, body,
                                  at=done - origin))
            position += 1

    return _run_clients(port, worker, clients)


def replay(port: int, paths: Sequence[str], order: Sequence[int],
           around=contextlib.nullcontext) -> LoadResult:
    """One client sends ``order`` (indexes into ``paths``) back to
    back: the fixed-work loop the traced replays compare. Each request
    runs inside ``around()`` -- a traced replay opens the request's
    root span there."""
    def worker(client_id: int, connection, samples: list[Sample]) -> None:
        for index in order:
            with around():
                started = time.perf_counter()
                status, body = fetch(connection, paths[index])
                samples.append(Sample(index,
                                      time.perf_counter() - started,
                                      status, body))

    return _run_clients(port, worker, 1)


def open_loop(port: int, paths: Sequence[str], draws: Sequence[int],
              schedule: Sequence[float],
              clients: int = CLIENTS) -> LoadResult:
    """Request ``draws[i]`` is due ``schedule[i]`` seconds after the
    start. Each client takes the next unsent request, sleeps until it
    is due and sends it; when both clients are busy past a due time
    the request goes out late, and that lateness is part of its
    latency."""
    cursor = iter(range(len(schedule)))
    cursor_lock = threading.Lock()
    origin = time.perf_counter() + 0.05

    def worker(client_id: int, connection, samples: list[Sample]) -> None:
        while True:
            with cursor_lock:
                slot = next(cursor, None)
            if slot is None:
                return
            due = origin + schedule[slot]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, body = fetch(connection, paths[draws[slot]])
            done = time.perf_counter()
            samples.append(Sample(draws[slot], done - due, status, body,
                                  late=max(0.0, sent - due),
                                  at=done - origin))

    return _run_clients(port, worker, clients)
