"""Shared plumbing of the end-to-end benchmark.

Four things live here, all of them independent of any one workload:

* arithmetic -- nearest-rank percentiles, medians, span self-time;
* the span recorder of the traced runs (the benchmark's *own* spans,
  wrapped around the program's public calls from the outside);
* child-process control -- one-shot ``python -m repro ...`` commands
  timed with their own ``rusage``, and the long-lived ``serve`` child
  booted to ``ready`` on an ephemeral port and drained with SIGTERM;
* the scratch workspace under ``benchmarks/e2e/out/`` that every exit
  path removes.

Nothing in this module imports :mod:`repro`: the program under test is
only ever reached through ``python -m repro`` here, so the module also
loads in a tree that holds the benchmark alone.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import math
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

#: Seconds a one-shot CLI child may run before it is killed.
CLI_TIMEOUT = 150.0
#: Seconds ``serve`` may take from exec to its ``ready`` line.
BOOT_TIMEOUT = 60.0
#: Seconds of set-up after which no further repetition is started.
SETUP_BUDGET = 30.0


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def covered(intervals: Sequence[tuple[float, float]],
            low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call into a layer, recorded by the benchmark."""

    span_id: int
    name: str
    layer: str
    request: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of that
    interval its direct children cover (children may overlap when they
    ran on different threads, hence the interval union)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {span.span_id: span.duration - covered(
        children.get(span.span_id, ()), span.start, span.end)
        for span in spans}


class SpanRecorder:
    """In-memory span buffer for one traced replay.

    Parenting follows a per-thread stack. The traced replays keep one
    request in flight at a time, so a span opened on a thread with an
    empty stack (the server's event loop or a pool worker) belongs to
    the request the load generator currently has open and is parented
    to that request's root span.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._request = 0
        self._root: int | None = None
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            span = Span(len(self.spans), name, layer, self._request,
                        parent, 0.0)
            self.spans.append(span)
        stack.append(span.span_id)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    @contextlib.contextmanager
    def request(self, name: str, layer: str) -> Iterator[Span]:
        """The root span of one operation; every span recorded until
        it closes carries its request id."""
        self._request += 1
        with self.span(name, layer) as root:
            self._root = root.span_id
            try:
                yield root
            finally:
                self._root = None

    def replace(self, owner: object, attribute: str,
                replacement: object) -> None:
        """Set ``owner.attribute`` for the replay's duration (undone by
        :meth:`unwrap_all`)."""
        # A class or module attribute must come back as it was; an
        # instance attribute that shadowed a method is deleted again.
        restore = (owner.__dict__.get(attribute, _ABSENT)
                   if hasattr(owner, "__dict__") else _ABSENT)
        self._originals.append((owner, attribute, restore))
        setattr(owner, attribute, replacement)

    def wrap(self, owner: object, attribute: str, name: str,
             layer: str) -> None:
        """Replace ``owner.attribute`` with a version that records a
        span around every call."""
        original = getattr(owner, attribute)
        if asyncio.iscoroutinefunction(original):
            @functools.wraps(original)
            async def traced(*args, **kwargs):
                with self.span(name, layer):
                    return await original(*args, **kwargs)
        else:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                with self.span(name, layer):
                    return original(*args, **kwargs)
        self.replace(owner, attribute, traced)

    def unwrap_all(self) -> None:
        while self._originals:
            owner, attribute, restore = self._originals.pop()
            if restore is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, restore)

    # ------------------------------------------------------------------
    def layer_self_seconds(self, request: int | None = None,
                           ) -> dict[str, float]:
        """Total self time per layer, over every recorded span or over
        one request's."""
        own = self_times(self.spans)
        totals: dict[str, float] = {}
        for span in self.spans:
            if request is None or span.request == request:
                totals[span.layer] = totals.get(span.layer, 0.0) \
                    + own[span.span_id]
        return totals

    def durations(self, name: str,
                  request: int | None = None) -> list[float]:
        return [span.duration for span in self.spans
                if span.name == name
                and (request is None or span.request == request)]

    def self_seconds(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        own = self_times(self.spans)
        return sum(own[span.span_id] for span in self.spans
                   if span.name == name)

    def per_request_total(self, name: str) -> list[float]:
        """Summed duration of the ``name`` spans of each request (a
        request with several, such as one fetch per keyword, counts
        once); requests without such a span are left out."""
        totals: dict[int, float] = {}
        for span in self.spans:
            if span.name == name:
                totals[span.request] = totals.get(span.request, 0.0) \
                    + span.duration
        return list(totals.values())

    def write_jsonl(self, path: Path) -> int:
        own = self_times(self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.span_id, "name": span.name,
                    "layer": span.layer, "request": span.request,
                    "parent": span.parent, "start": span.start,
                    "end": span.end,
                    "self": own[span.span_id]}) + "\n")
        return len(self.spans)


_ABSENT = object()


# ----------------------------------------------------------------------
# Workspace and child processes
# ----------------------------------------------------------------------
def child_environment() -> dict[str, str]:
    """Environment of every ``python -m repro`` child: the program's
    source on the path, and its bytecode cached inside the benchmark's
    own directory so that children neither write into ``src/`` nor pay
    a full recompile on every start."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class ChildResult:
    """One finished one-shot CLI child."""

    args: list[str]
    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float


class Workspace:
    """Scratch directory plus the registry of live children.

    Used as a context manager around a whole run: leaving it -- by
    return, exception or SIGTERM -- stops every child still running
    and removes the directory.
    """

    def __init__(self, label: str) -> None:
        self.path = OUT / f"tmp-{os.getpid()}-{label}"
        self.children: list[subprocess.Popen] = []
        self._counter = 0

    def __enter__(self) -> "Workspace":
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self

    def __exit__(self, *exc_info) -> None:
        for child in self.children:
            if child.poll() is None:
                child.kill()
                child.wait()
        shutil.rmtree(self.path, ignore_errors=True)

    def fresh_dir(self, name: str) -> Path:
        path = self.path / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def cli(self, *args: str) -> ChildResult:
        """Run ``python -m repro ARGS`` to completion; wall time and
        the child's own peak RSS come back with its output."""
        self._counter += 1
        out_path = self.path / f"child-{self._counter}.out"
        err_path = self.path / f"child-{self._counter}.err"
        command = [sys.executable, "-m", "repro", *args]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            child = subprocess.Popen(command, stdout=out, stderr=err,
                                     env=child_environment(),
                                     cwd=self.path)
            self.children.append(child)
            killer = threading.Timer(CLI_TIMEOUT, child.kill)
            killer.start()
            try:
                # wait4 rather than Popen.wait: it hands back this
                # child's rusage, not the maximum over all children.
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)
        self.children.remove(child)
        result = ChildResult(
            list(args), wall, child.returncode,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
            usage.ru_maxrss / 1024.0)
        out_path.unlink()
        err_path.unlink()
        return result

    def cli_ok(self, *args: str) -> ChildResult:
        """:meth:`cli` for set-up steps, which must succeed."""
        result = self.cli(*args)
        if result.returncode != 0:
            raise RuntimeError(
                f"`repro {' '.join(args)}` exited {result.returncode}: "
                f"{result.stderr.strip()[-400:]}")
        return result

    def serve(self, *args: str) -> "ServerProcess":
        server = ServerProcess(self, args)
        server.start()
        return server


_PORT = re.compile(r"on http://[^:\s]+:(\d+)")


class ServerProcess:
    """A ``python -m repro serve`` child on an ephemeral port."""

    def __init__(self, workspace: Workspace, args: Sequence[str]) -> None:
        self._workspace = workspace
        self._args = list(args)
        self.child: subprocess.Popen | None = None
        self.port = 0
        self.boot_lines: list[str] = []

    def start(self) -> None:
        command = [sys.executable, "-m", "repro", "serve", *self._args,
                   "--host", "127.0.0.1", "--port", "0"]
        self.child = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=child_environment(), cwd=self._workspace.path,
            bufsize=0)  # unbuffered: select() must see every line
        self._workspace.children.append(self.child)
        give_up = time.monotonic() + BOOT_TIMEOUT
        stream = self.child.stdout
        while True:
            remaining = give_up - time.monotonic()
            ready, _, _ = select.select([stream], [], [],
                                        max(0.0, remaining))
            line = stream.readline().decode("utf-8", "replace") \
                if ready else ""
            if not line:
                self.stop()
                raise RuntimeError(
                    "serve did not reach `ready`: "
                    + " | ".join(self.boot_lines))
            self.boot_lines.append(line.strip())
            match = _PORT.search(line)
            if match:
                self.port = int(match.group(1))
            if line.startswith("ready") and self.port:
                return

    def peak_rss_mb(self) -> float:
        """High-water RSS of the live server."""
        return peak_rss_mb(self.child.pid)

    def stop(self) -> int:
        """SIGTERM, wait for the drain, return the exit code."""
        child = self.child
        if child.poll() is None:
            child.send_signal(signal.SIGTERM)
            try:
                child.wait(timeout=20)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        child.stdout.close()
        if child in self._workspace.children:
            self._workspace.children.remove(child)
        return child.returncode


def terminate_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so ``finally`` blocks and
    context managers (the :class:`Workspace`) still run."""
    def handler(signum, frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, handler)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water RSS (``VmHWM``) of a live process, this one by
    default."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def tree_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


def fingerprint(seed: int, seconds: float, quick: bool) -> dict:
    """Where and how a result was measured."""
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if found.returncode == 0:
            commit = found.stdout.strip()
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "commit": commit, "seed": seed, "seconds": seconds,
            "quick": quick}


# ----------------------------------------------------------------------
# What a workload is handed and what it hands back
# ----------------------------------------------------------------------
@dataclass
class Context:
    """One invocation's parameters."""

    seed: int
    seconds: float
    quick: bool
    workspace: Workspace

    @property
    def setup_repeats(self) -> int:
        """Set-up runs per invocation; ``setup_s`` is their median."""
        return 1 if self.quick else 3

    def size(self, full: int, quick: int) -> int:
        return quick if self.quick else full


@dataclass
class Outcome:
    """What one workload measured."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    #: Sample counts behind the percentiles and other context that is
    #: not a metric.
    details: dict = field(default_factory=dict)
    #: The first few incorrect answers, for the report.
    failures: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(reason)


def repeated_setup(context: Context, unit):
    """Run ``unit(directory, keep)`` up to ``setup_repeats`` times,
    each in a fresh directory; returns ``(median seconds, last unit's
    result)``. ``keep`` is true for the last repetition only -- the
    earlier ones must tear down what they started. Once the
    repetitions have used ``SETUP_BUDGET`` seconds the next one is the
    last: on a stalled box a run reports one slow set-up rather than
    three."""
    times: list[float] = []
    result = None
    while result is None or not keep:
        keep = (len(times) == context.setup_repeats - 1
                or sum(times) > SETUP_BUDGET)
        directory = context.workspace.fresh_dir(f"setup-{len(times)}")
        started = time.perf_counter()
        result = unit(directory, keep)
        times.append(time.perf_counter() - started)
        if not keep:
            shutil.rmtree(directory, ignore_errors=True)
    return median(times), result
