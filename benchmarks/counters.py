#!/usr/bin/env python3
"""Exact work counters of the CLI's index, search, append and compact.

    python benchmarks/counters.py                 # print the counters
    python benchmarks/counters.py --check         # equal to the latest entry?
    python benchmarks/counters.py --append --commit C --change TEXT

Every counter is a count of work done, not a time, so it is a function
of the code and the seeded corpus alone. None depends on the SQLite
library version: COMMIT statements, stored posting rows, XPB1 block
bytes, Dewey parses and the bytes of the mmap file. The trajectory
lives in ``BENCH_counters.json`` at the repository root, one
``{commit, change, values}`` entry per change to any counter; ``--check``
exits 1 when the code no longer produces the latest entry's values.

The flows, each run in-process through ``repro.cli.main``:

* ``generate --patients 20`` (seed 1), then ``index --store-format
  mmap`` and ``index`` (SQLite) over it, then one ``search --store``;
* the append flow: ``generate --patients 4 --seed 3``, ``index``,
  ``generate --patients 6 --seed 3``, ``index --append``, ``compact``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sqlite3
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "BENCH_counters.json"
SEARCH_QUERY = "asthma theophylline"


class _Counts:
    """Counts calls of patched callables and SQLite COMMITs."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.commits = 0

    def take(self) -> tuple[dict[str, int], int]:
        calls, commits = self.calls, self.commits
        self.calls, self.commits = {}, 0
        return calls, commits


@contextlib.contextmanager
def _instrumented(counts: _Counts):
    """Count ``codec._parse_dewey``, ``DeweyID.parse`` and the COMMITs
    of every SQLite store opened while the block runs."""
    from repro.storage import codec
    from repro.storage.sqlite_store import SQLiteStore
    from repro.xmldoc.dewey import DeweyID

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts.calls[name] = counts.calls.get(name, 0) + 1
            return function(*args, **kwargs)
        return wrapper

    def on_statement(statement: str) -> None:
        if statement.strip().upper() == "COMMIT":
            counts.commits += 1

    original_init = SQLiteStore.__init__

    def traced_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self._connection.set_trace_callback(on_statement)

    parse_dewey = codec._parse_dewey
    parse = DeweyID.__dict__["parse"]
    codec._parse_dewey = counted("_parse_dewey", parse_dewey)
    DeweyID.parse = classmethod(counted("DeweyID.parse", parse.__func__))
    SQLiteStore.__init__ = traced_init
    try:
        yield
    finally:
        codec._parse_dewey = parse_dewey
        DeweyID.parse = parse
        SQLiteStore.__init__ = original_init


def _cli(*arguments: str) -> None:
    from repro.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(arguments))
    if code not in (0, 1):
        raise SystemExit(f"repro {' '.join(arguments)} exited {code}")


def _posting_rows(path: str) -> int:
    """Rows of the store's posting table, whatever its schema names it."""
    connection = sqlite3.connect(path)
    try:
        (table,) = [name for (name,) in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")
            if name not in ("documents", "metadata")]
        return connection.execute(
            f"SELECT COUNT(*) FROM {table}").fetchone()[0]
    finally:
        connection.close()


def _block_bytes(path: str) -> int:
    from repro.storage import MmapStore
    with MmapStore(path) as store:
        return sum(store.get_posting_block(namespace, keyword).size_bytes()
                   for namespace in ("relationships",)
                   for keyword in store.keywords(namespace))


def measure(workdir: str) -> dict:
    """Run the flows in ``workdir`` and return the counters."""
    counts = _Counts()
    values: dict = {}
    data = os.path.join(workdir, "data20")
    mmap_path = os.path.join(workdir, "idx.mm")
    sqlite_path = os.path.join(workdir, "idx.db")
    _cli("generate", "--out", data, "--patients", "20")
    with _instrumented(counts):
        counts.take()
        _cli("index", "--data", data, "--store", mmap_path,
             "--store-format", "mmap")
        calls, _ = counts.take()
        values["index_mmap.parse_dewey_calls"] = \
            calls.get("_parse_dewey", 0)
        _cli("index", "--data", data, "--store", sqlite_path)
        _, values["index_sqlite.commits"] = counts.take()
        _cli("search", "--data", data, "--store", sqlite_path,
             SEARCH_QUERY)
        calls, _ = counts.take()
        values["search_sqlite.dewey_parse_calls"] = \
            calls.get("DeweyID.parse", 0)
    values["index_sqlite.posting_rows"] = _posting_rows(sqlite_path)
    values["index_mmap.block_bytes"] = _block_bytes(mmap_path)
    with open(mmap_path, "rb") as handle:
        raw = handle.read()
    values["index_mmap.file_bytes"] = len(raw)
    values["index_mmap.sha256"] = hashlib.sha256(raw).hexdigest()

    data = os.path.join(workdir, "data-append")
    store = os.path.join(workdir, "append.db")
    _cli("generate", "--out", data, "--patients", "4", "--seed", "3")
    _cli("index", "--data", data, "--store", store)
    _cli("generate", "--out", data, "--patients", "6", "--seed", "3")
    with _instrumented(counts):
        counts.take()
        _cli("index", "--data", data, "--store", store, "--append")
        _, values["append.commits"] = counts.take()
        _cli("compact", "--store", store)
        calls, values["compact.commits"] = counts.take()
        values["compact.dewey_parse_calls"] = \
            calls.get("DeweyID.parse", 0)
    return dict(sorted(values.items()))


def measure_fresh() -> dict:
    with tempfile.TemporaryDirectory(prefix="repro-counters-") as workdir:
        return measure(workdir)


def load_trajectory() -> list[dict]:
    if not TRAJECTORY.exists():
        return []
    return json.loads(TRAJECTORY.read_text(encoding="utf-8"))


def differences(expected: dict, actual: dict) -> list[str]:
    return [f"{name}: recorded {expected.get(name)!r}, measured "
            f"{actual.get(name)!r}"
            for name in sorted(set(expected) | set(actual))
            if expected.get(name) != actual.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="exit 1 unless the counters equal the "
                           "latest entry of BENCH_counters.json")
    mode.add_argument("--append", action="store_true",
                      help="append the counters as a new entry")
    parser.add_argument("--commit", default=None,
                        help="commit the counters were measured at")
    parser.add_argument("--change", default=None,
                        help="what the measured code changed")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    values = measure_fresh()
    if args.check:
        trajectory = load_trajectory()
        if not trajectory:
            print(f"no entries in {TRAJECTORY}", file=sys.stderr)
            return 1
        problems = differences(trajectory[-1]["values"], values)
        for problem in problems:
            print(problem, file=sys.stderr)
        print("counters: " + ("DIFFER" if problems else "OK"))
        return 1 if problems else 0
    if args.append:
        if not args.commit or not args.change:
            parser.error("--append needs --commit and --change")
        trajectory = load_trajectory()
        trajectory.append({"commit": args.commit, "change": args.change,
                           "values": values})
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n",
                              encoding="utf-8")
    print(json.dumps(values, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
