"""Crash-safety integration: a SIGKILLed ``python -m repro index``
must never publish a store that loaders accept.

The atomic-build protocol gives a binary outcome: either the build
reached the final rename (store exists, manifest verifies end to end)
or it did not (no file at the published path; at most a ``.building``
temp file, which the next build discards). There is no third state.

The incremental protocol extends the same guarantee in place: a
segment append (or compaction) commits through one catalog write, so a
SIGKILL at any instant leaves the surviving store either entirely
without the in-flight segment (old catalog in force; any orphan rows
are invisible to readers and reported as verify-index *notes*, never
problems) or with it complete. Torn segments cannot be observed.

Besides kills after fixed delays, two kills land inside a named window
on any machine: inside an append's posting batch (one transaction, so
it rolls back and leaves no orphaned namespace) and inside the
compaction's VACUUM (after the catalog commit, so the compaction
stands).
"""

import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.core.config import RELATIONSHIPS
from repro.storage import (SQLiteStore, canonical_dump, load_catalog,
                           segment_namespace, verify_manifest)

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("crashdata"))
    assert main(["generate", "--out", directory, "--patients", "2",
                 "--seed", "11"]) == 0
    return directory


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + [p for p in env.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    return env


def spawn_index_build(data_dir: str, store: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "index", "--data", data_dir,
         "--store", store],
        env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)


class TestSigkilledBuild:
    @pytest.mark.parametrize("kill_after", [0.1, 0.5, 1.5])
    def test_killed_build_never_publishes_bad_store(self, data_dir,
                                                    tmp_path,
                                                    kill_after):
        store = str(tmp_path / f"killed-{kill_after}.db")
        process = spawn_index_build(data_dir, store)
        time.sleep(kill_after)
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
        if os.path.exists(store):
            # The build won the race: the published store must be
            # complete and verify end to end.
            assert main(["verify-index", "--store", store]) == 0
        else:
            # The kill won: nothing was published, and search refuses
            # the path outright.
            code = main(["search", "--data", data_dir, "--store",
                         store, "asthma", "--strict"])
            assert code == 2

    def test_completed_build_verifies(self, data_dir, tmp_path):
        store = str(tmp_path / "complete.db")
        assert main(["index", "--data", data_dir, "--store",
                     store]) == 0
        assert os.path.exists(store)
        assert not os.path.exists(store + ".building")
        assert main(["verify-index", "--store", store]) == 0


# ----------------------------------------------------------------------
# Incremental appends and compaction under SIGKILL
# ----------------------------------------------------------------------
BASE_PATIENTS = ("patient-0000.xml", "patient-0001.xml")


@pytest.fixture(scope="module")
def grow_dirs(tmp_path_factory):
    """A 4-patient data directory plus a 2-patient prefix of it.

    The generator is prefix-stable for a fixed seed, so the base
    directory's documents are byte-identical to the full directory's
    first two -- exactly the situation ``index --append`` requires
    (the indexed documents re-read unchanged, plus new ones)."""
    full = str(tmp_path_factory.mktemp("growfull"))
    assert main(["generate", "--out", full, "--patients", "4",
                 "--seed", "11"]) == 0
    base = str(tmp_path_factory.mktemp("growbase"))
    shutil.copytree(full, base, dirs_exist_ok=True)
    for name in os.listdir(os.path.join(base, "corpus")):
        if name not in BASE_PATIENTS:
            os.unlink(os.path.join(base, "corpus", name))
    return base, full


def spawn_cli(arguments) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *arguments],
        env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)


#: Runs the CLI in a child that SIGKILLs itself from *inside* the SQL
#: of one ``SQLiteStore`` method: a sqlite3 progress handler fires every
#: N virtual-machine instructions of the running statement, so the kill
#: lands mid-transaction (or mid-VACUUM) on any machine, where a timer
#: would have to guess a window a few milliseconds wide.
KILL_INSIDE = """
import os, signal, sys
from repro.cli import main
from repro.storage.sqlite_store import SQLiteStore
method = sys.argv[1]
original = getattr(SQLiteStore, method)
def killed_inside(self, *args, **kwargs):
    self._connection.set_progress_handler(
        lambda: os.kill(os.getpid(), signal.SIGKILL), 100)
    return original(self, *args, **kwargs)
setattr(SQLiteStore, method, killed_inside)
sys.exit(main(sys.argv[2:]))
"""


def run_killed_inside(method: str, arguments) -> None:
    """Run the CLI until it dies inside ``SQLiteStore.<method>``."""
    completed = subprocess.run(
        [sys.executable, "-c", KILL_INSIDE, method, *arguments],
        env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, timeout=120)
    assert completed.returncode == -signal.SIGKILL, \
        f"the CLI never reached SQLiteStore.{method}"


def logical_dump(store_path: str) -> bytes:
    with SQLiteStore(store_path, read_only=True) as store:
        return canonical_dump(store, [RELATIONSHIPS])


def kill_after(process: subprocess.Popen, delay: float) -> None:
    time.sleep(delay)
    process.send_signal(signal.SIGKILL)
    process.wait(timeout=30)


def surviving_catalog(store_path: str):
    """Assert the surviving store is readable and internally
    consistent; return its catalog (None = plain, pre-append)."""
    assert main(["verify-index", "--store", store_path]) == 0
    with SQLiteStore(store_path, read_only=True) as store:
        report = verify_manifest(store)
        assert report.ok, report.describe()
        return load_catalog(store)


class TestSigkilledAppend:
    @pytest.fixture(scope="class")
    def built_store(self, grow_dirs, tmp_path_factory):
        base, _ = grow_dirs
        store = str(tmp_path_factory.mktemp("appendstores") / "base.db")
        assert main(["index", "--data", base, "--store", store]) == 0
        return store

    @pytest.mark.parametrize("delay", [0.1, 0.6, 2.0])
    def test_killed_append_is_all_or_nothing(self, grow_dirs,
                                             built_store, tmp_path,
                                             delay):
        _, full = grow_dirs
        store = str(tmp_path / f"append-{delay}.db")
        shutil.copyfile(built_store, store)
        process = spawn_cli(["index", "--data", full, "--store",
                             store, "--append"])
        kill_after(process, delay)
        catalog = surviving_catalog(store)
        if catalog is None:
            # Killed before the lifecycle's first commit: the store is
            # exactly the published base build.
            return
        live = catalog.live_set
        assert live in ({0, 1}, {0, 1, 2, 3})
        if live == {0, 1}:
            # Old catalog in force; the in-flight segment is invisible.
            assert len(catalog.segments) == 1
        else:
            # The append won the race: one complete new segment.
            assert len(catalog.segments) == 2
            assert set(catalog.segments[-1].doc_ids) == {2, 3}

    def test_kill_inside_the_posting_batch_rolls_back(self, grow_dirs,
                                                      built_store,
                                                      tmp_path):
        # The segment's posting lists are one transaction: a kill in
        # the middle of writing them leaves no row of the segment.
        _, full = grow_dirs
        store = str(tmp_path / "append-in-batch.db")
        shutil.copyfile(built_store, store)
        run_killed_inside("put_postings_many", [
            "index", "--data", full, "--store", store, "--append"])
        catalog = surviving_catalog(store)
        if catalog is not None:  # the bootstrap commit came first
            assert catalog.live_set == {0, 1}
            assert len(catalog.segments) == 1
        with SQLiteStore(store, read_only=True) as reader:
            assert list(reader.keywords(
                segment_namespace(RELATIONSHIPS, 1))) == []
            assert not any("orphaned" in note for note
                           in verify_manifest(reader).notes)
        assert logical_dump(store) == logical_dump(built_store)

    def test_completed_append_verifies_and_searches(self, grow_dirs,
                                                    built_store,
                                                    tmp_path):
        _, full = grow_dirs
        store = str(tmp_path / "append-complete.db")
        shutil.copyfile(built_store, store)
        assert main(["index", "--data", full, "--store", store,
                     "--append"]) == 0
        catalog = surviving_catalog(store)
        assert catalog is not None
        assert catalog.live_set == {0, 1, 2, 3}
        assert main(["search", "--data", full, "--store", store,
                     "cardiac", "--strict"]) == 0


class TestSigkilledCompaction:
    @pytest.fixture(scope="class")
    def segmented_store(self, grow_dirs, tmp_path_factory):
        """A store holding the base segment plus one appended one."""
        base, full = grow_dirs
        store = str(tmp_path_factory.mktemp("compactstores")
                    / "segmented.db")
        assert main(["index", "--data", base, "--store", store]) == 0
        assert main(["index", "--data", full, "--store", store,
                     "--append"]) == 0
        return store

    @pytest.mark.parametrize("delay", [0.1, 0.6, 2.0])
    def test_killed_compaction_never_tears(self, segmented_store,
                                           tmp_path, delay):
        store = str(tmp_path / f"compact-{delay}.db")
        shutil.copyfile(segmented_store, store)
        process = spawn_cli(["compact", "--store", store])
        kill_after(process, delay)
        catalog = surviving_catalog(store)
        assert catalog is not None
        # Compaction never changes the live set -- only the segment
        # organization. Either the old two-segment catalog survives or
        # the single merged segment committed; a kill during post-commit
        # garbage collection leaves only invisible orphans (notes).
        assert catalog.live_set == {0, 1, 2, 3}
        assert len(catalog.segments) in (1, 2)

    def test_kill_inside_vacuum_keeps_the_commit(self, segmented_store,
                                                 tmp_path):
        # VACUUM runs after the catalog commit and through the rollback
        # journal: a kill inside it leaves the compacted store.
        store = str(tmp_path / "compact-in-vacuum.db")
        shutil.copyfile(segmented_store, store)
        run_killed_inside("reclaim_space", ["compact", "--store", store])
        catalog = surviving_catalog(store)
        assert catalog.live_set == {0, 1, 2, 3}
        assert len(catalog.segments) == 1
        assert logical_dump(store) == logical_dump(segmented_store)

    def test_completed_compaction_verifies(self, grow_dirs,
                                           segmented_store, tmp_path):
        _, full = grow_dirs
        store = str(tmp_path / "compact-complete.db")
        shutil.copyfile(segmented_store, store)
        assert main(["compact", "--store", store]) == 0
        catalog = surviving_catalog(store)
        assert len(catalog.segments) == 1
        assert catalog.live_set == {0, 1, 2, 3}
        assert catalog.tombstone_count == 0
        assert main(["search", "--data", full, "--store", store,
                     "cardiac", "--strict"]) == 0
