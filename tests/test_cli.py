"""End-to-end tests for the command-line interface."""

import os
import pathlib
import shlex

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("clidata"))
    code = main(["generate", "--out", directory, "--patients", "4",
                 "--seed", "3"])
    assert code == 0
    return directory


class TestGenerate:
    def test_layout(self, data_dir):
        assert os.path.isdir(os.path.join(data_dir, "ontology"))
        corpus_dir = os.path.join(data_dir, "corpus")
        documents = [name for name in os.listdir(corpus_dir)
                     if name.endswith(".xml")]
        assert len(documents) == 4

    def test_output_summary(self, data_dir, capsys):
        main(["generate", "--out", data_dir, "--patients", "4",
              "--seed", "3"])
        captured = capsys.readouterr()
        assert "ontology:" in captured.out
        assert "corpus: 4 documents" in captured.out


class TestIndexAndSearch:
    def test_index_then_search(self, data_dir, tmp_path, capsys):
        store = str(tmp_path / "index.db")
        assert main(["index", "--data", data_dir, "--store", store]) == 0
        captured = capsys.readouterr()
        assert "XOnto-DILs" in captured.out
        assert os.path.exists(store)

        code = main(["search", "--data", data_dir, "--store", store,
                     "asthma theophylline", "-k", "3"])
        captured = capsys.readouterr()
        assert f"reading index store {store}" in captured.out
        assert "loaded" not in captured.out  # nothing is pre-loaded
        # Either results or a clean no-results exit, depending on the
        # tiny corpus; both paths must not crash.
        assert code in (0, 1)

    def test_workers_flag_is_an_inert_shim(self, data_dir, tmp_path,
                                           capsys):
        """``index --workers`` survives, hidden, only for the benchmark
        harness: it exits 0 and writes exactly the plain build's store."""
        from repro.storage import SQLiteStore, canonical_dump
        plain, shimmed = str(tmp_path / "plain.db"), str(tmp_path / "w.db")
        assert main(["index", "--data", data_dir, "--store", plain]) == 0
        assert main(["index", "--data", data_dir, "--store", shimmed,
                     "--workers", "2"]) == 0
        with pytest.raises(SystemExit):
            main(["index", "--help"])
        assert "--workers" not in capsys.readouterr().out
        with SQLiteStore(plain, read_only=True) as first, \
                SQLiteStore(shimmed, read_only=True) as second:
            assert canonical_dump(first, ["relationships"]) == \
                canonical_dump(second, ["relationships"])

    def test_search_without_store(self, data_dir, capsys):
        code = main(["search", "--data", data_dir, "fever", "-k", "2"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert captured.out.strip()

    def test_search_explain_flag(self, data_dir, capsys):
        code = main(["search", "--data", data_dir,
                     "fever acetaminophen", "-k", "1", "--explain"])
        captured = capsys.readouterr()
        if code == 0:
            assert "via" in captured.out

    def test_xrank_strategy(self, data_dir, capsys):
        code = main(["search", "--data", data_dir, "--strategy", "xrank",
                     "fever", "-k", "2"])
        assert code in (0, 1)
        capsys.readouterr()

    def test_narrative_flag(self, data_dir, capsys):
        code = main(["search", "--data", data_dir, "--narrative",
                     "was febrile and on acetaminophen", "-k", "2"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        # The synonym phrasing is normalized to the preferred terms
        # before the engine runs, and the mapping is printed.
        assert "narrative query mapped to: acetaminophen fever" \
            in captured.out
        assert "[synonym] 'febrile' -> " in captured.out

    def test_narrative_without_ontology_errors(self, data_dir, capsys):
        # Bare XRANK loads no terminology, so the flag must fail
        # loudly instead of silently searching the raw prose.
        code = main(["search", "--data", data_dir, "--strategy", "xrank",
                     "--narrative", "was febrile", "-k", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "narrative" in captured.err.lower() \
            or "narrative" in captured.out.lower()


class TestEvaluate:
    def test_survey_table(self, data_dir, capsys):
        assert main(["evaluate", "--data", data_dir, "--k", "3"]) == 0
        captured = capsys.readouterr()
        assert "AVERAGE" in captured.out
        assert "xrank" in captured.out
        assert "relationships" in captured.out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_strategy_rejected(self, data_dir):
        with pytest.raises(SystemExit):
            main(["search", "--data", data_dir, "--strategy", "bogus",
                  "q"])

    def test_missing_corpus_errors(self, tmp_path):
        empty = str(tmp_path / "empty")
        os.makedirs(os.path.join(empty, "corpus"))
        with pytest.raises(FileNotFoundError):
            main(["search", "--data", empty, "q"])

    @pytest.mark.parametrize("bad_k", ["0", "-3", "two"])
    def test_top_k_must_be_a_positive_int(self, data_dir, capsys,
                                          bad_k):
        """k < 1 used to reach rank_results and traceback; argparse
        must reject it as a usage error (exit code 2) instead."""
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--data", data_dir, "fever",
                  "--top-k", bad_k])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert "positive integer" in message or "invalid" in message

    def test_top_k_long_flag_matches_short(self, data_dir, capsys):
        code_long = main(["search", "--data", data_dir, "fever",
                          "--top-k", "2"])
        long_output = capsys.readouterr().out
        code_short = main(["search", "--data", data_dir, "fever",
                           "-k", "2"])
        short_output = capsys.readouterr().out
        assert code_long == code_short
        assert long_output == short_output


class TestRobustness:
    @pytest.fixture(scope="class")
    def built_store(self, data_dir, tmp_path_factory):
        store = str(tmp_path_factory.mktemp("robust") / "index.db")
        assert main(["index", "--data", data_dir, "--store", store]) == 0
        return store

    def test_missing_store_is_an_error_and_not_created(self, data_dir,
                                                       tmp_path,
                                                       capsys):
        missing = str(tmp_path / "missing.db")
        code = main(["search", "--data", data_dir, "--store", missing,
                     "asthma"])
        captured = capsys.readouterr()
        assert code == 2
        assert "no index store" in captured.err
        # The old behavior silently created an empty database here.
        assert not os.path.exists(missing)

    def test_index_reports_manifest(self, built_store, capsys):
        capsys.readouterr()
        assert main(["verify-index", "--store", built_store]) == 0
        captured = capsys.readouterr()
        assert "manifest: OK" in captured.out
        assert "checksum-verified" in captured.out

    def test_verify_index_missing_store(self, tmp_path, capsys):
        code = main(["verify-index", "--store",
                     str(tmp_path / "nope.db")])
        captured = capsys.readouterr()
        assert code == 2
        assert "no index store" in captured.err

    def test_verify_index_detects_tampering(self, built_store,
                                            tmp_path, capsys):
        import shutil
        from repro.storage.sqlite_store import SQLiteStore
        tampered = str(tmp_path / "tampered.db")
        shutil.copyfile(built_store, tampered)
        with SQLiteStore(tampered) as store:
            keyword = next(iter(store.keywords("relationships")))
            store.put_postings("relationships", keyword,
                               [("0.9.9", 9.9)])
        code = main(["verify-index", "--store", tampered])
        captured = capsys.readouterr()
        assert code == 1
        assert "checksum mismatch" in captured.out

    def test_garbage_store_degrades_by_default(self, data_dir,
                                               tmp_path, capsys):
        garbage = str(tmp_path / "garbage.db")
        with open(garbage, "wb") as handle:
            handle.write(b"not a database" * 256)
        code = main(["search", "--data", data_dir, "--store", garbage,
                     "fever", "-k", "2"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert "warning: ignoring index store" in captured.err

    def test_garbage_store_fatal_under_strict(self, data_dir,
                                              tmp_path, capsys):
        garbage = str(tmp_path / "garbage-strict.db")
        with open(garbage, "wb") as handle:
            handle.write(b"not a database" * 256)
        for flag in ("--strict", "--no-fallback"):
            code = main(["search", "--data", data_dir, "--store",
                         garbage, "fever", flag])
            captured = capsys.readouterr()
            assert code == 2
            assert "cannot use index store" in captured.err

    def test_incompatible_parameters_degrade_or_fail(self, data_dir,
                                                     built_store,
                                                     capsys):
        # The store was built with decay=0.5; searching with 0.4 must
        # not silently load it.
        code = main(["search", "--data", data_dir, "--store",
                     built_store, "fever", "--decay", "0.4"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert "warning: ignoring index store" in captured.err
        code = main(["search", "--data", data_dir, "--store",
                     built_store, "fever", "--decay", "0.4",
                     "--strict"])
        captured = capsys.readouterr()
        assert code == 2
        assert "decay" in captured.err

    def test_verbose_prints_resilience_counters(self, data_dir,
                                                built_store, capsys):
        code = main(["search", "--data", data_dir, "--store",
                     built_store, "fever", "-k", "2", "--verbose"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert f"reading index store {built_store}" in captured.out
        assert "stats:" in captured.out
        assert "engine.integrity.validations=1" in captured.out

    def test_no_partial_file_after_failed_build(self, tmp_path,
                                                capsys):
        # An index build against a broken data directory must not
        # leave anything at the published path.
        empty = str(tmp_path / "empty-data")
        os.makedirs(os.path.join(empty, "corpus"))
        store = str(tmp_path / "never.db")
        with pytest.raises(FileNotFoundError):
            main(["index", "--data", empty, "--store", store])
        assert not os.path.exists(store)
        assert not os.path.exists(store + ".building")


class TestSharded:
    @pytest.fixture(scope="class")
    def shard_stores(self, data_dir, tmp_path_factory):
        store = str(tmp_path_factory.mktemp("sharded") / "index.db")
        assert main(["index", "--data", data_dir, "--store", store,
                     "--shards", "3"]) == 0
        return store

    def test_index_writes_one_store_per_shard(self, shard_stores,
                                              capsys):
        capsys.readouterr()
        from repro.core.query.federated import shard_store_path
        paths = [shard_store_path(shard_stores, shard, 3)
                 for shard in range(3)]
        for path in paths:
            assert os.path.exists(path)
            assert main(["verify-index", "--store", path]) == 0
        assert not os.path.exists(shard_stores)  # no single-store file
        capsys.readouterr()

    def test_federated_search_matches_single(self, data_dir,
                                             shard_stores, capsys):
        query = "asthma theophylline"
        code = main(["search", "--data", data_dir, "--store",
                     shard_stores, "--shards", "3",
                     "--shard-workers", "2", query, "-k", "3"])
        federated = capsys.readouterr().out
        assert code in (0, 1)
        assert federated.count("reading index store") == 3
        single_code = main(["search", "--data", data_dir, query,
                            "-k", "3"])
        single = capsys.readouterr().out
        assert single_code == code
        ranked = [line for line in federated.splitlines()
                  if line.startswith("#")]
        assert ranked == [line for line in single.splitlines()
                          if line.startswith("#")]

    def test_missing_shard_store_is_an_error(self, data_dir,
                                             shard_stores, capsys):
        code = main(["search", "--data", data_dir, "--store",
                     shard_stores, "--shards", "4", "asthma"])
        captured = capsys.readouterr()
        assert code == 2
        assert "no index store" in captured.err
        assert "--shards 4" in captured.err

    def test_sharded_search_without_store(self, data_dir, capsys):
        code = main(["search", "--data", data_dir, "--shards", "2",
                     "fever", "-k", "2"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert captured.out.strip()

    @pytest.mark.parametrize("argv", [
        ["search", "--data", "D", "fever", "--shards", "0"],
        ["search", "--data", "D", "fever", "--shards", "2",
         "--shard-workers", "0"],
        ["search", "--data", "D", "fever", "--cache-size", "-1"],
        ["index", "--data", "D", "--store", "S", "--shards", "-3"],
        ["serve", "--data", "D", "--shard-workers", "-1"],
        ["serve", "--data", "D", "--cache-size", "-1"],
        ["compact", "--store", "S", "--shards", "0"],
        ["compact", "--store", "S", "--shards", "-3"],
        ["search", "--data", "D", "fever", "--retries", "-1"],
        ["index", "--data", "D", "--store", "S", "--radius", "-1"],
    ])
    def test_bad_counts_are_usage_errors(self, argv, capsys):
        """These used to be tracebacks (--shard-workers 0,
        --cache-size -1, --radius -1), a silent fall-back to the
        unsharded path with a misleading "no index store" (compact
        --shards 0), or silently accepted (--retries -1)."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert "usage:" in message
        assert "integer" in message

    def test_cache_size_zero_still_disables_the_cache(self, data_dir,
                                                      capsys):
        code = main(["search", "--data", data_dir, "fever", "-k", "2",
                     "--cache-size", "0"])
        assert code in (0, 1)
        assert "size=0 capacity=0" in capsys.readouterr().out


class TestReadPath:
    """``search --store`` reads through the store exactly as ``serve``
    does (docs/STORAGE.md, "Reading a persisted store"): only the
    query's posting lists are read, each store is validated once, and
    every backend and layout answers as the store-less run does."""

    QUERY = "fever acetaminophen"

    @pytest.fixture(scope="class")
    def layouts(self, tmp_path_factory):
        """One 6-patient corpus and four persisted forms of its index:
        SQLite, mmap, grown (4 patients, ``--append`` to 6, ``compact``)
        and three shards."""
        root = tmp_path_factory.mktemp("readpath")
        data, base = str(root / "data"), str(root / "base")
        for directory, patients in ((data, "6"), (base, "4")):
            assert main(["generate", "--out", directory, "--patients",
                         patients, "--seed", "3"]) == 0
        stores = {name: str(root / name)
                  for name in ("sqlite", "mmap", "grown", "sharded")}
        index = ["index", "--data", data, "--store"]
        assert main(index + [stores["sqlite"]]) == 0
        assert main(index + [stores["mmap"], "--store-format",
                             "mmap"]) == 0
        assert main(index + [stores["sharded"], "--shards", "3"]) == 0
        assert main(["index", "--data", base,
                     "--store", stores["grown"]]) == 0
        assert main(index + [stores["grown"], "--append"]) == 0
        assert main(["compact", "--store", stores["grown"]]) == 0
        return data, stores

    @staticmethod
    def _ranked(out):
        return [line for line in out.splitlines()
                if line.startswith("#")]

    def _store_less(self, data, capsys):
        """The oracle: the ranking built from the corpus alone."""
        capsys.readouterr()
        assert main(["search", "--data", data, self.QUERY,
                     "-k", "5"]) == 0
        ranked = self._ranked(capsys.readouterr().out)
        assert ranked
        return ranked

    @staticmethod
    def _instruments(path):
        import json
        with open(path, encoding="utf-8") as handle:
            return {row["name"]: row for row in map(json.loads, handle)}

    @staticmethod
    def _damage(source, target, keyword):
        """Copy a SQLite store and make one row of ``keyword``'s
        posting list undecodable."""
        import shutil
        import sqlite3
        shutil.copyfile(source, target)
        with sqlite3.connect(target) as connection:
            changed = connection.execute(
                "UPDATE postings SET dewey = 'not-a-dewey' WHERE "
                "keyword = ? AND position = 0", (keyword,)).rowcount
        connection.close()
        assert changed == 1
        return target

    @pytest.mark.parametrize("layout", ["sqlite", "mmap", "sharded"])
    def test_every_layout_ranks_as_the_store_less_run(self, layouts,
                                                      layout, capsys):
        data, stores = layouts
        expected = self._store_less(data, capsys)
        shards = ["--shards", "3"] if layout == "sharded" else []
        assert main(["search", "--data", data, "--store",
                     stores[layout], self.QUERY, "-k", "5"]
                    + shards) == 0
        out = capsys.readouterr().out
        assert self._ranked(out) == expected
        assert out.count("reading index store") == (3 if shards else 1)

    def test_grown_store_ranks_as_its_eager_load(self, layouts, capsys):
        """A store grown by ``--append`` keeps the scores its segments
        were built with (BM25 statistics are corpus-global; the caveat
        in docs/PAPER_MAP.md), so the store-less run is not its oracle:
        the whole-store ``load_index`` the CLI used to do is."""
        from repro import cli
        from repro.storage import open_read_store
        data, stores = layouts
        args = cli.build_parser().parse_args(
            ["search", "--data", data, self.QUERY])
        ontology, corpus = cli._load_data_directory(data)
        engine = cli._make_engine(args, corpus, ontology, None)
        with open_read_store(stores["grown"]) as store:
            engine.load_index([store])
        expected = [f"#{rank}  score={result.score:.3f}  "
                    f"{result.dewey.encode()}" for rank, result in
                    enumerate(engine.search(self.QUERY, k=5), start=1)]
        capsys.readouterr()
        assert main(["search", "--data", data, "--store",
                     stores["grown"], self.QUERY, "-k", "5"]) == 0
        assert self._ranked(capsys.readouterr().out) == expected != []

    @pytest.mark.parametrize("layout, shards", [("sqlite", 1),
                                                ("sharded", 3)])
    def test_reads_only_the_query_keywords(self, layouts, layout,
                                           shards, tmp_path, capsys):
        data, stores = layouts
        metrics = str(tmp_path / "metrics.jsonl")
        assert main(["search", "--data", data, "--store",
                     stores[layout], "--shards", str(shards),
                     self.QUERY, "--metrics-out", metrics]) == 0
        capsys.readouterr()
        instruments = self._instruments(metrics)
        # Two distinct keywords, one read per keyword per shard store --
        # the eager load read every list of the vocabulary.
        assert instruments["storage.read"]["count"] == 2 * shards
        assert "storage.load_index" not in instruments
        assert instruments["engine.integrity.validations"]["value"] \
            == shards

    def test_damaged_queried_list_degrades_or_fails_fast(
            self, layouts, tmp_path, capsys):
        data, stores = layouts
        expected = self._store_less(data, capsys)
        damaged = self._damage(stores["sqlite"],
                               str(tmp_path / "damaged.db"), "fever")
        code = main(["search", "--data", data, "--store", damaged,
                     self.QUERY, "-k", "5", "--verbose"])
        captured = capsys.readouterr()
        assert code == 0
        assert self._ranked(captured.out) == expected
        assert "engine.fallback.rebuilds=1" in captured.out
        for flag in ("--strict", "--no-fallback"):
            code = main(["search", "--data", data, "--store", damaged,
                         self.QUERY, flag])
            captured = capsys.readouterr()
            assert code == 2
            assert "cannot use index store" in captured.err
            assert "'fever' is corrupt" in captured.err
            assert not self._ranked(captured.out)

    def test_damage_outside_the_query_is_verify_indexs_job(
            self, layouts, tmp_path, capsys):
        data, stores = layouts
        expected = self._store_less(data, capsys)
        damaged = self._damage(stores["sqlite"],
                               str(tmp_path / "damaged.db"), "asthma")
        for policy in ([], ["--strict"]):
            code = main(["search", "--data", data, "--store", damaged,
                         self.QUERY, "-k", "5", "--verbose"] + policy)
            captured = capsys.readouterr()
            assert code == 0
            assert self._ranked(captured.out) == expected
            assert "engine.fallback.rebuilds" not in captured.out
        assert main(["verify-index", "--store", damaged]) == 1
        assert "checksum mismatch" in capsys.readouterr().out

    def test_serve_warm_up_validates_each_store_once(self, layouts,
                                                     capsys):
        """``serve`` attaches the same way and then warms: it used to
        validate every store twice (attach, then ``load_index``)."""
        import contextlib
        from repro import cli
        from repro.core.stats import INTEGRITY_VALIDATIONS
        data, stores = layouts
        args = cli.build_parser().parse_args(
            ["serve", "--data", data, "--store", stores["sharded"],
             "--shards", "3"])
        ontology, corpus = cli._load_data_directory(data)
        engine = cli._make_engine(args, corpus, ontology, None)
        with contextlib.ExitStack() as stack:
            assert cli._attach_stores(args, engine, stack,
                                      degrade=False, warm=True) == 0
            out = capsys.readouterr().out
            assert engine.stats.value(INTEGRITY_VALIDATIONS) == 3
            warmed = int(out.split("warmed ")[1].split()[0])
            assert warmed == engine.cache_stats().size > 0
            assert out.strip().endswith(
                f"posting lists from {stores['sharded']}")


class TestStatsAndParameters:
    def test_stats_subcommand(self, data_dir, capsys):
        assert main(["stats", "--data", data_dir]) == 0
        captured = capsys.readouterr()
        assert "ontology:" in captured.out
        assert "vocabulary (document words):" in captured.out

    def test_parameter_flags_accepted(self, data_dir, capsys):
        code = main(["search", "--data", data_dir, "--threshold", "0.3",
                     "--decay", "0.4", "--t", "0.25", "fever", "-k", "1"])
        assert code in (0, 1)
        capsys.readouterr()

    def test_invalid_parameters_rejected(self, data_dir):
        with pytest.raises(ValueError):
            main(["search", "--data", data_dir, "--decay", "0", "fever"])


class TestProfiling:
    def test_search_profile_prints_phase_table(self, data_dir, capsys):
        code = main(["search", "--data", data_dir,
                     "asthma theophylline", "-k", "3", "--profile"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert "PROFILE -- per-phase timings (milliseconds)" in \
            captured.out
        # The canonical query phases print even when zero, so the
        # output shape is stable for scripts.
        for phase in ("parse", "ontoscore", "dil_merge", "storage"):
            assert f"\n{phase}" in captured.out
        assert "instruments:" in captured.out
        assert "query.search:" in captured.out
        assert "spans:" in captured.out

    def test_search_metrics_out_writes_json_lines(self, data_dir,
                                                  tmp_path, capsys):
        import json
        metrics = str(tmp_path / "metrics.jsonl")
        code = main(["search", "--data", data_dir, "asthma", "-k", "2",
                     "--metrics-out", metrics])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert f"-> {metrics}" in captured.out
        with open(metrics, encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle]
        assert rows, "metrics file must not be empty"
        assert {row["type"] for row in rows} <= {"counter", "timer"}
        names = [row["name"] for row in rows if row["type"] == "timer"]
        assert "query.search" in names

    def test_search_trace_out_writes_chrome_trace(self, data_dir,
                                                  tmp_path, capsys):
        import json
        trace_path = str(tmp_path / "trace.json")
        code = main(["search", "--data", data_dir, "asthma", "-k", "2",
                     "--trace-out", trace_path])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert "perfetto" in captured.out
        with open(trace_path, encoding="utf-8") as handle:
            trace = json.load(handle)
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert events
        assert {event["ph"] for event in events} == {"X"}
        assert "query.search" in {event["name"] for event in events}

    def test_index_profile_reports_build_phases(self, data_dir,
                                                tmp_path, capsys):
        store = str(tmp_path / "index.db")
        code = main(["index", "--data", data_dir, "--store", store,
                     "--profile"])
        captured = capsys.readouterr()
        assert code == 0
        assert "PROFILE -- per-phase timings (milliseconds)" in \
            captured.out
        assert "index_build" in captured.out
        assert "index.serial_build: count=1" in captured.out

    def test_verbose_prints_timer_histograms(self, data_dir, capsys):
        code = main(["search", "--data", data_dir, "asthma", "-k", "2",
                     "--profile", "--verbose"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert "timers:" in captured.out
        assert "p95=" in captured.out

    def test_no_profiling_flags_no_profile_output(self, data_dir,
                                                  capsys):
        code = main(["search", "--data", data_dir, "asthma", "-k", "2"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert "PROFILE" not in captured.out


class TestMmapStoreFormat:
    @pytest.fixture(scope="class")
    def mmap_store(self, data_dir, tmp_path_factory):
        store = str(tmp_path_factory.mktemp("mmapstore") / "index.mm")
        assert main(["index", "--data", data_dir, "--store", store,
                     "--store-format", "mmap"]) == 0
        return store

    @staticmethod
    def _ranking(out):
        return [line for line in out.splitlines()
                if line.startswith("#")]

    def test_search_matches_sqlite(self, data_dir, mmap_store,
                                   tmp_path, capsys):
        sqlite = str(tmp_path / "index.db")
        assert main(["index", "--data", data_dir,
                     "--store", sqlite]) == 0
        capsys.readouterr()
        assert main(["search", "--data", data_dir, "--store", sqlite,
                     "fever", "-k", "3"]) in (0, 1)
        from_sqlite = self._ranking(capsys.readouterr().out)
        assert main(["search", "--data", data_dir,
                     "--store", mmap_store,
                     "fever", "-k", "3"]) in (0, 1)
        from_mmap = self._ranking(capsys.readouterr().out)
        assert from_mmap and from_mmap == from_sqlite

    def test_verify_index_reports_blocks(self, mmap_store, capsys):
        assert main(["verify-index", "--store", mmap_store]) == 0
        out = capsys.readouterr().out
        assert "format: mmap store" in out
        assert "compact posting blocks crc32-verified" in out
        assert "sha256" in out

    def test_verify_index_catches_block_damage(self, data_dir,
                                               tmp_path, capsys):
        store = str(tmp_path / "damaged.mm")
        assert main(["index", "--data", data_dir, "--store", store,
                     "--store-format", "mmap"]) == 0
        from repro.storage import MmapStore
        reader = MmapStore(store)
        strategy = next(iter(reader._postings))
        keyword = next(iter(reader._postings[strategy]))
        offset = reader._postings[strategy][keyword][0]
        reader.close()
        data = bytearray(open(store, "rb").read())
        data[offset + 16] ^= 0xFF
        open(store, "wb").write(bytes(data))
        assert main(["verify-index", "--store", store]) == 1
        out = capsys.readouterr().out
        # Damage surfaces either in the per-block sweep or already in
        # the manifest checksum pass -- both name the corrupt block.
        assert "FAIL" in out
        assert "checksum mismatch" in out

    def test_append_refuses_mmap(self, data_dir, mmap_store, capsys):
        code = main(["index", "--data", data_dir, "--store", mmap_store,
                     "--append"])
        assert code == 2
        assert "immutable" in capsys.readouterr().err

    def test_compact_refuses_mmap(self, mmap_store, capsys):
        code = main(["compact", "--store", mmap_store])
        assert code == 2
        assert "rebuild" in capsys.readouterr().err


class TestBuildOntology:
    def test_from_data_directory(self, data_dir, tmp_path, capsys):
        store = str(tmp_path / "onto.db")
        assert main(["build-ontology", "--data", data_dir,
                     "--store", store]) == 0
        captured = capsys.readouterr()
        assert "built ontology indexes:" in captured.out
        assert "ontology fingerprint:" in captured.out
        assert os.path.exists(store)

    def test_synthetic_stream_to_mmap(self, tmp_path, capsys):
        store = str(tmp_path / "onto.xms")
        assert main(["build-ontology", "--store", store,
                     "--store-format", "mmap",
                     "--target-concepts", "500",
                     "--ontology-seed", "9"]) == 0
        captured = capsys.readouterr()
        assert "built ontology indexes:" in captured.out
        assert main(["verify-index", "--store", store]) == 0

    def test_built_store_resolves_terms(self, data_dir, tmp_path):
        store = str(tmp_path / "onto.db")
        assert main(["build-ontology", "--data", data_dir,
                     "--store", store]) == 0
        from repro.ontology.api import TerminologyService
        from repro.ontology.indexes import OntologyIndexes
        from repro.storage.sqlite_store import SQLiteStore
        service = TerminologyService()
        service.register_indexes(
            OntologyIndexes(SQLiteStore(store, read_only=True)))
        assert service.lookup_term("asthma")


class TestOntologyCacheFlag:
    def test_cold_then_warm_summary(self, data_dir, tmp_path, capsys):
        cache = str(tmp_path / "cache.db")
        store_a = str(tmp_path / "a.db")
        store_b = str(tmp_path / "b.db")
        assert main(["index", "--data", data_dir, "--store", store_a,
                     "--ontology-cache", cache]) == 0
        cold = capsys.readouterr().out
        assert "ontology-cache:" in cold
        assert "hits=0" in cold
        assert main(["index", "--data", data_dir, "--store", store_b,
                     "--ontology-cache", cache]) == 0
        warm = capsys.readouterr().out
        assert "misses=0" in warm

    def test_xrank_ignores_cache(self, data_dir, tmp_path, capsys):
        cache = str(tmp_path / "cache.db")
        store = str(tmp_path / "x.db")
        assert main(["index", "--data", data_dir, "--store", store,
                     "--strategy", "xrank",
                     "--ontology-cache", cache]) == 0
        assert "ontology-cache:" not in capsys.readouterr().out


class TestServeCorpusFlag:
    def test_malformed_spec_rejected(self, data_dir, capsys):
        code = main(["serve", "--data", data_dir,
                     "--corpus", "no-equals-sign"])
        assert code == 2
        assert "NAME=PATH" in capsys.readouterr().err

    def test_duplicate_name_rejected(self, data_dir, capsys):
        code = main(["serve", "--data", data_dir,
                     "--corpus", f"default={data_dir}"])
        assert code == 2
        assert "duplicate" in capsys.readouterr().err


class TestDefaultShardsCompatibility:
    """Every command now runs the federated engine; at the default
    ``--shards 1`` nothing an operator sees may move."""

    #: Stdout of commit 5b016f2 (before the engines were unified) for
    #: each ``$ repro ...`` line, run in one directory in order. Two
    #: lines per ``search --store`` step changed since, deliberately:
    #: ``reading index store`` replaced ``loaded N posting lists`` and
    #: the dil-cache line counts the query's two read-through misses.
    #: ``index`` no longer prints a ``build: workers=...`` line: the
    #: build has one (serial) path, so there is nothing to report.
    GOLDEN = pathlib.Path(__file__).parent / "golden" \
        / "cli_default_shards.txt"

    def test_stdout_matches_the_unsharded_cli_line_for_line(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        steps = self.GOLDEN.read_text(encoding="utf-8").split("$ repro ")
        assert len(steps) > 8 and not steps[0]
        for step in steps[1:]:
            command, _, expected = step.partition("\n")
            code = main(shlex.split(command))
            actual = f"{capsys.readouterr().out}[exit {code}]\n"
            assert actual.splitlines() == expected.splitlines(), command
        # One shard is the plain --store path: no shard-suffixed file.
        assert sorted(os.listdir(tmp_path)) == ["data", "idx.db"]

    def test_ontology_cache_works_at_every_shard_count(self, data_dir,
                                                       tmp_path, capsys):
        """It used to be ignored (with a note) when --shards > 1."""
        cache = str(tmp_path / "cache.db")
        for run in ("cold", "warm"):
            assert main(["index", "--data", data_dir, "--store",
                         str(tmp_path / f"{run}.db"), "--shards", "2",
                         "--ontology-cache", cache]) == 0
            captured = capsys.readouterr()
            assert "ignored" not in captured.err
            line = next(line for line in captured.out.splitlines()
                        if line.startswith("ontology-cache:"))
            hits = int(line.split("hits=")[1].split()[0])
            assert (hits == 0) == (run == "cold"), line
        assert "misses=0" in line
