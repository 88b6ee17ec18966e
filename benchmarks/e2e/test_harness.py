"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

The arithmetic, the seeded generators and the ``BENCHMARK.json``
contract are checked directly; one smoke test then runs every
workload in ``--quick`` mode, untraced and traced, and checks that
what the runner prints is exactly what ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import inputs  # noqa: E402
import run as runner  # noqa: E402

CONTRACT = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert harness.percentile(samples, 0.5) == 3.0
    assert harness.percentile(samples, 0.95) == 5.0
    assert harness.percentile(samples, 0.2) == 1.0
    assert harness.percentile(samples, 0.21) == 2.0
    assert harness.percentile(list(range(1, 101)), 0.95) == 95
    assert harness.percentile([7.0], 0.95) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def test_covered_takes_the_union_and_clips():
    assert harness.covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert harness.covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert harness.covered([], 0, 10) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        harness.Span(0, "request", "server", 1, None, 0.0, 10.0),
        harness.Span(1, "execute", "server", 1, 0, 1.0, 9.0),
        harness.Span(2, "fetch", "storage", 1, 1, 2.0, 4.0),
        # overlaps span 2 from another thread
        harness.Span(3, "merge", "core.query", 1, 1, 3.0, 7.0),
    ]
    own = harness.self_times(spans)
    assert own == {0: 2.0, 1: 3.0, 2: 2.0, 3: 4.0}
    # Overlap is counted once, so self times may exceed the root only
    # by what ran in parallel.
    assert sum(own.values()) == 11.0


def test_recorder_parents_by_stack_and_adopts_other_threads():
    recorder = harness.SpanRecorder()
    with recorder.request("root", "server") as root:
        with recorder.span("inner", "core.query") as inner:
            pass
        def pooled_work():  # a thread whose own stack is empty
            with recorder.span("pooled", "storage"):
                pass

        worker = threading.Thread(target=pooled_work)
        worker.start()
        worker.join()
    pooled = recorder.spans[-1]
    assert inner.parent == root.span_id and root.parent is None
    assert pooled.name == "pooled" and pooled.parent == root.span_id
    assert {span.request for span in recorder.spans} == {1}
    with recorder.request("next", "server") as second:
        pass
    assert second.request == 2


def test_wrap_and_unwrap_restore_instance_class_and_module():
    class Thing:
        def work(self):
            return "done"

    recorder = harness.SpanRecorder()
    thing = Thing()
    recorder.wrap(thing, "work", "thing.work", "layer")
    recorder.wrap(Thing, "work", "Thing.work", "layer")
    with recorder.request("root", "layer"):
        assert thing.work() == "done"
        assert Thing().work() == "done"
    assert [span.name for span in recorder.spans] == \
        ["root", "thing.work", "Thing.work"]
    recorder.unwrap_all()
    assert "work" not in vars(thing)
    assert Thing.work.__name__ == "work" and thing.work() == "done"
    assert len(recorder.spans) == 3


def test_layer_self_seconds_sums_to_the_roots():
    recorder = harness.SpanRecorder()
    with recorder.request("root", "server"):
        with recorder.span("a", "core.query"):
            with recorder.span("b", "storage"):
                pass
    total = sum(recorder.layer_self_seconds().values())
    assert total == pytest.approx(recorder.spans[0].duration)


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
POOL = [f"word{first}{second}" for first in "abcdefghij"
        for second in "abcdefghij"]


def test_same_seed_gives_identical_inputs():
    for seed in (1, 2, 99):
        assert inputs.selective_requests(POOL, seed) == \
            inputs.selective_requests(POOL, seed)
        assert inputs.zipf_draws(20, 500, seed) == \
            inputs.zipf_draws(20, 500, seed)
        assert inputs.poisson_schedule(40, 10, seed) == \
            inputs.poisson_schedule(40, 10, seed)
        assert inputs.shuffled(range(30), seed, "x") == \
            inputs.shuffled(range(30), seed, "x")
    assert inputs.selective_requests(POOL, 1) != \
        inputs.selective_requests(POOL, 2)
    assert inputs.zipf_draws(20, 500, 1) != inputs.zipf_draws(20, 500, 2)
    assert inputs.shuffled(range(30), 1, "x") != \
        inputs.shuffled(range(30), 1, "y")


def test_selective_mix_shape():
    requests = inputs.selective_requests(POOL, 7)
    assert len(requests) == 128 == len({r.text for r in requests})
    narrative = [r for r in requests if r.narrative]
    assert len(narrative) == 32
    plain = [r for r in requests if not r.narrative]
    glue = {word for frame in inputs.GLUE_ONE + inputs.GLUE_TWO
            for word in frame.split() if "{" not in word}
    keywords = [sum(word not in glue for word in r.text.split())
                for r in requests]
    assert keywords.count(1) == keywords.count(2) == 64
    assert sorted(keywords[i] for i, r in enumerate(requests)
                  if r.narrative) == [1] * 16 + [2] * 16
    assert "narrative=1" in narrative[0].path()
    assert "narrative" not in plain[0].path()


def test_selective_pool_is_the_quiet_half():
    counts = {"alpha": 1, "beta": 2, "gamma": 3, "delta": 50,
              '"two words"': 1, "x9": 2}
    assert inputs.selective_keywords(counts) == ["alpha", "beta"]


def test_schedule_and_zipf_statistics():
    schedule = inputs.poisson_schedule(40, 10, 3)
    assert len(schedule) == 400 and schedule == sorted(schedule)
    assert 0 <= schedule[0] and schedule[-1] <= 10
    draws = inputs.zipf_draws(20, 4000, 3)
    tally = [draws.count(item) for item in range(20)]
    assert tally[0] > 3 * tally[9] > 0   # rank 1 ~ 10x rank 10
    assert tally[0] > tally[1] > tally[3]


def test_permute_corpus_keeps_bytes_changes_order(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for number in range(8):
        (corpus / f"patient-{number:04d}.xml").write_text(f"<d{number}/>")
    order = inputs.permute_corpus(tmp_path, 5)
    files = inputs.corpus_files(tmp_path)
    assert [path.name for path in files] == \
        [f"patient-{number:04d}.xml" for number in range(8)]
    assert [path.read_text() for path in files] == \
        [f"<d{source}/>" for source in order]
    assert sorted(order) == list(range(8)) and order != list(range(8))


def test_glue_is_stopwords_only():
    tokenizer = pytest.importorskip("repro.ir.tokenizer")
    for frame in inputs.GLUE_ONE + inputs.GLUE_TWO:
        words = frame.replace("{0}", "").replace("{1}", "").split()
        assert set(words) <= tokenizer.DEFAULT_STOPWORDS, frame


def test_cli_ranking_parses_search_output():
    stdout = ("loaded 5 posting lists from x\n"
              "#1  score=1.250  3.0.2\n    <a/>\n"
              "#2  score=0.500  7.1\n"
              "dil-cache: hits=1\n")
    assert inputs.cli_ranking(stdout) == (("3.0.2", "1.250"),
                                          ("7.1", "0.500"))


# ----------------------------------------------------------------------
# The contract file
# ----------------------------------------------------------------------
def test_contract_schema():
    assert set(CONTRACT) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert CONTRACT["command"][0] == "python3"
    assert all(part.startswith("benchmarks/e2e/")
               for part in CONTRACT["command"][1:])
    assert isinstance(CONTRACT["run_seconds"], int)
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in CONTRACT["end_to_end"])
    assert (harness.ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_contract_names_and_units():
    names = [entry["name"] for section in
             ("workloads", "end_to_end", "per_layer")
             for entry in CONTRACT[section]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for section in ("end_to_end", "per_layer"):
        for metric in CONTRACT[section]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")


def test_every_metric_in_the_source_is_declared():
    declared = {metric["name"] for section in ("end_to_end", "per_layer")
                for metric in CONTRACT[section]}
    literal = re.compile(r'metrics\[\s*"([^"{]+)"\s*\]')
    for source in HERE.glob("*.py"):
        if source.name.startswith("test_"):
            continue
        for name in literal.findall(source.read_text()):
            assert name in declared, f"{source.name}: {name}"
    assert set(runner.workload_table()) == {
        workload["name"] for workload in CONTRACT["workloads"]}


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def test_judge_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert runner.judge(steady, [v * 1.05 for v in steady],
                        "lower", 0.10)[0] == "ok"
    assert runner.judge(steady, [v * 1.20 for v in steady],
                        "lower", 0.10)[0] == "regressed"
    assert runner.judge(steady, [v * 0.80 for v in steady],
                        "higher", 0.10)[0] == "regressed"
    assert runner.judge(steady, [v * 0.80 for v in steady],
                        "lower", 0.10)[0] == "ok"
    noisy = [60.0, 100.0, 140.0, 90.0, 120.0]
    assert runner.judge(noisy, steady, "lower", 0.10)[0] == "unresolved"
    assert runner.spread([5.0]) == 0.0
    assert runner.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


def test_compare_reads_appended_reports(tmp_path, capsys):
    def report(path, values):
        with open(path, "w") as handle:
            for value in values:
                handle.write(json.dumps({"results": [{
                    "workload": "build_cli",
                    "metrics": {"latency_p50_ms":
                                {"value": value, "unit": "ms"}}}]}) + "\n")
    base, change = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    report(base, [10.0, 10.1, 9.9, 10.0])
    report(change, [13.0, 13.1, 12.9, 13.0])
    assert runner.compare(str(base), str(change), CONTRACT) == 1
    assert "regressed" in capsys.readouterr().out
    assert runner.compare(str(base), str(base), CONTRACT) == 0


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def _run(*args, cwd=harness.ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a tree holding only BENCHMARK.json and the benchmark's own
    directory there is nothing to measure: non-zero exit, no result."""
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "build_cli", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path,
                script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert done.returncode != 0
    assert "{" not in done.stdout


@pytest.mark.parametrize("workload",
                         [w["name"] for w in CONTRACT["workloads"]])
def test_quick_smoke_emits_exactly_the_declared_metrics(workload):
    pytest.importorskip("repro")
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = _run("--workload", workload, "--seed", "1", "--quick",
                    "--trace", str(trace))
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed",
                               "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in CONTRACT[section]}
        assert {name: metric["unit"]
                for name, metric in result["metrics"].items()} == declared
        if not trace:
            assert all(metric["value"] > 0
                       for metric in result["metrics"].values())
    trace_file = HERE / "out" / f"trace-{workload}.jsonl"
    first = json.loads(trace_file.read_text().splitlines()[0])
    assert set(first) == {"id", "name", "layer", "request", "parent",
                          "start", "end", "self"}
    assert not list((HERE / "out").glob("tmp-*")), "workspace left behind"
