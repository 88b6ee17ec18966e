#!/usr/bin/env python3
"""One benchmark for the whole stack.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1
    python3 benchmarks/e2e/run.py --seed S [--trace] [--quick] [--report F]
    python3 benchmarks/e2e/run.py --compare A.jsonl B.jsonl
    python3 benchmarks/e2e/run.py --summarize A.jsonl

The first form runs one workload and prints, as the last line of its
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``. The second
form runs all four workloads. ``--report`` appends every result, with
an environment fingerprint and the sample counts, as one JSON line;
``--compare`` reads two such files and judges each (metric, workload)
pair against the bound ``BENCHMARK.json`` stores.

The exit code is 0 when every answer was correct, 1 when any
operation failed or answered wrongly, 2 when the benchmark could not
run at all. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
# Bytecode of everything this process imports goes where the
# children's goes (harness.child_environment), not into src/.
sys.pycache_prefix = str(HERE / "out" / "pycache")

import harness  # noqa: E402  (needs the path entry above)

CONTRACT = harness.ROOT / "BENCHMARK.json"


def load_contract() -> dict:
    with open(CONTRACT, encoding="utf-8") as handle:
        return json.load(handle)


def workload_table():
    """name -> (run, trace); imported late so that ``--compare`` and
    ``--help`` work without the program on the path."""
    import building
    import incremental
    import serving

    return {
        "serve_selective": (
            lambda context: serving.run(serving.SELECTIVE, context),
            lambda context: serving.trace(serving.SELECTIVE, context)),
        "serve_broad_store": (
            lambda context: serving.run(serving.BROAD, context),
            lambda context: serving.trace(serving.BROAD, context)),
        "build_cli": (building.run, building.trace),
        "incremental_rw": (incremental.run, incremental.trace),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, contract: dict) -> dict:
    """Run one workload; returns its result in the report's shape."""
    run, traced = workload_table()[name]
    label = f"{name}-{'trace' if trace else 'e2e'}"
    with harness.Workspace(label) as workspace:
        context = harness.Context(seed, seconds, quick, workspace)
        if trace:
            outcome, recorder = traced(context)
            spans = recorder.write_jsonl(
                harness.OUT / f"trace-{name}.jsonl")
            outcome.details["trace_file"] = \
                f"benchmarks/e2e/out/trace-{name}.jsonl ({spans} spans)"
        else:
            outcome = run(context)
    declared = contract["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    stray = sorted(set(outcome.metrics) - set(units))
    if stray:
        raise RuntimeError(f"{name} emitted undeclared metrics: {stray}")
    missing = [] if trace else sorted(set(units) - set(outcome.metrics))
    for metric in missing:
        outcome.attempted += 1
        outcome.fail(f"end-to-end metric {metric} could not be measured")
    # A traced run reports every per-layer metric; a layer the
    # workload never enters reads 0.
    metrics = {metric: {"value": float(outcome.metrics.get(metric, 0.0)),
                        "unit": unit}
               for metric, unit in units.items() if metric not in missing}
    return {"workload": name, "trace": int(trace),
            "correct": outcome.failed == 0 and outcome.attempted > 0,
            "attempted": max(1, outcome.attempted),
            "failed": outcome.failed, "metrics": metrics,
            "details": outcome.details, "failures": outcome.failures}


def print_result(result: dict) -> None:
    mode = "per-layer (traced)" if result["trace"] else "end-to-end"
    print(f"== {result['workload']}: {mode}; "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.4f} {metric['unit']}")
    for key, value in result["details"].items():
        print(f"  ({key}: {value})")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def read_reports(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> every value a report file holds."""
    values: dict[tuple[str, str], list[float]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            for result in json.loads(line)["results"]:
                for name, metric in result["metrics"].items():
                    values.setdefault((result["workload"], name),
                                      []).append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    """Interquartile range over the median (0 with fewer than two
    values, which have no quartiles)."""
    if len(values) < 2:
        return 0.0
    low, middle, high = statistics.quantiles(values, n=4)
    return (high - low) / middle if middle else 0.0


def judge(base: list[float], change: list[float], better: str,
          bound: float) -> tuple[str, float, float]:
    """``(verdict, relative worsening, base spread)`` of one pair."""
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    worse = (change_median - base_median) / base_median
    if better == "higher":
        worse = -worse
    noise = max(spread(base), spread(change))
    if noise > bound:
        return "unresolved", worse, noise
    return ("regressed" if worse > bound else "ok"), worse, noise


def summarize(path: str) -> dict:
    """Median, quartiles and spread of every (workload, metric) pair
    a report file holds -- how ``baseline.json`` is made."""
    summary: dict[str, dict] = {}
    for (workload, name), values in sorted(read_reports(path).items()):
        entry = {"runs": len(values),
                 "median": statistics.median(values)}
        if len(values) >= 2:
            low, _, high = statistics.quantiles(values, n=4)
            entry.update(q1=low, q3=high, spread=spread(values))
        summary.setdefault(workload, {})[name] = entry
    return summary


def compare(path_a: str, path_b: str, contract: dict) -> int:
    base, change = read_reports(path_a), read_reports(path_b)
    bounded = {metric["name"]: metric for metric in contract["end_to_end"]}
    verdicts = []
    print(f"{'workload':<20}{'metric':<30}{'base':>12}{'change':>12}"
          f"{'worse':>9}{'spread':>9}{'bound':>7}  verdict")
    for (workload, name) in sorted(base):
        if name not in bounded or (workload, name) not in change:
            continue
        metric = bounded[name]
        verdict, worse, noise = judge(
            base[workload, name], change[workload, name],
            metric["better"], metric["bound"])
        verdicts.append(verdict)
        print(f"{workload:<20}{name:<30}"
              f"{statistics.median(base[workload, name]):>12.4f}"
              f"{statistics.median(change[workload, name]):>12.4f}"
              f"{worse:>+9.1%}{noise:>9.1%}{metric['bound']:>7.0%}"
              f"  {verdict}")
    print(f"{verdicts.count('ok')} ok, "
          f"{verdicts.count('regressed')} regressed, "
          f"{verdicts.count('unresolved')} unresolved")
    return 1 if "regressed" in verdicts or not verdicts else 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run this workload only (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: "
                             "run_seconds of BENCHMARK.json; 2 with "
                             "--quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="1: traced in-process replay, per-layer "
                             "metrics and a span file under out/")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: tiny corpora, one set-up, "
                             "short phases; never a recorded number")
    parser.add_argument("--report", default=None, metavar="FILE",
                        help="append the results as one JSON line")
    parser.add_argument("--compare", nargs=2, default=None,
                        metavar=("BASE", "CHANGE"),
                        help="judge two report files against the "
                             "bounds of BENCHMARK.json")
    parser.add_argument("--summarize", default=None, metavar="FILE",
                        help="print median, quartiles and spread of "
                             "every metric a report file holds")
    args = parser.parse_args(argv)

    if not CONTRACT.is_file():
        print(f"error: {CONTRACT} not found", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.compare:
        return compare(*args.compare, contract)
    if args.summarize:
        print(json.dumps(summarize(args.summarize), indent=1))
        return 0
    if not (harness.SRC / "repro" / "__main__.py").is_file():
        print(f"error: the program under test is not at {harness.SRC}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    names = [workload["name"] for workload in contract["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {names}")
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else (
        2.0 if args.quick else float(contract["run_seconds"]))
    harness.terminate_on_sigterm()

    results = []
    for name in names:
        modes = [False, True] if args.trace and args.workload is None \
            else [bool(args.trace)]
        for trace in modes:
            result = run_workload(name, args.seed, seconds, trace,
                                  args.quick, contract)
            print_result(result)
            results.append(result)
    if args.report:
        with open(args.report, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "fingerprint": harness.fingerprint(args.seed, seconds,
                                                   args.quick),
                "results": results}) + "\n")
    if args.workload is not None:
        last = results[-1]
        print(json.dumps({key: last[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in results),
                          "workloads": {
                              f"{r['workload']}:trace{r['trace']}":
                              {"attempted": r["attempted"],
                               "failed": r["failed"]}
                              for r in results}}))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
