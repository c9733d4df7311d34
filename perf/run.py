#!/usr/bin/env python3
"""The repo's benchmark.  See perf/README.md for the protocol and the why.

    python3 perf/run.py --workload NAME --seed N      one measured run
    python3 perf/run.py --workload NAME --trace       the per-layer (traced) run
    python3 perf/run.py [--out FILE]                  every workload -> ledger row
    python3 perf/run.py --selfcheck [--runs N]        does the benchmark agree with itself
    python3 perf/run.py --quick                       every workload at ~1/8 size, K=2

A single run prints every metric by name with its unit and, as the last line
of standard output, one JSON object ``{correct, attempted, failed, metrics}``;
it exits non-zero if any op failed or miscounted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"

#: Fresh interpreters that each time one cold start; ``setup_s`` is their minimum.
SETUP_CHILDREN = 3


def load_contract() -> dict:
    """BENCHMARK.json: the metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def require_program() -> None:
    """The benchmark measures this checkout's source and nothing else."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perf/run.py: nothing to measure: {source}/repro is missing")
    sys.path.insert(0, str(source))


def resolve(name: str, quick: bool):
    import workloads

    if name not in workloads.WORKLOADS:
        sys.exit(f"perf/run.py: unknown workload {name!r} "
                 f"(expected one of {', '.join(workloads.WORKLOADS)})")
    spec = workloads.WORKLOADS[name]
    return workloads.quick(spec) if quick else spec


# ----------------------------------------------------------------------
# One cold start (runs in a fresh child interpreter)
# ----------------------------------------------------------------------
def setup_child(args) -> None:
    """Time import + build + warm-up and print the seconds; input generation is not set-up."""
    import measure
    import workloads

    spec = workloads.warm_up_only(resolve(args.workload, args.quick))
    inputs = measure.prepare(spec, args.seed)
    start = perf_counter()
    measure.warm_up(spec, inputs)
    print(repr(perf_counter() - start))


def time_setup(args) -> float:
    """One cold start in a fresh child interpreter, in seconds."""
    command = [sys.executable, str(PERF / "run.py"), "--setup-child",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        command.append("--quick")
    child = subprocess.run(command, capture_output=True, text=True, check=False)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        sys.exit("perf/run.py: a set-up child failed")
    return float(child.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def report(metrics: dict, units: dict, correct: bool, attempted: int, failed: int,
           detail: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:44s} {value:16.6f} {units[name]}")
    print(f"attempted {attempted}  failed {failed}  correct {correct}")
    print("# detail " + json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))


def run_workload(args) -> int:
    import measure

    spec = resolve(args.workload, args.quick)
    passes = spec.passes
    inputs = measure.prepare(spec, args.seed)

    contract = load_contract()["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in contract}
    if args.trace:
        import layers

        OUT.mkdir(exist_ok=True)
        metrics, run = layers.traced_run(spec, inputs, max(2, passes // 2), OUT, list(units))
        setup_seconds = []
    else:
        # One child before each of the first passes, so the cold starts sample
        # the same stretch of this box's slow and fast phases as the passes do.
        setup_seconds = []
        children = min(passes, SETUP_CHILDREN)

        def cold_start(index):
            if index < children:
                setup_seconds.append(time_setup(args))

        run = measure.measure(spec, inputs, passes, before_pass=cold_start)
        metrics = measure.end_to_end_metrics(inputs, run, min(setup_seconds))

    correct = run["failed"] == 0 and run["passes_equal"] and run.get("extra_ok", True)
    if spec.kind == "stream" and correct:
        correct = run["passes"][0].result.total_output == sum(inputs["expected"])
    detail = {
        "workload": spec.name,
        "seed": args.seed,
        "passes": len(run["passes"]),
        "ops_per_pass": len(inputs["tuples"]),
        "timed_ops": len(inputs["tuples"]) - inputs["timed_from"],
        "pass_seconds": [sum(p.seconds[inputs["timed_from"]:]) for p in run["passes"]],
        "pass_slowdown": [p.mean_slowdown for p in run["passes"]],
        # ISSUE 14's estimator on the same passes (wall-clock, no calibration).
        "per_op_minima": measure.timing_metrics(
            inputs, measure.per_op_minima(run["passes"], inputs["timed_from"])),
        "setup_seconds": setup_seconds,
    }
    if set(metrics) != set(units):
        sys.exit(f"perf/run.py: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ set(units))}")
    metrics = {name: metrics[name] for name in units}
    report(metrics, units, correct, run["attempted"], run["failed"], detail)
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Fresh-process runs: the suite and the self-check
# ----------------------------------------------------------------------
def fresh_run(workload: str, seed: int, quick: bool) -> dict:
    """Run one workload in a fresh interpreter; parse what it printed."""
    command = [sys.executable, str(PERF / "run.py"), "--workload", workload,
               "--seed", str(seed)]
    if quick:
        command.append("--quick")
    child = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = child.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(child.stderr)
        sys.exit(f"perf/run.py: run of {workload} printed nothing")
    result = json.loads(lines[-1])
    detail = [line for line in lines if line.startswith("# detail ")]
    result["detail"] = json.loads(detail[-1][len("# detail "):]) if detail else {}
    result["exit_code"] = child.returncode
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
    return result


def write_json(path: Path, content: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(content, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def host() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit.stdout.strip() or None,
    }


def run_suite(args) -> int:
    """Every workload of BENCHMARK.json, one at a time, into one ledger row."""
    contract = load_contract()
    row = {"host": host(), "quick": args.quick, "seed": args.seed, "workloads": {}}
    status = 0
    for workload in contract["workloads"]:
        result = fresh_run(workload["name"], args.seed, args.quick)
        status |= result["exit_code"]
        row["workloads"][workload["name"]] = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
            **result["detail"],
        }
        print(f"== {workload['name']}: attempted {result['attempted']} "
              f"failed {result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"   {name:20s} {metric['value']:16.6f} {metric['unit']}")
    write_json(Path(args.out) if args.out else OUT / "BENCH.json", row)
    return status


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def spread(values: "list[float]") -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def compare_sets(workload: str, metric: dict, values, estimator: str) -> dict:
    """One self-check row: the two sets' medians, their difference and quartile spreads."""
    medians = [statistics.median(v) for v in values]
    worse = abs(worse_by(medians[0], medians[1], metric["better"]))
    row = {
        "workload": workload, "metric": metric["name"], "estimator": estimator,
        "median_a": medians[0], "median_b": medians[1], "relative_difference": worse,
        "spread_a": spread(values[0]), "spread_b": spread(values[1]),
        "bound": metric["bound"], "agrees": worse <= metric["bound"],
        "values_a": values[0], "values_b": values[1],
    }
    row["spreads_within_bound"] = max(row["spread_a"], row["spread_b"]) <= metric["bound"]
    print(f"{workload:14s} {metric['name']:15s} {estimator:13s} "
          f"a={medians[0]:14.4f} b={medians[1]:14.4f} diff={worse:7.4f} "
          f"spread={row['spread_a']:6.4f}/{row['spread_b']:6.4f} bound={metric['bound']:5.3f} "
          f"{'ok' if row['agrees'] else 'DISAGREES'}"
          f"{'' if row['spreads_within_bound'] else ' SPREAD>BOUND'}")
    return row


def run_selfcheck(args) -> int:
    """Two interleaved sets of runs of this checkout must agree within bounds.

    Every run also carries ISSUE 14's estimator (per-op minima, no
    calibration) computed from the same passes; it is reported beside each
    timing metric and does not decide the exit code.
    """
    contract = load_contract()
    report_rows = []
    status = 0
    for workload in contract["workloads"]:
        sets = ([], [])
        for index in range(args.runs):
            for side in sets:
                result = fresh_run(workload["name"], args.seed + index, args.quick)
                status |= result["exit_code"]
                side.append(result)
        for metric in contract["end_to_end"]:
            name = metric["name"]
            row = compare_sets(
                workload["name"], metric,
                [[run["metrics"][name]["value"] for run in side] for side in sets],
                "reported")
            status |= not row["agrees"]
            report_rows.append(row)
            if name in sets[0][0]["detail"]["per_op_minima"]:
                report_rows.append(compare_sets(
                    workload["name"], metric,
                    [[run["detail"]["per_op_minima"][name] for run in side] for side in sets],
                    "per_op_minima"))
    write_json(Path(args.out) if args.out else OUT / "selfcheck.json",
               {"host": host(), "runs_per_set": args.runs, "first_seed": args.seed,
                "rows": report_rows})
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted and ignored: a run makes its workload's fixed "
                             "number of passes, however long they take")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    sys.path.insert(0, str(PERF))
    require_program()
    if args.setup_child:
        setup_child(args)
        return 0
    if args.selfcheck:
        return run_selfcheck(args)
    if args.workload is None:
        return run_suite(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
