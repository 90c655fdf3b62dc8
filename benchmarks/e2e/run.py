"""End-to-end, layer-attributed mini-HPF benchmark.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1 ...]] [--quick] [--repeat R]
        [--out PATH]

Every workload runs in fresh interpreters (``workloads.py``).  With
``--trace 0`` (the default) the run is timed with tracing off, in
:data:`PROCESSES` processes that share the seconds, and reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it runs
the workload in one untraced and one traced process, each for half the
seconds, and reports the per-layer metrics, ``obs.trace_overhead``
being the traced wall time over the untraced one, minus 1.

Each process reports every timed slot's best time over its rounds (one
program's compile, one statement execution, ...); the run keeps each
slot's best over its processes.  A phase time is the sum over its
slots and ``wall_s`` the sum of the phases.  On a shared 2-vCPU cloud
VM a fixed Python loop was seen to switch between speeds some 40%
apart for seconds at a time, and the mp workload to run some 30%
slower in some processes than in others: a median over rounds follows
whichever speed held for most of a run, the best over slots and
processes does not.

Every metric is printed by name with its unit, then ``error_rate`` as
failed over attempted operations, and the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit status is 1 when any operation failed or the traced pass lost
its integrity, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
TRACKED = HERE / "BENCH_e2e.json"
QUICK_SECONDS = 1.0
#: Fresh measuring processes per timed run.
PROCESSES = 3
#: The traced pass fails when more than this share of wall time is
#: outside every layer's spans (``unattributed_share``).
MAX_UNATTRIBUTED = 0.10

sys.path.insert(0, str(HERE))
from compare import quartiles  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Plan-cache shards are chosen by hash(key); a fixed hash seed makes
    # eviction counts repeat exactly from run to run.
    env["PYTHONHASHSEED"] = "0"
    # The mp backend's socket directory, and any other temporary file,
    # stays inside the checkout.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def measure(workload: str, seed: int, seconds: float, quick: bool, traced: bool) -> dict:
    """One fresh measuring process; returns its JSON summary."""
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds),
    ]
    cmd += ["--quick"] * quick + ["--traced"] * traced
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        timeout=seconds + 50,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"{workload}: measuring process exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def e2e_metrics(summaries: list[dict]) -> dict:
    """End-to-end metrics from measuring processes' per-slot bests."""
    best = {
        phase: [min(slot) for slot in zip(*(s["best"][phase] for s in summaries))]
        for phase in summaries[0]["best"]
    }
    phase_s = {phase: sum(times) for phase, times in best.items()}
    return {
        "wall_s": sum(phase_s.values()),
        "setup_s": phase_s["setup"],
        "compile_s": phase_s["compile"],
        "run_s": phase_s["run"],
        "collect_s": phase_s["collect"],
        "stmt_p50_us": statistics.median(best["run"]) * 1e6,
        "elements_per_s": summaries[0]["elements"] / phase_s["run"],
        "peak_rss_mb": max(s["peak_rss_mb"] for s in summaries),
    }


def run_one(workload: str, seed: int, seconds: float, quick: bool, trace: int) -> dict:
    """One result entry: the end-to-end metrics (``trace`` 0) or the
    per-layer metrics (``trace`` 1) of ``workload``."""
    if trace:
        base = measure(workload, seed, seconds / 2, quick, traced=False)
        traced = measure(workload, seed, seconds / 2, quick, traced=True)
        metrics = dict(traced["layers"])
        metrics["obs.trace_overhead"] = (
            e2e_metrics([traced])["wall_s"] / e2e_metrics([base])["wall_s"] - 1
        )
        passes = [base, traced]
    else:
        passes = [
            measure(workload, seed, seconds / PROCESSES, quick, traced=False)
            for _ in range(PROCESSES)
        ]
        metrics = e2e_metrics(passes)
    problems = []
    if trace and metrics["obs.dropped_spans"] > 0:
        problems.append(f"{metrics['obs.dropped_spans']} spans dropped")
    if trace and metrics["unattributed_share"] > MAX_UNATTRIBUTED:
        problems.append(
            f"unattributed share {metrics['unattributed_share']:.3f} > {MAX_UNATTRIBUTED}"
        )
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "native_mode": passes[-1]["native_mode"],
        "processes": len(passes),
        "rounds": sum(p["rounds"] for p in passes),
        "stmt_samples": sum(p["stmt_samples"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": problems,
        "metrics": metrics,
    }


def metric_specs(spec: dict, trace: int) -> list[dict]:
    return spec["per_layer" if trace else "end_to_end"]


def report(entry: dict, spec: dict) -> None:
    """Print every metric of one result by name, with its unit."""
    name = entry["workload"]
    print(f"# {name}  seed={entry['seed']}  trace={entry['trace']}  "
          f"processes={entry['processes']}  rounds={entry['rounds']}  "
          f"native={entry['native_mode']}")
    for metric in metric_specs(spec, entry["trace"]):
        value = entry["metrics"][metric["name"]]
        extra = f"  (n={entry['stmt_samples']})" if metric["name"] == "stmt_p50_us" else ""
        print(f"{name:13s} {metric['name']:34s} {value:>16.6g} {metric['unit']}{extra}")
    rate = entry["failed"] / entry["attempted"]
    print(f"{name:13s} {'error_rate':34s} {rate:>16.6g} ratio"
          f"  ({entry['failed']}/{entry['attempted']})")
    for problem in entry["problems"]:
        print(f"{name:13s} FAILED: {problem}")


def spread(results: list[dict], spec: dict) -> dict:
    """Per workload and end-to-end metric: median, quartiles and the
    interquartile range as a share of the median, over repeated runs."""
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in results):
        runs = [r for r in results if r["workload"] == workload and r["trace"] == 0]
        if len(runs) < 2:
            continue
        out[workload] = {}
        for metric in spec["end_to_end"]:
            q1, med, q3 = quartiles([r["metrics"][metric["name"]] for r in runs])
            out[workload][metric["name"]] = {
                "median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
            }
    return out


def final_metrics(results: list[dict], spec: dict) -> dict:
    """The last line's ``metrics``: names as in ``BENCHMARK.json`` for
    one result; ``workload/name`` medians over repeats otherwise."""
    out = {}
    for entry in results:
        for metric in metric_specs(spec, entry["trace"]):
            key = metric["name"] if len(results) == 1 else f"{entry['workload']}/{metric['name']}"
            out.setdefault(key, ([], metric["unit"]))[0].append(
                entry["metrics"][metric["name"]]
            )
    return {
        key: {"value": statistics.median(values), "unit": unit}
        for key, (values, unit) in out.items()
    }


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no repro sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description="End-to-end mini-HPF benchmark")
    parser.add_argument("--workload", nargs="+", choices=workloads, default=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured time per run")
    parser.add_argument("--trace", nargs="*", type=int, choices=(0, 1), default=[0],
                        help="0: timed pass, 1: traced pass (bare --trace: 1)")
    parser.add_argument("--quick", action="store_true", help="small rounds, 1 s runs")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path, help="write the result record here")
    args = parser.parse_args(argv)
    traces = args.trace or [1]
    seconds = args.seconds or (QUICK_SECONDS if args.quick else spec["run_seconds"])
    if (args.out and args.out.resolve() == TRACKED
            and os.environ.get("REPRO_NATIVE", "auto").lower() != "auto"):
        print("the tracked baseline is recorded in the default native mode "
              "(auto); unset REPRO_NATIVE", file=sys.stderr)
        return 2

    results = []
    for _ in range(args.repeat):
        for workload in args.workload:
            for trace in traces:
                entry = run_one(workload, args.seed, seconds, args.quick, trace)
                names = {m["name"] for m in metric_specs(spec, trace)}
                if set(entry["metrics"]) != names:
                    print(f"{workload}: metrics differ from BENCHMARK.json: "
                          f"{sorted(set(entry['metrics']) ^ names)}", file=sys.stderr)
                    return 2
                report(entry, spec)
                results.append(entry)

    if args.out:
        sys.path.insert(0, str(ROOT / "src"))
        from repro.bench.environment import environment_metadata

        record = {
            "benchmark": "e2e",
            "environment": environment_metadata(),
            "native_mode": results[0]["native_mode"],
            "seed": args.seed,
            "seconds": seconds,
            "quick": args.quick,
            "repeat": args.repeat,
            "results": results,
            "spread": spread(results, spec),
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["problems"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": final_metrics(results, spec),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
