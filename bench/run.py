"""``python -m bench run``: time set-up, run each workload in a fresh
child process, and print the results.

For every workload the parent starts one child that measures the
workload (:mod:`bench.child`) and, half before it and half after,
:data:`SETUP_SAMPLES` children that only set up (import the package and
build the seed's inputs, timed in the child between two probes); the
median of their probe-normalised times is ``setup_s``.  Children run
one after another; only the ``sweep-pipeline`` child starts pool
workers of its own.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` untraced, its per-layer metrics traced.
``--out`` writes every result, raw sample and the host fingerprint.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from bench import ROOT, SRC, probe
from bench.timing import normalise

BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Fresh set-up processes timed per workload; ``setup_s`` is their median.
SETUP_SAMPLES = 6
SETUP_TIMEOUT_S = 30
#: A workload child that runs longer than this is killed, so one
#: workload, set-up timing included, ends inside three minutes.  A traced
#: ``fig4-proto`` run, the longest, takes about 105 s.
CHILD_TIMEOUT_S = 160


class BenchError(RuntimeError):
    """A child process failed; the run reports no result."""


def load_benchmark(path: str = BENCHMARK_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(args: List[str], timeout: float) -> str:
    """Run ``python -m bench.child ARGS`` and return its standard output.

    The child gets its own process group, which is killed once the child
    has ended or timed out, or the parent is stopped, so no pool worker
    outlives the call.
    """
    proc = subprocess.Popen([sys.executable, "-m", "bench.child", *args],
                            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"bench.child {' '.join(args)} timed out after {timeout} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"bench.child {' '.join(args)} exited with {proc.returncode}")
    return out


def setup_samples(workload: str, seed: int, count: int) -> List[dict]:
    """Set-up times of ``count`` fresh processes, each with its own probes."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", "0", "--setup-only"]
    return [json.loads(spawn(args, SETUP_TIMEOUT_S).strip().splitlines()[-1])
            for _ in range(count)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # Half the set-up samples before the measuring child and half after,
    # so a slow spell of the host does not hit all of them.
    samples = setup_samples(workload, seed, SETUP_SAMPLES // 2)
    out = spawn(["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(trace))],
                CHILD_TIMEOUT_S)
    samples += setup_samples(workload, seed, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    result = json.loads(out.strip().splitlines()[-1])
    norm_s = [normalise(sample["raw_s"], *sample["probes_s"]) for sample in samples]
    result["metrics"]["setup_s"] = statistics.median(norm_s)
    result["raw"]["setup"] = {
        "raw_s": [sample["raw_s"] for sample in samples],
        "norm_s": norm_s,
        "probes_s": [sample["probes_s"] for sample in samples],
    }
    return result


def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_fingerprint() -> dict:
    cpus = os.cpu_count() or 1
    return {
        "cpus": cpus,
        "pool_workers": min(2, cpus),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "probe_ref_s": probe.PROBE_REF_S,
        "probe_iterations": probe.PROBE_ITERATIONS,
    }


def metric_value(result: dict, name: str, traced: bool) -> float:
    """One named metric of a workload result."""
    if not traced:
        return result["metrics"][name]
    trace = result["trace"]
    if name == "trace_overhead":
        return trace["trace_overhead"]
    layer, _, field = name.rpartition(".")
    if layer in trace["layers"] and field in ("self_s", "calls"):
        return trace["layers"][layer][field]
    return result["counters"].get(name, 0)


def result_line(results: Dict[str, dict], benchmark: dict, traced: bool) -> dict:
    """The summary object printed as the last line of standard output.

    With several workloads, metric names are prefixed by the workload.
    """
    specs = benchmark["per_layer" if traced else "end_to_end"]
    metrics = {}
    for workload, result in results.items():
        prefix = f"{workload}/" if len(results) > 1 else ""
        for spec in specs:
            metrics[prefix + spec["name"]] = {
                "value": metric_value(result, spec["name"], traced),
                "unit": spec["unit"],
            }
    failed = sum(result["failed"] for result in results.values())
    return {
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": failed,
        "metrics": metrics,
    }


def summary_lines(workload: str, result: dict) -> List[str]:
    metrics = result["metrics"]
    lines = [
        f"{workload}: {result['attempted']} ops, {result['failed']} failed, "
        f"{len(result['known_defects'])} known defects, "
        f"digest {result['outputs_sha256'][:16]}",
        f"  setup {metrics['setup_s']:.3f} s   wall {metrics['wall_s']:.3f} s   "
        f"{metrics['work_rate']:.1f} {result['work_unit']}/s   "
        f"rss {metrics['peak_rss_mb']:.1f} MB",
    ]
    for key, problems in sorted(result["problems"].items()):
        lines.append(f"  FAILED {key}: {'; '.join(problems)}")
    if result.get("trace"):
        trace = result["trace"]
        busiest = sorted(trace["layers"].items(), key=lambda kv: -kv[1]["self_s"])
        lines.append(f"  trace overhead {trace['trace_overhead']:.2f}, "
                     f"perfetto {trace['perfetto']}")
        lines.append("  self time: " + ", ".join(
            f"{layer} {row['self_s']:.2f} s" for layer, row in busiest[:5]))
    return lines


def main(workloads: List[str], seed: int, seconds: Optional[float], trace: bool,
         out: Optional[str]) -> int:
    # Stopped from outside: unwind, so ``spawn`` kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    benchmark = load_benchmark()
    known = [spec["name"] for spec in benchmark["workloads"]]
    for workload in workloads:
        if workload not in known:
            print(f"unknown workload {workload!r}; have {known}", file=sys.stderr)
            return 2
    budget = benchmark["run_seconds"]
    if seconds is not None and seconds != budget:
        print(f"--seconds must equal run_seconds of BENCHMARK.json ({budget})",
              file=sys.stderr)
        return 2
    results: Dict[str, dict] = {}
    try:
        for workload in workloads or known:
            results[workload] = run_workload(workload, seed, budget, trace)
            for line in summary_lines(workload, results[workload]):
                print(line, flush=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if out:
        with open(out, "w") as handle:
            json.dump({"seed": seed, "seconds": budget, "trace": trace,
                       "host": host_fingerprint(), "workloads": results},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps(result_line(results, benchmark, trace)))
    return 0
