#!/usr/bin/env python3
"""The Geyser benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload table1-cold|tvd-sweep|service-mixed \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run builds the library,
geyserd and the benchmark's worker into .bench_build/ (perfbench/ is its
own CMake package that pulls in the repository one level up). The last
line of stdout is one JSON object: correct, attempted, failed and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) named
in BENCHMARK.json. Build output and diagnostics go to stderr.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from benchlib import SpecError, Tally, load_spec, percentile, samples_beyond

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKER = BUILD / "perfbench_worker"
GEYSERD = BUILD / "geyser" / "tools" / "geyserd"
# Every run must end within 180 s; leave room for the last round.
DEADLINE_S = 170.0
SETUP_PROBES = 5


class BenchError(RuntimeError):
    """The benchmark could not run; nothing is printed on stdout."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once per checkout, then bring the two targets up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no Geyser source tree at {ROOT}")
    jobs = str(os.cpu_count() or 4)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_worker", "geyserd", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def worker(args, deadline):
    """Run the worker once; return (its JSON result, wall seconds). The
    worker runs in its own process group, so a timeout also stops any
    geyserd it started."""
    cmd = [str(WORKER)] + [str(a) for a in args]
    start = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - start))
        except subprocess.TimeoutExpired as e:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker timed out: {' '.join(cmd)}") from e
    wall = time.monotonic() - start
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): {' '.join(cmd)}")
    return json.loads(lines[-1]), wall


def median(values):
    return percentile(values, 0.5)


def latency_metrics(samples_ms):
    return {"latency_p50_ms": median(samples_ms),
            "latency_p90_ms": percentile(samples_ms, 0.9)}


def table1_cold(opts, deadline):
    """Each round is a fresh worker process compiling the whole suite."""
    tally, check_failures, rounds = Tally(), [], []
    if opts.trace:
        untraced = worker(["table1", "--trace", 0, "--check", 0], deadline)[0]
        traced = worker(["table1", "--trace", 1], deadline)[0]
        tally.add(traced["attempted"], traced["failed"])
        layers = traced["layers"]
        layers["trace.overhead_pct"] = \
            (traced["compile_s"] / untraced["compile_s"] - 1.0) * 100.0
        return layers, tally, traced["check_failures"]
    # Set-up of a fresh process: reading the ten programs from QASM text,
    # timed inside the process (exec jitter would swamp it); probes that
    # stop after set-up give more samples than the compiling rounds.
    setups = [worker(["table1", "--compile", 0], deadline)[0]["setup_s"]
              for _ in range(SETUP_PROBES)]
    # Whole rounds until the time is up, and at least two. The unitary
    # checks of Baseline and OptiMap (most of the checking time) run in
    # the first round only; every round checks the rest.
    start = time.monotonic()
    while len(rounds) < 2 or time.monotonic() - start < opts.seconds:
        check = 2 if not rounds else 1
        result = worker(["table1", "--trace", 0, "--check", check],
                        deadline)[0]
        rounds.append(result)
        tally.add(result["attempted"], result["failed"])
        check_failures += result["check_failures"]
        for op in result["failed_ops"]:
            log(f"failed operation: {op}")
    for key in ("geyser_pulses", "geyser_depth_pulses"):
        if len({r[key] for r in rounds}) != 1:
            check_failures.append(f"{key} differs between fresh processes")
    # A job is one Table-1 row compiled under the three techniques, and
    # its latency the mean over the run's fresh processes (a row's cold
    # compile time varies by ~15% between processes: the compose memo
    # has no single-flight). The sweep's members are the compile() calls.
    row_ms = []
    for row in dict.fromkeys(c["row"] for r in rounds for c in r["calls"]):
        per_round = [sum(c["ms"] for c in r["calls"] if c["row"] == row)
                     for r in rounds]
        row_ms.append(sum(per_round) / len(per_round))
    compile_total = sum(r["compile_s"] for r in rounds)
    metrics = {
        "setup_s": median(setups + [r["setup_s"] for r in rounds]),
        "compile_s": median([r["compile_s"] for r in rounds]),
        "geyser_pulses": rounds[0]["geyser_pulses"],
        "geyser_depth_pulses": rounds[0]["geyser_depth_pulses"],
        "tvd_s": median([r["tvd_s"] for r in rounds]),
        "jobs_per_s": len(row_ms) * len(rounds) / compile_total,
        "sweep_members_per_s": sum(len(r["calls"]) for r in rounds)
                               / compile_total,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
        **latency_metrics(row_ms),
    }
    return metrics, tally, check_failures


def tvd_sweep(opts, deadline):
    args = ["tvd", "--seed", opts.seed, "--seconds", opts.seconds,
            "--trace", int(opts.trace)]
    result = worker(args, deadline)[0]
    tally = Tally()
    tally.add(result["attempted"], result["failed"])
    if opts.trace:
        return result["layers"], tally, result["check_failures"]
    # A job is one technique's evaluation over the nine rows and both
    # models (one latency sample); the sweep's members are the single
    # (circuit, noise model) evaluations.
    measured = sum(result["round_s"])
    metrics = {
        "setup_s": result["setup_s"],
        "compile_s": result["compile_s"],
        "geyser_pulses": result["geyser_pulses"],
        "geyser_depth_pulses": result["geyser_depth_pulses"],
        "tvd_s": median(result["round_s"]),
        "jobs_per_s": len(result["latency_ms"]) / measured,
        "sweep_members_per_s": result["attempted"] / measured,
        "peak_rss_mb": result["peak_rss_mb"],
        **latency_metrics(result["latency_ms"]),
    }
    return metrics, tally, result["check_failures"]


def service_mixed(opts, deadline):
    workdir = BUILD / "run" / f"service-{os.getpid()}"
    args = ["service", "--seed", opts.seed, "--seconds", opts.seconds,
            "--trace", int(opts.trace), "--geyserd", GEYSERD,
            "--workdir", workdir]
    try:
        result = worker(args, deadline)[0]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = Tally()
    tally.add(result["attempted"], result["failed"])
    if opts.trace:
        return result["layers"], tally, result["check_failures"]
    # Every round is the same traffic against a fresh daemon. The latency
    # percentiles pool the run's submits; compile time and memory are the
    # median round's, so one round disturbed by the machine does not move
    # them; rates pool the rounds.
    rounds = result["rounds"]
    batches = [b for r in rounds for b in r["batches"]]
    latencies = [ms for r in rounds for ms in r["latency_ms"]]
    if samples_beyond(len(latencies), 0.9) < 10:
        result["check_failures"].append(
            f"the run had only {len(latencies)} submits")
    metrics = {
        "setup_s": median([s for r in rounds for s in r["setup_s"]]),
        "compile_s": median([r["compile_s"] for r in rounds]),
        "geyser_pulses": result["geyser_pulses"],
        "geyser_depth_pulses": result["geyser_depth_pulses"],
        "tvd_s": result["tvd_s"],
        **latency_metrics(latencies),
        "jobs_per_s": sum(len(r["latency_ms"]) + len(r["batches"])
                          for r in rounds)
                      / sum(r["wall_s"] for r in rounds),
        "sweep_members_per_s": sum(b["members"] for b in batches)
                               / (sum(b["ms"] for b in batches) / 1000.0),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
    }
    return metrics, tally, result["check_failures"]


WORKLOADS = {"table1-cold": table1_cold, "tvd-sweep": tvd_sweep,
             "service-mixed": service_mixed}


def report(spec_metrics, values, fill_missing):
    """The metrics object: exactly the spec's names, each with its unit.
    Per-layer metrics a workload does not exercise read 0."""
    names = {m["name"] for m in spec_metrics}
    unknown = sorted(set(values) - names)
    if unknown:
        raise BenchError(f"metrics not in BENCHMARK.json: {unknown}")
    out = {}
    for m in spec_metrics:
        if m["name"] not in values and not fill_missing:
            raise BenchError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": float(values.get(m["name"], 0.0)),
                          "unit": m["unit"]}
    return out


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    try:
        spec = load_spec(ROOT / "BENCHMARK.json")
        build()
        deadline = time.monotonic() + DEADLINE_S
        values, tally, check_failures = \
            WORKLOADS[opts.workload](opts, deadline)
        key = "per_layer" if opts.trace else "end_to_end"
        metrics = report(spec[key], values, fill_missing=bool(opts.trace))
    except (BenchError, SpecError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    for failure in check_failures:
        log(f"check failed: {failure}")
    print(json.dumps({"correct": not check_failures,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
