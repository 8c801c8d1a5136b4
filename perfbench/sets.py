#!/usr/bin/env python3
"""Run sets of benchmark runs and judge their steadiness.

    python3 perfbench/sets.py --workload tvd-sweep --seeds 1-10 --out a.json
    python3 perfbench/sets.py --workload tvd-sweep --seeds 11-20 \\
        --out b.json --compare a.json

Each run is `run.py --workload W --seed S --seconds <run_seconds>` with
one seed of the range. For every end-to-end metric the report gives the
median, the quartile spread as a share of the median (flagged when it
exceeds a third of the metric's bound) and, with --compare, whether the
median regressed beyond the bound against the earlier set. It also
checks that every run was correct and that the failed share is the same
in both sets.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchlib import load_spec, quartile_spread, regressed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_set(workload, seeds, seconds):
    results = []
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"run failed: workload {workload} seed {seed}")
        results.append(json.loads(lines[-1]))
        print(f"seed {seed}: {lines[-1]}", file=sys.stderr, flush=True)
    return results


def summarize(spec, results, baseline=None):
    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"runs {len(results)}  all correct {ok}  failed shares "
          f"{sorted(shares)}")
    if baseline is not None:
        base_shares = {r["failed"] / r["attempted"] for r in baseline}
        same = shares == base_shares and len(shares) == 1
        ok = ok and same
        print(f"failed share equal to the earlier set: {same}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        spread = quartile_spread(values)
        steady = m["name"] == "setup_s" or spread <= m["bound"] / 3
        line = (f"{m['name']:22s} median {med:14.6g}  spread {spread:7.4f}"
                f"  bound {m['bound']:.2f}  {'ok' if steady else 'UNSTEADY'}")
        ok = ok and steady
        if baseline is not None:
            base = statistics.median(
                [r["metrics"][m["name"]]["value"] for r in baseline])
            worse = regressed(base, med, m["better"], m["bound"])
            line += f"  vs {base:.6g}: {'REGRESSED' if worse else 'ok'}"
            ok = ok and not worse
        print(line)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10")
    parser.add_argument("--out", help="write the runs' results here")
    parser.add_argument("--compare", help="an earlier --out of this workload")
    opts = parser.parse_args()
    spec = load_spec(ROOT / "BENCHMARK.json")
    results = run_set(opts.workload, parse_seeds(opts.seeds),
                      spec["run_seconds"])
    if opts.out:
        Path(opts.out).write_text(json.dumps(results) + "\n")
    baseline = None
    if opts.compare:
        baseline = json.loads(Path(opts.compare).read_text())
    return 0 if summarize(spec, results, baseline) else 1


if __name__ == "__main__":
    sys.exit(main())
