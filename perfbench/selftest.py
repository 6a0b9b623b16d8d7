#!/usr/bin/env python3
"""Self-test of the simulator-cost benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload briefly in both modes and checks that:
  * each run is correct, with attempted >= 1 and failed == 0;
  * the metrics are exactly the ones BENCHMARK.json declares for the mode,
    each printed once on its own line and in the JSON, with a unit and a
    finite value;
  * the traced run reports zero span tiling violations on the single-host
    workloads;
  * a perturbed run is caught: checked against the digest recorded for
    seed + 1, a run reports failures;
  * a NICSCHED_* variable in the environment makes the benchmark refuse to
    run, naming the variable and printing no result.
Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
SEED = 3
SINGLE_HOST = {"families_1us", "dispersion_shinjuku"}

failures = []


def check(ok, what):
    print(("PASS  " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(args, env=None):
    done = subprocess.run(RUN + args, cwd=ROOT, capture_output=True,
                          text=True, env=env, timeout=900)
    return done.returncode, done.stdout, done.stderr


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            code, out, err = run(["--workload", workload, "--seed", str(SEED),
                                  "--seconds", "1", "--trace", str(trace)])
            check(code == 0, f"{label}: exits 0")
            result = result_of(out)
            if code != 0 or result is None:
                sys.stderr.write(err)
                continue
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{label}: result keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{label}: correct, {result['failed']} of "
                  f"{result['attempted']} runs failed")
            metrics = result["metrics"]
            check(set(metrics) == declared[trace],
                  f"{label}: metrics match BENCHMARK.json "
                  f"(missing {sorted(declared[trace] - set(metrics))}, "
                  f"extra {sorted(set(metrics) - declared[trace])})")
            text = out.strip().splitlines()[:-1]
            for name, metric in metrics.items():
                value = metric.get("value")
                printed = sum(1 for line in text
                              if line.split()[:1] == [name])
                check(isinstance(value, (int, float)) and math.isfinite(value)
                      and bool(metric.get("unit")) and printed == 1,
                      f"{label}: {name} = {value} {metric.get('unit')}, "
                      f"printed {printed}x")
            if trace == 1 and workload in SINGLE_HOST:
                check(metrics.get("obs.tiling_violations", {}).get("value")
                      == 0, f"{label}: zero span tiling violations")

    # A perturbed outcome must be caught by the recorded digest.
    code, out, _ = run(["--workload", "dispersion_shinjuku", "--seed",
                        str(SEED), "--seconds", "1", "--trace", "0",
                        "--digest-seed", str(SEED + 1)])
    result = result_of(out)
    check(code == 0 and result is not None and result["correct"] is False
          and result["failed"] > 0,
          "digest of seed+1 does not match a run of seed")

    env = dict(os.environ)
    env["NICSCHED_TRACE"] = "perfbench-selftest-"
    code, out, err = run(["--workload", "families_1us", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], env=env)
    check(code != 0 and "NICSCHED_TRACE" in err and not out.strip(),
          "refuses to run with NICSCHED_TRACE set")

    print(f"\n{'FAIL' if failures else 'PASS'}: {len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
