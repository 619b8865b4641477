#!/usr/bin/env python3
"""Build the benchmark and run it.

One run (the result is the last line of standard output):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

--seconds defaults to run_seconds in BENCHMARK.json.

Calibration: run every workload K times on seeds N..N+K-1, alternating
the workload order between repeats, and print each metric's median,
quartiles and relative IQR (quartiles as statistics.quantiles(n=4) gives
them):

    python3 perfbench/run.py --repeat K [--seed N] [--seconds S] [--trace 0|1]

The script builds perfbench/perf.exe and the roccc CLI with dune from the
checkout it lives in, then runs perf.exe in its own process group, so a
run that overstays its time limit is killed together with any server it
started. perf.exe, and the server serve-mixed starts, run pinned to one
CPU: the host-speed probe in perf.exe then measures the CPU the work runs
on (see perfbench/host.ml).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERF = os.path.join("_build", "default", "perfbench", "perf.exe")
ROCCC = os.path.join("_build", "default", "bin", "roccc.exe")
# a run is its window plus set-up and end-of-run checks
OVERHEAD_LIMIT_S = 150


def build():
    """Build both programs; build output goes to standard error."""
    done = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "perfbench/perf.exe", "bin/roccc.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def run_once(workload, seed, seconds, trace, capture):
    """Run perf.exe once; returns (exit code, captured stdout and stderr, or None)."""
    cmd = [PERF, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--roccc", ROCCC]
    pipe = subprocess.PIPE if capture else None
    cpu = min(os.sched_getaffinity(0))
    proc = subprocess.Popen(cmd, stdout=pipe, stderr=pipe, start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, err = proc.communicate(timeout=seconds + OVERHEAD_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"run.py: {workload} exceeded its time limit", file=sys.stderr)
        return 1, None
    finally:
        stop_group(proc.pid)
    return proc.returncode, (out.decode(), err.decode()) if capture else None


def stop_group(pgid):
    """Kill what is left of a run's process group (the server serve-mixed
    starts lives in it) and wait, up to 10 s, until the group is gone."""
    deadline = time.monotonic() + 10
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.01)
    except ProcessLookupError:
        pass


def rel_iqr(vs):
    q1, med, q3 = statistics.quantiles(vs, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def calibrate(workloads, repeat, seed, seconds, trace):
    """The spread table; raw_rel_iqr is the spread before host-speed scaling."""
    values = {w: {} for w in workloads}
    raw = {w: {} for w in workloads}
    for k in range(repeat):
        order = workloads if k % 2 == 0 else list(reversed(workloads))
        for w in order:
            code, streams = run_once(w, seed + k, seconds, trace, capture=True)
            if code != 0:
                print(f"run.py: {w} seed {seed + k} failed", file=sys.stderr)
                return 1
            out, err = streams
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"run.py: {w} seed {seed + k} reported failures", file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values[w].setdefault(name, (m["unit"], []))[1].append(m["value"])
            for line in err.splitlines():
                parts = line.split()
                if line.startswith("  ") and len(parts) == 2 and parts[0] in result["metrics"]:
                    raw[w].setdefault(parts[0], []).append(float(parts[1]))
    with open(os.path.join(".perfbench", "calibration.json"), "w") as f:
        json.dump({"seed": seed, "repeat": repeat, "seconds": seconds, "trace": trace,
                   "values": values, "raw": raw}, f, indent=1)
    print(f"{'workload':<14} {'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'rel_iqr':>8} {'raw_rel_iqr':>11}")
    for w in workloads:
        for name, (unit, vs) in values[w].items():
            q1, med, q3, rel = rel_iqr(vs)
            raw_rel = f"{rel_iqr(raw[w][name])[3]:>11.4f}" if name in raw[w] else ""
            print(f"{w:<14} {name + ' (' + unit + ')':<36} {med:>14.6g} {q1:>14.6g} "
                  f"{q3:>14.6g} {rel:>8.4f} {raw_rel}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int)
    args = parser.parse_args()
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    if not build():
        return 1
    if args.repeat:
        return calibrate(names, args.repeat, args.seed, seconds, args.trace)
    if args.workload not in names:
        print(f"run.py: --workload must be one of {', '.join(names)}", file=sys.stderr)
        return 2
    code, _ = run_once(args.workload, args.seed, seconds, args.trace, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
