#!/usr/bin/env python3
"""Build and run the Converse repository benchmark.

    python3 perfbench/run.py --workload fanin --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10
    python3 perfbench/run.py --self-test

Run from anywhere inside a checkout: the script builds the runtime and the
benchmark from the sources next to it into .bench_build/perfbench (an
optimised build of its own), clears every CONVERSE_* variable, runs one
workload and passes its output through.  The last line of standard output
is the result object {"correct", "attempted", "failed", "metrics"}.

--self-test runs each workload briefly, clean and with each planted fault
the workload supports, and checks that clean runs report zero failures and
planted runs report at least one.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "converse_perfbench")
WORKLOADS = ["fanin", "pingpong", "exchange", "wire"]
PLANTS = {
    "fanin": ["drop", "dup", "reorder", "corrupt"],
    "pingpong": ["corrupt"],
    "exchange": ["drop", "dup", "reorder", "corrupt"],
    "wire": ["drop", "dup", "reorder", "corrupt"],
}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("CONVERSE_")}


def build():
    for needed in ("src/core/machine.cpp", "include/converse/converse.h"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log(f"no Converse sources: {needed} is missing next to {HERE}")
            return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only results.
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=clean_env(), timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if rc != 0:
            log(f"build step failed ({rc}): {' '.join(cmd)}")
            return False
    return True


def run_binary(args, echo=True):
    """Run one workload; returns (exit code, parsed result or None)."""
    proc = subprocess.Popen([BINARY] + args, cwd=ROOT, env=clean_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}")
        return 1, None
    finally:
        # The wire workload forks; no process of ours may outlive us.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("the last line of the benchmark output is not JSON")
        return 1, None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("the result object has unexpected keys")
        return 1, None
    return 0, result


def self_test(seconds):
    ok = True
    for w in WORKLOADS:
        for plant in [None] + PLANTS[w]:
            args = ["--workload", w, "--seed", "7", "--seconds", str(seconds),
                    "--trace", "0"]
            if plant:
                args += ["--plant", plant]
            rc, res = run_binary(args, echo=False)
            failed = res["failed"] if res else None
            good = (res is not None and
                    (failed > 0 if plant else failed == 0 and res["correct"]))
            ok &= good
            print(f"self-test {w:9s} {plant or 'clean':8s} failed={failed} "
                  f"attempted={res['attempted'] if res else None} "
                  f"{'PASS' if good else 'FAIL'}", flush=True)
    return ok


def run_all(a):
    """Run every workload once; print each metric by name with its unit."""
    ok = True
    for w in WORKLOADS:
        rc, res = run_binary(["--workload", w, "--seed", str(a.seed),
                              "--seconds", f"{a.seconds:g}",
                              "--trace", str(a.trace)], echo=False)
        if res is None:
            print(f"{w:9s} did not produce a result (exit {rc})", flush=True)
            ok = False
            continue
        ok &= res["correct"]
        print(f"{w:9s} correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
        for name, m in res["metrics"].items():
            print(f"  {name:32s} {m['value']:16.6g} {m['unit']}", flush=True)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    if not build():
        return 2
    if a.self_test:
        return 0 if self_test(2) else 1
    if a.workload == "all":
        return run_all(a)
    rc, result = run_binary(["--workload", a.workload, "--seed", str(a.seed),
                             "--seconds", f"{a.seconds:g}",
                             "--trace", str(a.trace)])
    if result is None:
        return rc or 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
