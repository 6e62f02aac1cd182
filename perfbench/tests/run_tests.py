#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/run_tests.py

Builds and runs the GTest suite (reference check, fusion plans, inputs),
then runs every workload briefly in both modes and checks the result line
against BENCHMARK.json: every metric present with its unit, the run correct.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PKG = os.path.dirname(HERE)
ROOT = os.path.dirname(PKG)
sys.path.insert(0, PKG)
sys.dont_write_bytecode = True

import run  # noqa: E402  (perfbench/run.py: build helpers)

SHORT_SECONDS = "1.5"


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def main():
    env, _ = run.clean_env()
    tests = run.build(env, "perfbench_tests")
    check(tests is not None, "building perfbench_tests")
    check(subprocess.run([tests], cwd=ROOT, env=env).returncode == 0, "perfbench_tests")
    check(run.build(env) is not None, "building perfbench")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", workload["name"], "--seed", "3",
                    "--seconds", SHORT_SECONDS, "--trace", trace]
            proc = subprocess.run([sys.executable, os.path.join(PKG, "run.py")] + args,
                                  cwd=ROOT, env=env, capture_output=True, text=True)
            what = workload["name"] + " --trace " + trace
            check(proc.returncode == 0, what + " exited " + str(proc.returncode) +
                  "\n" + proc.stdout[-3000:] + proc.stderr[-3000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  what + ": result keys")
            check(result["correct"] is True and result["failed"] == 0, what + ": not correct")
            check(result["attempted"] >= 1, what + ": nothing attempted")
            check("error_rate 0 " in proc.stdout, what + ": error_rate line")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, what + ": metrics differ from BENCHMARK.json: " +
                  str(sorted(set(got.items()) ^ set(want.items()))))
            print("ok   " + what)
    print("all perfbench tests passed")


if __name__ == "__main__":
    main()
