#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload synth-zipf --seed 1 --seconds 10 --trace 0

Run from the repository root. The build lands in .bench_build/ (or in
$CARGO_TARGET_DIR when set), and so do the traced run's span files and
the durable-mixed workload's segment files, which the benchmark removes
when it ends. The last line of standard output is the JSON result; the
exit status is 0 only when every correctness gate passed. A bad argument
exits with status 2 before anything is built.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv, workloads):
    """Strict flag parsing: every flag once, every value checked."""
    rules = {
        "--workload": (lambda v: v in workloads, " | ".join(workloads)),
        "--seed": (lambda v: re.fullmatch(r"[0-9]+", v) and int(v) < 2**32,
                   "an integer in [0, 4294967295]"),
        "--seconds": (lambda v: re.fullmatch(r"[0-9]+", v) and 1 <= int(v) <= 60,
                      "an integer in [1, 60]"),
        "--trace": (lambda v: v in ("0", "1"), "0 or 1"),
    }
    args = {}
    if len(argv) % 2 != 0:
        fail(f"{argv[-1]}: missing value", 2)
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag not in rules or flag in args:
            fail(f"unknown or repeated flag '{flag}'", 2)
        ok, want = rules[flag]
        if not ok(value):
            fail(f"{flag}: invalid value '{value}' (want {want})", 2)
        args[flag] = value
    missing = [f for f in rules if f not in args]
    if missing:
        fail("missing " + ", ".join(missing) +
             " (usage: run.py --workload W --seed N --seconds S --trace 0|1)", 2)
    return args


def build(build_root):
    """Configures and builds the perfbench package; build output goes to
    standard error so standard output stays the result."""
    build_dir = build_root / "perfbench"
    configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", str(build_dir), "-j2",
                 "--target", "perfbench"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "perfbench"


def compose_result(line, spec, trace):
    """Builds the result from the program's name -> value line. The metric
    list and units come from BENCHMARK.json alone: a per-layer metric the
    workload does not exercise reads 0, an end-to-end metric that was not
    measured marks the run incorrect, and a name BENCHMARK.json does not
    list is an error."""
    raw = json.loads(line)
    known = {m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]}
    unknown = sorted(set(raw["metrics"]) - known)
    if unknown:
        fail("metrics not in BENCHMARK.json: " + ", ".join(unknown))
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": {}}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] not in raw["metrics"] and not trace:
            print(f"perfbench: {m['name']} was not measured", file=sys.stderr)
            result["correct"] = False
        value = raw["metrics"].get(m["name"], 0)
        result["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<46} {value:16.6g} {m['unit']}")
    return result


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path.name} not found next to perfbench/")
    spec = json.loads(spec_path.read_text())
    args = parse_args(sys.argv[1:], [w["name"] for w in spec["workloads"]])

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_root)
    workdir = build_root / "work"
    workdir.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--workload", args["--workload"], "--seed",
           args["--seed"], "--seconds", args["--seconds"], "--trace",
           args["--trace"], "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        fail(f"benchmark exited with status {proc.returncode}")
    result = compose_result(lines[-1], spec, args["--trace"] == "1")
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
