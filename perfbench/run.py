#!/usr/bin/env python3
"""The repository benchmark: builds gw-perfbench and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the simulator libraries
from src/ plus the harness) as a Release build in .bench_build/. The
harness's report goes to stdout; the last line of stdout is one JSON
object with "correct", "attempted", "failed" and "metrics": every
end_to_end metric of BENCHMARK.json with --trace 0, every per_layer one
with --trace 1. The harness's full result document, in the bench JSON
shape gw-diff compares, is kept at .bench_build/result-<workload>-<trace>.json.

    python3 perfbench/run.py --smoke

runs every workload once, traced and untraced, and checks that each
prints every metric BENCHMARK.json names.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
HARNESS = BUILD / "gw-perfbench"
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
MARKER = "== gw-perfbench report =="
# The harness measures for --seconds, then runs its traced extras.
HARNESS_MARGIN_S = 150


class BenchError(Exception):
    pass


def valid_metric_name(name):
    return isinstance(name, str) and NAME_RE.match(name) is not None


def check_names(names, where):
    for name in names:
        if not valid_metric_name(name):
            raise BenchError(f"{where} names a malformed metric {name!r}")


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")
    check_names([m["name"] for m in spec["end_to_end"] + spec["per_layer"]],
                "BENCHMARK.json")
    return spec


def parse_args(argv, workloads):
    def seed(text):
        if not re.fullmatch(r"[0-9]{1,18}", text):
            raise argparse.ArgumentTypeError(f"malformed seed {text!r}")
        return int(text)

    def seconds(text):
        try:
            value = float(text)
        except ValueError:
            value = -1.0
        if not 0 < value <= 600:
            raise argparse.ArgumentTypeError(f"malformed seconds {text!r}")
        return value

    p = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Run one workload of the repository benchmark.")
    p.add_argument("--workload", choices=workloads)
    p.add_argument("--seed", type=seed, default=1)
    p.add_argument("--seconds", type=seconds, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload once, traced and untraced")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    return args


def build():
    """Configures (once) and builds the harness; build output goes to stderr."""
    if not (HERE.parent / "src" / "CMakeLists.txt").exists():
        raise BenchError(f"no simulator sources at {HERE.parent / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "gw-perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def run_harness(workload, seed, seconds, trace, extra=()):
    """Runs gw-perfbench; prints its report; returns its result document."""
    result = BUILD / f"result-{workload}-{int(trace)}.json"
    result.unlink(missing_ok=True)
    cmd = [str(HARNESS), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds:g}", f"--json={result}",
           f"--scratch={BUILD / 'scratch'}", *extra]
    if trace:
        cmd.append("--trace")
    timeout = seconds + HARNESS_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: harness exceeded {timeout:g} s")
    out = proc.stdout
    sys.stdout.write(out[out.find(MARKER):] if MARKER in out else out)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: harness exited {proc.returncode}")
    doc = json.loads(result.read_text())
    check_names([s["name"] for s in doc["scalars"]], "the result document")
    return doc


def summarize(doc, spec, trace):
    """The one-line result: exactly the metrics BENCHMARK.json names."""
    scalars = {s["name"]: s for s in doc["scalars"]}
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name = m["name"]
        s = scalars.get(name)
        if s is None:
            raise BenchError(f"{doc['workload']}: metric {name} missing")
        if s["unit"] != m["unit"]:
            raise BenchError(f"{name}: unit {s['unit']!r}, expected {m['unit']!r}")
        metrics[name] = {"value": s["value"], "unit": m["unit"]}
    outcome = doc["outcome"]
    return {"correct": bool(outcome["correct"]) and outcome["failed"] == 0,
            "attempted": max(1, int(outcome["attempted"])),
            "failed": int(outcome["failed"]),
            "metrics": metrics}


def main(argv):
    try:
        spec = load_spec()
        workloads = [w["name"] for w in spec["workloads"]]
        args = parse_args(argv, workloads)
        build()
        if args.smoke:
            ok = True
            for workload in workloads:
                for trace in (0, 1):
                    doc = run_harness(workload, args.seed, 1, trace, ["--smoke"])
                    line = summarize(doc, spec, trace)
                    ok = ok and line["correct"]
                    print(json.dumps(line))
            return 0 if ok else 1
        doc = run_harness(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(summarize(doc, spec, args.trace)))
        return 0
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
