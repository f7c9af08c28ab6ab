#!/usr/bin/env python3
"""Benchmark front end for the VCMR simulator.

Builds the simulator library and the workload runner from source into
.bench_build/ (Release), runs one workload, checks its correctness gate and
prints one JSON result line as the last line of standard output:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics and writes the traced run's spans as Chrome trace JSON to
.bench_build/out/. Other modes:

    python3 perfbench/run.py --all [--seed n] [--seconds s]   # every workload, one table
    python3 perfbench/run.py --self-test                      # tiny sizes + negative checks
    python3 perfbench/run.py --write-pins                     # re-pin the default seed

The correctness gate: every repetition reproduces the same simulated
fingerprint (traced and untraced alike), every job completes within its time
limit, many_tasks matches the mr::run_local oracle byte for byte, and at the
default seed the fingerprint equals the one pinned in pins.json. Any failure
makes the exit status nonzero.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "out")
BINARY = os.path.join(BUILD, "vcmr_perfbench")
PINS = os.path.join(HERE, "pins.json")

WORKLOADS = ["shuffle_job", "volunteer_churn", "many_tasks", "peer_churn"]
DEFAULT_SEED = 1  # pinned in pins.json; seed 9001 is held out (README.md)
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the runner; raises on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def source_digest():
    """sha256 over src/ — names the program even where git is unavailable."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def environment(binary_env):
    env = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256_16": source_digest(),
    }
    env.update(binary_env)
    env["wall_numbers_valid"] = (binary_env.get("optimized") == "yes"
                                 and binary_env.get("sanitizer") == "no"
                                 and binary_env.get("build_type") in ("Release", "RelWithDebInfo"))
    return env


def batch_fingerprint(raw):
    """Per-field sums over the batch's instances plus a digest of all of them."""
    sums = {}
    for inst in raw:
        for k, v in inst.items():
            if k != "makespan_s":
                sums[k] = sums.get(k, 0) + int(v)
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    sums["instances"] = len(raw)
    sums["digest"] = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    if raw and "makespan_s" in raw[0]:
        sums["makespan_s"] = [inst["makespan_s"] for inst in raw]
    return sums


def load_pins():
    if not os.path.isfile(PINS):
        return {}
    with open(PINS) as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace, tiny=False, corrupt_output=False,
                 corrupt_fingerprint=False):
    """Runs the runner once; returns (result dict, list of problems)."""
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}_seed{seed}{'_tiny' if tiny else ''}"
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", os.path.join(OUT, f"trace_{tag}.json")]
    if tiny:
        cmd.append("--tiny")
    if corrupt_output:
        cmd.append("--corrupt-output")
    # A run measures for `seconds` plus its warm-up and the pass in flight.
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=3 * seconds + 120)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError(f"runner printed nothing (exit {proc.returncode})")
    res = json.loads(lines[-1])
    # Problems of the whole run (a wrong pin fails every run alike), beside
    # the runner's errors, which it counts in "failed" one run at a time.
    run_level = []
    if proc.returncode != 0 and not res["errors"]:
        run_level.append(f"runner exited with {proc.returncode}")

    fp = batch_fingerprint(res["fingerprints"])
    if corrupt_fingerprint:
        fp["scheduler_rpcs" if "scheduler_rpcs" in fp else "events"] += 1
    res["batch_fingerprint"] = fp
    if seed == DEFAULT_SEED:
        pinned = load_pins().get("tiny" if tiny else "full", {}).get(workload)
        if pinned is None:
            run_level.append(f"no pinned fingerprint for {workload} (run --write-pins)")
        elif pinned != fp:
            diff = sorted(k for k in set(pinned) | set(fp) if pinned.get(k) != fp.get(k))
            run_level.append(f"fingerprint differs from the pinned one in {diff}")

    res["environment"] = environment(res["env"])
    res["run_level_problems"] = run_level
    problems = res["errors"] + run_level
    res["problems"] = problems
    with open(os.path.join(OUT, f"report_{tag}_trace{int(trace)}.json"), "w") as f:
        json.dump(res, f, indent=1, sort_keys=True)
    return res, problems


def result_line(res, problems, names, trace):
    """The benchmark's result: exactly correct/attempted/failed/metrics.

    A per-layer metric the workload does not exercise is reported as 0;
    a metric the runner emits that BENCHMARK.json does not name, or with
    another unit, is an error, as is a missing end-to-end metric."""
    units = dict(names)
    bad = [f"runner metric {name} [{m['unit']}] is not in BENCHMARK.json"
           for name, m in res["metrics"].items() if units.get(name) != m["unit"]]
    metrics = {}
    for name, unit in names:
        m = res["metrics"].get(name)
        if m is None and not trace:
            bad.append(f"metric {name} missing from the runner output")
        metrics[name] = {"value": m["value"] if m else 0, "unit": unit}
    problems.extend(bad)
    attempted = max(1, int(res["attempted"]))
    failed = attempted if bad or res["run_level_problems"] else int(res["failed"])
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def metric_names(spec, trace):
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return [(m["name"], m["unit"]) for m in section]


def cmd_single(args):
    spec = benchmark_spec()
    build()
    res, problems = run_workload(args.workload, args.seed, args.seconds, args.trace)
    line = result_line(res, problems, metric_names(spec, args.trace), args.trace)
    env = res["environment"]
    print("environment: " + json.dumps(env, sort_keys=True))
    if not env["wall_numbers_valid"]:
        print("WARNING: not an optimised, unsanitised build; wall-clock numbers "
              "measure a different program")
    for p in problems:
        print(f"FAILED: {p}")
    print(f"workload {args.workload} seed {args.seed}: attempted {line['attempted']} "
          f"failed {line['failed']} failed_frac {line['failed'] / line['attempted']:.4f}")
    for name, m in sorted(line["metrics"].items()):
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"  trace.spans = {res['spans']} (file: .bench_build/out/"
              f"trace_{args.workload}_seed{args.seed}.json)")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def cmd_all(args):
    """One table: set-up, run time, peak RSS and failed fraction per workload."""
    build()
    print(f"{'workload':<16} {'setup_s':>10} {'run_s':>10} {'peak_rss_mb':>12} {'failed_frac':>12}")
    ok = True
    for w in WORKLOADS:
        res, problems = run_workload(w, args.seed, args.seconds, False)
        m = res["metrics"]
        attempted = max(1, res["attempted"])
        failed = attempted if res["run_level_problems"] else res["failed"]
        ok = ok and failed == 0
        print(f"{w:<16} {m['setup_s']['value']:>10.6f} {m['run_s']['value']:>10.4f} "
              f"{m['peak_rss_mb']['value']:>12.2f} {failed / attempted:>12.4f}")
        for p in problems:
            print(f"  FAILED: {p}")
    print("environment: " + json.dumps(res["environment"], sort_keys=True))
    return 0 if ok else 1


def cmd_write_pins(args):
    build()
    pins = load_pins()
    for size in ("full", "tiny"):
        for w in WORKLOADS:
            res, _ = run_workload(w, DEFAULT_SEED, 0, False, tiny=size == "tiny")
            if res["failed"]:
                raise RuntimeError(f"{w} ({size}) fails; not pinning: {res['errors']}")
            pins.setdefault(size, {})[w] = res["batch_fingerprint"]
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {PINS}")
    return 0


def cmd_self_test(args):
    """Tiny sizes: every workload in both modes prints every metric with its
    unit and passes the gate; a corrupted word count and a corrupted
    fingerprint are both reported as failures."""
    spec = benchmark_spec()
    build()
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    measured = set()
    for w in WORKLOADS:
        for trace in (False, True):
            res, problems = run_workload(w, DEFAULT_SEED, 0.5, trace, tiny=True)
            line = result_line(res, problems, metric_names(spec, trace), trace)
            check(line["correct"] and not problems,
                  f"{w} trace={int(trace)} passes the correctness gate {problems or ''}")
            check(len(line["metrics"]) == len(metric_names(spec, trace)),
                  f"{w} trace={int(trace)} prints all {len(metric_names(spec, trace))} metrics with units")
            measured.update(res["metrics"])
            if trace:
                path = os.path.join(OUT, f"trace_{w}_seed{DEFAULT_SEED}_tiny.json")
                with open(path) as f:
                    doc = json.load(f)
                spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
                check(spans and all({"name", "ts", "dur", "tid"} <= set(e) for e in spans)
                      and "trace.overhead_frac" in doc["otherData"]["metrics"],
                      f"{w} span file is Chrome trace JSON with {len(spans)} spans and the metrics")

    unmeasured = sorted(n for n, _ in metric_names(spec, True) if n not in measured)
    check(not unmeasured, f"every per-layer metric is measured by some workload {unmeasured or ''}")
    res, problems = run_workload("many_tasks", DEFAULT_SEED, 0.5, False, tiny=True,
                                 corrupt_output=True)
    check(any("oracle" in p for p in problems), "an altered word count fails the oracle check")
    res, problems = run_workload("shuffle_job", DEFAULT_SEED, 0.5, False, tiny=True,
                                 corrupt_fingerprint=True)
    check(any("pinned" in p for p in problems), "an altered fingerprint field fails the pin check")
    print("self-test: " + ("ok" if not failures else f"{len(failures)} check(s) failed"))
    return 0 if not failures else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload, print one table")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--write-pins", action="store_true")
    args = p.parse_args()
    try:
        if args.self_test:
            return cmd_self_test(args)
        if args.write_pins:
            return cmd_write_pins(args)
        if args.all:
            return cmd_all(args)
        if not args.workload:
            p.error("--workload is required")
        return cmd_single(args)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
