#!/usr/bin/env python3
"""Entry point of the NeuroHammer reproduction's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <fig3-quick|mc-256|fleet-defense> \
        --seed <n> --seconds <s> --trace <0|1>

It builds the Rust harness in this directory (default features, release
profile, offline) and runs the workload in fresh harness processes, so no
in-process cache carries over between repetitions.

--trace 0 repeats untraced repetitions until --seconds have passed (at least
one), then set-up-only repetitions (stopped right after set-up) until there
are SETUP_SAMPLES set-up samples or SETUP_SHARE of --seconds has passed. It
reports the median of each end-to-end metric: setup_s and wall_s as the
harness measures them, cpu_s (user + system) and peak_rss_mb from each
process's own resource usage.

--trace 1 runs one untraced repetition, then one traced repetition that
replays the same work with spans at every layer boundary, checks its outcomes
against the untraced ones and reports the per-layer metrics. Spans are
written to perfbench-scratch/spans-<workload>.jsonl under the build
directory.

Every repetition checks its outcomes against perfbench/references. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records provenance and the output
check's accuracy_err and failed_frac (both 0 when every outcome matches).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFS = os.path.join(HERE, "references")
WORKLOADS = ("fig3-quick", "mc-256", "fleet-defense")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
# Seconds a run may take after the build; a repetition still running then
# is killed and counted as failed.
RUN_BUDGET_S = 170
# After the full repetitions, set-up-only repetitions add set-up samples
# until there are this many, or this share of --seconds has passed.
SETUP_SAMPLES = 15
SETUP_SHARE = 0.15


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    if configured:
        return os.path.join(ROOT, configured)
    return os.path.join(HERE, "target")


def build():
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail(f"{ROOT} does not hold the repository's crates; run from a full checkout")
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("building the harness failed")
    binary = os.path.join(target_dir(), "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"the build did not produce {binary}")
    return binary


def harness(binary, scratch, deadline, args):
    """Runs one harness process to completion, killing it at the monotonic
    `deadline`, and returns (exit code, result dict or None, provenance dict
    or None, resource usage)."""
    out_path = os.path.join(scratch, f"stdout-{os.getpid()}.txt")
    with open(out_path, "w+", encoding="utf-8") as out:
        proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=out)
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        lines = [line for line in out.read().splitlines() if line.startswith("{")]
    os.remove(out_path)
    result = provenance = None
    for line in lines:
        try:
            value = json.loads(line)
        except ValueError:
            continue
        if "provenance" in value:
            provenance = value["provenance"]
        else:
            result = value
    return proc.returncode, result, provenance, usage


def source_ids():
    """The git commit when ROOT is a git work tree, and a hash of the source
    files either way (a benchmark checkout is not a git repository)."""
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    skip = {"target", "perfbench-scratch", ".bench_build", ".git"}
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for directory, subdirs, names in os.walk(path):
            subdirs[:] = sorted(d for d in subdirs if d not in skip)
            files.extend(os.path.join(directory, name) for name in sorted(names))
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return commit, "tree-" + digest.hexdigest()[:16]


def rustc_version():
    try:
        done = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=False)
        return done.stdout.strip() or None
    except OSError:
        return None


def untraced(binary, scratch, deadline, workload, seed, seconds):
    base = ["run", "--workload", workload, "--seed", str(seed), "--refs", REFS]
    samples = {name: [] for name, _ in END_TO_END}
    attempted = failed = 0
    accuracy_err = 0.0
    correct = True
    provenance = None
    started = time.monotonic()
    while attempted == 0 or time.monotonic() - started < seconds:
        code, result, provenance_line, usage = harness(binary, scratch, deadline, base)
        provenance = provenance or provenance_line
        samples["cpu_s"].append(usage.ru_utime + usage.ru_stime)
        samples["peak_rss_mb"].append(usage.ru_maxrss / 1024.0)
        if code != 0 or result is None:
            print(f"perfbench: repetition exited with {code}", file=sys.stderr)
            attempted += 1
            failed += 1
            correct = False
            break
        samples["wall_s"].append(result["wall_s"])
        samples["setup_s"].append(result.get("setup_s", 0.0))
        attempted += result["attempted"]
        failed += result["failed"]
        accuracy_err = max(accuracy_err, result["accuracy_err"])
        correct = correct and result["failed"] == 0 and result["accuracy_err"] == 0
        if not correct:
            break
    setup_started = time.monotonic()
    while (correct and len(samples["setup_s"]) < SETUP_SAMPLES
           and time.monotonic() - setup_started < SETUP_SHARE * seconds):
        code, result, _, _ = harness(binary, scratch, deadline, ["setup"] + base[1:])
        if code != 0 or result is None:
            print(f"perfbench: set-up repetition exited with {code}", file=sys.stderr)
            attempted += 1
            failed += 1
            correct = False
            break
        samples["setup_s"].append(result["setup_s"])
    metrics = {name: {"value": statistics.median(samples[name]) if samples[name] else 0.0,
                      "unit": unit} for name, unit in END_TO_END}
    print(f"perfbench: {len(samples['cpu_s'])} repetitions of {workload}: "
          + ", ".join(f"{name} {samples[name]}" for name, _ in END_TO_END), file=sys.stderr)
    return correct, attempted, failed, accuracy_err, metrics, provenance


def traced(binary, scratch, deadline, workload, seed):
    baseline = os.path.join(scratch, f"baseline-{workload}.json")
    outcomes = os.path.join(scratch, f"baseline-{workload}.jsonl")
    spans = os.path.join(scratch, f"spans-{workload}.jsonl")
    common = ["--workload", workload, "--seed", str(seed), "--refs", REFS]
    code, result, provenance, _ = harness(binary, scratch, deadline,
                                          ["run", "--outcomes", outcomes] + common)
    if code != 0 or result is None:
        print(f"perfbench: the untraced repetition exited with {code}", file=sys.stderr)
        return False, 1, 1, 0.0, {}, provenance
    with open(baseline, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    code, trace, _, _ = harness(binary, scratch, deadline,
                                ["trace", "--baseline", baseline, "--baseline-outcomes", outcomes,
                                 "--spans", spans, "--scratch", scratch] + common)
    if code != 0 or trace is None:
        print(f"perfbench: the traced repetition exited with {code}", file=sys.stderr)
        return (False, result["attempted"] + 1, result["failed"] + 1, result["accuracy_err"], {},
                provenance)
    correct = all(r["failed"] == 0 and r["accuracy_err"] == 0 for r in (result, trace))
    return (correct, result["attempted"] + trace["attempted"], result["failed"] + trace["failed"],
            max(result["accuracy_err"], trace["accuracy_err"]), trace["metrics"], provenance)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seed = args.seed % 2**64

    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    scratch = os.path.join(target_dir(), "perfbench-scratch")
    os.makedirs(scratch, exist_ok=True)
    if args.trace:
        run = traced(binary, scratch, deadline, args.workload, seed)
    else:
        run = untraced(binary, scratch, deadline, args.workload, seed, max(1, args.seconds))
    correct, attempted, failed, accuracy_err, metrics, provenance = run
    commit, tree = source_ids()
    provenance = dict(provenance or {}, commit=commit, source_tree=tree, rustc=rustc_version(),
                      trace=args.trace, seconds=args.seconds)
    print(json.dumps({"provenance": provenance,
                      "outputs": {"accuracy_err": accuracy_err, "failed_frac": failed / attempted}}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
