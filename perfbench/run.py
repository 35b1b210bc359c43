#!/usr/bin/env python3
"""Builds and runs the carta benchmark.

    python3 perfbench/run.py --workload sweep|serve|optimize --seed N \\
        --seconds S --trace 0|1

Run from the repository root. Builds `carta-server` and the benchmark
binary (`perfbench/`, a package of its own) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs one workload. The
last line of standard output is the result object; everything else is
the human-readable report. Exit status 0 means the run completed, not
that its checks passed: see `correct` in the result.

Other modes:
    --self-test            short runs of every workload, each once with
                           the recorded references (all checks must
                           pass) and once with a corrupted reference
                           (some check must fail); also checks that the
                           metric names match BENCHMARK.json
    --record-reference N   rewrites perfbench/reference.json for input
                           seeds 0..N-1
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "serve", "optimize")
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds both binaries; cargo's own output goes to stderr."""
    for needed in ("Cargo.toml", "Cargo.lock", os.path.join("crates", "server", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found under {ROOT}: run the benchmark from a full checkout of the repository")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "carta-server"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest, *extra]
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 1)
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "carta-perfbench"), os.path.join(release, "carta-server")


def commit():
    """HEAD of the checkout, when the checkout itself is a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def bench_args(server_bin):
    return [
        "--server-bin", server_bin,
        "--work-dir", os.path.join(target_dir(), "perfbench-work"),
        "--commit", commit(),
    ]


def run_bench(binary, args, capture=False, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary in its own process group, so a run
    that overstays its time is stopped together with the server child
    it started; returns (exit code, stdout text)."""
    proc = subprocess.Popen(
        [binary, *args],
        stdout=subprocess.PIPE if capture else None,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"the benchmark did not finish within {timeout} s", 1)
    return proc.returncode, out or ""


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test(binary, server_bin):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            for corrupt in (False, True):
                if trace == "1" and corrupt:
                    continue
                args = ["--workload", workload, "--seed", "42", "--seconds", "4", "--trace", trace]
                args += bench_args(server_bin) + (["--corrupt-reference"] if corrupt else [])
                code, out = run_bench(binary, args, capture=True)
                result = result_of(out) if code == 0 else None
                label = f"{workload} trace={trace}{' corrupted reference' if corrupt else ''}"
                if result is None:
                    problems.append(f"{label}: exit {code}, no result")
                    continue
                expect = not corrupt
                if result["correct"] != expect:
                    problems.append(f"{label}: correct={result['correct']}, expected {expect}")
                key = "per_layer" if trace == "1" else "end_to_end"
                names = [m["name"] for m in spec[key]]
                if list(result["metrics"]) != names:
                    problems.append(f"{label}: metrics {list(result['metrics'])} != BENCHMARK.json {key}")
                for name, m in result["metrics"].items():
                    unit = next((x["unit"] for x in spec[key] if x["name"] == name), None)
                    if m["unit"] != unit:
                        problems.append(f"{label}: {name} unit {m['unit']} != {unit}")
                    if key == "end_to_end" and not corrupt and not m["value"] > 0:
                        problems.append(f"{label}: {name} = {m['value']} is not positive")
                print(f"self-test {label}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
    for p in problems:
        print(f"self-test FAIL {p}")
    print("self-test:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main():
    argv = sys.argv[1:]
    if "--record-reference" in argv:
        i = argv.index("--record-reference")
        if i + 1 >= len(argv):
            fail("--record-reference needs a seed count")
        binary, _ = build()
        code, out = run_bench(binary, ["--record-reference", argv[i + 1]], capture=True, timeout=None)
        if code != 0:
            fail("recording the references failed", 1)
        json.loads(out)  # must be a valid document before it replaces the old one
        with open(os.path.join(HERE, "reference.json"), "w") as f:
            f.write(out)
        print("wrote perfbench/reference.json")
        return 0
    binary, server_bin = build()
    if argv == ["--self-test"]:
        return self_test(binary, server_bin)
    code, _ = run_bench(binary, argv + bench_args(server_bin))
    return code


if __name__ == "__main__":
    sys.exit(main())
