"""The defo5 benchmark.

    python3 perfbench/run.py --workload {certify-full,exhaustive-scan,series-deep}
                             --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout.  Every workload pass runs in a fresh
interpreter (``child.py``) that imports defo5 from the checkout's ``src/``,
so the numbers are what a user waits for and holds in memory.

``--trace 0`` measures the end-to-end metrics for about S seconds: a few
import-only processes for ``setup_s``, then workload passes while another
one still fits in S seconds (at least one).  Each metric is the median over
the passes; a pass with a failed check is left out of the medians.

``--trace 1`` runs one untraced and one traced pass of the workload (self
time per layer, tracing overhead), the verify-all step split, and the
per-layer suite (``layers.py``), and prints the per-layer metrics.

``--smoke`` runs everything once at reduced size; its values are not
comparable with full runs and exist for the benchmark's own tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from metrics import END_TO_END, FULL_STEPS, PER_LAYER, WORKLOADS  # noqa: E402

SETUP_PROBES = 3
RUN_LIMIT_S = 175       # a run must end within 180 s: children are killed here
RUN_CAP_S = 150         # start no measured pass that would end after this
RUN_START = time.perf_counter()


class Pass:
    """One child process: its result file and its resource usage."""

    def __init__(self, job, *args):
        os.makedirs(OUT, exist_ok=True)
        self.out_path = os.path.join(OUT, f"job-{os.getpid()}.json")
        env = {k: v for k, v in os.environ.items()
               if k not in ("DEFO5_JOBS", "PYTHONOPTIMIZE", "PYTHONPATH")}
        cmd = [sys.executable, os.path.join(HERE, "child.py"), job,
               "--out", self.out_path, *args]
        self.t_spawn_ns = time.perf_counter_ns()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
        timeout_s = RUN_LIMIT_S - (time.perf_counter() - RUN_START)
        timer = threading.Timer(max(timeout_s, 1), proc.kill)
        timer.start()
        try:
            _, status, self.rusage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.t_reaped_ns = time.perf_counter_ns()
        self.data = {}
        if os.path.exists(self.out_path):
            with open(self.out_path) as fh:
                self.data = json.load(fh)
            os.remove(self.out_path)

    @property
    def setup_s(self):
        return (self.data["t_setup_ns"] - self.t_spawn_ns) / 1e9

    @property
    def wall_s(self):
        return (self.data["t_done_ns"] - self.t_spawn_ns) / 1e9

    @property
    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    @property
    def peak_rss_mb(self):
        return self.rusage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux

    @property
    def checks(self):
        """{check: passed}; planned checks that never reported count as
        failed, and a pass that planned nothing counts as one failure."""
        got = self.data.get("checks", {})
        planned = self.data.get("planned") or ["child process"]
        ok = self.exit_code == 0
        return {c: ok and got.get(c) is True for c in planned}

    @property
    def passed(self):
        return all(self.checks.values())


def workload_pass(args, workload=None, traced=False):
    extra = ["--smoke"] if args.smoke else []
    if traced:
        extra.append("--traced")
    if args.wrong_expected:
        extra.append("--wrong-expected")
    return Pass("workload", "--workload", workload or args.workload,
                "--seed", str(args.seed), *extra)


def _tally(passes):
    attempted = failed = 0
    for p in passes:
        checks = p.checks
        attempted += len(checks)
        failed += sum(not ok for ok in checks.values())
    return attempted, failed


def measure(args):
    """End-to-end values over about args.seconds of passes, the checks
    attempted and failed, and the environment."""
    t0 = time.perf_counter()
    probes = [Pass("probe") for _ in range(1 if args.smoke else SETUP_PROBES)]
    passes = []
    while True:
        passes.append(workload_pass(args))
        if args.smoke:
            break
        elapsed = time.perf_counter() - t0
        typical = statistics.median([(p.t_reaped_ns - p.t_spawn_ns) / 1e9
                                     for p in passes])
        if elapsed + typical > min(args.seconds, RUN_CAP_S):
            break
    good = [p for p in passes if p.passed] or passes
    timed = [p for p in good if "t_done_ns" in p.data]
    setups = [p.setup_s for p in probes + passes if "t_setup_ns" in p.data]
    if not timed or not setups:
        raise SystemExit("no workload pass produced timings")
    values = {
        "wall_s": statistics.median([p.wall_s for p in timed]),
        "cpu_s": statistics.median([p.cpu_s for p in timed]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median([p.peak_rss_mb for p in timed]),
    }
    print(f"passes {len(passes)} (timed {len(timed)}), setup samples {len(setups)}")
    for p in passes:
        print(f"  pass: wall {p.wall_s:.3f} s, cpu {p.cpu_s:.3f} s, "
              f"rss {p.peak_rss_mb:.1f} MB, checks passed {p.passed}")
    attempted, failed = _tally(passes)
    return values, attempted, failed, environment(probes[0].data.get("versions", {}))


def trace(args):
    """Per-layer values (traced pass, step split, layer suite), the checks
    attempted and failed, and the environment."""
    plain = workload_pass(args)
    traced = workload_pass(args, traced=True)
    passes = [plain, traced]
    if args.workload == "certify-full":
        steps_pass = plain
    else:
        steps_pass = workload_pass(args, "certify-full")
        passes.append(steps_pass)
    suite = Pass("layers", "--seed", str(args.seed),
                 *(["--smoke"] if args.smoke else []))
    values = dict(suite.data.get("metrics", {}))
    suite_checks = suite.data.get("checks", {})
    if suite.exit_code != 0 or not values:
        raise SystemExit("the per-layer suite failed")

    # a step missing from the report (failed pass, or the quick profile
    # of --smoke) reads 0 and its failure is counted in fail_ratio
    steps_ms = steps_pass.data.get("info", {}).get("steps_ms", {})
    for step, slug in FULL_STEPS.items():
        values[f"verify.{slug}_s"] = steps_ms.get(step, 0.0) / 1e3

    if "trace" not in traced.data or "t_done_ns" not in plain.data:
        raise SystemExit("a workload pass of the traced run failed")
    summary = traced.data["trace"]
    pass_ns = summary["pass_ns"]
    for layer, ns in summary["self_ns"].items():
        values[f"self_pct.{layer}"] = 100 * ns / pass_ns
    overhead = traced.wall_s - plain.wall_s
    values["trace.overhead_s"] = overhead
    values["trace.overhead_pct"] = 100 * overhead / plain.wall_s
    values["trace.calls"] = summary["calls"]
    print(f"untraced pass {plain.wall_s:.3f} s, traced pass {traced.wall_s:.3f} s")
    print("largest self times in the traced pass:")
    for name, ns in summary["top_self_ns"].items():
        print(f"  {ns / 1e9:10.4f} s  {name}")
    spans = traced.out_path + ".spans.jsonl"
    if os.path.exists(spans):
        kept = os.path.join(OUT, f"trace-{args.workload}.spans.jsonl")
        os.replace(spans, kept)
        print(f"spans written to {os.path.relpath(kept, ROOT)}")

    attempted, failed = _tally(passes)
    attempted += len(suite_checks)
    failed += sum(not ok for ok in suite_checks.values())
    values["fail_ratio"] = failed / max(attempted, 1)
    return values, attempted, failed, environment({})


def environment(versions):
    """Informational record printed beside the numbers; never gated."""
    env = {"nproc": os.cpu_count(), **versions, "git_commit": "unknown"}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            env["git_commit"] = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    lines += fh.read().count(b"\n")
    env["src_lines"] = lines
    return env


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="each workload once at reduced size (tests only)")
    p.add_argument("--wrong-expected", action="store_true",
                   help="check against a deliberately wrong expected "
                        "certificate value (tests only)")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "defo5", "cli.py")):
        print(f"error: no defo5 sources under {SRC}", file=sys.stderr)
        return 2

    values, attempted, failed, env = (trace if args.trace else measure)(args)
    declared = PER_LAYER if args.trace else END_TO_END
    if set(values) != set(declared):
        print(f"error: metrics {sorted(set(values) ^ set(declared))} differ "
              "from the declared list", file=sys.stderr)
        return 3
    metrics = {k: {"value": v, "unit": declared[k]} for k, v in values.items()}
    if args.smoke:
        print("smoke mode: reduced sizes, values are not comparable")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"fail_ratio {failed / max(attempted, 1)} ratio "
          f"({failed} of {attempted} checks failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
