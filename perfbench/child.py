"""One benchmark job in a fresh interpreter; started by ``run.py``.

    python3 perfbench/child.py <job> --out FILE [--workload W] [--seed N]
                               [--smoke] [--traced] [--wrong-expected]

Jobs: ``probe`` (import only, for setup_s), ``workload`` (one pass of a
workload, optionally traced) and ``layers`` (the per-layer suite).  The
first thing it does is ``import defo5.cli`` from the checkout's ``src/``;
the clock reading right after that import is the end of set-up.  Results go
to FILE as JSON; while a workload runs, FILE already lists the planned
checks, so a crash still counts them as failed.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import defo5.cli  # noqa: E402,F401  (set-up ends when this import returns)

T_SETUP_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import json  # noqa: E402

sys.path.insert(0, HERE)


def _write(path, data):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh)
    os.replace(tmp, path)


def _versions():
    import numpy
    import sympy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "sympy": sympy.__version__, "defo5": defo5.__version__}


def _workload(args, out):
    import workloads

    expected = workloads.wrong_expected() if args.wrong_expected else workloads.EXPECTED
    info = {}
    tasks = workloads.tasks_for(args.workload, args.seed, args.smoke, expected, info)
    planned = [c for t in tasks for c in t.checks]
    _write(args.out, {**out, "planned": planned})
    tracer = None
    if args.traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(callers=[workloads])
    t_start = time.perf_counter_ns()
    checks = workloads.execute(tasks)
    t_done = time.perf_counter_ns()
    out.update(planned=planned, checks=checks, info=info, t_done_ns=t_done)
    if tracer is not None:
        out["trace"] = tracer.summary(t_done - t_start)
        out["trace"]["pass_ns"] = t_done - t_start
        tracer.write(args.out + ".spans.jsonl")
    return out


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("job", choices=("probe", "workload", "layers"))
    p.add_argument("--out", required=True)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--wrong-expected", action="store_true")
    args = p.parse_args(argv)
    if not os.path.abspath(defo5.__file__).startswith(SRC + os.sep):
        sys.exit(f"defo5 imported from {defo5.__file__}, not from {SRC}")
    out = {"t_setup_ns": T_SETUP_NS}
    if args.job == "probe":
        out["versions"] = _versions()
    elif args.job == "workload":
        out = _workload(args, out)
    else:
        import layers
        out["metrics"], out["checks"] = layers.run_suite(args.seed, args.smoke)
    _write(args.out, out)


if __name__ == "__main__":
    main()
