"""Child process of the benchmark: runs one workload's CLI invocations.

    python3 worker.py setup   WORKDIR
    python3 worker.py measure WORKDIR SECONDS
    python3 worker.py trace   WORKDIR

Each mode runs in a fresh process whose working directory is WORKDIR (the
generated inputs plus `plan.json`) and writes `<mode>.json` there. Every
operation is one in-process call of `cpi3d.cli.main`, closed loop, one at a
time. `setup` times import, checkpoint load and the warm-up calls;
`measure` warms up, then repeats the workload's cycle of invocations for
SECONDS, and at least MIN_CYCLES times, and records each invocation's
wall time and the process's peak RSS; `trace` runs two untraced and two
traced cycles.
"""

import io
import json
import os
import resource
import sys
import traceback
from contextlib import redirect_stdout
from time import perf_counter

# The first cycle after warm-up runs on a cold heap, so no run reports it alone.
MIN_CYCLES = 2


def _invoke(main, argv: list[str]) -> dict:
    sink = io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with redirect_stdout(sink):
            rc = main(argv)
        if rc != 0:
            error = f"exit code {rc}"
    except Exception:  # an operation that raises counts as failed
        error = traceback.format_exc(limit=4)
    seconds = perf_counter() - t0
    return {"argv": argv, "s": seconds, "error": error}


def _cycle(main, plan: dict, op: int) -> list[dict]:
    out = []
    for step in plan["cycle"]:
        rec = _invoke(main, [a.replace("{op}", str(op)) for a in step["argv"]])
        rec.update(phase=step["phase"], op=op)
        out.append(rec)
    return out


def _warm_up(main, plan: dict):
    for argv in plan["warmup"]:
        rec = _invoke(main, argv)
        if rec["error"]:
            raise RuntimeError(f"warm-up {argv[0]} failed: {rec['error']}")


def setup() -> dict:
    t0 = perf_counter()
    import cpi3d.cli
    with open("plan.json", encoding="utf-8") as fh:
        plan = json.load(fh)
    _warm_up(cpi3d.cli.main, plan)
    return {"setup_s": perf_counter() - t0}


def measure(seconds: float) -> dict:
    import cpi3d.cli
    with open("plan.json", encoding="utf-8") as fh:
        plan = json.load(fh)
    main = cpi3d.cli.main
    _warm_up(main, plan)
    ops: list[dict] = []
    start = perf_counter()
    op = 0
    while True:
        c0 = perf_counter()
        ops += _cycle(main, plan, op)
        op += 1
        now = perf_counter()
        if op < MIN_CYCLES:
            continue
        # stop once the time is up, or when one more cycle would overrun it by half
        if now - start >= seconds or (now - start) + (now - c0) > 1.5 * seconds:
            break
    elapsed = perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    extra = [_invoke(main, argv) for argv in plan["extra"]]
    return {"ops": ops, "cycles": op, "elapsed_s": elapsed,
            "peak_rss_mb": peak_kb / 1024.0, "extra": extra}


def trace() -> dict:
    import cpi3d.cli
    from tracer import Tracer

    with open("plan.json", encoding="utf-8") as fh:
        plan = json.load(fh)
    main = cpi3d.cli.main
    _warm_up(main, plan)
    tracer = Tracer()
    ops: list[dict] = []
    untraced_s, traced_s = [], []
    # untraced, traced, traced, untraced: both kinds see warm and cold passes.
    # Run 1 gives the times; run 2 repeats the counts and adds the
    # allocation peaks, whose tracing slows the calls it watches.
    for op, run in enumerate((0, 1, 2, 0)):
        if run:
            tracer.run = run
            tracer.alloc_peaks = run == 2
            tracer.install()
        t0 = perf_counter()
        try:
            ops += _cycle(main, plan, op)
        finally:
            (traced_s if run else untraced_s).append(perf_counter() - t0)
            tracer.uninstall()
    tracer.write_jsonl("spans.jsonl")
    return {"ops": ops, "untraced_s": untraced_s, "traced_s": traced_s,
            "runs": [tracer.run_metrics(1), tracer.run_metrics(2)]}


def main(argv: list[str]) -> int:
    mode, workdir = argv[0], argv[1]
    os.chdir(workdir)
    if mode == "setup":
        result = setup()
    elif mode == "measure":
        result = measure(float(argv[2]))
    elif mode == "trace":
        result = trace()
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    with open(f"{mode}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
