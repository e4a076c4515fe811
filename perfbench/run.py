"""cpi3d benchmark: one seeded workload per run, through the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The inputs of the workload are generated
from the seed into a scratch directory under `.perfbench_work/` before
anything is timed; fresh worker processes then call `cpi3d.cli.main`
in-process, closed loop, one operation at a time (NumPy's BLAS keeps its
default thread count, at most `nproc`). Every output is checked.

With `--trace 0` the run reports the end-to-end metrics:
  setup_s      median over five fresh processes of import, checkpoint load
               and one warm-up call on a tiny input
  job_s        wall time of one pass over the workload's CLI invocations,
               averaged over the measured window (per-operation times on a
               shared host jitter by 20%; the window mean smooths that)
  peak_rss_mb  ru_maxrss of the measuring process
and prints the per-subcommand rates (predict_complexes_per_s,
train_steps_per_s, rerank_poses_per_s, split_records_per_s,
eval_rows_per_s) and ops_failed_frac for the workloads they apply to.
With `--trace 1` it reports the per-layer metrics of `tracer.py`: times and
counts from a traced pass, allocation peaks from a second traced pass
whose exact counts must equal the first, and the tracing overhead (the
first traced pass minus the mean of two untraced passes).
The last line of output is one JSON object with the result.

`--write-reference` stores the default seed's outputs as the reference
that later runs are checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150

RATES = {  # phase -> name of the rate reported for it
    "predict": "predict_complexes_per_s",
    "train": "train_steps_per_s",
    "rerank": "rerank_poses_per_s",
    "split": "split_records_per_s",
    "eval": "eval_rows_per_s",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child(root: str, workdir: str, mode: str, *extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), HERE])
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), mode, workdir, *extra],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(os.path.join(workdir, f"{mode}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy as np

    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": _blas_threads()}


def _blas_threads():
    """Thread count of NumPy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _check_ops(checker, ops: list[dict]) -> list[str | None]:
    return [op["error"] or checker.check(op["phase"], op["argv"]) for op in ops]


def _phase_means(ops: list[dict]) -> dict[str, float]:
    times: dict[str, list[float]] = {}
    for op in ops:
        times.setdefault(op["phase"], []).append(op["s"])
    return {phase: statistics.fmean(v) for phase, v in times.items()}


def _untraced(root, workdir, plan, checker, seconds):
    setups = [_child(root, workdir, "setup")["setup_s"] for _ in range(SETUP_REPEATS)]
    res = _child(root, workdir, "measure", repr(seconds))
    errors = _check_ops(checker, res["ops"])
    for rec in res["extra"]:
        errors.append(rec["error"] or checker.check_moved_copy(rec["argv"]))
    means = _phase_means(res["ops"])
    items = {step["phase"]: step["items"] for step in plan["cycle"]}
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "job_s": {"value": res["elapsed_s"] / res["cycles"], "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    lines = [f"{res['cycles']} cycles in {res['elapsed_s']:.2f} s; setup runs "
             + ", ".join(f"{s:.4f}" for s in setups) + " s; operations "
             + ", ".join(f"{op['phase']} {op['s']:.4f}" for op in res["ops"]) + " s"]
    lines += [f"{RATES[p]} {items[p] / means[p]:.6g} 1/s  ({items[p]} per op, "
              f"mean op {means[p]:.4f} s)" for p in means]
    return metrics, res["ops"], errors, lines


def _traced(root, workdir, checker):
    from tracer import EXACT_COUNTS, per_layer_metrics

    res = _child(root, workdir, "trace")
    errors = _check_ops(checker, res["ops"])
    run1, run2 = res["runs"]
    mismatched = [k for k in EXACT_COUNTS if run1[k] != run2[k]]
    overhead = res["traced_s"][0] - statistics.fmean(res["untraced_s"])
    metrics = {}
    for m in per_layer_metrics():
        name = m["name"]
        if name == "trace.overhead_s":
            value = overhead
        else:
            value = (run2 if name.endswith(".peak_alloc_mb") else run1)[name]
        metrics[name] = {"value": value, "unit": m["unit"]}
    lines = ["untraced passes " + ", ".join(f"{s:.4f}" for s in res["untraced_s"])
             + " s; traced passes " + ", ".join(f"{s:.4f}" for s in res["traced_s"]) + " s",
             "exact counts repeat: " + ("yes" if not mismatched else f"NO {mismatched}")]
    return metrics, res["ops"], errors, lines, not mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cpi3d", "cli.py")):
        return _fail(f"no cpi3d sources under {os.path.join(root, 'src')}; "
                     "run from the repository root")
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    reference = None
    if args.seed == DEFAULT_SEED and not args.write_reference and os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh).get(args.workload)

    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        plan = workloads.generate(args.workload, args.seed, workdir)
        checker = checks.Checker(workdir, reference)
        print(f"workload {args.workload} seed {args.seed}: {workloads.WHY[args.workload]}")
        print("environment: " + json.dumps(environment(), sort_keys=True))
        print("sizes: " + json.dumps(plan["sizes"], sort_keys=True))
        if args.trace:
            metrics, ops, errors, lines, counts_repeat = _traced(root, workdir, checker)
            out_dir = os.path.join(root, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"spans-{args.workload}.jsonl")
            shutil.copyfile(os.path.join(workdir, "spans.jsonl"), spans)
            lines.append(f"spans written to {os.path.relpath(spans, root)}")
        else:
            metrics, ops, errors, lines = _untraced(root, workdir, plan, checker, args.seconds)
            counts_repeat = True
        selftest = checks.self_test(checker, ops)
        if args.write_reference:
            doc = {}
            if os.path.exists(REFERENCE):
                with open(REFERENCE, encoding="utf-8") as fh:
                    doc = json.load(fh)
            doc[args.workload] = checker.first
            with open(REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass

    failed = sum(1 for e in errors if e)
    for line in lines:
        print(line)
    for i, err in enumerate(errors):
        if err:
            print(f"operation {i} failed: {err}")
    caught = sum(1 for _, hit in selftest if hit)
    for name, hit in selftest:
        print(f"self-test: {name}: {'counted as failed' if hit else 'NOT DETECTED'}")
    print(f"ops_attempted {len(errors)}")
    print(f"ops_failed_frac {failed / len(errors):.6g}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    correct = failed == 0 and caught == len(selftest) and counts_repeat
    print(json.dumps({"correct": correct, "attempted": len(errors), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
