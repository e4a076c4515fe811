"""Command-line interface for the full pipeline.

Subcommands: fingerprint, build-graph, train, predict, score-vina, rerank,
split, eval, simulate-screen. Configuration resolves defaults <- config
file (JSON) <- flags; every artifact embeds the resolved-config hash and
seed so reruns are attributable. Exit codes: 0 success, 1 validation or
usage error (a bad config or checkpoint, or running out of memory), 2 I/O
error.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import glob
import io
import json
import math
import os
import pickle
import signal
import sys
import warnings
from collections import defaultdict

import numpy as np

from . import __version__
from .chemio import load_manifest, parse_numbers, parse_pdb, parse_pdb_atoms, parse_sdf
from .checkpoint import load_model, save_model
from .config import RunConfig, build_config, load_json
from .datasplit import (
    SplitSetting,
    assign_folds,
    compound_similarity_matrix,
    hierarchical_cluster,
    leakage_report,
    protein_similarity_matrix,
)
from .equinet import ReceptorCache, forward
from .errors import Cpi3dError, ValidationError
from .fingerprint import morgan_fingerprints
from .geograph import build_graph, build_pair_graph, edge_budget_packs, graph_to_json
from .metrics import evaluate, evaluate_grouped, sample_std, simulate_random_screen
from .physscore import rerank_poses, score_poses
from .train import train


# glibc's mallopt parameters and the values `main` sets. By default glibc
# serves each allocation over its dynamic mmap threshold (128 KiB at
# first) with its own mapping, and returns a freed heap top over its trim
# threshold to the system; both thresholds rise only when a large mapped
# block is freed. No array of a forward is that large, so each message
# block's edge-network temporaries (1-1.5 MB) would map and unmap their
# pages: 30-51k minor faults and 0.06-0.17 s of system time per 6-ligand,
# 300-residue `predict` on a 2-vCPU x86-64 host, against 16-26 faults and
# under 0.005 s with these values.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 8 << 20
TRIM_THRESHOLD = 64 << 20


@functools.cache
def _tune_malloc():
    """Fix glibc's mmap and trim thresholds once; a no-op where libc has
    no `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


@functools.cache
def _pin_blas():
    """Run numpy's bundled OpenBLAS on one thread from here on. Its
    threads split a long reduction, such as a weight adjoint over
    thousands of edges, in an order that depends on the thread count, so
    trained bytes would depend on the core count; and at these shapes a
    second thread buys nothing but its buffers. Without a set-threads
    function, say so once on stderr."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                    "openblas_set_num_threads"):
            set_threads = getattr(lib, sym, None)
            if set_threads is not None:
                set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
                set_threads(1)
                return
    print("warning: found no OpenBLAS set-threads function; BLAS keeps its own thread "
          "count, so trained bytes may depend on the core count", file=sys.stderr)


# argparse dest -> the config keys ("section.key" or a top-level key) it sets
_FLAG_KEYS = {
    "seed": ("seed", "train.seed"),
    "steps": ("train.steps",),
    "lr": ("train.learning_rate",),
    "batch_size": ("train.batch_size",),
    "optimizer": ("train.optimizer",),
    "fusion_lambda": ("fusion.lambda",),
    "fusion_alpha": ("fusion.alpha",),
    "compound_threshold": ("split.compound_threshold",),
    "protein_threshold": ("split.protein_threshold",),
}


def _resolve_config(args) -> RunConfig:
    """Defaults <- config file <- flags: the flags are written into the
    file's document, which is then built once."""
    doc: dict = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8-sig") as fh:
            doc = load_json(fh.read(), args.config)
    for dest, keys in _FLAG_KEYS.items():
        value = getattr(args, dest, None)
        if value is None or not isinstance(doc, dict):
            continue
        for key in keys:
            section, _, name = key.rpartition(".")
            target = doc.setdefault(section, {}) if section else doc
            if isinstance(target, dict):   # build_config rejects anything else
                target[name] = value
    return build_config(RunConfig, doc)


def _write_csv(path: str, subcommand: str, cfg: RunConfig, header: list[str],
               rows: list[list], seed: int | None = None):
    # the provenance line names the run's top-level seed unless `seed` is given
    buf = io.StringIO()
    buf.write(f"# cpi3d {subcommand} config={cfg.hash()} "
              f"seed={cfg.seed if seed is None else seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def _write_json(path: str | None, cfg: RunConfig, doc: dict):
    """Write `doc` with its provenance to `path`, or to stdout."""
    doc["provenance"] = {"config_hash": cfg.hash(), "seed": cfg.seed}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_table(path: str, columns) -> dict[str, list[str]]:
    """Each of `columns` that the CSV header names, mapped to its values.

    A UTF-8 byte-order mark is skipped, and so are lines starting with '#'
    and blank lines; the first row left is the header and data rows are
    numbered from 1. Only the wanted
    columns are kept while reading. A file without data rows, or a data row
    too short to hold a column, raises `ValidationError`; among short rows
    it names the first of the first such column in `columns` order.
    """
    with open(path, encoding="utf-8-sig") as fh:
        rows = (row for row in csv.reader(line for line in fh if not line.startswith("#"))
                if row)
        header = next(rows, None)
        index = {name: k for k, name in enumerate(header or ())}
        wanted = {column: index[column] for column in columns if column in index}
        table: dict[str, list[str]] = {column: [] for column in wanted}
        first_short: dict[str, int] = {}
        n_rows = 0
        for n_rows, row in enumerate(rows, start=1):
            for column, k in wanted.items():
                if k < len(row):
                    table[column].append(row[k])
                else:
                    first_short.setdefault(column, n_rows)
    if n_rows == 0:
        raise ValidationError(f"{path}: no data rows")
    for column in wanted:
        if column in first_short:
            raise ValidationError(f"{path}: row {first_short[column]}: no {column} value")
    return table


def _number_column(table, column: str, path: str, kind=float):
    """One column of `_read_table` parsed as finite `kind`: a float64 array
    for float, a list of ints for int.

    A float column parses in one pass; only a column holding a bad value
    goes through `parse_numbers`, which names the first one.
    """
    raws = table[column]
    if kind is float:
        try:
            values = np.fromiter(map(float, raws), dtype=np.float64, count=len(raws))
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return values
    return parse_numbers(enumerate(raws, start=1),
                         lambda row_no: f"{path}: row {row_no}: {column}", kind)


def _load_scores(path: str, columns: list[str]):
    """The eval table's two float `columns` and optional group column read
    in one `np.loadtxt` pass, as (prediction, label, group, names): two
    float64 arrays and, for a group column, each row's index into `names`,
    its sorted distinct values (both None without one).

    None when the table needs the per-row `_read_table` path, which reports
    what is wrong with it: bytes that are not UTF-8; a quote, a '#' (a
    comment line, perhaps) or a NUL anywhere; a header that is not the
    first line or lacks a column; a row that does not parse (a blank line
    is skipped as `_read_table` skips it); no data rows; or a number that
    is not finite.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError:   # reported by `_read_table`, which reads line by line
        return None
    index = {name: k for k, name in enumerate(text.partition("\n")[0].split(","))}
    usecols = [index.get(column) for column in columns]
    if any(c in text for c in '"#\0') or None in usecols or len(set(usecols)) < len(usecols):
        return None
    del text
    names = defaultdict()
    names.default_factory = names.__len__   # a new group takes the next index
    fields = [("prediction", np.float64), ("label", np.float64), ("group", np.int64)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # a table without rows warns
            table = np.loadtxt(path, dtype=fields[:len(columns)], delimiter=",",
                               comments=None, skiprows=1, usecols=usecols, ndmin=1,
                               encoding="utf-8-sig",
                               converters={k: names.__getitem__ for k in usecols[2:]})
    except ValueError:
        return None
    preds, labels = table["prediction"], table["label"]
    if not table.size or not (np.isfinite(preds).all() and np.isfinite(labels).all()):
        return None
    if len(columns) < 3:
        return preds, labels, None, None
    ordered = sorted(names)
    rank = np.empty(len(ordered), dtype=np.int64)   # first-seen index -> sorted index
    rank[[names[name] for name in ordered]] = np.arange(len(ordered))
    return preds, labels, rank[table["group"]], ordered


def _read_scores(path: str, columns: list[str]):
    """`_load_scores`, or, for a table it leaves to the per-row path, the
    same from `_read_table`, with the group column's values in place of
    indices and None for `names`."""
    loaded = _load_scores(path, columns)
    if loaded is not None:
        return loaded
    table = _read_table(path, columns)
    if "prediction" not in table or "label" not in table:
        raise ValidationError("prediction CSV needs 'prediction' and 'label' columns")
    group = columns[2] if len(columns) > 2 else None
    return (_number_column(table, "prediction", path), _number_column(table, "label", path),
            np.asarray(table[group]) if group in table else None, None)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one `error: ...` line from `main`, without the usage block
        raise ValidationError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="cpi3d", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cpi3d {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, train_flags=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--print-config", action="store_true",
                       help="print the resolved config and exit")
        if train_flags:
            p.add_argument("--steps", type=int, default=None)
            p.add_argument("--lr", type=float, default=None)
            p.add_argument("--batch-size", type=int, default=None)
            p.add_argument("--optimizer", choices=("adam", "sgd"), default=None)

    p = sub.add_parser("fingerprint", help="hex-encoded circular fingerprints of an SDF")
    common(p)
    p.add_argument("--sdf", required=True)
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--nbits", type=int, default=2048)
    p.add_argument("--out", help="output CSV (default stdout)")

    p = sub.add_parser("build-graph", help="construct and summarize a complex graph")
    common(p)
    p.add_argument("--ligand", required=True)
    p.add_argument("--protein", required=True)
    p.add_argument("--dump", help="write the full graph as JSON here")

    p = sub.add_parser("train", help="train the scoring network on a manifest")
    common(p, train_flags=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--loss-out", help="optional per-step loss CSV")

    p = sub.add_parser("predict", help="score every record in a manifest")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("score-vina", help="physics score for each pose in an SDF")
    common(p)
    p.add_argument("--poses", required=True)
    p.add_argument("--protein", required=True)
    p.add_argument("--out", help="output CSV (default stdout)")

    p = sub.add_parser("rerank", help="re-rank poses by fused physics + confidence")
    common(p)
    p.add_argument("--poses", required=True)
    p.add_argument("--protein", required=True)
    p.add_argument("--confidences", help="text file, one confidence per pose")
    p.add_argument("--lambda", dest="fusion_lambda", type=float, default=None)
    p.add_argument("--alpha", dest="fusion_alpha", type=float, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("split", help="cluster-disjoint cross-validation folds")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--setting", required=True,
                   choices=[s.value for s in SplitSetting])
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--compound-threshold", type=float, default=None)
    p.add_argument("--protein-threshold", type=float, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="metric report for a prediction CSV")
    common(p)
    p.add_argument("--pred", required=True,
                   help="CSV with columns prediction,label[,target]")
    p.add_argument("--metrics", required=True,
                   help="comma list, e.g. ci,spearman,pearson,mse,ef1,bedroc80.5")
    p.add_argument("--group-by", help="column to group by (per-target aggregation)")
    p.add_argument("--out", help="output JSON (default stdout)")

    p = sub.add_parser("simulate-screen", help="random-guessing screening baseline")
    common(p)
    p.add_argument("--actives", type=int, help="required without --per-target")
    p.add_argument("--decoys", type=int, help="required without --per-target")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--ef", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=80.5)
    p.add_argument("--per-target",
                   help="CSV with columns target,actives,decoys for per-target mode")
    p.add_argument("--out", help="output JSON (default stdout)")
    return parser


def _cmd_fingerprint(args, cfg: RunConfig) -> int:
    with open(args.sdf, encoding="utf-8") as fh:
        mols = parse_sdf(fh.read())
    packed = np.packbits(morgan_fingerprints(mols, radius=args.radius, nbits=args.nbits), axis=1)
    rows = [[m.id, row.tobytes().hex()] for m, row in zip(mols, packed)]
    if args.out:
        _write_csv(args.out, "fingerprint", cfg, ["molecule_id", "hex_bits"], rows)
    else:
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    return 0


def _cmd_build_graph(args, cfg: RunConfig) -> int:
    with open(args.ligand, encoding="utf-8") as fh:
        mols = parse_sdf(fh.read())
    if not mols:
        raise ValidationError(f"{args.ligand}: no molecules")
    with open(args.protein, encoding="utf-8") as fh:
        protein = parse_pdb(fh.read())
    graph = build_pair_graph(mols[0], protein, cfg.cutoffs)
    summary = {
        "n_ligand": graph.n_ligand, "n_residue": graph.n_residue,
        "edges": {k.value: len(e) for k, e in graph.edges.items()},
        "warnings": list(graph.warnings[0]),
    }
    print(json.dumps(summary, sort_keys=True))
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write(graph_to_json(graph))
    return 0


def _cmd_train(args, cfg: RunConfig) -> int:
    records = load_manifest(args.manifest)
    if not records:
        raise ValidationError("no records to train")
    model, losses = train(records, cfg.train, cfg.model, cfg.cutoffs)
    save_model(args.out, model, cfg)
    if args.loss_out:
        _write_csv(args.loss_out, "train", cfg, ["step", "loss"],
                   [[i, repr(v)] for i, v in enumerate(losses)], seed=cfg.train.seed)
    print(f"trained {len(records)} records for {len(losses)} steps; "
          f"final loss {losses[-1]:.6g}; checkpoint {args.out}")
    return 0


# `predict` runs at most this many worker processes. Each worker builds
# every graph of the stream and pays its own receptor-only reference
# (0.16-0.23 s for a 300-residue receptor), so its total CPU grows with
# the count; 2 is the count measured (BENCH_predict_pool.json).
POOL_WORKERS = 2


def _quota_cpus(root: str = "/sys/fs/cgroup", table: str = "/proc/self/cgroup") -> float:
    """The CPUs a cgroup CPU quota leaves this process, `inf` without one:
    the lowest `cpu.max` (cgroup v2) or `cpu.cfs_quota_us` over
    `cpu.cfs_period_us` (v1) of its cgroups and the cgroups above them,
    which `sched_getaffinity` does not see."""
    try:
        with open(table) as f:
            lines = f.read().splitlines()
    except OSError:
        return math.inf
    limit = math.inf
    for line in lines:
        _, controllers, path = line.split(":", 2)
        if controllers and "cpu" not in controllers.split(","):
            continue
        parts = [root] + ([controllers] if controllers else []) + [p for p in path.split("/") if p]
        for n in range(len(parts), 0, -1):
            limit = min(limit, _cgroup_cpus(os.path.join(*parts[:n])))
    return limit


def _cgroup_cpus(directory: str) -> float:
    """The CPUs one cgroup directory's quota grants, `inf` for none."""
    for names in (("cpu.max",), ("cpu.cfs_quota_us", "cpu.cfs_period_us")):
        try:
            fields = []
            for name in names:
                with open(os.path.join(directory, name)) as f:
                    fields += f.read().split()
            quota, period = fields
            if quota not in ("max", "-1"):
                return int(quota) / int(period)
        except (OSError, ValueError, ZeroDivisionError):
            pass
    return math.inf


def _usable_cores() -> int:
    """The cores this process may keep busy: those it may run on
    (`taskset` limits them), or fewer under a cgroup CPU quota; 1 where it
    cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, int(min(len(os.sched_getaffinity(0)), _quota_cpus())))


def _score(run, pack, model, cache) -> list[float]:
    fps = morgan_fingerprints([rec.ligand for rec in run], nbits=model.cfg.fingerprint_width)
    return forward(pack, fps, model.params, model.cfg, cache=cache).data.tolist()


def _fork_workers(count: int, work) -> list:
    """Fork `count - 1` children; child k runs `work(k, out)`, `out` the
    write end of its pipe, and leaves through `os._exit`. Returns (pid,
    read end) per child, and none when a pipe or a fork fails (a process
    limit, say): the caller then scores alone. A forked child continues the
    caller's state, a half-walked generator included; the process starts
    no thread of its own, and `main` has set BLAS to one thread."""
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    try:
        for k in range(1, count):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                code = 1
                try:
                    # only the parent holds each read end, so a parent that
                    # dies unreaped breaks every child's pipe
                    os.close(r)
                    for _, sibling in children:
                        sibling.close()
                    with os.fdopen(w, "wb") as out:
                        work(k, out)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
    except OSError:
        _reap(children)
        return []
    except BaseException:
        _reap(children)
        raise
    return children


def _reap(children):
    """Stop and reap every child, done or not."""
    for pid, pipe in children:
        pipe.close()
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(pid, 0)


def _portable(exc: Exception) -> Exception:
    """`exc`, or where it does not come back from pickling as itself, the
    first class `main` reports that it is, with its message."""
    try:
        back = pickle.loads(pickle.dumps(exc))
        if type(back) is type(exc) and str(back) == str(exc):
            return exc
    except Exception:
        pass
    kind = next((c for c in (Cpi3dError, ValueError, MemoryError, OSError)
                 if isinstance(exc, c)), RuntimeError)
    return kind(str(exc))


def _receive(pipe, i: int) -> list[float]:
    """A child's predictions for pack `i`, or the error it raised there,
    after the warnings it caught there are issued here."""
    try:
        got, caught = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):    # it died before or while writing
        raise Cpi3dError(f"the worker scoring pack {i} ended without its predictions") from None
    for text, category, filename, lineno in caught:
        # the module that warned, whose registry shows a repeat once, as
        # in the serial run
        module = next((m for m in list(sys.modules.values())
                       if getattr(m, "__file__", None) == filename), None)
        space = vars(module) if module is not None else None
        warnings.warn_explicit(
            text, category, filename, lineno,
            module=space and space.get("__name__"),
            registry=space and space.setdefault("__warningregistry__", {}),
            module_globals=space)
    if isinstance(got, BaseException):
        raise got
    return got


def _numbered(first, rest):
    """(i, item) over `first` and then `rest`, holding each item no longer
    than its turn; `enumerate` would keep its last item while it fetches
    the next, that is, a pack while the next graph is built."""
    yield 0, first
    del first
    i = 1
    for item in rest:
        yield i, item
        del item
        i += 1


def _cmd_predict(args, cfg: RunConfig) -> int:
    records = load_manifest(args.manifest)
    if not records:
        raise ValidationError("no records to predict")
    model = load_model(args.checkpoint)
    stream = edge_budget_packs(records, lambda rec: build_graph(rec, model.cutoffs))
    first = next(stream)
    # every worker walks the same stream of packs and scores pack i when
    # i % workers is its index, on a cache of its own; the cache makes each
    # prediction depend only on its record, so any worker count gives the
    # serial bytes
    workers = min(POOL_WORKERS, _usable_cores()) if len(records) > len(first[0]) else 1
    packs = _numbered(first, stream)
    del first

    def work(k, out):
        cache = ReceptorCache()
        with warnings.catch_warnings(record=True) as caught:
            # every warning goes to the parent, which filters it as the
            # serial run would; those of the graph walk it issues itself
            warnings.simplefilter("always")
            try:
                for i, (run, pack) in packs:
                    if i % workers == k:
                        caught.clear()
                        try:
                            got = _score(run, pack, model, cache)
                        except Exception as exc:    # the parent raises it at this pack
                            got = _portable(exc)
                        out.write(pickle.dumps(
                            (got, [(str(w.message), w.category, w.filename, w.lineno)
                                   for w in caught])))
                        out.flush()
                        if isinstance(got, Exception):
                            return
                    del pack
            except Exception as exc:    # the parent's own walk raises it first
                out.write(pickle.dumps((_portable(exc), [])))

    children = _fork_workers(workers, work)
    workers = len(children) + 1
    cache = ReceptorCache()
    rows = []
    try:
        for i, (run, pack) in packs:
            # a generator, so that no name keeps a graph alive past `del pack`
            sys.stderr.writelines(f"warning: {rec.complex_id}: {w}\n"
                                  for rec, ws in zip(run, pack.warnings) for w in ws)
            if i % workers == 0:
                preds = _score(run, pack, model, cache)
            else:
                preds = _receive(children[i % workers - 1][1], i)
            rows += [[rec.complex_id, repr(p)] for rec, p in zip(run, preds)]
            del pack  # freed before the next record's graph is built
    finally:
        _reap(children)
    _write_csv(args.out, "predict", cfg, ["complex_id", "prediction"], rows)
    print(f"wrote {len(rows)} predictions to {args.out}")
    return 0


def _load_poses_and_protein(args):
    with open(args.poses, encoding="utf-8") as fh:
        poses = parse_sdf(fh.read())
    if not poses:
        raise ValidationError(f"{args.poses}: no poses")
    with open(args.protein, encoding="utf-8") as fh:
        protein_atoms = parse_pdb_atoms(fh.read())
    return poses, protein_atoms


def _cmd_score_vina(args, cfg: RunConfig) -> int:
    poses, protein_atoms = _load_poses_and_protein(args)
    rows = [[i, repr(e)] for i, e in enumerate(score_poses(poses, protein_atoms, cfg.vina))]
    if args.out:
        _write_csv(args.out, "score-vina", cfg, ["pose_index", "e_vina"], rows)
    else:
        for idx, e in rows:
            print(f"{idx},{e}")
    return 0


def _cmd_rerank(args, cfg: RunConfig) -> int:
    poses, protein_atoms = _load_poses_and_protein(args)
    confidences = None
    if args.confidences:
        with open(args.confidences, encoding="utf-8-sig") as fh:
            lines = [(n, line.strip()) for n, line in enumerate(fh, start=1) if line.strip()]

        def where(n):
            return f"{args.confidences}: line {n}: confidence"

        confidences = parse_numbers(lines, where)
        for (n, raw), value in zip(lines, confidences):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{where(n)} {raw!r} must lie in [0, 1]")
    ranked = rerank_poses(poses, protein_atoms, cfg.vina, confidences=confidences,
                          lam=cfg.fusion.lam, alpha=cfg.fusion.alpha)
    rows = [
        [s.pose_index, repr(s.e_vina),
         "" if s.upstream_confidence is None else repr(s.upstream_confidence),
         "" if s.fused is None else repr(s.fused), rank]
        for rank, s in enumerate(ranked)
    ]
    _write_csv(args.out, "rerank", cfg,
               ["pose_index", "e_vina", "confidence", "fused", "rank"], rows)
    print(f"ranked {len(rows)} poses; best pose_index={ranked[0].pose_index}")
    return 0


def _cmd_split(args, cfg: RunConfig) -> int:
    if args.folds < 1:  # before the manifest is read and the matrices are built
        raise ValidationError(f"need at least one fold, got {args.folds}")
    records = load_manifest(args.manifest)
    ids = [r.complex_id for r in records]
    comp_sim = compound_similarity_matrix([r.ligand for r in records])
    prot_sim = protein_similarity_matrix([r.protein for r in records])
    comp_clusters = hierarchical_cluster(ids, comp_sim, cfg.split.compound_threshold)
    prot_clusters = hierarchical_cluster(ids, prot_sim, cfg.split.protein_threshold)
    assignment = assign_folds(ids, SplitSetting(args.setting), comp_clusters,
                              prot_clusters, k=args.folds, seed=cfg.seed)
    report = leakage_report(assignment, ids, comp_sim, prot_sim,
                            cfg.split.compound_threshold, cfg.split.protein_threshold)
    doc = assignment.to_dict()
    doc["leakage"] = report.to_dict()
    _write_json(args.out, cfg, doc)
    print(f"wrote {args.folds}-fold {args.setting} split to {args.out}; "
          f"leakage passed={report.passed}")
    return 0


def _cmd_eval(args, cfg: RunConfig) -> int:
    columns = ["prediction", "label"] + ([args.group_by] if args.group_by else [])
    preds, labels, group_of, names = _read_scores(args.pred, columns)
    metric_names = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not metric_names:
        raise ValidationError(f"--metrics {args.metrics!r} names no metric")
    if args.group_by:
        if group_of is None:
            raise ValidationError(f"no column {args.group_by!r} in {args.pred}")
        doc = evaluate_grouped(preds, labels, metric_names, group_of, names)
    else:
        doc = evaluate(preds, labels, metric_names).to_dict()
    _write_json(args.out, cfg, doc)
    return 0


def _cmd_simulate_screen(args, cfg: RunConfig) -> int:
    if args.per_target:
        columns = ["target", "actives", "decoys"]
        table = _read_table(args.per_target, columns)
        missing = [c for c in columns if c not in table]
        if missing:
            raise ValidationError(f"no column {missing[0]!r} in {args.per_target}")
        first_row: dict[str, int] = {}
        for row_no, name in enumerate(table["target"], start=1):
            if name in first_row:
                raise ValidationError(f"{args.per_target}: row {row_no}: repeated target "
                                      f"{name!r} (first in row {first_row[name]})")
            first_row[name] = row_no
        actives = _number_column(table, "actives", args.per_target, int)
        decoys = _number_column(table, "decoys", args.per_target, int)
        for row_no, (name, a, d) in enumerate(zip(table["target"], actives, decoys), start=1):
            if a < 1 or d < 1:
                raise ValidationError(f"{args.per_target}: row {row_no}: target {name!r} needs "
                                      f"at least one active and one decoy, got {a} and {d}")
        per_target = {
            name: simulate_random_screen(a, d, trials=args.trials, seed=cfg.seed,
                                         ef_percent=args.ef, alpha=args.alpha)
            for name, a, d in zip(table["target"], actives, decoys)
        }
        ef_means = [r["ef_mean"] for r in per_target.values()]
        bed_means = [r["bedroc_mean"] for r in per_target.values()]
        doc = {
            "mode": "per_target", "targets": per_target,
            "ef_mean": float(np.mean(ef_means)), "ef_std": sample_std(ef_means),
            "bedroc_mean": float(np.mean(bed_means)), "bedroc_std": sample_std(bed_means),
        }
    else:
        for flag in ("actives", "decoys"):
            if getattr(args, flag) is None:
                raise ValidationError(f"--{flag} is required without --per-target")
        doc = simulate_random_screen(args.actives, args.decoys, trials=args.trials,
                                     seed=cfg.seed, ef_percent=args.ef, alpha=args.alpha)
        doc["mode"] = "pooled"
    _write_json(args.out, cfg, doc)
    return 0


_COMMANDS = {
    "fingerprint": _cmd_fingerprint,
    "build-graph": _cmd_build_graph,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "score-vina": _cmd_score_vina,
    "rerank": _cmd_rerank,
    "split": _cmd_split,
    "eval": _cmd_eval,
    "simulate-screen": _cmd_simulate_screen,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _resolve_config(args)
    if getattr(args, "print_config", False):
        print(json.dumps(cfg.to_dict(), sort_keys=True, indent=2))
        return 0
    return _COMMANDS[args.subcommand](args, cfg)


def main(argv=None) -> int:
    _tune_malloc()
    _pin_blas()
    try:
        return run(argv)
    except (Cpi3dError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
