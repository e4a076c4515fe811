"""Out-of-process-code tracer for the benchmark's traced run.

The tracer wraps public functions of the `cpi3d` modules from outside the
program. A wrapper only runs if it replaces the attribute the caller looks
the function up on, so every wrapped function is replaced on every `cpi3d`
module that holds it (the CLI imports most functions by name, `equinet`
imports `clebsch_gordan` and `spherical_harmonics_batch` by name, `forward`
finds its stages as module globals, `equinet` and `train` reach `autodiff`
through the `ad` module) and the CLI subcommands are traced through
`cli.run`.

Layer functions become spans (name, start, end, parent, run id) kept in
memory and written as JSONL at the end. A span's self time is its duration
minus the time covered by its child spans. `autodiff` primitives are far
too many for spans: they are counted, and `einsum` is also timed in place,
so a stage's self time includes the tensor algebra it runs.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

MB = 1024.0 * 1024.0

SPANS = {
    "equinet": ("forward", "edge_weight_net", "tensor_product_message",
                "aggregate_messages", "equivariant_batch_norm", "node_update",
                "gated_activation", "readout"),
    "train": ("grad", "prepare_training_inputs"),
    "geograph": ("build_pair_graph",),
    "so3": ("spherical_harmonics_batch", "clebsch_gordan"),
    "fingerprint": ("morgan_fingerprint",),
    "chemio": ("parse_sdf", "parse_pdb", "parse_pdb_atoms", "load_manifest"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "physscore": ("type_protein_atoms", "type_ligand_atoms", "pairwise_energy",
                  "count_rotatable_bonds"),
    "datasplit": ("compound_similarity_matrix", "protein_similarity_matrix",
                  "hierarchical_cluster", "assign_folds", "leakage_report"),
    "metrics": ("concordance_index", "average_ranks", "enrichment_factor", "bedroc"),
}
METHOD_SPANS = (("autodiff", "Tape", "gradient"), ("train", "AdamOptimizer", "step"))
AD_PRIMITIVES = ("add", "mul", "div", "power", "matmul", "exp", "log", "sqrt", "sin",
                 "cos", "tanh", "sigmoid", "silu", "tsum", "tmean", "reshape", "concat",
                 "take", "gather_rows", "segment_mean", "einsum")
# the functions that build dense n x n blocks; their allocation peak is recorded
ALLOC_PEAKS = {"geograph.build_pair_graph", "physscore.type_protein_atoms",
               "physscore.pairwise_energy", "datasplit.hierarchical_cluster",
               "metrics.concordance_index"}
# stages that forward calls once per (layer, edge kind), in EDGE_KIND_ORDER
KIND_STAGES = {"equinet.edge_weight_net", "equinet.tensor_product_message"}
CLI_COMMANDS = ("predict", "train", "rerank", "split", "eval")
EDGE_KINDS = ("cc", "pp", "pc")


def _metric(name, unit):
    return {"name": name, "unit": unit, "better": "lower"}


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric the traced run reports, in report order."""
    m = [_metric("equinet.forward.calls", "count"), _metric("equinet.forward.s", "s")]
    m += [_metric(f"equinet.edge_weight_net.{k}.self_s", "s") for k in EDGE_KINDS]
    m += [_metric(f"equinet.tensor_product_message.{k}.self_s", "s") for k in EDGE_KINDS]
    m += [_metric("equinet.tensor_product_message.flops", "flop"),
          _metric("equinet.tensor_product_message.bytes", "bytes")]
    m += [_metric(f"equinet.{s}.self_s", "s") for s in (
        "aggregate_messages", "equivariant_batch_norm", "node_update",
        "gated_activation", "readout")]
    m += [_metric("autodiff.ops", "count"), _metric("autodiff.tape.records", "count"),
          _metric("autodiff.Tape.gradient.s", "s"), _metric("autodiff.einsum.calls", "count"),
          _metric("autodiff.einsum.self_s", "s")]
    m += [_metric("train.grad.s", "s"), _metric("train.AdamOptimizer.step.s", "s"),
          _metric("train.prepare_training_inputs.s", "s")]
    m += [_metric("geograph.build_pair_graph.calls", "count"),
          _metric("geograph.build_pair_graph.s", "s"),
          _metric("geograph.build_pair_graph.peak_alloc_mb", "MB")]
    m += [_metric(f"geograph.edges.{k}", "count") for k in ("cc", "pc", "pp")]
    m += [_metric("so3.spherical_harmonics_batch.s", "s"), _metric("so3.clebsch_gordan.s", "s")]
    m += [_metric("fingerprint.morgan_fingerprint.calls", "count"),
          _metric("fingerprint.morgan_fingerprint.s", "s")]
    m += [_metric("chemio.parse_sdf.calls", "count"), _metric("chemio.parse_sdf.s", "s"),
          _metric("chemio.parse_pdb.calls", "count"), _metric("chemio.parse_pdb.s", "s"),
          _metric("chemio.parse_pdb_atoms.s", "s"),
          _metric("chemio.parse_pdb_atoms.atoms", "count"),
          _metric("chemio.load_manifest.s", "s")]
    m += [_metric("checkpoint.save_checkpoint.s", "s"),
          _metric("checkpoint.load_checkpoint.s", "s"), _metric("checkpoint.bytes", "bytes")]
    m += [_metric("physscore.type_protein_atoms.calls", "count"),
          _metric("physscore.type_protein_atoms.s", "s"),
          _metric("physscore.type_protein_atoms.peak_alloc_mb", "MB"),
          _metric("physscore.type_ligand_atoms.s", "s"),
          _metric("physscore.pairwise_energy.calls", "count"),
          _metric("physscore.pairwise_energy.s", "s"),
          _metric("physscore.pairwise_energy.peak_alloc_mb", "MB"),
          _metric("physscore.count_rotatable_bonds.s", "s")]
    m += [_metric(f"datasplit.{f}.s", "s") for f in (
        "compound_similarity_matrix", "protein_similarity_matrix", "hierarchical_cluster")]
    m += [_metric("datasplit.hierarchical_cluster.peak_alloc_mb", "MB"),
          _metric("datasplit.assign_folds.s", "s"), _metric("datasplit.leakage_report.s", "s")]
    m += [_metric("metrics.concordance_index.calls", "count"),
          _metric("metrics.concordance_index.s", "s"),
          _metric("metrics.concordance_index.peak_alloc_mb", "MB"),
          _metric("metrics.average_ranks.s", "s"), _metric("metrics.enrichment_factor.s", "s"),
          _metric("metrics.bedroc.s", "s")]
    m += [_metric(f"cli.{c}.self_s", "s") for c in CLI_COMMANDS]
    m += [_metric("trace.overhead_s", "s")]
    return m


# Counts that must repeat bit for bit between two traced runs.
EXACT_COUNTS = ("geograph.edges.cc", "geograph.edges.pc", "geograph.edges.pp",
                "autodiff.ops", "autodiff.tape.records",
                "equinet.tensor_product_message.flops", "equinet.tensor_product_message.bytes",
                "physscore.type_protein_atoms.calls")


def tensor_product_cost(h_src, paths, out_layout) -> tuple[int, int]:
    """Flops and bytes of one `tensor_product_message` call from its
    operand shapes. Per path and edge: the Clebsch-Gordan contraction
    (2 * m_in * d_out * d_in * d_sh), the gate scaling (m_in * d_out), the
    channel mix (2 * m_in * m_out * d_out) and the accumulation
    (m_out * d_out); bytes count every float64 operand element read and
    result element written by those four steps, ignoring the small weight
    and coupling tables."""
    n = h_src.n
    flops = nbytes = 0
    for li, ls, lo in paths:
        mi, mo = h_src.layout.mult(li), out_layout.mult(lo)
        di, ds, do = 2 * li + 1, 2 * ls + 1, 2 * lo + 1
        flops += n * (2 * mi * do * di * ds + mi * do + 2 * mi * mo * do + mo * do)
        elements = (mi * di + ds + mi * do) + (mi * do + 1 + mi * do) \
            + (mi * do + mo * do) + (2 * mo * do + mo * do)
        nbytes += 8 * n * elements
    return flops, nbytes


class Tracer:
    """Installs wrappers on the loaded `cpi3d` modules and collects spans
    and counters per run id."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, run]
        self.covered: list[float] = []       # child time per span
        self.stack: list[int] = []
        self.run = 0
        self.alloc_peaks = False   # tracemalloc slows the calls it watches
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._patches: list[tuple[object, str, object]] = []
        self._stage_calls: dict[str, int] = defaultdict(int)
        self._kind_order = None

    # ---- installation -------------------------------------------------
    def install(self):
        import cpi3d.cli  # noqa: F401  (loads every module the CLI uses)
        from cpi3d.equinet import EDGE_KIND_ORDER

        self._kind_order = tuple(k.value for k in EDGE_KIND_ORDER)
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("cpi3d.") and mod is not None}
        for modname, funcs in SPANS.items():
            for fname in funcs:
                fn = getattr(mods[modname], fname)
                self._replace_everywhere(fn, self._span_wrapper(f"{modname}.{fname}", fn))
        for modname, cls_name, meth in METHOD_SPANS:
            cls = getattr(mods[modname], cls_name)
            fn = getattr(cls, meth)
            self._patch(cls, meth, self._span_wrapper(f"{modname}.{cls_name}.{meth}", fn))
        for prim in AD_PRIMITIVES:
            fn = getattr(mods["autodiff"], prim)
            self._replace_everywhere(fn, self._count_wrapper(prim, fn))
        cli = mods["cli"]
        self._patch(cli, "run", self._cli_wrapper(cli.run))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, fn, wrapper):
        for name, mod in list(sys.modules.items()):
            if not name.startswith("cpi3d") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)

    # ---- wrappers -----------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.run])
        self.covered.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float):
        self.stack.pop()
        span = self.spans[idx]
        span[1], span[2] = t0, t1
        if span[3] >= 0:
            self.covered[span[3]] += t1 - t0

    def _span_wrapper(self, name: str, fn):
        tracer = self
        alloc = name in ALLOC_PEAKS
        by_kind = name in KIND_STAGES
        signature = inspect.signature(fn) if name == "equinet.tensor_product_message" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if name == "equinet.forward":
                tracer._stage_calls.clear()
            elif by_kind:
                i = tracer._stage_calls[name]
                tracer._stage_calls[name] = i + 1
                label = f"{name}.{tracer._kind_order[i % len(tracer._kind_order)]}"
            idx = tracer._open(label)
            measure = alloc and tracer.alloc_peaks and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if measure:
                    peak = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
                    c = tracer.counters[tracer.run]
                    c[f"{name}.peak_alloc_mb"] = max(c[f"{name}.peak_alloc_mb"], peak)
                tracer._close(idx, t0, t1)
            tracer._account(name, args, kwargs, result, signature)
            return result

        return wrapper

    def _account(self, name, args, kwargs, result, signature):
        c = self.counters[self.run]
        if name == "geograph.build_pair_graph":
            for kind, es in result.edges.items():
                c[f"geograph.edges.{kind.value}"] += len(es)
        elif name == "equinet.tensor_product_message":
            bound = signature.bind(*args, **kwargs).arguments
            flops, nbytes = tensor_product_cost(bound["h_src"], bound["paths"],
                                                bound["out_layout"])
            c["equinet.tensor_product_message.flops"] += flops
            c["equinet.tensor_product_message.bytes"] += nbytes
        elif name == "chemio.parse_pdb_atoms":
            c["chemio.parse_pdb_atoms.atoms"] += len(result)
        elif name in ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint"):
            path = args[0] if args else kwargs["path"]
            c["checkpoint.bytes"] += os.path.getsize(path)
        elif name == "autodiff.Tape.gradient":
            c["autodiff.tape.records"] += len(args[0])

    def _count_wrapper(self, prim: str, fn):
        tracer = self
        if prim == "einsum":
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    c = tracer.counters[tracer.run]
                    c["autodiff.einsum.self_s"] += perf_counter() - t0
                    c["autodiff.einsum.calls"] += 1
                    c["autodiff.ops"] += 1
            return timed

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counters[tracer.run]["autodiff.ops"] += 1
            return fn(*args, **kwargs)

        return counted

    def _cli_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(argv=None):
            idx = tracer._open(f"cli.{argv[0] if argv else 'none'}")
            t0 = perf_counter()
            try:
                return fn(argv)
            finally:
                tracer._close(idx, t0, perf_counter())

        return wrapper

    # ---- results ------------------------------------------------------
    def run_metrics(self, run: int) -> dict[str, float]:
        """Per-layer values of one run id, every metric present."""
        values: dict[str, float] = defaultdict(float, self.counters.get(run, {}))
        for idx, (name, start, end, _parent, span_run) in enumerate(self.spans):
            if span_run != run:
                continue
            dur = end - start
            values[f"{name}.s"] += dur
            values[f"{name}.self_s"] += dur - self.covered[idx]
            values[f"{name}.calls"] += 1
        return {m["name"]: float(values[m["name"]]) for m in per_layer_metrics()
                if m["name"] != "trace.overhead_s"}

    def write_jsonl(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")
