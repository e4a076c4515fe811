"""Command-line interface for the full pipeline.

Subcommands: fingerprint, build-graph, train, predict, score-vina, rerank,
split, eval, simulate-screen. Configuration resolves defaults <- config
file (JSON) <- flags; every artifact embeds the resolved-config hash and
seed so reruns are attributable. Exit codes: 0 success, 1 validation or
usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .chemio import load_manifest, parse_pdb, parse_pdb_atoms, parse_sdf
from .checkpoint import load_checkpoint, save_checkpoint
from .datasplit import (
    DEFAULT_COMPOUND_THRESHOLD,
    DEFAULT_PROTEIN_THRESHOLD,
    SplitSetting,
    assign_folds,
    compound_similarity_matrix,
    hierarchical_cluster,
    leakage_report,
    protein_similarity_matrix,
)
from .equinet import Model, ModelConfig, forward, init_params
from .errors import Cpi3dError, ValidationError
from .fingerprint import morgan_fingerprint
from .geograph import CutoffConfig, build_pair_graph, graph_to_json
from .metrics import evaluate, evaluate_grouped, simulate_random_screen
from .physscore import VinaWeights, rerank_poses, vina_score
from .train import TrainConfig, train


@dataclass
class RunConfig:
    """Fully resolved configuration for one invocation."""
    cutoffs: CutoffConfig = field(default_factory=CutoffConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    vina: VinaWeights = field(default_factory=VinaWeights)
    fusion_lambda: float = 1.0
    fusion_alpha: float = 1.0
    compound_threshold: float = DEFAULT_COMPOUND_THRESHOLD
    protein_threshold: float = DEFAULT_PROTEIN_THRESHOLD
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "cutoffs": self.cutoffs.to_dict(),
            "model": self.model.to_dict(),
            "train": self.train.to_dict(),
            "vina": self.vina.to_dict(),
            "fusion": {"lambda": self.fusion_lambda, "alpha": self.fusion_alpha},
            "split": {"compound_threshold": self.compound_threshold,
                      "protein_threshold": self.protein_threshold},
            "seed": self.seed,
        }

    def hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _check_config_doc(doc) -> None:
    """Reject any section or key that `RunConfig.to_dict` does not write."""
    schema = RunConfig().to_dict()
    if not isinstance(doc, dict):
        raise ValidationError(f"config must be a JSON object, got {type(doc).__name__}")
    for section, value in doc.items():
        if section not in schema:
            raise ValidationError(f"config: unknown section {section!r}, "
                                  f"allowed {sorted(schema)}")
        fields = schema[section]
        if not isinstance(fields, dict):
            continue
        if not isinstance(value, dict):
            raise ValidationError(f"config section {section!r} must be a JSON object")
        unknown = sorted(set(value) - set(fields))
        if unknown:
            raise ValidationError(f"config section {section!r}: unknown keys {unknown}, "
                                  f"allowed {sorted(fields)}")


def _merge_config(args) -> RunConfig:
    doc: dict = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
    _check_config_doc(doc)
    cutoffs = CutoffConfig(**doc.get("cutoffs", {}))
    model = ModelConfig.from_dict({**ModelConfig().to_dict(), **doc.get("model", {})})
    train_doc = {**TrainConfig().to_dict(), **doc.get("train", {})}
    fusion = doc.get("fusion", {})
    split = doc.get("split", {})
    cfg = RunConfig(
        cutoffs=cutoffs, model=model,
        vina=VinaWeights(**doc.get("vina", {})),
        fusion_lambda=fusion.get("lambda", 1.0),
        fusion_alpha=fusion.get("alpha", 1.0),
        compound_threshold=split.get("compound_threshold", DEFAULT_COMPOUND_THRESHOLD),
        protein_threshold=split.get("protein_threshold", DEFAULT_PROTEIN_THRESHOLD),
        seed=doc.get("seed", 0),
        train=TrainConfig(**train_doc),
    )
    # flags override the file
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
        train_doc["seed"] = args.seed
    if getattr(args, "steps", None) is not None:
        train_doc["steps"] = args.steps
    if getattr(args, "lr", None) is not None:
        train_doc["learning_rate"] = args.lr
    if getattr(args, "batch_size", None) is not None:
        train_doc["batch_size"] = args.batch_size
    if getattr(args, "optimizer", None) is not None:
        train_doc["optimizer"] = args.optimizer
    cfg.train = TrainConfig(**train_doc)
    if getattr(args, "fusion_lambda", None) is not None:
        cfg.fusion_lambda = args.fusion_lambda
    if getattr(args, "fusion_alpha", None) is not None:
        cfg.fusion_alpha = args.fusion_alpha
    if getattr(args, "compound_threshold", None) is not None:
        cfg.compound_threshold = args.compound_threshold
    if getattr(args, "protein_threshold", None) is not None:
        cfg.protein_threshold = args.protein_threshold
    return cfg


def _provenance_line(subcommand: str, cfg: RunConfig) -> str:
    return f"# cpi3d {subcommand} config={cfg.hash()} seed={cfg.seed}"


def _write_csv(path: str, subcommand: str, cfg: RunConfig, header: list[str],
               rows: list[list]):
    buf = io.StringIO()
    buf.write(_provenance_line(subcommand, cfg) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def _write_json(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read_prediction_csv(path: str):
    rows = []
    with open(path, encoding="utf-8") as fh:
        lines = [l for l in fh if not l.startswith("#")]
    reader = csv.DictReader(lines)
    for row in reader:
        rows.append(row)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return rows


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
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
    p.add_argument("--threads", type=int, default=1)

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
    p.add_argument("--actives", type=int, required=True)
    p.add_argument("--decoys", type=int, required=True)
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
    rows = [[m.id, morgan_fingerprint(m, radius=args.radius, nbits=args.nbits).to_hex()]
            for m in mols]
    if args.out:
        _write_csv(args.out, "fingerprint", cfg, ["molecule_id", "hex_bits"], rows)
    else:
        for mol_id, hexbits in rows:
            print(f"{mol_id},{hexbits}")
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
        "warnings": list(graph.warnings),
    }
    print(json.dumps(summary, sort_keys=True))
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write(graph_to_json(graph))
    return 0


def _cmd_train(args, cfg: RunConfig) -> int:
    records = load_manifest(args.manifest)
    model, losses = train(records, cfg.train, cfg.model, cfg.cutoffs)
    save_checkpoint(args.out, model.params, config={
        "model": cfg.model.to_dict(),
        "cutoffs": cfg.cutoffs.to_dict(),
        "train": cfg.train.to_dict(),
        "config_hash": cfg.hash(),
        "seed": cfg.train.seed,
    })
    if args.loss_out:
        _write_csv(args.loss_out, "train", cfg, ["step", "loss"],
                   [[i, repr(v)] for i, v in enumerate(losses)])
    print(f"trained {len(records)} records for {len(losses)} steps; "
          f"final loss {losses[-1]:.6g}; checkpoint {args.out}")
    return 0


def load_model(checkpoint_path: str) -> Model:
    state, config, _ = load_checkpoint(checkpoint_path)
    model_cfg = ModelConfig.from_dict(config["model"])
    cutoffs = CutoffConfig.from_dict(config["cutoffs"])
    params = init_params(model_cfg, cutoffs, seed=0)
    params.load_state(state)
    return Model(cfg=model_cfg, cutoffs=cutoffs, params=params)


def _cmd_predict(args, cfg: RunConfig) -> int:
    records = load_manifest(args.manifest)
    model = load_model(args.checkpoint)

    def predict_one(rec):
        graph = build_pair_graph(rec.poses[0], rec.protein, model.cutoffs)
        fp = morgan_fingerprint(rec.ligand, nbits=model.cfg.fingerprint_width)
        return float(forward(graph, fp, model.params, model.cfg, training=False).data)

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            preds = list(pool.map(predict_one, records))
    else:
        preds = [predict_one(r) for r in records]
    rows = [[rec.complex_id, repr(pred)] for rec, pred in zip(records, preds)]
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
    rows = [[i, repr(vina_score(p, protein_atoms, cfg.vina))]
            for i, p in enumerate(poses)]
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
        with open(args.confidences, encoding="utf-8") as fh:
            confidences = [float(line) for line in fh if line.strip()]
    ranked = rerank_poses(poses, protein_atoms, cfg.vina, confidences=confidences,
                          lam=cfg.fusion_lambda, alpha=cfg.fusion_alpha)
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
    records = load_manifest(args.manifest)
    ids = [r.complex_id for r in records]
    comp_sim = compound_similarity_matrix([r.ligand for r in records])
    prot_sim = protein_similarity_matrix([r.protein for r in records])
    comp_clusters = hierarchical_cluster(ids, comp_sim, cfg.compound_threshold)
    prot_clusters = hierarchical_cluster(ids, prot_sim, cfg.protein_threshold)
    assignment = assign_folds(ids, SplitSetting(args.setting), comp_clusters,
                              prot_clusters, k=args.folds, seed=cfg.seed)
    report = leakage_report(assignment, ids, comp_sim, prot_sim,
                            cfg.compound_threshold, cfg.protein_threshold)
    doc = assignment.to_dict()
    doc["leakage"] = report.to_dict()
    doc["provenance"] = {"config_hash": cfg.hash(), "seed": cfg.seed}
    _write_json(args.out, doc)
    print(f"wrote {args.folds}-fold {args.setting} split to {args.out}; "
          f"leakage passed={report.passed}")
    return 0


def _cmd_eval(args, cfg: RunConfig) -> int:
    rows = _read_prediction_csv(args.pred)
    if "prediction" not in rows[0] or "label" not in rows[0]:
        raise ValidationError("prediction CSV needs 'prediction' and 'label' columns")
    preds = [float(r["prediction"]) for r in rows]
    labels = [float(r["label"]) for r in rows]
    metric_names = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if args.group_by:
        if args.group_by not in rows[0]:
            raise ValidationError(f"no column {args.group_by!r} in {args.pred}")
        groups = [r[args.group_by] for r in rows]
        doc = evaluate_grouped(preds, labels, metric_names, groups)
    else:
        doc = evaluate(preds, labels, metric_names).to_dict()
    doc["provenance"] = {"config_hash": cfg.hash(), "seed": cfg.seed}
    if args.out:
        _write_json(args.out, doc)
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _cmd_simulate_screen(args, cfg: RunConfig) -> int:
    if args.per_target:
        targets = []
        with open(args.per_target, encoding="utf-8") as fh:
            for row in csv.DictReader(l for l in fh if not l.startswith("#")):
                targets.append((row["target"], int(row["actives"]), int(row["decoys"])))
        per_target = {
            name: simulate_random_screen(a, d, trials=args.trials, seed=cfg.seed,
                                         ef_percent=args.ef, alpha=args.alpha)
            for name, a, d in targets
        }
        ef_means = np.array([r["ef_mean"] for r in per_target.values()])
        bed_means = np.array([r["bedroc_mean"] for r in per_target.values()])
        doc = {
            "mode": "per_target", "targets": per_target,
            "ef_mean": float(ef_means.mean()),
            "ef_std": float(ef_means.std(ddof=1)) if ef_means.size > 1 else 0.0,
            "bedroc_mean": float(bed_means.mean()),
            "bedroc_std": float(bed_means.std(ddof=1)) if bed_means.size > 1 else 0.0,
        }
    else:
        doc = simulate_random_screen(args.actives, args.decoys, trials=args.trials,
                                     seed=cfg.seed, ef_percent=args.ef, alpha=args.alpha)
        doc["mode"] = "pooled"
    doc["provenance"] = {"config_hash": cfg.hash(), "seed": cfg.seed}
    if args.out:
        _write_json(args.out, doc)
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))
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
    cfg = _merge_config(args)
    if getattr(args, "print_config", False):
        print(json.dumps(cfg.to_dict(), sort_keys=True, indent=2))
        return 0
    return _COMMANDS[args.subcommand](args, cfg)


def main(argv=None) -> int:
    try:
        return run(argv)
    except (Cpi3dError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
