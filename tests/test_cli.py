import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cpi3d
from cpi3d import cli, geograph
from cpi3d.checkpoint import save_checkpoint
from cpi3d.chemio import ComplexRecord, load_manifest, write_sdf
from cpi3d.cli import main
from cpi3d.config import build_config
from cpi3d.equinet import ModelConfig, forward, init_params
from cpi3d.fingerprint import morgan_fingerprint
from cpi3d.geograph import CutoffConfig, build_graph
from cpi3d.synthetic import (
    clustered_records,
    protein_to_pdb,
    random_complexes,
    random_ligand,
    random_protein,
    write_manifest,
)

TINY_MODEL = {
    "model": {"layers": 1, "layout": [4, 2, 1], "lmax": 2, "edge_mlp_hidden": 8,
              "readout_hidden": 6, "fingerprint_width": 32, "fingerprint_embed": 4},
    "cutoffs": {"rbf_k": 6},
    "train": {"learning_rate": 0.001, "steps": 10, "batch_size": 4, "seed": 0,
              "optimizer": "adam", "adam_beta1": 0.9, "adam_beta2": 0.999,
              "adam_eps": 1e-8},
}


@pytest.fixture
def toy_dir(tmp_path):
    records = random_complexes(4, seed=31, with_label=True, n_atoms=5, n_residues=5)
    manifest = write_manifest(records, str(tmp_path / "data"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_MODEL))
    return tmp_path, manifest, str(config)


def test_fingerprint_command(tmp_path, capsys):
    rng = np.random.default_rng(0)
    sdf = tmp_path / "mols.sdf"
    sdf.write_text(write_sdf([random_ligand(rng, mol_id="m0"),
                              random_ligand(rng, mol_id="m1")]))
    assert main(["fingerprint", "--sdf", str(sdf)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2
    assert out[0].startswith("m0,")
    assert len(out[0].split(",")[1]) == 2048 // 4   # hex digits


def test_build_graph_command(tmp_path, capsys):
    rng = np.random.default_rng(1)
    lig = random_ligand(rng, n_atoms=5)
    prot = random_protein(rng, n_residues=5)
    (tmp_path / "l.sdf").write_text(write_sdf(lig))
    (tmp_path / "p.pdb").write_text(protein_to_pdb(prot))
    dump = tmp_path / "graph.json"
    code = main(["build-graph", "--ligand", str(tmp_path / "l.sdf"),
                 "--protein", str(tmp_path / "p.pdb"), "--dump", str(dump)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_ligand"] == 5 and summary["n_residue"] == 5
    doc = json.loads(dump.read_text())
    assert len(doc["nodes"]) == 10


def test_train_then_predict_deterministic(toy_dir, capsys):
    tmp_path, manifest, config = toy_dir
    ckpt = tmp_path / "model.eqcp"
    code = main(["train", "--manifest", manifest, "--config", config,
                 "--out", str(ckpt)])
    assert code == 0
    assert ckpt.exists()

    preds_a = tmp_path / "preds_a.csv"
    preds_b = tmp_path / "preds_b.csv"
    for out in (preds_a, preds_b):
        assert main(["predict", "--manifest", manifest, "--config", config,
                     "--checkpoint", str(ckpt), "--out", str(out)]) == 0
    assert preds_a.read_bytes() == preds_b.read_bytes()
    lines = preds_a.read_text().splitlines()
    assert lines[0].startswith("# cpi3d predict config=")
    assert lines[1] == "complex_id,prediction"
    assert len(lines) == 2 + 4


def test_score_vina_and_rerank(tmp_path, capsys):
    rng = np.random.default_rng(5)
    poses = [random_ligand(rng, n_atoms=6, mol_id=f"pose{i}") for i in range(5)]
    prot = random_protein(rng, n_residues=6)
    (tmp_path / "poses.sdf").write_text(write_sdf(poses))
    (tmp_path / "rec.pdb").write_text(protein_to_pdb(prot))

    assert main(["score-vina", "--poses", str(tmp_path / "poses.sdf"),
                 "--protein", str(tmp_path / "rec.pdb")]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5

    ranked = tmp_path / "ranked.csv"
    conf = tmp_path / "conf.txt"
    conf.write_text("\n".join(str(0.1 * i) for i in range(5)))
    assert main(["rerank", "--poses", str(tmp_path / "poses.sdf"),
                 "--protein", str(tmp_path / "rec.pdb"),
                 "--confidences", str(conf), "--lambda", "1.0", "--alpha", "1.0",
                 "--out", str(ranked)]) == 0
    lines = [l for l in ranked.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "pose_index,e_vina,confidence,fused,rank"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 5
    assert [int(r[4]) for r in rows] == [0, 1, 2, 3, 4]
    fused = [float(r[3]) for r in rows]
    assert fused == sorted(fused, reverse=True)


@pytest.mark.parametrize("body,needle", [
    ("0.1\nnan\n0.3\n0.4\n0.5\n", "line 2: confidence 'nan' is not finite"),
    ("0.1\n\n0.3\nabc\n0.4\n0.5\n", "line 4: confidence 'abc' is not a number"),
    ("7.5\n0.2\n0.3\n0.4\n0.5\n", "line 1: confidence '7.5' must lie in [0, 1]"),
    ("0.1\n-3\n0.3\n0.4\n0.5\n", "line 2: confidence '-3' must lie in [0, 1]"),
], ids=["nan", "not-a-number", "above-one", "negative"])
def test_rerank_bad_confidence_exits_one(tmp_path, capsys, body, needle):
    rng = np.random.default_rng(5)
    poses = [random_ligand(rng, n_atoms=6, mol_id=f"pose{i}") for i in range(5)]
    (tmp_path / "poses.sdf").write_text(write_sdf(poses))
    (tmp_path / "rec.pdb").write_text(protein_to_pdb(random_protein(rng, n_residues=6)))
    (tmp_path / "conf.txt").write_text(body)
    assert main(["rerank", "--poses", str(tmp_path / "poses.sdf"),
                 "--protein", str(tmp_path / "rec.pdb"),
                 "--confidences", str(tmp_path / "conf.txt"),
                 "--out", str(tmp_path / "ranked.csv")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err
    assert not (tmp_path / "ranked.csv").exists()


@pytest.mark.parametrize("row,needle", [
    ("toy0", "row 1: no ligand_sdf value"),
    ("toy0,toy0.sdf", "row 1: no protein_pdb value"),
    ("toy0,toy0.sdf,toy0.pdb,abc,,", "row 'toy0': ec50_nm 'abc' is not a number"),
    ("toy0,toy0.sdf,toy0.pdb,inf,,", "row 'toy0': ec50_nm 'inf' is not finite"),
    ("toy0,toy0.sdf,toy0.pdb,0,,", "toy0: ec50 must be positive"),
    ("toy0,toy0.sdf,toy0.pdb,,nan,", "row 'toy0': confidence 'nan' is not finite"),
    ("toy0,toy0.sdf,toy0.pdb,,high,", "row 'toy0': confidence 'high' is not a number"),
], ids=["id-only", "no-protein", "ec50-abc", "ec50-inf", "ec50-zero", "confidence-nan",
        "confidence-text"])
def test_bad_manifest_row_exits_one(tmp_path, capsys, row, needle):
    manifest = write_manifest(random_complexes(1, seed=3), str(tmp_path / "data"))
    header = open(manifest).read().splitlines()[0]
    open(manifest, "w").write(f"{header}\n{row}\n")
    assert main(["split", "--manifest", manifest, "--setting", "novel_compound",
                 "--out", str(tmp_path / "splits.json")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


def test_split_command(tmp_path):
    records = clustered_records(n_families=5, family_size=3, seed=13)
    manifest = write_manifest(records, str(tmp_path / "lib"))
    out = tmp_path / "splits.json"
    assert main(["split", "--manifest", manifest, "--setting", "novel_compound",
                 "--folds", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc["folds"]) == {"0", "1", "2", "3", "4"}
    assert doc["leakage"]["passed"] is True
    assert sum(doc["fold_sizes"]) == len(records)
    assert "config_hash" in doc["provenance"]


@pytest.mark.parametrize("folds", ["0", "-2"])
def test_split_needs_a_fold(tmp_path, capsys, folds):
    manifest = write_manifest(clustered_records(n_families=2, family_size=2, seed=13),
                              str(tmp_path / "lib"))
    assert main(["split", "--manifest", manifest, "--setting", "novel_compound",
                 "--folds", folds, "--out", str(tmp_path / "splits.json")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: need at least one fold, got {folds}\n"
    assert not (tmp_path / "splits.json").exists()


def test_eval_command(tmp_path, capsys):
    pred = tmp_path / "preds.csv"
    rows = ["prediction,label,target"]
    rng = np.random.default_rng(3)
    for i in range(30):
        label = rng.normal()
        rows.append(f"{label + 0.1 * rng.normal()},{label},t{i % 2}")
    pred.write_text("\n".join(rows))
    assert main(["eval", "--pred", str(pred),
                 "--metrics", "ci,spearman,pearson,mse"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["pearson"] > 0.9
    assert main(["eval", "--pred", str(pred), "--metrics", "pearson",
                 "--group-by", "target"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["groups"]) == {"t0", "t1"}


@pytest.mark.parametrize("body,needle", [
    ("0.5,1,A\n0.3\n0.1,0,A\n", "row 2: no label value"),
    ("0.5,1,A\n0.3,0,A\n0.1,nan,A\n", "row 3: label 'nan' is not finite"),
], ids=["short-row", "nan-label"])
def test_eval_bad_row_exits_one(tmp_path, capsys, body, needle):
    pred = tmp_path / "preds.csv"
    pred.write_text("prediction,label,target\n" + body)
    assert main(["eval", "--pred", str(pred), "--metrics", "ef1,bedroc",
                 "--group-by", "target"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


@pytest.mark.parametrize("metric", ["efabc", "bedroc_x", "auc"])
def test_eval_unknown_metric_exits_one(tmp_path, capsys, metric):
    pred = tmp_path / "preds.csv"
    pred.write_text("prediction,label\n0.5,1\n0.3,0\n")
    assert main(["eval", "--pred", str(pred), "--metrics", f"ci,{metric}"]) == 1
    assert capsys.readouterr().err == f"error: unknown metric {metric!r}\n"


def test_simulate_screen_command(tmp_path):
    out = tmp_path / "baseline.json"
    assert main(["simulate-screen", "--actives", "50", "--decoys", "450",
                 "--trials", "20", "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "pooled"
    assert 0.3 < doc["ef_mean"] < 2.5


def test_simulate_screen_per_target(tmp_path):
    comp = tmp_path / "comp.csv"
    comp.write_text("target,actives,decoys\nt1,20,180\nt2,30,270\n")
    out = tmp_path / "baseline.json"
    assert main(["simulate-screen", "--actives", "0", "--decoys", "0",
                 "--trials", "10", "--per-target", str(comp),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "per_target"
    assert set(doc["targets"]) == {"t1", "t2"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags,code,needle", [
    (["--alpha", "nan"], 1, "alpha must be positive and finite"),
    (["--alpha", "inf"], 1, "alpha must be positive and finite"),
    (["--trials", "0"], 1, "need at least one trial"),
    (["--trials", "1"], 0, None),
], ids=["alpha-nan", "alpha-inf", "zero-trials", "one-trial"])
def test_simulate_screen_degenerate_flags(tmp_path, capsys, flags, code, needle):
    out = tmp_path / "baseline.json"
    assert main(["simulate-screen", "--actives", "5", "--decoys", "45", "--seed", "2",
                 "--out", str(out), *flags]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1 and needle in err
        assert not out.exists()
    else:
        text = out.read_text()
        assert "NaN" not in text and "Infinity" not in text
        doc = json.loads(text)
        assert doc["trials"] == 1 and doc["ef_std"] == 0.0 and doc["bedroc_std"] == 0.0


@pytest.mark.parametrize("body,needle", [
    ("target,actives\nt1,20\n", "no column 'decoys'"),
    ("target,actives,decoys\nt1,20,180\nt2,30,2.5e2\n", "row 2: decoys '2.5e2' is not an integer"),
    ("target,actives,decoys\nt1,20,180\nt2,5,50\nt1,30,270\n",
     "row 3: repeated target 't1' (first in row 1)"),
], ids=["no-decoys-column", "non-integer-count", "repeated-target"])
def test_simulate_screen_bad_per_target_exits_one(tmp_path, capsys, body, needle):
    comp = tmp_path / "comp.csv"
    comp.write_text(body)
    assert main(["simulate-screen", "--actives", "0", "--decoys", "0",
                 "--per-target", str(comp)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


def test_train_predict_wraps_overfit_run(tmp_path):
    """End-to-end CLI version of the overfit capacity run: labels from a
    frozen random model, written to a manifest as EC50 values, fit back
    through `train` and scored with `predict`."""
    from cpi3d.datasplit import denormalize_label
    from cpi3d.equinet import IrrepLayout, ModelConfig, forward, init_params
    from cpi3d.fingerprint import morgan_fingerprint
    from cpi3d.geograph import CutoffConfig, build_pair_graph

    cfg = ModelConfig(layers=2, layout=IrrepLayout((8, 4, 2)), edge_mlp_hidden=16,
                      readout_hidden=32, fingerprint_width=128, fingerprint_embed=16)
    cut = CutoffConfig(rbf_k=8)
    records = random_complexes(8, seed=42, n_atoms=5, n_residues=5)
    frozen = init_params(cfg, cut, seed=123)
    raw = np.array([
        float(forward(build_pair_graph(r.ligand, r.protein, cut),
                      morgan_fingerprint(r.ligand, nbits=cfg.fingerprint_width),
                      frozen, cfg).data)
        for r in records
    ])
    normed = (raw - raw.mean()) / raw.std()
    # express the standardized labels as (positive) EC50 values for the manifest
    for rec, p in zip(records, normed):
        rec.label_ec50_nm = denormalize_label(p)
    manifest = write_manifest(records, str(tmp_path / "overfit"))

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": cfg.to_dict(), "cutoffs": cut.to_dict(),
        "train": {"learning_rate": 1e-3, "steps": 150, "batch_size": 8, "seed": 0},
    }))
    ckpt = tmp_path / "overfit.eqcp"
    losses = tmp_path / "losses.csv"
    assert main(["train", "--manifest", manifest, "--config", str(config),
                 "--out", str(ckpt), "--loss-out", str(losses)]) == 0
    rows = [l for l in losses.read_text().splitlines() if not l.startswith("#")]
    final_loss = float(rows[-1].split(",")[1])
    assert final_loss < 0.01

    preds = tmp_path / "preds.csv"
    assert main(["predict", "--manifest", manifest, "--config", str(config),
                 "--checkpoint", str(ckpt), "--out", str(preds)]) == 0
    lines = [l for l in preds.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 1 + 8
    got = np.array([float(l.split(",")[1]) for l in lines[1:]])
    want = normed
    # inference swaps per-graph batch statistics for running averages, so a
    # small train/eval gap is expected; the fit must still be tight relative
    # to the unit label variance
    assert float(np.mean((got - want) ** 2)) < 0.5
    assert np.corrcoef(got, want)[0, 1] > 0.9


def test_unknown_flag_exits_one(capsys):
    assert main(["fingerprint", "--nope"]) == 1


def test_missing_input_exits_two(tmp_path):
    assert main(["fingerprint", "--sdf", str(tmp_path / "absent.sdf")]) == 2


def test_print_config(tmp_path, capsys):
    assert main(["simulate-screen", "--actives", "1", "--decoys", "1",
                 "--print-config"]) == 0
    printed = capsys.readouterr().out
    doc = json.loads(printed)
    assert "cutoffs" in doc and "model" in doc and "vina" in doc
    # the printed document loads back as a config and resolves to itself
    config = tmp_path / "config.json"
    config.write_text(printed)
    assert main(["simulate-screen", "--actives", "1", "--decoys", "1",
                 "--config", str(config), "--print-config"]) == 0
    assert capsys.readouterr().out == printed


@pytest.mark.parametrize("doc,needle", [
    ({"cutoffs": {"bogus": 1}}, "'bogus'"),
    ({"modle": {"layers": 1}}, "'modle'"),
    ({"cutoffs": 5}, "'cutoffs'"),
    ([{"seed": 1}], "JSON object"),
    ({"model": {"layers": "three"}}, "'model.layers': must be an integer"),
    ({"cutoffs": {"cc": "a"}}, "'cutoffs.cc': must be a number"),
    ({"model": {"layout": 5}}, "'model.layout': must be a list of integers"),
    ({"seed": "x"}, "'seed': must be an integer"),
    ({"train": {"steps": 2.5}}, "'train.steps': must be an integer"),
    ({"vina": {"rot": True}}, "'vina.rot': must be a number, got true"),
    ({"cutoffs": {"cc": None}}, "'cutoffs.cc': must be a number, got null"),
    ({"cutoffs": {"pp": math.nan}}, "NaN is not a JSON number"),
    ({"train": {"learning_rate": math.inf}}, "Infinity is not a JSON number"),
])
def test_unknown_config_entries_exit_one(tmp_path, capsys, doc, needle):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["simulate-screen", "--actives", "1", "--decoys", "1",
                 "--config", str(config), "--print-config"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


@pytest.mark.parametrize("argv,needle", [
    (["train", "--manifest", "m.csv", "--out", "o", "--lr=nan"],
     "'train.learning_rate': must be a number, got NaN"),
    (["rerank", "--poses", "p.sdf", "--protein", "r.pdb", "--out", "o", "--lambda=inf"],
     "'fusion.lambda': must be a number, got Infinity"),
    (["rerank", "--poses", "p.sdf", "--protein", "r.pdb", "--out", "o", "--alpha=-inf"],
     "'fusion.alpha': must be a number, got -Infinity"),
    (["split", "--manifest", "m.csv", "--setting", "novel_pair", "--out", "o",
      "--compound-threshold=nan"], "'split.compound_threshold': must be a number, got NaN"),
    (["split", "--manifest", "m.csv", "--setting", "novel_pair", "--out", "o",
      "--protein-threshold=inf"], "'split.protein_threshold': must be a number, got Infinity"),
], ids=["lr", "lambda", "alpha", "compound-threshold", "protein-threshold"])
def test_non_finite_float_flag_exits_one(capsys, argv, needle):
    assert main(argv + ["--print-config"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


@pytest.mark.parametrize("batch_size", ["0", "-3"])
def test_train_rejects_batch_size_below_one(toy_dir, capsys, batch_size):
    tmp_path, manifest, config = toy_dir
    assert main(["train", "--manifest", manifest, "--config", config,
                 "--batch-size", batch_size, "--out", str(tmp_path / "m.eqcp")]) == 1
    err = capsys.readouterr().err
    assert err == "error: batch_size must be at least 1\n"


TINY_HEADER = {"model": TINY_MODEL["model"], "cutoffs": TINY_MODEL["cutoffs"]}


def test_predict_scores_edge_budget_packs(tmp_path, monkeypatch):
    """Small records share packs, two records on one receptor over the
    budget are packs of one on the receptor cache, and every prediction
    equals a forward of its record alone."""
    rng = np.random.default_rng(8)
    small = random_complexes(5, seed=9, n_atoms=5, n_residues=5)
    receptor = random_protein(rng, n_residues=40)
    shared = [ComplexRecord(complex_id=f"big{i}", ligand=lig, protein=receptor)
              for i, lig in enumerate(random_ligand(rng, n_atoms=n) for n in (6, 8))]
    records = small[:2] + shared + small[2:]
    manifest = write_manifest(records, str(tmp_path / "data"))
    records = load_manifest(manifest)     # coordinates as the files round them
    cfg = build_config(ModelConfig, TINY_MODEL["model"])
    cut = build_config(CutoffConfig, TINY_MODEL["cutoffs"])
    params = init_params(cfg, cut, seed=4)
    ckpt = tmp_path / "model.eqcp"
    save_checkpoint(ckpt, params, config=TINY_HEADER)

    graphs = [build_graph(rec, cut) for rec in records]
    edges = [g.edge_count() for g in graphs]
    budget = max(sum(edges[:2]), sum(edges[4:]))
    assert min(edges[2:4]) > budget
    monkeypatch.setattr(geograph, "PACK_EDGE_BUDGET", budget)
    pack_sizes, caches = [], []

    def spy_forward(pack, fp, params, cfg, cache=None):
        pack_sizes.append(pack.n_graphs)
        caches.append(cache)
        return forward(pack, fp, params, cfg, cache=cache)

    monkeypatch.setattr(cli, "forward", spy_forward)
    out = tmp_path / "preds.csv"
    assert main(["predict", "--manifest", manifest, "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 0
    assert pack_sizes == [2, 1, 1, 3]
    cache = caches[2]
    # the second record on the receptor reused its layer-0 pp sums
    assert cache.recomputed == {0: 0}

    rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
    assert [r[0] for r in rows] == [rec.complex_id for rec in records]
    got = np.array([float(r[1]) for r in rows])
    want = [float(forward(g, morgan_fingerprint(rec.ligand, nbits=cfg.fingerprint_width),
                          params, cfg).data) for g, rec in zip(graphs, records)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("header,needle", [
    (None, "header has no model config"),
    ({**TINY_HEADER, "model": {**TINY_MODEL["model"], "bogus": 1}},
     "header config 'model': unknown key 'bogus'"),
    ({"model": TINY_MODEL["model"]}, "header has no cutoffs config"),
    ({**TINY_HEADER, "cutoffs": {"rbf_k": "6"}}, "'cutoffs.rbf_k': must be an integer"),
    ({**TINY_HEADER, "cutoffs": {"pp": math.nan}}, "NaN is not a JSON number"),
], ids=["no-config", "unknown-model-key", "no-cutoffs", "wrong-type", "nan-cutoff"])
def test_predict_bad_checkpoint_header_exits_one(toy_dir, capsys, header, needle):
    tmp_path, manifest, _ = toy_dir
    params = init_params(build_config(ModelConfig, TINY_MODEL["model"]),
                         build_config(CutoffConfig, TINY_MODEL["cutoffs"]), seed=0)
    ckpt = tmp_path / "bad.eqcp"
    save_checkpoint(ckpt, params, config=header)
    assert main(["predict", "--manifest", manifest, "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "p.csv")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


def test_out_of_memory_exits_one(monkeypatch, capsys):
    def exhausted(args, cfg):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setitem(cli._COMMANDS, "simulate-screen", exhausted)
    assert main(["simulate-screen", "--actives", "1", "--decoys", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 8.00 GiB for an array\n"


def test_console_entry_point():
    # the child finds the package under test whether or not it is installed
    src = os.path.dirname(os.path.dirname(cpi3d.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "cpi3d.cli", "--version"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "cpi3d" in proc.stdout
