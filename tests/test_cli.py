import contextlib
import csv
import ctypes
import functools
import glob
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest

import cpi3d
from cpi3d import cli, geograph, pool
from cpi3d.checkpoint import save_checkpoint
from cpi3d.chemio import ComplexRecord, load_manifest, parse_sdf, write_sdf
from cpi3d.cli import main
from cpi3d.config import build_config
from cpi3d.equinet import ModelConfig, ParameterStore, forward, init_params
from cpi3d.errors import NumericalError
from cpi3d.fingerprint import morgan_fingerprint
from cpi3d.geograph import CutoffConfig, EdgeKind, build_graph
from cpi3d.synthetic import (
    clustered_records,
    protein_to_pdb,
    random_complex,
    random_complexes,
    random_ligand,
    random_protein,
    write_manifest,
)

from conftest import forward_one, lattice_receptor, transform_ligand
from oracles import morgan_oracle

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


@pytest.mark.parametrize("nbits", [7, 2048])
def test_fingerprint_hex_rows_are_the_packed_oracle_bits(tmp_path, capsys, nbits):
    """Each hex row is `np.packbits` of the string-built oracle's bits; a
    width that is not a multiple of 8 is padded with zero bits."""
    rng = np.random.default_rng(4)
    sdf = tmp_path / "mols.sdf"
    sdf.write_text(write_sdf([random_ligand(rng, n_atoms=n, mol_id=f"m{n}") for n in (1, 6, 11)]))
    assert main(["fingerprint", "--sdf", str(sdf), "--nbits", str(nbits)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    mols = parse_sdf(sdf.read_text())
    assert [row[0] for row in rows] == [m.id for m in mols]
    for (_, hex_bits), mol in zip(rows, mols):
        assert hex_bits == np.packbits(morgan_oracle(mol, 2, nbits)).tobytes().hex()


def test_fingerprint_stdout_quotes_a_title_with_a_comma(tmp_path, capsys):
    rng = np.random.default_rng(0)
    sdf = tmp_path / "mols.sdf"
    sdf.write_text(write_sdf([random_ligand(rng, mol_id="a,b"), random_ligand(rng, mol_id="c")]))
    assert main(["fingerprint", "--sdf", str(sdf)]) == 0
    printed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [row[0] for row in printed] == ["a,b", "c"]
    assert all(len(row) == 2 for row in printed)
    # the same rows as the --out file, after its provenance and header lines
    assert main(["fingerprint", "--sdf", str(sdf), "--out", str(tmp_path / "fp.csv")]) == 0
    assert list(csv.reader(io.StringIO((tmp_path / "fp.csv").read_text())))[2:] == printed


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


def test_build_graph_reads_files_with_a_byte_order_mark(tmp_path, capsys):
    """A leading UTF-8 byte-order mark on the SDF or the PDB changes nothing:
    the first residue and the molecule's title survive it."""
    (rec,) = random_complexes(1, seed=0)
    texts = {"l.sdf": write_sdf(list(rec.poses)), "p.pdb": protein_to_pdb(rec.protein)}
    dumps = []
    for bom in ("", "\ufeff"):
        for name, text in texts.items():
            (tmp_path / name).write_text(bom + text, encoding="utf-8")
        dump = tmp_path / f"graph{len(dumps)}.json"
        assert main(["build-graph", "--ligand", str(tmp_path / "l.sdf"),
                     "--protein", str(tmp_path / "p.pdb"), "--dump", str(dump)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_ligand"] == len(rec.ligand) and summary["n_residue"] == 6
        dumps.append(dump.read_bytes())
    assert dumps[0] == dumps[1]


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


def test_rerank_reads_confidences_with_a_byte_order_mark(tmp_path, capsys):
    rng = np.random.default_rng(5)
    poses = [random_ligand(rng, n_atoms=6, mol_id=f"pose{i}") for i in range(5)]
    (tmp_path / "poses.sdf").write_text(write_sdf(poses))
    (tmp_path / "rec.pdb").write_text(protein_to_pdb(random_protein(rng, n_residues=6)))
    body = "".join(f"{c!r}\n" for c in rng.uniform(0.0, 1.0, 5).tolist())
    for bom in ("", "\ufeff"):
        (tmp_path / "conf.txt").write_text(bom + body, encoding="utf-8")
        assert main(["rerank", "--poses", str(tmp_path / "poses.sdf"),
                     "--protein", str(tmp_path / "rec.pdb"),
                     "--confidences", str(tmp_path / "conf.txt"),
                     "--out", str(tmp_path / f"ranked{len(bom)}.csv")]) == 0
    assert (tmp_path / "ranked0.csv").read_bytes() == (tmp_path / "ranked1.csv").read_bytes()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("row,needle", [
    ("toy0", "row 1: no ligand_sdf value"),
    ("toy0,toy0.sdf", "row 1: no protein_pdb value"),
    ("toy0,toy0.sdf,toy0.pdb,abc,", "row 'toy0': ec50_nm 'abc' is not a number"),
    ("toy0,toy0.sdf,toy0.pdb,inf,", "row 'toy0': ec50_nm 'inf' is not finite"),
    ("toy0,toy0.sdf,toy0.pdb,0,", "toy0: ec50 must be positive"),
    ("toy0,toy0.sdf,toy0.pdb,,2", "row 'toy0': is_active '2' is not a boolean"),
    ("toy0,toy0.sdf,toy0.pdb,,,extra", "row 1: more fields than the header"),
    (",toy0.sdf,toy0.pdb,,", "row 1: no complex_id value"),
    (" ,toy0.sdf,toy0.pdb,,", "row 1: no complex_id value"),
    ("toy0,,toy0.pdb,,", "row 1: no ligand_sdf value"),
], ids=["id-only", "no-protein", "ec50-abc", "ec50-inf", "ec50-zero", "is-active-two",
        "extra-field", "empty-id", "blank-id", "empty-ligand"])
def test_bad_manifest_row_exits_one(tmp_path, capsys, row, needle):
    manifest = write_manifest(random_complexes(1, seed=3), str(tmp_path / "data"))
    header = open(manifest).read().splitlines()[0]
    open(manifest, "w").write(f"{header}\n{row}\n")
    assert main(["split", "--manifest", manifest, "--setting", "novel_compound",
                 "--out", str(tmp_path / "splits.json")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


def _corrupt_sdf_coordinates(path):
    lines = open(path).read().splitlines(keepends=True)
    lines[4] = "    1.2x45" + lines[4][10:]    # line 5: the first atom's x
    open(path, "w").write("".join(lines))


_HYDROGENS_SDF = """bb
  cpi3d

  2  1  0  0  0  0  0  0  0  0999 V2000
    0.0000    0.0000    0.0000 H   0  0  0  0  0  0  0  0  0  0  0  0
    0.7400    0.0000    0.0000 H   0  0  0  0  0  0  0  0  0  0  0  0
  1  2  1  0
M  END
$$$$
"""


# a 2-atom V3000 record: its counts line declares no atoms
_V3000_SDF = """bb
  cpi3d

  0  0  0  0  0  0  0  0  0  0999 V3000
M  V30 BEGIN CTAB
M  V30 COUNTS 2 1 0 0 0
M  V30 BEGIN ATOM
M  V30 1 C 0 0 0 0
M  V30 2 O 1.2 0 0 0
M  V30 END ATOM
M  V30 BEGIN BOND
M  V30 1 1 1 2
M  V30 END BOND
M  V30 END CTAB
M  END
$$$$
"""


@pytest.mark.parametrize("name,corrupt,want", [
    ("bb.sdf", _corrupt_sdf_coordinates,
     "{path}: line 5: malformed coordinates in '    1.2x45"),
    ("bb.pdb", lambda path: open(path, "w").write("REMARK no atoms\nEND\n"),
     "{path}: no CA ATOM records found\n"),
    ("bb.sdf", lambda path: open(path, "wb").write(b"bb\n\xff\xfe\n"),
     "{path}: 'utf-8' codec can't decode byte 0xff"),
    ("bb.sdf", lambda path: open(path, "w").write(_HYDROGENS_SDF),
     "ligand has no heavy atoms\n"),
    ("bb.sdf", lambda path: open(path, "w").write(_V3000_SDF),
     "{path}: line 4: V3000 mol block is not supported (write V2000)\n"),
], ids=["malformed-sdf", "pdb-without-ca", "sdf-not-utf8", "hydrogens-only", "v3000"])
@pytest.mark.parametrize("command", ["split", "train", "predict"])
def test_bad_manifest_file_exits_one_naming_its_row(toy_dir, tmp_path, capsys, name, corrupt,
                                                   want, command):
    """A file that does not parse is named by its row and path, and a
    ligand of hydrogens by its row, before any record is used."""
    records = random_complexes(2, seed=3, with_label=True)
    records[1].complex_id = "bb"
    manifest = write_manifest(records, str(tmp_path / "bad"))
    path = os.path.join(os.path.dirname(os.path.abspath(manifest)), name)
    corrupt(path)
    _tiny_checkpoint(tmp_path / "model.eqcp")
    out = str(tmp_path / "out")
    argv = {"split": ["--setting", "novel_compound", "--out", out],
            "train": ["--config", toy_dir[2], "--out", out],
            "predict": ["--checkpoint", str(tmp_path / "model.eqcp"), "--out", out]}[command]
    assert main([command, "--manifest", manifest, *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: row 'bb': " + want.format(path=path))
    assert err.count("\n") == 1
    assert not os.path.exists(out)


def test_rerank_of_a_v3000_pose_file_exits_one(tmp_path, capsys):
    """A V3000 pose file is rejected at its counts line, not reported as an
    empty pose."""
    rng = np.random.default_rng(5)
    (tmp_path / "poses.sdf").write_text(_V3000_SDF)
    (tmp_path / "rec.pdb").write_text(protein_to_pdb(random_protein(rng, n_residues=6)))
    assert main(["rerank", "--poses", str(tmp_path / "poses.sdf"), "--protein",
                 str(tmp_path / "rec.pdb"), "--out", str(tmp_path / "ranked.csv")]) == 1
    assert capsys.readouterr().err == \
        "error: line 4: V3000 mol block is not supported (write V2000)\n"
    assert not (tmp_path / "ranked.csv").exists()


@pytest.mark.parametrize("folds", ["0", "-2"])
def test_split_checks_folds_before_reading_the_manifest(tmp_path, capsys, monkeypatch, folds):
    """`--folds` below one exits 1 before the manifest is read or a
    similarity matrix is built."""
    def unread(path):
        raise AssertionError("load_manifest called")

    monkeypatch.setattr(cli, "load_manifest", unread)
    assert main(["split", "--manifest", str(tmp_path / "absent.csv"), "--setting",
                 "novel_compound", "--folds", folds, "--out", str(tmp_path / "splits.json")]) == 1
    assert capsys.readouterr().err == f"error: need at least one fold, got {folds}\n"
    assert not (tmp_path / "splits.json").exists()


def test_split_of_a_manifest_with_no_data_rows_exits_one(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("complex_id,ligand_sdf,protein_pdb,ec50_nm,is_active\n")
    assert main(["split", "--manifest", str(manifest), "--setting", "novel_compound",
                 "--out", str(tmp_path / "splits.json")]) == 1
    assert capsys.readouterr().err == "error: no records to split\n"
    assert not (tmp_path / "splits.json").exists()


def test_train_of_a_manifest_with_no_data_rows_exits_one(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("complex_id,ligand_sdf,protein_pdb,ec50_nm,is_active\n")
    assert main(["train", "--manifest", str(manifest), "--steps", "1",
                 "--out", str(tmp_path / "model.eqcp")]) == 1
    assert capsys.readouterr().err == "error: no records to train\n"
    assert not (tmp_path / "model.eqcp").exists()


def test_predict_of_a_manifest_with_no_data_rows_exits_one(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("complex_id,ligand_sdf,protein_pdb,ec50_nm,is_active\n")
    _tiny_checkpoint(tmp_path / "model.eqcp")
    assert main(["predict", "--manifest", str(manifest), "--checkpoint",
                 str(tmp_path / "model.eqcp"), "--out", str(tmp_path / "pred.csv")]) == 1
    assert capsys.readouterr().err == "error: no records to predict\n"
    assert not (tmp_path / "pred.csv").exists()


def test_split_reads_a_manifest_with_a_byte_order_mark(tmp_path, capsys):
    records = clustered_records(n_families=3, family_size=2, seed=13)
    manifest = write_manifest(records, str(tmp_path / "lib"))
    argv = ["split", "--manifest", manifest, "--setting", "novel_pair", "--folds", "2"]
    assert main(argv + ["--out", str(tmp_path / "plain.json")]) == 0
    text = open(manifest, encoding="utf-8").read()
    open(manifest, "w", encoding="utf-8").write("\ufeff" + text)
    assert main(argv + ["--out", str(tmp_path / "bom.json")]) == 0
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "bom.json").read_bytes()
    assert capsys.readouterr().err == ""


def test_manifest_with_an_unknown_column_exits_one(tmp_path, capsys):
    """A misspelt optional column is named, not silently dropped."""
    manifest = write_manifest(random_complexes(2, seed=3, with_label=True), str(tmp_path / "data"))
    text = open(manifest).read()
    open(manifest, "w").write(text.replace("ec50_nm", "ec50nm", 1))
    assert main(["split", "--manifest", manifest, "--setting", "novel_compound",
                 "--out", str(tmp_path / "splits.json")]) == 1
    assert capsys.readouterr().err == (
        "error: manifest: unknown column 'ec50nm', allowed "
        "['complex_id', 'ec50_nm', 'is_active', 'ligand_sdf', 'protein_pdb']\n")
    assert not (tmp_path / "splits.json").exists()


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


@pytest.mark.parametrize("column", ["prediction", "label"])
@pytest.mark.parametrize("raw,reason", [
    ("x", "is not a number"), ("", "is not a number"), ("nan", "is not finite"),
    ("inf", "is not finite"), ("1e309", "is not finite"),
])
def test_eval_names_the_first_bad_number(tmp_path, capsys, column, raw, reason):
    """The one-pass float parse falls back to the per-row loop, which names
    the first bad row even when a later row holds another kind of bad value."""
    rows = [["0.5", "1"], ["0.3", "0"], ["0.2", "1"], ["0.1", "0"], ["0.4", "x"]]
    rows[2][column == "label"] = raw
    pred = tmp_path / "preds.csv"
    pred.write_text("prediction,label\n" + "".join(f"{p},{y}\n" for p, y in rows))
    assert main(["eval", "--pred", str(pred), "--metrics", "ci"]) == 1
    assert capsys.readouterr().err == f"error: {pred}: row 3: {column} {raw!r} {reason}\n"


def test_eval_short_rows_name_the_first_column_in_column_order(tmp_path, capsys):
    """Row 2 is short of `target` only and row 4 of `label` and `target`:
    the error names `label`, the first short column in the order eval asks
    for its columns, at its first short row."""
    pred = tmp_path / "preds.csv"
    pred.write_text("prediction,label,target\n0.5,1,A\n0.3,0\n0.2,1,A\n0.1\n")
    assert main(["eval", "--pred", str(pred), "--metrics", "ci", "--group-by", "target"]) == 1
    assert capsys.readouterr().err == f"error: {pred}: row 4: no label value\n"


def test_number_columns_are_float_arrays_or_python_ints():
    table = {"score": ["0.5", "-1e3"], "count": ["3", "40"]}
    scores = cli._number_column(table, "score", "t.csv")
    assert scores.dtype == np.float64 and scores.tolist() == [0.5, -1000.0]
    counts = cli._number_column(table, "count", "t.csv", int)
    assert counts == [3, 40] and all(type(c) is int for c in counts)


_SCORE_HEADER = "prediction,label,target"
_SCORE_ROWS = ["0.5,1,A", "0.3,0,B", "-1.25,0,A", "2.0,1,C", "0.1,0,B", "1e-3,1,A",
               "0.7,0,C", "0.2,1,B"]


def _fields(row, k, value):
    fields = row.split(",")
    fields[k] = value
    return ",".join(fields)


_SCORE_MUTATIONS = {
    "quoted-number": lambda row: _fields(row, 0, f'"{row.split(",")[0]}"'),
    "quoted-group": lambda row: _fields(row, 2, '"A"'),
    "hash-row": lambda row: "#" + row,
    "hash-before": lambda row: "# note\n" + row,
    "blank-before": lambda row: "\n" + row,
    "space-line": lambda row: "  \n" + row,
    "tab-line": lambda row: "\t\n" + row,
    "short": lambda row: row.rpartition(",")[0],
    "shorter": lambda row: row.partition(",")[0],
    "long": lambda row: row + ",x",
    "spaces": lambda row: ",".join(f" {f} " for f in row.split(",")),
    "underscore": lambda row: _fields(row, 0, "1_0"),
    "nan": lambda row: _fields(row, 1, "nan"),
    "inf": lambda row: _fields(row, 0, "-inf"),
    "empty-number": lambda row: _fields(row, 1, ""),
    "empty-group": lambda row: _fields(row, 2, ""),
    "group-case": lambda row: _fields(row, 2, "a"),
    "non-ascii-group": lambda row: _fields(row, 2, "é"),
    "nul-group": lambda row: _fields(row, 2, "A\0"),
    "cr-in-row": lambda row: _fields(row, 2, "A\rB"),
}


def _reordered(text):
    """The table with its columns as target,label,prediction."""
    return "\n".join(",".join(line.split(",")[::-1]) for line in text.split("\n"))


def _with_id_column(text):
    """The table with an `id` column first."""
    header, *rows = text.rstrip("\n").split("\n")
    return "\n".join([f"id,{header}"] + [f"r{i},{row}" for i, row in enumerate(rows)]) + "\n"


_SCORE_FILES = {
    "clean": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
    "bom": lambda text: "\ufeff" + text,
    "no-final-newline": lambda text: text.rstrip("\n"),
    "reordered": _reordered,
    "reordered-comment": lambda text: _reordered(text).replace("\n", "\n#Z,1,0.9\n", 1),
    "extra-column": _with_id_column,
    "repeated-column": lambda text: text.replace(_SCORE_HEADER, "prediction,label,prediction", 1),
    "no-label": lambda text: text.replace(_SCORE_HEADER, "prediction,score,target", 1),
    "header-only": lambda text: _SCORE_HEADER + "\n",
    "blank-first": lambda text: "\n" + text,
}


def _score_table(mutations=(), layout="clean"):
    rows = list(_SCORE_ROWS)
    for name, i in mutations:
        rows[i] = _SCORE_MUTATIONS[name](rows[i])
    return _SCORE_FILES[layout]("\n".join([_SCORE_HEADER] + rows) + "\n")


def _per_row_scores(path, columns):
    """eval's columns as the per-row reader gives them, with the group
    column's sorted distinct values and each row's index into them."""
    table = cli._read_table(path, columns)
    preds = cli._number_column(table, "prediction", path)
    labels = cli._number_column(table, "label", path)
    if len(columns) < 3:
        return preds, labels, None, None
    names, index = np.unique(np.asarray(table[columns[2]]), return_inverse=True)
    return preds, labels, index.ravel(), names.tolist()


def _eval_outcome(pred, capsys, monkeypatch, group_by, per_row):
    """(exit code, output bytes, stderr) of one eval run, through the bulk
    reader or with every table sent down the per-row path."""
    out = pred.parent / "eval.json"
    if out.exists():
        out.unlink()
    argv = ["eval", "--pred", str(pred), "--metrics", "ci,pearson,mse,ef50,bedroc5",
            "--out", str(out)] + (["--group-by", group_by] if group_by else [])
    with monkeypatch.context() as patch:
        if per_row:
            patch.setattr(cli, "_load_scores", lambda path, columns: None)
        try:
            code = main(argv)
        except Exception as exc:   # a csv error the per-row path lets through
            code = repr(exc)
    return code, out.read_bytes() if out.exists() else None, capsys.readouterr().err


def test_eval_bulk_read_matches_the_per_row_read_under_table_mutations(tmp_path, capsys,
                                                                         monkeypatch):
    """Every mutation of one row under every file layout, and pairs of
    mutations on two rows, give the per-row reader's arrays bit for bit
    when the bulk read takes the table, and the same eval output, or the
    same one-line error and exit code, either way."""
    cases = [((), layout) for layout in _SCORE_FILES]
    cases += [(((name, i),), layout) for name in _SCORE_MUTATIONS for i in (0, 3, 7)
              for layout in ("clean", "crlf", "bom")]
    pair_kinds = ("quoted-group", "hash-row", "blank-before", "space-line", "short", "long",
                  "spaces", "underscore", "nan", "empty-group")
    cases += [(((a, i), (b, j)), "clean") for i, j in ((0, 1), (2, 7))
              for a in pair_kinds for b in pair_kinds]
    pred = tmp_path / "scores.csv"
    taken = set()
    for mutations, layout in cases:
        pred.write_bytes(_score_table(mutations, layout).encode("utf-8"))
        groupings = [["prediction", "label", "target"], ["prediction", "label"]]
        for columns in groupings + [["prediction", "label", "label"]] * (not mutations):
            bulk = cli._load_scores(str(pred), columns)
            if bulk is not None:
                taken.update(name for name, _ in mutations)
                want = _per_row_scores(str(pred), columns)
                assert [a.tobytes() for a in bulk[:2]] == [a.tobytes() for a in want[:2]]
                assert bulk[3] == want[3]
                assert bulk[2] is None or bulk[2].tolist() == want[2].tolist()
            group_by = columns[2] if len(columns) > 2 else None
            got = _eval_outcome(pred, capsys, monkeypatch, group_by, per_row=False)
            assert got == _eval_outcome(pred, capsys, monkeypatch, group_by, per_row=True), \
                (mutations, layout)
            assert "Traceback" not in got[2] and got[2].count("\n") <= 1
            assert (got[0] == 0) == (got[1] is not None)
    # bytes that are not UTF-8, early and past the first 8 KiB the per-row read decodes
    long_table = "\n".join([_SCORE_HEADER] + _SCORE_ROWS * 200) + "\n"
    for data in (b"prediction,label,target\n0.5,1,\xff\n", long_table.encode() + b"0.5,1,\xe9\n"):
        pred.write_bytes(data)
        got = _eval_outcome(pred, capsys, monkeypatch, "target", per_row=False)
        assert got == _eval_outcome(pred, capsys, monkeypatch, "target", per_row=True)
        assert got[0] == 1 and "can't decode" in got[2]
    # the bulk read takes the benign layouts and mutations; the rest fall back
    for layout in ("clean", "crlf", "cr", "bom", "no-final-newline", "reordered", "extra-column"):
        pred.write_bytes(_score_table((), layout).encode("utf-8"))
        assert cli._load_scores(str(pred), ["prediction", "label", "target"]) is not None, layout
    # ("short" drops the group column, which an ungrouped eval does not read)
    assert taken == {"blank-before", "long", "short", "spaces", "empty-group", "group-case",
                     "non-ascii-group"}


def eval_read_peak_mb() -> float:
    """`tracemalloc` peak, in MB, of eval's read of a 109,349-row table in
    50 groups (1,759 actives and 107,590 decoys, the DUD-E-sized screen of
    the benchmark's eval workload)."""
    rng = np.random.default_rng(4)
    labels = np.zeros(109_349, dtype=np.int64)
    labels[:1_759] = 1
    rows = [f"{s!r},{y},T{t:03d}" for s, y, t in zip(rng.normal(labels.astype(float)).tolist(),
                                                      labels.tolist(),
                                                      rng.integers(0, 50, labels.size).tolist())]
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "scores.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("prediction,label,target\n" + "\n".join(rng.permutation(rows)) + "\n")
        del rows
        tracemalloc.start()
        try:
            preds, _, groups, names = cli._read_scores(path, ["prediction", "label", "target"])
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
    assert preds.size == 109_349 and len(names) == 50 and groups.max() == 49
    return peak


def test_eval_read_of_a_screen_sized_table_peaks_at_half_the_per_row_read():
    """The bulk read keeps no per-row strings: the per-row read of this
    table peaked at 18.6 MB."""
    peak = eval_read_peak_mb()
    assert peak <= 18.6 / 2, f"the read peaked at {peak:.1f} MB"


def test_eval_and_simulate_screen_skip_a_byte_order_mark(tmp_path, capsys):
    pred = tmp_path / "preds.csv"
    pred.write_text(_score_table())
    pred_bom = tmp_path / "preds_bom.csv"
    pred_bom.write_text("\ufeff" + _score_table(), encoding="utf-8")
    for path in (pred, pred_bom):
        assert main(["eval", "--pred", str(path), "--metrics", "ci,pearson",
                     "--group-by", "target", "--out", str(path) + ".json"]) == 0
    assert (tmp_path / "preds.csv.json").read_bytes() == \
        (tmp_path / "preds_bom.csv.json").read_bytes()
    # the per-row path, taken for a '#' line, skips it too
    pred_bom.write_text("\ufeff# scores\n" + _score_table(), encoding="utf-8")
    assert main(["eval", "--pred", str(pred_bom), "--metrics", "ci,pearson",
                 "--group-by", "target", "--out", str(pred_bom) + ".json"]) == 0
    assert (tmp_path / "preds.csv.json").read_bytes() == \
        (tmp_path / "preds_bom.csv.json").read_bytes()
    comp = tmp_path / "comp.csv"
    comp.write_text("\ufefftarget,actives,decoys\nt1,20,180\n", encoding="utf-8")
    assert main(["simulate-screen", "--actives", "0", "--decoys", "0", "--trials", "3",
                 "--per-target", str(comp), "--out", str(tmp_path / "screen.json")]) == 0
    assert set(json.loads((tmp_path / "screen.json").read_text())["targets"]) == {"t1"}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("metric", ["efabc", "bedroc_x", "auc"])
def test_eval_unknown_metric_exits_one(tmp_path, capsys, metric):
    pred = tmp_path / "preds.csv"
    pred.write_text("prediction,label\n0.5,1\n0.3,0\n")
    assert main(["eval", "--pred", str(pred), "--metrics", f"ci,{metric}"]) == 1
    assert capsys.readouterr().err == f"error: unknown metric {metric!r}\n"


@pytest.mark.parametrize("metric,domain", [
    ("ef0", "x must lie in (0, 100], got 0.0"),
    ("ef150", "x must lie in (0, 100], got 150.0"),
    ("efnan", "x must lie in (0, 100], got nan"),
    ("bedroc0", "alpha must be finite and > 0, got 0.0"),
    ("bedroc-1", "alpha must be finite and > 0, got -1.0"),
    ("bedrocinf", "alpha must be finite and > 0, got inf"),
])
def test_eval_metric_parameter_out_of_domain_exits_one(tmp_path, capsys, metric, domain):
    pred = tmp_path / "preds.csv"
    pred.write_text("prediction,label,target\n0.5,1,A\n0.3,0,A\n0.2,1,B\n0.1,0,B\n")
    out = tmp_path / "eval.json"
    assert main(["eval", "--pred", str(pred), "--metrics", f"ci,{metric}",
                 "--group-by", "target", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: metric {metric!r}: {domain}\n"
    assert not out.exists()


@pytest.mark.parametrize("metrics", ["", ",", " , "])
def test_eval_without_a_metric_exits_one(tmp_path, capsys, metrics):
    pred = tmp_path / "preds.csv"
    pred.write_text("prediction,label\n0.5,1\n0.3,0\n")
    out = tmp_path / "eval.json"
    assert main(["eval", "--pred", str(pred), "--metrics", metrics, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --metrics {metrics!r} names no metric\n"
    assert not out.exists()


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


def test_simulate_screen_per_target_needs_no_pooled_counts(tmp_path):
    comp = tmp_path / "comp.csv"
    comp.write_text("target,actives,decoys\nt1,20,180\nt2,30,270\n")
    outs = [tmp_path / "bare.json", tmp_path / "flagged.json"]
    assert main(["simulate-screen", "--trials", "10", "--per-target", str(comp),
                 "--out", str(outs[0])]) == 0
    assert main(["simulate-screen", "--actives", "0", "--decoys", "0", "--trials", "10",
                 "--per-target", str(comp), "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert set(json.loads(outs[0].read_text())["targets"]) == {"t1", "t2"}


@pytest.mark.parametrize("flags,missing", [
    (["--actives", "5"], "--decoys"), (["--decoys", "45"], "--actives"), ([], "--actives"),
], ids=["no-decoys", "no-actives", "neither"])
def test_simulate_screen_without_per_target_needs_both_counts(tmp_path, capsys, flags, missing):
    out = tmp_path / "baseline.json"
    assert main(["simulate-screen", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {missing} is required without --per-target\n"
    assert not out.exists()


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
    ("target,actives,decoys\nt1,20,180\nt2,5,0\n",
     "row 2: target 't2' needs at least one active and one decoy, got 5 and 0"),
], ids=["no-decoys-column", "non-integer-count", "repeated-target", "no-decoys"])
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
    from cpi3d.equinet import IrrepLayout, ModelConfig, init_params
    from cpi3d.fingerprint import morgan_fingerprint
    from cpi3d.geograph import CutoffConfig, build_pair_graph

    cfg = ModelConfig(layers=2, layout=IrrepLayout((8, 4, 2)), edge_mlp_hidden=16,
                      readout_hidden=32, fingerprint_width=128, fingerprint_embed=16)
    cut = CutoffConfig(rbf_k=8)
    records = random_complexes(8, seed=42, n_atoms=5, n_residues=5)
    frozen = init_params(cfg, cut, seed=123)
    raw = np.array([
        float(forward_one(build_pair_graph(r.ligand, r.protein, cut),
                          morgan_fingerprint(r.ligand, nbits=cfg.fingerprint_width),
                          frozen, cfg).data)
        for r in records
    ])
    normed = (raw - raw.mean()) / raw.std()
    # express the standardized labels as (positive) EC50 values for the manifest
    for rec, p in zip(records, normed):
        rec.label_ec50_nm = 10.0 ** p * 1e9
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


@pytest.mark.parametrize("argv,needle", [
    (["simulate-screen", "--actives", "x", "--decoys", "3"],
     "argument --actives: invalid int value: 'x'"),
    (["predict", "--manifest", "m.csv", "--out", "p.csv"],
     "the following arguments are required: --checkpoint"),
    (["train", "--manifest", "m.csv", "--out", "m.eqcp", "--optimizer", "rmsprop"],
     "argument --optimizer: invalid choice: 'rmsprop'"),
], ids=["bad-int", "missing-flag", "bad-choice"])
def test_usage_error_is_one_line(capsys, argv, needle):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert needle in captured.err


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


def test_config_with_a_byte_order_mark_resolves_like_without(tmp_path, capsys):
    """A config file saved with a leading UTF-8 byte-order mark resolves to
    the same config as the same file without it."""
    doc = json.dumps({"seed": 3, "model": {"layers": 2}})
    printed = []
    for bom in ("", "\ufeff"):
        config = tmp_path / f"config{len(printed)}.json"
        config.write_text(bom + doc, encoding="utf-8")
        assert main(["simulate-screen", "--actives", "1", "--decoys", "1",
                     "--config", str(config), "--print-config"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] and json.loads(printed[0])["seed"] == 3


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


@pytest.mark.parametrize("doc,line", [
    ({"cutoffs": {"rbf_gamma": -3.0}}, "rbf_gamma must be positive"),
    ({"cutoffs": {"rbf_gamma": 0}}, "rbf_gamma must be positive"),
    ({"train": {"adam_beta1": 1.0}}, "adam_beta1 must lie in [0, 1)"),
    ({"train": {"adam_beta1": -0.1}}, "adam_beta1 must lie in [0, 1)"),
    ({"train": {"adam_beta2": 1.5}}, "adam_beta2 must lie in [0, 1)"),
    ({"train": {"adam_eps": -1.0}}, "adam_eps must be positive"),
    ({"train": {"adam_eps": 0}}, "adam_eps must be positive"),
], ids=["rbf-gamma-negative", "rbf-gamma-zero", "beta1-one", "beta1-negative", "beta2-above-one",
        "eps-negative", "eps-zero"])
def test_train_rejects_config_value_outside_its_domain(toy_dir, capsys, doc, line):
    tmp_path, manifest, _ = toy_dir
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    assert main(["train", "--manifest", manifest, "--config", str(config), "--steps", "3",
                 "--out", str(tmp_path / "m.eqcp")]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not (tmp_path / "m.eqcp").exists()


def test_train_loss_csv_names_the_training_seed(toy_dir):
    """The loss CSV's header names `train.seed`, the seed training used,
    whether it comes from `--seed` or the config's train section; the
    top-level seed does not reach training."""
    tmp_path, manifest, _ = toy_dir

    def losses(name, doc, *flags):
        config, loss = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        config.write_text(json.dumps(doc))
        assert main(["train", "--manifest", manifest, "--config", str(config), *flags,
                     "--out", str(tmp_path / f"{name}.eqcp"), "--loss-out", str(loss)]) == 0
        header, *rows = loss.read_text().splitlines()
        return header.rpartition(" ")[2], rows

    seed5 = losses("train5", {**TINY_MODEL, "train": {**TINY_MODEL["train"], "seed": 5}})
    assert seed5 == losses("flag5", TINY_MODEL, "--seed", "5")
    assert seed5[0] == "seed=5"
    top3 = losses("top3", {**TINY_MODEL, "seed": 3})
    assert top3 == losses("default", TINY_MODEL)
    assert top3[0] == "seed=0" and top3[1] != seed5[1]


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
    monkeypatch.setattr(pool, "_usable_cores", lambda: 1)    # the spy sees every pack
    out = tmp_path / "preds.csv"
    assert main(["predict", "--manifest", manifest, "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 0
    assert pack_sizes == [2, 1, 1, 3]
    cache = caches[2]
    # the only pp stage is the last, which the second record on the
    # receptor ran on the stored gates of every pp edge
    assert cache.recomputed == {0: len(graphs[3].edges[EdgeKind.PP])}

    rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
    assert [r[0] for r in rows] == [rec.complex_id for rec in records]
    got = np.array([float(r[1]) for r in rows])
    want = [float(forward_one(g, morgan_fingerprint(rec.ligand, nbits=cfg.fingerprint_width),
                              params, cfg).data) for g, rec in zip(graphs, records)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("header,needle", [
    (None, "header has no model config"),
    ({**TINY_HEADER, "model": {**TINY_MODEL["model"], "bogus": 1}},
     "header config 'model': unknown key 'bogus'"),
    ({"model": TINY_MODEL["model"]}, "header has no cutoffs config"),
    ({**TINY_HEADER, "cutoffs": {"rbf_k": "6"}}, "'cutoffs.rbf_k': must be an integer"),
    ({**TINY_HEADER, "cutoffs": {"pp": math.nan}}, "NaN is not a JSON number"),
    ({**TINY_HEADER, "cutoffs": {**TINY_MODEL["cutoffs"], "rbf_gamma": -3.0}},
     "header rbf_gamma must be positive"),
], ids=["no-config", "unknown-model-key", "no-cutoffs", "wrong-type", "nan-cutoff",
        "negative-rbf-gamma"])
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


def _tiny_checkpoint(path):
    params = init_params(build_config(ModelConfig, TINY_MODEL["model"]),
                         build_config(CutoffConfig, TINY_MODEL["cutoffs"]), seed=0)
    save_checkpoint(path, params, config=TINY_HEADER)
    return path.read_bytes()


def _flip_payload_bit(blob: bytes) -> bytes:
    i = len(blob) - 4           # a mantissa byte of the last tensor value
    return blob[:i] + bytes([blob[i] ^ 0x10]) + blob[i + 1:]


@pytest.mark.parametrize("damage,needle", [
    (lambda blob: blob[:-12], "truncated payload"),
    (_flip_payload_bit, "payload checksum mismatch"),
], ids=["truncated", "bit-flipped"])
def test_predict_damaged_checkpoint_exits_one(toy_dir, capsys, damage, needle):
    tmp_path, manifest, _ = toy_dir
    ckpt = tmp_path / "model.eqcp"
    ckpt.write_bytes(damage(_tiny_checkpoint(ckpt)))
    assert main(["predict", "--manifest", manifest, "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "p.csv")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


def _store_of(state: dict) -> ParameterStore:
    """A store holding `state`'s arrays as they are, finite or not."""
    store = ParameterStore()
    for name, arr in state.items():
        store.add(name, np.zeros(arr.shape)).data = arr
    return store


def _drop(state, name):
    del state[name]


@pytest.mark.parametrize("edit,needle", [
    (lambda state: _drop(state, "readout.out.b"),
     "state mismatch: missing ['readout.out.b'], extra []"),
    (lambda state: state.update({"readout.extra": np.zeros(2)}),
     "state mismatch: missing [], extra ['readout.extra']"),
    (lambda state: state.update({"embed.ligand.W": np.zeros((2, 4))}),
     "'embed.ligand.W': shape (2, 4) != "),
    (lambda state: state["layer0.pp.tp.000"].__setitem__((0, 0), math.inf),
     "'layer0.pp.tp.000': non-finite entries"),
], ids=["missing", "extra", "misshapen", "non-finite"])
def test_predict_checkpoint_tensors_that_do_not_match_the_config_exit_one(toy_dir, capsys,
                                                                          edit, needle):
    tmp_path, manifest, _ = toy_dir
    params = init_params(build_config(ModelConfig, TINY_MODEL["model"]),
                         build_config(CutoffConfig, TINY_MODEL["cutoffs"]), seed=0)
    state = {name: params[name].data.copy() for name in params.names()}
    edit(state)
    ckpt = tmp_path / "model.eqcp"
    save_checkpoint(ckpt, _store_of(state), config=TINY_HEADER)
    assert main(["predict", "--manifest", manifest, "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "p.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err
    assert not (tmp_path / "p.csv").exists()


def test_predict_reads_a_version_1_checkpoint_with_one_warning(toy_dir, capsys):
    tmp_path, manifest, _ = toy_dir
    blob = _tiny_checkpoint(tmp_path / "v2.eqcp")
    header_len = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:12 + header_len])
    del header["payload_sha256"]
    v1_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    (tmp_path / "v1.eqcp").write_bytes(b"EQCP" + (1).to_bytes(4, "little")
                                       + len(v1_header).to_bytes(4, "little") + v1_header
                                       + blob[12 + header_len:])
    preds, errs = {}, {}
    for version in ("v2", "v1"):
        out = tmp_path / f"{version}.csv"
        assert main(["predict", "--manifest", manifest, "--checkpoint",
                     str(tmp_path / f"{version}.eqcp"), "--out", str(out)]) == 0
        preds[version], errs[version] = out.read_text(), capsys.readouterr().err
    assert preds["v1"] == preds["v2"]
    assert errs["v2"] == ""
    assert errs["v1"].startswith("warning: ") and errs["v1"].count("\n") == 1
    assert "version 1 has no payload checksum" in errs["v1"]


def test_predict_prints_a_graph_warning_per_far_ligand(tmp_path, capsys, monkeypatch):
    """One stderr line per graph warning; printing them keeps no graph
    alive once its pack is scored."""
    records = random_complexes(3, seed=5, n_atoms=5, n_residues=5)
    far = records[1]
    far.complex_id = "far"
    far.ligand = transform_ligand(far.ligand, t=[200.0, 0.0, 0.0])
    far.poses = (far.ligand,)
    manifest = write_manifest(records, str(tmp_path / "data"))
    _tiny_checkpoint(tmp_path / "model.eqcp")
    monkeypatch.setattr(geograph, "PACK_EDGE_BUDGET", 0)    # a pack per graph
    built = []

    def build_after_the_last_is_freed(rec, cutoffs):
        assert all(ref() is None for ref in built)
        graph = build_graph(rec, cutoffs)
        built.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(cli, "build_graph", build_after_the_last_is_freed)
    monkeypatch.setattr(pool, "_usable_cores", lambda: 1)    # the spy sees every build
    out = tmp_path / "preds.csv"
    assert main(["predict", "--manifest", manifest, "--checkpoint",
                 str(tmp_path / "model.eqcp"), "--out", str(out)]) == 0
    pc = build_config(CutoffConfig, TINY_MODEL["cutoffs"]).pc
    captured = capsys.readouterr()
    assert captured.err == (f"warning: far: ligand outside pocket: "
                            f"no ligand-protein edges within {pc} A\n")
    assert captured.out == f"wrote 3 predictions to {out}\n"
    rows = [line.split(",")[0] for line in out.read_text().splitlines()[2:]]
    assert rows == [rec.complex_id for rec in records]


def _pool_manifest(tmp_path):
    """Small records that share packs, and records over the budget on
    two interleaved receptors, one of them out of the pocket: a manifest
    path and the edge budget that forms those packs."""
    rng = np.random.default_rng(8)
    small = random_complexes(5, seed=9, n_atoms=5, n_residues=5)
    rec_a, rec_b = random_protein(rng, n_residues=40), random_protein(rng, n_residues=30)
    big = [ComplexRecord(complex_id=f"big{i}", protein=protein,
                         ligand=random_ligand(rng, n_atoms=n, center=center))
           for i, (protein, n, center) in enumerate([
               (rec_a, 6, (0.0, 0.0, 0.0)), (rec_b, 7, (0.0, 0.0, 0.0)),
               (rec_a, 8, (0.0, 0.0, 0.0)), (rec_b, 6, (200.0, 0.0, 0.0)),
               (rec_a, 9, (0.0, 0.0, 0.0))])]
    # packs: two small, big0, big1, two small (the child's at two
    # workers), big2, big3, big4, one small
    records = small[:2] + big[:2] + small[2:4] + big[2:] + small[4:]
    manifest = write_manifest(records, str(tmp_path / "data"))
    cut = build_config(CutoffConfig, TINY_MODEL["cutoffs"])
    edges = [build_graph(rec, cut).edge_count() for rec in load_manifest(manifest)]
    budget = max(sum(edges[:2]), sum(edges[4:6]))
    assert min(edges[2:4] + edges[6:9]) > budget
    return manifest, budget


def test_predict_writes_the_same_bytes_at_one_and_two_workers(tmp_path, capsys, monkeypatch):
    manifest, budget = _pool_manifest(tmp_path)
    monkeypatch.setattr(geograph, "PACK_EDGE_BUDGET", budget)
    ckpt = tmp_path / "model.eqcp"
    _tiny_checkpoint(ckpt)
    out = tmp_path / "preds.csv"
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(pool.os, "fork", counted_fork)
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(pool, "_usable_cores", lambda workers=workers: workers)
        assert main(["predict", "--manifest", manifest, "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        outputs.append((out.read_bytes(), captured.out, captured.err))
    assert forks == [os.getpid()]      # the second run forked one child
    assert outputs[0] == outputs[1]
    assert outputs[0][2].count("ligand outside pocket") == 1
    assert len(outputs[0][0].splitlines()) == 2 + 10


class _TwoPartError(NumericalError):
    """Pickles by its message, and cannot be rebuilt from it."""

    def __init__(self, layer, kind):
        super().__init__(f"non-finite features after layer {layer} kind {kind} (l=0)")


@pytest.mark.parametrize("error", [
    lambda: NumericalError("non-finite features after layer 0 kind pp (l=0)"),
    lambda: _TwoPartError(0, "pp"),
], ids=["picklable", "unpicklable"])
def test_predict_reraises_a_worker_error_and_reaps_every_worker(tmp_path, capsys, monkeypatch,
                                                                error):
    records = [random_complex(np.random.default_rng(i), complex_id=f"c{i}", n_atoms=n,
                              n_residues=6) for i, n in enumerate((5, 6, 7, 8))]
    manifest = write_manifest(records, str(tmp_path / "data"))
    ckpt = tmp_path / "model.eqcp"
    _tiny_checkpoint(ckpt)
    monkeypatch.setattr(geograph, "PACK_EDGE_BUDGET", 0)    # a pack per graph
    monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
    parent = os.getpid()

    def forward_failing_on_c1(pack, fp, params, cfg, cache=None):
        if pack.n_ligand == 6:      # c1, pack 1, which the child scores
            assert os.getpid() != parent
            raise error()
        return forward(pack, fp, params, cfg, cache=cache)

    monkeypatch.setattr(cli, "forward", forward_failing_on_c1)
    out = tmp_path / "preds.csv"
    assert main(["predict", "--manifest", manifest, "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: non-finite features after layer 0 kind pp (l=0)\n"
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_predict_exits_one_when_a_worker_dies_without_its_predictions(tmp_path, capsys,
                                                                      monkeypatch):
    records = [random_complex(np.random.default_rng(i), complex_id=f"c{i}", n_atoms=n,
                              n_residues=6) for i, n in enumerate((5, 6, 7))]
    manifest = write_manifest(records, str(tmp_path / "data"))
    ckpt = tmp_path / "model.eqcp"
    _tiny_checkpoint(ckpt)
    monkeypatch.setattr(geograph, "PACK_EDGE_BUDGET", 0)    # a pack per graph
    monkeypatch.setattr(pool, "_usable_cores", lambda: 2)

    def forward_dying_on_c1(pack, fp, params, cfg, cache=None):
        if pack.n_ligand == 6:      # c1, pack 1, which the child scores
            os._exit(3)
        return forward(pack, fp, params, cfg, cache=cache)

    monkeypatch.setattr(cli, "forward", forward_dying_on_c1)
    out = tmp_path / "preds.csv"
    assert main(["predict", "--manifest", manifest, "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: the worker scoring pack 1 ended without its predictions\n"
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_predict_scores_alone_when_it_cannot_fork(tmp_path, capsys, monkeypatch):
    manifest, budget = _pool_manifest(tmp_path)
    monkeypatch.setattr(geograph, "PACK_EDGE_BUDGET", budget)
    ckpt = tmp_path / "model.eqcp"
    _tiny_checkpoint(ckpt)
    out = tmp_path / "preds.csv"
    argv = ["predict", "--manifest", manifest, "--checkpoint", str(ckpt), "--out", str(out)]
    monkeypatch.setattr(pool, "_usable_cores", lambda: 1)
    assert main(argv) == 0
    serial = out.read_bytes(), capsys.readouterr()

    def fork_at_the_process_limit():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
    monkeypatch.setattr(pool.os, "fork", fork_at_the_process_limit)
    assert main(argv) == 0
    assert (out.read_bytes(), capsys.readouterr()) == serial


def test_predict_issues_a_worker_warning_as_the_serial_run_does(tmp_path, monkeypatch):
    """Each pack warns once with its own text and once with a shared one;
    the child's warnings reach the parent, which shows them in pack order
    and the shared one once, as one process does."""
    manifest, budget = _pool_manifest(tmp_path)
    monkeypatch.setattr(geograph, "PACK_EDGE_BUDGET", budget)
    ckpt = tmp_path / "model.eqcp"
    _tiny_checkpoint(ckpt)

    def warning_forward(pack, fp, params, cfg, cache=None):
        warnings.warn(f"pack of {pack.n_graphs} graphs, {pack.n_nodes} nodes, "
                      f"{pack.edge_count()} edges", RuntimeWarning)
        warnings.warn("overflow encountered in exp", RuntimeWarning)
        return forward(pack, fp, params, cfg, cache=cache)

    monkeypatch.setattr(cli, "forward", warning_forward)
    shown = []
    for workers in (1, 2):
        monkeypatch.setattr(pool, "_usable_cores", lambda workers=workers: workers)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            assert main(["predict", "--manifest", manifest, "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "preds.csv")]) == 0
        shown.append([(str(w.message), w.category, w.filename, w.lineno) for w in caught])
    assert shown[0] == shown[1]
    texts = [text for text, *_ in shown[0]]
    assert texts.count("overflow encountered in exp") == 1
    assert len(set(texts)) == len(texts) == 1 + 8     # 8 packs of distinct shapes


def test_usable_cores_honour_a_cgroup_cpu_quota(tmp_path, monkeypatch):
    root, table = tmp_path / "cgroup", tmp_path / "self_cgroup"

    def write(rel, text):
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)

    table.write_text("0::/job/step\n")
    write("cpu.max", "max 100000\n")
    assert pool._quota_cpus(str(root), str(table)) == math.inf
    write("job/cpu.max", "150000 100000\n")        # an ancestor's quota binds
    write("job/step/cpu.max", "max 100000\n")
    assert pool._quota_cpus(str(root), str(table)) == 1.5
    table.write_text("4:cpuacct:/\n3:cpu,cpuacct:/job\n1:name=systemd:/job\n")
    write("cpu,cpuacct/job/cpu.cfs_quota_us", "-1\n")
    write("cpu,cpuacct/job/cpu.cfs_period_us", "100000\n")
    write("cpu,cpuacct/cpu.cfs_quota_us", "200000\n")
    write("cpu,cpuacct/cpu.cfs_period_us", "100000\n")
    assert pool._quota_cpus(str(root), str(table)) == 2.0
    assert pool._quota_cpus(str(root), str(tmp_path / "absent")) == math.inf
    if hasattr(os, "sched_getaffinity") and hasattr(os, "fork"):
        monkeypatch.setattr(pool, "_quota_cpus", lambda: 1.5)
        assert pool._usable_cores() == 1
        monkeypatch.setattr(pool, "_quota_cpus", lambda: math.inf)
        assert pool._usable_cores() == len(os.sched_getaffinity(0))


def test_predict_of_one_pack_starts_no_worker(tmp_path, monkeypatch):
    """The records form one pack, as `train-toy`'s held-out predict and
    every warm-up call do, so `predict` runs alone."""
    manifest = write_manifest(random_complexes(4, seed=3, n_atoms=5, n_residues=5),
                              str(tmp_path / "data"))
    ckpt = tmp_path / "model.eqcp"
    _tiny_checkpoint(ckpt)
    monkeypatch.setattr(pool, "_usable_cores", lambda: 2)

    def no_fork():
        raise AssertionError("predict forked for one pack")

    monkeypatch.setattr(pool.os, "fork", no_fork)
    assert main(["predict", "--manifest", manifest, "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "preds.csv")]) == 0


def test_train_prints_a_graph_warning_per_far_ligand(toy_dir, capsys):
    tmp_path, _, config = toy_dir
    records = random_complexes(3, seed=5, with_label=True, n_atoms=5, n_residues=5)
    far = records[1]
    far.complex_id = "far"
    far.ligand = transform_ligand(far.ligand, t=[200.0, 0.0, 0.0])
    far.poses = (far.ligand,)
    manifest = write_manifest(records, str(tmp_path / "far"))
    assert main(["train", "--manifest", manifest, "--config", config, "--steps", "2",
                 "--out", str(tmp_path / "m.eqcp")]) == 0
    pc = build_config(CutoffConfig, TINY_MODEL["cutoffs"]).pc
    assert capsys.readouterr().err == (f"warning: far: ligand outside pocket: "
                                       f"no ligand-protein edges within {pc} A\n")


def screen_predict_peak_mb() -> float:
    """`tracemalloc` peak, in MB, of one `predict` call at the default
    config: six ligands of 20-40 atoms in the pocket of one 300-residue
    receptor (`conftest.lattice_receptor`), which the receptor cache
    shares, scored by one worker, so that `tracemalloc` sees them all."""
    rng = np.random.default_rng(0)
    receptor = lattice_receptor(rng)
    records = [ComplexRecord(complex_id=f"lig{i}", protein=receptor,
                             ligand=random_ligand(rng, n_atoms=n, mol_id=f"lig{i}"))
               for i, n in enumerate((20, 24, 28, 32, 36, 40))]
    model_cfg, cutoffs = ModelConfig(), CutoffConfig()
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_manifest(records, tmp)
        ckpt = os.path.join(tmp, "model.eqcp")
        save_checkpoint(ckpt, init_params(model_cfg, cutoffs, seed=0), config={
            "model": model_cfg.to_dict(), "cutoffs": cutoffs.to_dict(), "seed": 0})
        argv = ["predict", "--manifest", manifest, "--checkpoint", ckpt,
                "--out", os.path.join(tmp, "pred.csv")]
        usable_cores, pool._usable_cores = pool._usable_cores, lambda: 1
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
            pool._usable_cores = usable_cores


def test_screen_predict_peaks_below_16_mb():
    """The edge network drops its concatenated input before the first
    activation; holding it through the activation peaked at 16.8 MB."""
    assert screen_predict_peak_mb() < 16


def test_screen_predict_peaks_below_18_mb():
    """The gates embed their distances per block and the cache keeps the
    gates of the last pp stage only; the whole-array RBF route peaked at
    about 22 MB."""
    assert screen_predict_peak_mb() < 18


def test_main_sets_the_malloc_thresholds_where_libc_has_mallopt(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    cli._tune_malloc.__wrapped__()
    assert calls == [(cli.M_MMAP_THRESHOLD, 8 << 20), (cli.M_TRIM_THRESHOLD, 64 << 20)]
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    cli._tune_malloc.__wrapped__()    # no mallopt: nothing to set, no error


class _SetThreads:
    """A stand-in ctypes function: it takes `argtypes` and `restype` and
    records its calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, n):
        self.calls.append(n)


def test_main_pins_blas_to_one_thread_through_the_first_set_threads_symbol(monkeypatch):
    fn = _SetThreads()
    monkeypatch.setattr(cli.glob, "glob", lambda pattern: ["libscipy_openblas64_.so"])
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(
        openblas_set_num_threads=None, scipy_openblas_set_num_threads64_=fn))
    cli._pin_blas.__wrapped__()
    assert fn.calls == [1]


def test_main_warns_once_without_a_blas_set_threads_function(monkeypatch, capsys):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    monkeypatch.setattr(cli, "_pin_blas", functools.cache(cli._pin_blas.__wrapped__))
    for _ in range(2):
        assert main(["simulate-screen", "--actives", "1", "--decoys", "1", "--trials", "1"]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("warning: found no OpenBLAS set-threads")


def test_main_leaves_the_loaded_openblas_on_one_thread():
    assert main(["simulate-screen", "--actives", "1", "--decoys", "1", "--trials", "1"]) == 0
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    getters = [getattr(ctypes.CDLL(path), sym, None) for path in libs
               for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads")]
    getters = [fn for fn in getters if fn is not None]
    if not getters:
        pytest.skip("numpy's OpenBLAS has no get-threads function here")
    getters[0].argtypes, getters[0].restype = (), ctypes.c_int
    assert getters[0]() == 1


def _run_child(*args: str, env=None) -> subprocess.CompletedProcess:
    """A fresh interpreter run with `args`; it finds the package under test
    whether or not it is installed."""
    src = os.path.dirname(os.path.dirname(cpi3d.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, **(env or {}), "PYTHONPATH": path})


def test_trained_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Weight adjoints reduce over up to 2,048 edges, and OpenBLAS splits
    such a reduction across its threads; without the pin, this manifest's
    checkpoint differs between one and two threads."""
    manifest = write_manifest(random_complexes(8, seed=0, with_label=True), str(tmp_path / "data"))
    outputs = []
    for threads in ("1", "2"):
        ckpt, pred = tmp_path / f"model{threads}.eqcp", tmp_path / f"pred{threads}.csv"
        train = ["train", "--manifest", manifest, "--steps", "2", "--batch-size", "8",
                 "--seed", "0", "--out", str(ckpt)]
        predict = ["predict", "--manifest", manifest, "--checkpoint", str(ckpt),
                   "--out", str(pred)]
        proc = _run_child("-c", f"import sys; from cpi3d.cli import main; "
                          f"sys.exit(main({train!r}) or main({predict!r}))",
                          env={"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        outputs.append((ckpt.read_bytes(), pred.read_bytes()))
    assert outputs[0] == outputs[1]


def test_predict_process_leaves_numpy_random_unimported(toy_dir):
    tmp_path, manifest, _ = toy_dir
    ckpt = tmp_path / "model.eqcp"
    _tiny_checkpoint(ckpt)
    predict = ["predict", "--manifest", manifest, "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "p.csv")]
    proc = _run_child("-c", f"import sys; from cpi3d.cli import main; "
                      f"assert main({predict!r}) == 0; sys.exit('numpy.random' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "p.csv").exists()


def test_out_of_memory_exits_one(monkeypatch, capsys):
    def exhausted(args, cfg):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setitem(cli._COMMANDS, "simulate-screen", exhausted)
    assert main(["simulate-screen", "--actives", "1", "--decoys", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 8.00 GiB for an array\n"


def test_console_entry_point():
    proc = _run_child("-m", "cpi3d.cli", "--version")
    assert proc.returncode == 0
    assert "cpi3d" in proc.stdout
