"""Seeded input generators for the three benchmark workloads.

`generate(name, seed, workdir)` writes every input file of one workload
into `workdir` and a `plan.json` that tells the worker which CLI
invocations make up one pass of the workload (a "cycle"), which tiny
invocation warms the process up, and which extra invocation feeds the
output checks. Only `--seed` changes the inputs; sizes are fixed so that
run time and memory do not depend on the seed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from cpi3d.chemio import Atom, LigandMolecule, ProteinStructure, Residue, write_sdf
from cpi3d.checkpoint import save_checkpoint
from cpi3d.equinet import ModelConfig, init_params
from cpi3d.geograph import CutoffConfig
from cpi3d.so3 import random_rotation
from cpi3d.synthetic import (
    clustered_records,
    protein_to_pdb,
    random_complex,
    random_complexes,
    random_ligand,
    write_manifest,
)

WORKLOADS = ("screen-pocket", "train-toy", "rerank-split-eval")

WHY = {
    "screen-pocket": "virtual screening: one 300-residue receptor shared by every record, "
                     "so the forward pass and its pp-edge tensor product dominate",
    "train-toy": "adam training at batch 8 on toy complexes, then predict with the written "
                 "checkpoint: tape, backward and per-op overhead, no shared receptor",
    "rerank-split-eval": "physics rerank, cluster split and grouped metrics: the dense n x n "
                         "blocks, with no network work at all",
}

# screen-pocket
SCREEN_RESIDUES = 300
SCREEN_LIGAND_SIZES = (20, 24, 28, 32, 36, 40)
VOLUME_PER_RESIDUE = 140.0      # A^3, alpha-carbon density of a folded protein
POCKET_RADIUS = 6.0
# Coordinates sit on a 1/40 A grid and the check rotation has entries in
# (1/25)Z, so the rotated copy is exact in the 3-decimal PDB and 4-decimal
# SDF formats and any score difference comes from the program alone.
GRID = 0.025
CHECK_ROTATION = (
    np.array([[3, -4, 0], [4, 3, 0], [0, 0, 5]], dtype=np.float64) / 5.0
    @ np.array([[5, 0, 0], [0, 3, -4], [0, 4, 3]], dtype=np.float64) / 5.0
)
CHECK_TRANSLATION = np.array([7.0, -3.0, 11.0])

# train-toy
TRAIN_RECORDS = 32
HELDOUT_RECORDS = 32
TRAIN_STEPS = 8
TRAIN_BATCH = 8          # 8 steps of 8 are two whole epochs: every record twice

# rerank-split-eval
RERANK_RESIDUES = 500
ATOMS_PER_RESIDUE = 8            # 4,000 heavy atoms
RERANK_POSES = 9
RERANK_LIGAND_ATOMS = 30
SPLIT_FAMILIES = 80
SPLIT_FAMILY_SIZE = 5
EVAL_ACTIVES = 1759              # the paper's screening composition
EVAL_DECOYS = 107590
EVAL_TARGETS = 50
EVAL_METRICS = "ci,spearman,pearson,mse,ef1,bedroc80.5"

_AA = ("ALA", "ARG", "ASN", "ASP", "CYS", "GLN", "GLU", "GLY", "HIS", "ILE",
       "LEU", "LYS", "MET", "PHE", "PRO", "SER", "THR", "TRP", "TYR", "VAL")
_ATOM_NAMES = ("N", "CA", "C", "O", "CB", "CG", "CD", "CE")
_SIDE_ELEMENTS = ("C", "C", "C", "N", "O", "S")


def _snap(x: np.ndarray) -> np.ndarray:
    return np.round(np.asarray(x, dtype=np.float64) / GRID) * GRID


def _ball_points(rng, n: int, min_sep: float, pocket_center: np.ndarray) -> np.ndarray:
    """`n` points uniform in a ball sized for protein density, at least
    `min_sep` apart and outside the pocket sphere (random sequential
    adsorption)."""
    volume = n * VOLUME_PER_RESIDUE + 4.0 / 3.0 * math.pi * POCKET_RADIUS ** 3
    radius = (3.0 * volume / (4.0 * math.pi)) ** (1.0 / 3.0)
    pts = np.empty((n, 3))
    count = 0
    while count < n:
        p = rng.uniform(-radius, radius, size=3)
        if p @ p > radius * radius:
            continue
        if np.linalg.norm(p - pocket_center) < POCKET_RADIUS:
            continue
        if count and np.min(np.sum((pts[:count] - p) ** 2, axis=1)) < min_sep * min_sep:
            continue
        pts[count] = p
        count += 1
    return pts


def _pocket_center(rng, n_residues: int) -> np.ndarray:
    radius = (3.0 * n_residues * VOLUME_PER_RESIDUE / (4.0 * math.pi)) ** (1.0 / 3.0)
    direction = rng.normal(size=3)
    return 0.5 * radius * direction / np.linalg.norm(direction)


def _ca_protein(rng, centers: np.ndarray, protein_id: str) -> ProteinStructure:
    return ProteinStructure(id=protein_id, residues=tuple(
        Residue(aa=str(rng.choice(_AA)), chain="A", seq_index=i + 1, ca_position=c)
        for i, c in enumerate(centers)
    ))


def _move_ligand(mol: LigandMolecule, R: np.ndarray, t: np.ndarray, snap: bool,
                 mol_id: str | None = None) -> LigandMolecule:
    atoms = []
    for a in mol.atoms:
        pos = R @ a.position + t
        atoms.append(Atom(element=a.element, position=_snap(pos) if snap else pos,
                          formal_charge=a.formal_charge, aromatic=a.aromatic))
    return LigandMolecule(id=mol_id or mol.id, atoms=tuple(atoms), bonds=mol.bonds)


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_rows_manifest(path: str, rows):
    lines = ["complex_id,ligand_sdf,protein_pdb"]
    lines += [f"{cid},{sdf},{pdb}" for cid, sdf, pdb in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _write_checkpoint(path: str, seed: int):
    model_cfg, cutoffs = ModelConfig(), CutoffConfig()
    save_checkpoint(path, init_params(model_cfg, cutoffs, seed=seed), config={
        "model": model_cfg.to_dict(), "cutoffs": cutoffs.to_dict(), "seed": seed,
    })


def _manifest(records, workdir: str, sub: str) -> str:
    """Write `records` under `workdir/sub`; return the manifest path
    relative to `workdir`, where the worker runs."""
    return os.path.relpath(write_manifest(records, os.path.join(workdir, sub)), workdir)


def _gen_screen_pocket(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 1])
    pocket = _pocket_center(rng, SCREEN_RESIDUES)
    centers = _snap(_ball_points(rng, SCREEN_RESIDUES, 3.8, pocket))
    protein = _ca_protein(rng, centers, "receptor")
    _write_text(os.path.join(workdir, "receptor.pdb"), protein_to_pdb(protein))

    sizes = list(SCREEN_LIGAND_SIZES)
    rng.shuffle(sizes)
    rows = []
    ligands = []
    for i, n_atoms in enumerate(sizes):
        lig = random_ligand(rng, n_atoms=int(n_atoms), mol_id=f"lig{i}", center=pocket)
        lig = _move_ligand(lig, np.eye(3), np.zeros(3), snap=True)
        ligands.append(lig)
        _write_text(os.path.join(workdir, f"lig{i}.sdf"), write_sdf([lig]))
        rows.append((f"lig{i}", f"lig{i}.sdf", "receptor.pdb"))
    _write_rows_manifest(os.path.join(workdir, "library.csv"), rows)

    # rigidly moved copy of the first complex for the invariance check
    moved = ProteinStructure(id="receptor", residues=tuple(
        Residue(aa=r.aa, chain=r.chain, seq_index=r.seq_index,
                ca_position=CHECK_ROTATION @ r.ca_position + CHECK_TRANSLATION)
        for r in protein.residues
    ))
    _write_text(os.path.join(workdir, "moved_receptor.pdb"), protein_to_pdb(moved))
    _write_text(os.path.join(workdir, "moved_lig0.sdf"), write_sdf(
        [_move_ligand(ligands[0], CHECK_ROTATION, CHECK_TRANSLATION, snap=False)]))
    _write_rows_manifest(os.path.join(workdir, "moved.csv"),
                         [("lig0", "moved_lig0.sdf", "moved_receptor.pdb")])

    _write_checkpoint(os.path.join(workdir, "model.ckpt"), seed)
    tiny = _manifest(random_complexes(1, seed=seed), workdir, "tiny")
    n_atoms = sum(len(l.atoms) for l in ligands)
    return {
        "warmup": [["predict", "--manifest", tiny, "--checkpoint", "model.ckpt",
                    "--out", "warm_pred.csv"]],
        "cycle": [{"phase": "predict", "items": len(rows),
                   "argv": ["predict", "--manifest", "library.csv", "--checkpoint",
                            "model.ckpt", "--out", "pred_{op}.csv"]}],
        "extra": [["predict", "--manifest", "moved.csv", "--checkpoint", "model.ckpt",
                   "--out", "moved_pred.csv"]],
        "sizes": {"residues": SCREEN_RESIDUES, "complexes": len(rows),
                  "ligand_atoms": n_atoms,
                  "receptor_share": 1.0 - len({r[2] for r in rows}) / len(rows)},
    }


def _toy_records(rng, n: int, prefix: str, with_label: bool):
    """Toy complexes of 4..10 atoms and 4..10 residues, 14 nodes each, the
    atom counts a fixed multiset in seeded order: every batch holds the
    same number of nodes, so neither the work nor the memory peak depends
    on the seed."""
    atoms = rng.permutation(np.resize(np.arange(4, 11), n))
    return [random_complex(rng, complex_id=f"{prefix}{i}", n_atoms=int(a),
                           n_residues=14 - int(a), with_label=with_label)
            for i, a in enumerate(atoms)]


def _gen_train_toy(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 2])
    train_manifest = _manifest(_toy_records(rng, TRAIN_RECORDS, "toy", True), workdir, "train")
    heldout_manifest = _manifest(_toy_records(rng, HELDOUT_RECORDS, "held", False),
                                 workdir, "heldout")
    tiny = _manifest(random_complexes(2, seed=seed, with_label=True), workdir, "tiny")
    train_argv = ["train", "--manifest", train_manifest, "--optimizer", "adam",
                  "--batch-size", str(TRAIN_BATCH), "--steps", str(TRAIN_STEPS),
                  "--seed", str(seed), "--out", "model_{op}.ckpt",
                  "--loss-out", "loss_{op}.csv"]
    return {
        "warmup": [["train", "--manifest", tiny, "--steps", "1", "--batch-size", "2",
                    "--seed", str(seed), "--out", "warm.ckpt"],
                   ["predict", "--manifest", tiny, "--checkpoint", "warm.ckpt",
                    "--out", "warm_pred.csv"]],
        "cycle": [
            {"phase": "train", "items": TRAIN_STEPS, "argv": train_argv},
            {"phase": "predict", "items": HELDOUT_RECORDS,
             "argv": ["predict", "--manifest", heldout_manifest, "--checkpoint",
                      "model_{op}.ckpt", "--out", "pred_{op}.csv"]},
        ],
        "extra": [],
        "sizes": {"train_records": TRAIN_RECORDS, "heldout_records": HELDOUT_RECORDS,
                  "steps": TRAIN_STEPS, "batch_size": TRAIN_BATCH, "receptor_share": 0.0},
    }


def _full_atom_pdb(rng, centers: np.ndarray) -> str:
    """Heavy-atom PDB: per residue a small bonded tree around its CA."""
    lines = []
    serial = 1
    for i, ca in enumerate(centers):
        res = str(rng.choice(_AA))
        positions = [ca]
        for k in range(1, ATOMS_PER_RESIDUE):
            parent = positions[int(rng.integers(0, k))]
            d = rng.normal(size=3)
            positions.append(parent + 1.5 * d / np.linalg.norm(d))
        for k, (name, pos) in enumerate(zip(_ATOM_NAMES, positions)):
            element = ("N", "C", "C", "O", "C")[k] if k < 5 else str(rng.choice(_SIDE_ELEMENTS))
            x, y, z = pos
            lines.append(f"ATOM  {serial:5d} {name:<4s} {res:<3s} A{i + 1:4d}    "
                         f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00          {element:>2s}")
            serial += 1
    lines.append("END")
    return "\n".join(lines) + "\n"


def _eval_rows(rng) -> list[str]:
    """Prediction CSV rows in the paper's composition, cut into groups."""
    actives = np.array_split(np.arange(EVAL_ACTIVES), EVAL_TARGETS)
    decoys = np.array_split(np.arange(EVAL_DECOYS), EVAL_TARGETS)
    rows = []
    for t in range(EVAL_TARGETS):
        n_act, n_dec = len(actives[t]), len(decoys[t])
        scores = np.concatenate([rng.normal(1.0, 1.0, n_act), rng.normal(0.0, 1.0, n_dec)])
        labels = [1] * n_act + [0] * n_dec
        rows += [f"{s!r},{l},T{t:03d}" for s, l in zip(scores.tolist(), labels)]
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


def _gen_rerank_split_eval(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 3])
    pocket = _pocket_center(rng, RERANK_RESIDUES)
    centers = _ball_points(rng, RERANK_RESIDUES, 3.8, pocket)
    _write_text(os.path.join(workdir, "receptor_full.pdb"), _full_atom_pdb(rng, centers))

    base = random_ligand(rng, n_atoms=RERANK_LIGAND_ATOMS, mol_id="pose", center=np.zeros(3))
    centroid = base.coords().mean(axis=0)
    poses = []
    for k in range(RERANK_POSES):
        R = random_rotation(rng)
        t = pocket - R @ centroid + rng.normal(0.0, 0.7, 3)
        poses.append(_move_ligand(base, R, t, snap=False, mol_id=f"pose{k}"))
    _write_text(os.path.join(workdir, "poses.sdf"), write_sdf(poses))
    confidences = rng.uniform(0.0, 1.0, RERANK_POSES)
    _write_text(os.path.join(workdir, "confidences.txt"),
                "".join(f"{c!r}\n" for c in confidences.tolist()))

    split_manifest = _manifest(
        clustered_records(SPLIT_FAMILIES, SPLIT_FAMILY_SIZE, seed=int(rng.integers(0, 2 ** 31))),
        workdir, "split")
    _write_text(os.path.join(workdir, "scores.csv"),
                "prediction,label,target\n" + "\n".join(_eval_rows(rng)) + "\n")

    tiny = random_complexes(1, seed=seed)[0]
    os.makedirs(os.path.join(workdir, "tiny"), exist_ok=True)
    _write_text(os.path.join(workdir, "tiny", "pose.sdf"), write_sdf(list(tiny.poses)))
    _write_text(os.path.join(workdir, "tiny", "receptor.pdb"),
                _full_atom_pdb(rng, tiny.protein.ca_coords()))
    tiny_split = _manifest(clustered_records(2, 2, seed=seed), workdir, "tiny/split")
    _write_text(os.path.join(workdir, "tiny", "scores.csv"),
                "prediction,label,target\n0.5,1,A\n0.1,0,A\n0.3,0,A\n")
    return {
        "warmup": [
            ["rerank", "--poses", "tiny/pose.sdf", "--protein",
             "tiny/receptor.pdb", "--out", "warm_rerank.csv"],
            ["split", "--manifest", tiny_split, "--setting", "novel_pair", "--folds", "2",
             "--out", "warm_split.json"],
            ["eval", "--pred", "tiny/scores.csv", "--group-by", "target",
             "--metrics", EVAL_METRICS, "--out", "warm_eval.json"],
        ],
        "cycle": [
            {"phase": "rerank", "items": RERANK_POSES,
             "argv": ["rerank", "--poses", "poses.sdf", "--protein", "receptor_full.pdb",
                      "--confidences", "confidences.txt", "--out", "rerank_{op}.csv"]},
            {"phase": "split", "items": SPLIT_FAMILIES * SPLIT_FAMILY_SIZE,
             "argv": ["split", "--manifest", split_manifest, "--setting", "novel_pair",
                      "--seed", str(seed), "--out", "split_{op}.json"]},
            {"phase": "eval", "items": EVAL_ACTIVES + EVAL_DECOYS,
             "argv": ["eval", "--pred", "scores.csv", "--group-by", "target",
                      "--metrics", EVAL_METRICS, "--out", "eval_{op}.json"]},
        ],
        "extra": [],
        "sizes": {"receptor_heavy_atoms": RERANK_RESIDUES * ATOMS_PER_RESIDUE,
                  "poses": RERANK_POSES, "ligand_atoms": RERANK_LIGAND_ATOMS,
                  "split_records": SPLIT_FAMILIES * SPLIT_FAMILY_SIZE,
                  "split_families": SPLIT_FAMILIES,
                  "eval_rows": EVAL_ACTIVES + EVAL_DECOYS, "eval_targets": EVAL_TARGETS,
                  "receptor_share": 1.0 - 1.0 / RERANK_POSES},
    }


_GENERATORS = {
    "screen-pocket": _gen_screen_pocket,
    "train-toy": _gen_train_toy,
    "rerank-split-eval": _gen_rerank_split_eval,
}


def generate(name: str, seed: int, workdir: str) -> dict:
    """Write the inputs of workload `name` into `workdir`; return the plan."""
    os.makedirs(workdir, exist_ok=True)
    plan = _GENERATORS[name](seed, workdir)
    with open(os.path.join(workdir, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1, sort_keys=True)
    return plan
