"""Seeded generators for toy complexes and clustered libraries.

Used by the test suite, the acceptance runs, and demo workflows: random
tree-shaped ligands docked inside a shell of residues, plus molecule and
protein families with planted near-duplicates for split experiments.
"""

from __future__ import annotations

import os

import numpy as np

from .chemio import (
    AMINO_ACIDS_3TO1,
    ComplexRecord,
    LigandMolecule,
    ProteinStructure,
    write_sdf,
)

_ELEMENTS = ("C", "C", "C", "N", "O", "S")
_AA_CODES = tuple(sorted(AMINO_ACIDS_3TO1))


def random_ligand(rng: np.random.Generator, n_atoms: int | None = None,
                  mol_id: str = "ligand", elements=_ELEMENTS,
                  center=(0.0, 0.0, 0.0)) -> LigandMolecule:
    """Connected random tree molecule with jittered 3D coordinates."""
    if n_atoms is None:
        n_atoms = int(rng.integers(4, 11))
    center = np.asarray(center, dtype=np.float64)
    positions = [center.copy()]
    parents = []
    for i in range(1, n_atoms):
        parent = int(rng.integers(0, i))
        parents.append(parent)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        positions.append(positions[parent] + direction * rng.uniform(1.3, 1.6))
    symbols = [str(rng.choice(elements)) for _ in range(n_atoms)]
    orders = [int(rng.choice((1, 1, 1, 2))) for _ in range(1, n_atoms)]
    return LigandMolecule(mol_id, bonds=list(zip(parents, range(1, n_atoms), orders)),
                          elements=symbols, positions=positions)


def random_protein(rng: np.random.Generator, n_residues: int | None = None,
                   protein_id: str = "protein", center=(0.0, 0.0, 0.0),
                   shell=(4.0, 9.0)) -> ProteinStructure:
    """Residue alpha carbons on a loose shell around `center`, so ligand
    atoms at the center fall inside the default contact cutoff."""
    if n_residues is None:
        n_residues = int(rng.integers(4, 11))
    center = np.asarray(center, dtype=np.float64)
    aa, ca = [], []
    for _ in range(n_residues):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        ca.append(center + direction * rng.uniform(*shell))
        aa.append(str(rng.choice(_AA_CODES)))
    return ProteinStructure(protein_id, aa=aa, chain=["A"] * n_residues,
                            seq_index=range(1, n_residues + 1), ca=ca)


def random_complex(rng: np.random.Generator, complex_id: str = "toy",
                   n_atoms: int | None = None, n_residues: int | None = None,
                   with_label: bool = False) -> ComplexRecord:
    ligand = random_ligand(rng, n_atoms, mol_id=f"{complex_id}_lig")
    protein = random_protein(rng, n_residues, protein_id=f"{complex_id}_prot")
    label = float(10 ** rng.uniform(0, 6)) if with_label else None
    return ComplexRecord(complex_id=complex_id, ligand=ligand, protein=protein,
                         label_ec50_nm=label)


def random_complexes(n: int, seed: int = 0, with_label: bool = False,
                     n_atoms=None, n_residues=None) -> list[ComplexRecord]:
    rng = np.random.default_rng(seed)
    return [
        random_complex(rng, complex_id=f"toy{i}", n_atoms=n_atoms,
                       n_residues=n_residues, with_label=with_label)
        for i in range(n)
    ]


def mutate_ligand(base: LigandMolecule, mol_id: str, leaf: int,
                  element: str, flip_order: bool = False) -> LigandMolecule:
    """Near-duplicate: swap one terminal atom's element and optionally the
    order of its bond. Changes stay inside the fingerprint radius of that
    leaf, so every variant of a family remains close to every other."""
    elements = base.elements.tolist()
    elements[leaf] = element
    bonds = base.bond_table.copy()
    touching = np.flatnonzero((bonds[:, 0] == leaf) | (bonds[:, 1] == leaf))
    if flip_order and touching.size:
        bonds[touching[0], 2] = 1 if bonds[touching[0], 2] != 1 else 2
    return LigandMolecule(mol_id, bonds=bonds, elements=elements, positions=base.positions,
                          charges=base.charges, aromatic=base.aromatic)


def ligand_family(rng: np.random.Generator, size: int, family_id: str) -> list[LigandMolecule]:
    """One random skeleton with a family-specific element palette plus
    variants that all mutate the same terminal atom: every within-family
    pair differs only near that leaf, while distinct skeletons and
    palettes keep families apart."""
    palette = list(rng.choice(("C", "N", "O", "S", "P", "F", "Cl", "Br"),
                              size=3, replace=False))
    base = random_ligand(rng, n_atoms=int(rng.integers(10, 17)),
                         mol_id=f"{family_id}_0", elements=tuple(palette))
    leaves = np.flatnonzero(base.degrees() <= 1).tolist()
    leaf = int(rng.choice(leaves)) if leaves else 0
    alternates = [e for e in ("C", "N", "O", "S") if e != base.elements[leaf]]
    family = [base]
    for v in range(1, size):
        element = alternates[(v - 1) % len(alternates)]
        family.append(mutate_ligand(base, f"{family_id}_{v}", leaf, element,
                                    flip_order=(v - 1) >= len(alternates)))
    return family


def mutate_sequence(rng: np.random.Generator, sequence: list[str], n_mutations: int) -> list[str]:
    out = list(sequence)
    for _ in range(n_mutations):
        pos = int(rng.integers(0, len(out)))
        out[pos] = str(rng.choice(_AA_CODES))
    return out


def protein_family(rng: np.random.Generator, size: int, family_id: str,
                   length: int = 80) -> list[ProteinStructure]:
    base_seq = [str(rng.choice(_AA_CODES)) for _ in range(length)]
    proteins = []
    for v in range(size):
        seq = base_seq if v == 0 else mutate_sequence(rng, base_seq, n_mutations=3)
        ca = np.zeros((length, 3))
        ca[:, 0] = 3.8 * np.arange(length)
        proteins.append(ProteinStructure(f"{family_id}_{v}", aa=seq, chain=["A"] * length,
                                         seq_index=range(1, length + 1), ca=ca))
    return proteins


def clustered_records(n_families: int, family_size: int, seed: int = 0) -> list[ComplexRecord]:
    """Records with planted compound and protein near-duplicate clusters;
    record i pairs molecule family f with protein family f."""
    rng = np.random.default_rng(seed)
    records = []
    for f in range(n_families):
        mols = ligand_family(rng, family_size, f"fam{f}")
        prots = protein_family(rng, family_size, f"fam{f}")
        for v in range(family_size):
            records.append(ComplexRecord(
                complex_id=f"fam{f}_rec{v}", ligand=mols[v], protein=prots[v],
                label_ec50_nm=float(10 ** rng.uniform(0, 6)),
            ))
    return records


def protein_to_pdb(protein: ProteinStructure) -> str:
    """Minimal CA-trace PDB text (one ATOM record per residue)."""
    lines = []
    columns = (protein.aa.tolist(), protein.chain.tolist(), protein.seq_index.tolist(),
               protein.ca.tolist())
    for serial, (aa, chain, seq_index, (x, y, z)) in enumerate(zip(*columns), start=1):
        lines.append(
            f"ATOM  {serial:5d}  CA  {aa:<3s} {chain:1s}{seq_index:4d}"
            f"    {x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00           C"
        )
    lines.append("END")
    return "\n".join(lines) + "\n"


def write_manifest(records: list[ComplexRecord], directory: str) -> str:
    """Materialize records as SDF/PDB files plus a manifest CSV; returns
    the manifest path."""
    os.makedirs(directory, exist_ok=True)
    manifest = os.path.join(directory, "manifest.csv")
    rows = ["complex_id,ligand_sdf,protein_pdb,ec50_nm,is_active"]
    for rec in records:
        sdf_name = f"{rec.complex_id}.sdf"
        pdb_name = f"{rec.complex_id}.pdb"
        with open(os.path.join(directory, sdf_name), "w", encoding="utf-8") as fh:
            write_sdf(list(rec.poses), fh)
        with open(os.path.join(directory, pdb_name), "w", encoding="utf-8") as fh:
            fh.write(protein_to_pdb(rec.protein))
        ec50 = "" if rec.label_ec50_nm is None else repr(float(rec.label_ec50_nm))
        active = "" if rec.is_active is None else str(int(rec.is_active))
        rows.append(f"{rec.complex_id},{sdf_name},{pdb_name},{ec50},{active}")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    return manifest
