import numpy as np
import pytest

from cpi3d import autodiff as ad
from cpi3d.chemio import Atom, LigandMolecule, ProteinStructure, Residue
from cpi3d.equinet import forward


def forward_one(graph, fp, params, cfg, return_features=False, **kwargs):
    """`forward` of one graph (a pack of one) with its bit row as a
    (1, width) matrix: the prediction as a scalar, and with
    `return_features` the `features` list `forward` fills too."""
    features = [] if return_features else None
    pred = ad.reshape(forward(graph, fp.reshape(1, -1), params, cfg, features=features,
                              **kwargs), ())
    return (pred, features) if return_features else pred


def transform_ligand(mol: LigandMolecule, R=None, t=None) -> LigandMolecule:
    R = np.eye(3) if R is None else R
    t = np.zeros(3) if t is None else np.asarray(t, dtype=np.float64)
    atoms = tuple(
        Atom(element=a.element, position=R @ a.position + t,
             formal_charge=a.formal_charge, aromatic=a.aromatic)
        for a in mol.atoms
    )
    return LigandMolecule(id=mol.id, atoms=atoms, bonds=mol.bonds)


def transform_protein(protein: ProteinStructure, R=None, t=None) -> ProteinStructure:
    R = np.eye(3) if R is None else R
    t = np.zeros(3) if t is None else np.asarray(t, dtype=np.float64)
    residues = tuple(
        Residue(aa=r.aa, chain=r.chain, seq_index=r.seq_index,
                ca_position=R @ r.ca_position + t)
        for r in protein.residues
    )
    return ProteinStructure(id=protein.id, residues=residues)


def lattice_receptor(rng, n_residues=300, spacing=5.2, pocket_radius=6.0, side=9):
    """Jittered lattice residues at folded-protein density around an empty
    pocket at the origin: the `n_residues` nearest it of a `side`^3 grid."""
    axis = (np.arange(side) - side // 2) * spacing
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    grid = grid + rng.uniform(-0.5, 0.5, size=grid.shape)
    grid = grid[np.linalg.norm(grid, axis=1) > pocket_radius]
    keep = grid[np.argsort(np.linalg.norm(grid, axis=1), kind="stable")]
    aas = ("ALA", "GLY", "LEU", "SER", "ASP", "LYS", "PHE")
    return ProteinStructure(id="receptor", residues=tuple(
        Residue(aa=aas[i % len(aas)], chain="A", seq_index=i + 1, ca_position=p)
        for i, p in enumerate(keep[:n_residues])
    ))


def pdb_atom_line(serial, name, altloc, resname, chain, seq, x, y, z, element,
                  record="ATOM"):
    """One fixed-column PDB coordinate record."""
    return (f"{record:<6s}{serial:5d} {name:^4s}{altloc:1s}{resname:<3s} "
            f"{chain:1s}{seq:4d}    {x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00"
            f"          {element:>2s}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
