"""Empirical intermolecular scoring of ligand poses and confidence fusion.

The pairwise terms follow the classic docking decomposition: two attractive
gaussians of the surface distance, a quadratic steric clash penalty, and
ramped hydrophobic / hydrogen-bond contacts, divided by a rotatable-bond
flexibility penalty. Typing uses a minimal rule set so no chemistry
toolkit is needed; weights are configurable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .chemio import HeavyAtoms, LigandMolecule
from .errors import ValidationError
from .geograph import neighbor_pairs

VDW_RADII = {
    "C": 1.9, "N": 1.8, "O": 1.7, "S": 2.0, "P": 2.1,
    "F": 1.5, "Cl": 1.8, "Br": 2.0, "I": 2.2,
}
DEFAULT_VDW = 1.9
INTERACTION_CUTOFF = 8.0
# heavy-atom pairs closer than this are treated as covalently bonded when
# inferring protein connectivity (PDB carries no bond records)
COVALENT_CUTOFF = 1.9

_VALENCE = {"N": 3, "O": 2}


@dataclass(frozen=True)
class VinaWeights:
    gauss1: float = -0.0356
    gauss2: float = -0.00516
    repulsion: float = 0.840
    hydrophobic: float = -0.0351
    hbond: float = -0.587
    rot: float = 0.0585

    def __post_init__(self):
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValidationError(f"weight {f.name} must be finite")


@dataclass(frozen=True)
class ScoredPose:
    pose_index: int
    e_vina: float
    upstream_confidence: float | None = None
    fused: float | None = None

    def __post_init__(self):
        if (self.fused is None) != (self.upstream_confidence is None):
            raise ValidationError("fused score present iff confidence present")


@dataclass(frozen=True)
class TypedAtoms:
    """Element, position, and interaction-class flags for a set of atoms."""
    positions: np.ndarray
    radii: np.ndarray
    hydrophobic: np.ndarray
    donor: np.ndarray
    acceptor: np.ndarray


def _radius(element: str) -> float:
    return VDW_RADII.get(element, DEFAULT_VDW)


def _type_atoms(elements, positions, i, j, order) -> TypedAtoms:
    """The one rule set, over a bond list that holds every bond in both
    directions (i -> j, bond order `order`): a carbon is hydrophobic when
    no neighbour is a non-carbon; N and O accept, and donate when their
    bond-order sum (aromatic 4 counted 1.5), rounded half to even, is
    below the valence, leaving room for an implicit hydrogen."""
    n = len(elements)
    is_carbon = np.array([e == "C" for e in elements], dtype=bool)
    valence = np.array([_VALENCE.get(e, 0) for e in elements])
    non_carbon_nbrs = np.bincount(i[~is_carbon[j]], minlength=n)
    order_sum = np.bincount(i, weights=np.where(order == 4, 1.5, order), minlength=n)
    acceptor = valence > 0
    return TypedAtoms(
        positions=positions,
        radii=np.array([_radius(e) for e in elements]),
        hydrophobic=is_carbon & (non_carbon_nbrs == 0),
        donor=acceptor & (np.round(order_sum) < valence), acceptor=acceptor,
    )


def type_ligand_atoms(mol: LigandMolecule) -> TypedAtoms:
    """Type the ligand atoms over the bonds of its SDF record."""
    i, j, order = mol.bond_table.T
    return _type_atoms(mol.elements.tolist(), mol.positions,
                       np.concatenate([i, j]), np.concatenate([j, i]), np.tile(order, 2))


def type_protein_atoms(atoms: HeavyAtoms) -> TypedAtoms:
    """Same rules as the ligand, with connectivity inferred from heavy-atom
    distances below the covalent cutoff (single bonds assumed)."""
    pos = atoms.positions
    i, j, dist = neighbor_pairs(pos, pos, COVALENT_CUTOFF)
    bonded = (dist < COVALENT_CUTOFF) & (i != j)
    return _type_atoms(atoms.elements, pos, i[bonded], j[bonded],
                       np.ones(int(bonded.sum()), dtype=np.int64))


def ramp(d, a: float, b: float):
    """1 below a, linear to 0 at b, 0 beyond."""
    d = np.asarray(d, dtype=np.float64)
    return np.clip((b - d) / (b - a), 0.0, 1.0)


def count_rotatable_bonds(mol: LigandMolecule) -> int:
    """Acyclic single bonds whose endpoints both have heavy degree >= 2."""
    degrees = mol.degrees().tolist()
    adjacency = mol.neighbors()

    def is_bridge(i: int, j: int) -> bool:
        # bond (i, j) is acyclic iff removing it disconnects i from j
        seen = {i}
        stack = [i]
        while stack:
            u = stack.pop()
            for v, _ in adjacency[u]:
                if u == i and v == j:
                    continue
                if v == j:
                    return False
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return True

    return sum(1 for i, j, order in mol.bond_table.tolist()
               if order == 1 and degrees[i] >= 2 and degrees[j] >= 2 and is_bridge(i, j))


def pairwise_energy(lig: TypedAtoms, prot: TypedAtoms, weights: VinaWeights) -> float:
    """Sum of weighted pair terms over intermolecular pairs within 8 A of
    center distance. Pairs are enumerated ligand-major, so the summation
    order is pinned by atom order."""
    i, j, r = neighbor_pairs(lig.positions, prot.positions, INTERACTION_CUTOFF)
    if not i.size:
        return 0.0
    d = r - lig.radii[i] - prot.radii[j]
    gauss1 = np.exp(-((d / 0.5) ** 2))
    gauss2 = np.exp(-(((d - 3.0) / 2.0) ** 2))
    repulsion = np.where(d < 0.0, d * d, 0.0)
    hp_pair = lig.hydrophobic[i] & prot.hydrophobic[j]
    hb_pair = (lig.donor[i] & prot.acceptor[j]) | (lig.acceptor[i] & prot.donor[j])
    terms = (
        weights.gauss1 * gauss1
        + weights.gauss2 * gauss2
        + weights.repulsion * repulsion
        + weights.hydrophobic * ramp(d, 0.5, 1.5) * hp_pair
        + weights.hbond * ramp(d, -0.7, 0.0) * hb_pair
    )
    return float(terms.sum())


def score_poses(poses, protein_atoms: HeavyAtoms,
                weights: VinaWeights | None = None) -> list[float]:
    """`vina_score` of every pose against one receptor, which is typed once
    for the whole pose set."""
    if any(not len(pose) for pose in poses):
        raise ValidationError("empty ligand pose")
    if not protein_atoms:
        raise ValidationError("protein has no heavy atoms")
    weights = weights or VinaWeights()
    receptor = type_protein_atoms(protein_atoms)
    return [pairwise_energy(type_ligand_atoms(pose), receptor, weights)
            / (1.0 + weights.rot * count_rotatable_bonds(pose)) for pose in poses]


def vina_score(ligand: LigandMolecule, protein_atoms: HeavyAtoms,
               weights: VinaWeights | None = None) -> float:
    """Intermolecular energy divided by the flexibility penalty
    1 + w_rot * N_rotatable. Depends on distances only, so it is exactly
    invariant under joint rigid motion of both partners."""
    return score_poses([ligand], protein_atoms, weights)[0]


def fuse_scores(confidences, e_vinas, lam: float = 1.0, alpha: float = 1.0) -> np.ndarray:
    """Blend upstream confidences with energies across one pose set.

    Energies are z-scored over the set (sample std) and negated so that
    lower energy raises the fused score; a single pose z-scores to 0.
    Higher fused is better.
    """
    p = np.asarray(confidences, dtype=np.float64)
    e = np.asarray(e_vinas, dtype=np.float64)
    if p.shape != e.shape:
        raise ValidationError("confidence and energy arrays must align")
    if e.size < 2:
        z = np.zeros_like(e)
    else:
        std = e.std(ddof=1)
        z = (e - e.mean()) / std if std > 0 else np.zeros_like(e)
    return lam * p + alpha * (-z)


def rerank_poses(poses, protein_atoms, weights: VinaWeights | None = None,
                 confidences=None, lam: float = 1.0, alpha: float = 1.0) -> list[ScoredPose]:
    """Score every pose and sort best-first.

    With confidences present the fused score (descending) ranks poses;
    otherwise raw energy ascending. Ties preserve pose order.
    """
    poses = list(poses)
    if not poses:
        raise ValidationError("no poses to rank")
    if confidences is not None and len(confidences) != len(poses):
        raise ValidationError("need one confidence per pose")
    energies = score_poses(poses, protein_atoms, weights)

    if confidences is not None:
        fused = fuse_scores(confidences, energies, lam=lam, alpha=alpha)
        scored = [
            ScoredPose(pose_index=i, e_vina=energies[i],
                       upstream_confidence=float(confidences[i]), fused=float(fused[i]))
            for i in range(len(poses))
        ]
        scored.sort(key=lambda s: (-s.fused, s.pose_index))
    else:
        scored = [ScoredPose(pose_index=i, e_vina=energies[i]) for i in range(len(poses))]
        scored.sort(key=lambda s: (s.e_vina, s.pose_index))
    return scored
