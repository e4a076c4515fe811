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

from .chemio import HeavyAtomRecord, LigandMolecule
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


def type_ligand_atoms(mol: LigandMolecule) -> TypedAtoms:
    """Hydrophobic carbons touch only carbon; N/O accept, and donate when
    their explicit bond orders (aromatic counted 1.5) leave room for an
    implicit hydrogen."""
    n = len(mol.atoms)
    hydrophobic = np.zeros(n, dtype=bool)
    donor = np.zeros(n, dtype=bool)
    acceptor = np.zeros(n, dtype=bool)
    adjacency = mol.neighbors()
    for i, atom in enumerate(mol.atoms):
        nbr_elements = [mol.atoms[j].element for j, _ in adjacency[i]]
        if atom.element == "C":
            hydrophobic[i] = all(e == "C" for e in nbr_elements)
        elif atom.element in _VALENCE:
            acceptor[i] = True
            order_sum = sum(1.5 if order == 4 else order for _, order in adjacency[i])
            donor[i] = round(order_sum) < _VALENCE[atom.element]
    return TypedAtoms(
        positions=mol.coords(),
        radii=np.array([_radius(a.element) for a in mol.atoms]),
        hydrophobic=hydrophobic, donor=donor, acceptor=acceptor,
    )


def type_protein_atoms(atoms: tuple[HeavyAtomRecord, ...]) -> TypedAtoms:
    """Same rules as the ligand, with connectivity inferred from heavy-atom
    distances below the covalent cutoff (single bonds assumed)."""
    pos = np.array([a.position for a in atoms])
    elements = [a.element for a in atoms]
    n = len(atoms)
    i, j, dist = neighbor_pairs(pos, pos, COVALENT_CUTOFF)
    bonded = (dist < COVALENT_CUTOFF) & (i != j)
    i, j = i[bonded], j[bonded]
    is_carbon = np.array([e == "C" for e in elements], dtype=bool)
    valence = np.array([_VALENCE.get(e, 0) for e in elements])
    degree = np.bincount(i, minlength=n)
    non_carbon_nbrs = np.bincount(i[~is_carbon[j]], minlength=n)
    acceptor = valence > 0
    return TypedAtoms(
        positions=pos,
        radii=np.array([_radius(e) for e in elements]),
        hydrophobic=is_carbon & (non_carbon_nbrs == 0),
        donor=acceptor & (degree < valence), acceptor=acceptor,
    )


def ramp(d, a: float, b: float):
    """1 below a, linear to 0 at b, 0 beyond."""
    d = np.asarray(d, dtype=np.float64)
    return np.clip((b - d) / (b - a), 0.0, 1.0)


def count_rotatable_bonds(mol: LigandMolecule) -> int:
    """Acyclic single bonds whose endpoints both have heavy degree >= 2."""
    degrees = mol.degrees()
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

    count = 0
    for b in mol.bonds:
        if b.order != 1:
            continue
        if degrees[b.i] < 2 or degrees[b.j] < 2:
            continue
        if is_bridge(b.i, b.j):
            count += 1
    return count


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


def score_poses(poses, protein_atoms: tuple[HeavyAtomRecord, ...],
                weights: VinaWeights | None = None) -> list[float]:
    """`vina_score` of every pose against one receptor, which is typed once
    for the whole pose set."""
    if any(not pose.atoms for pose in poses):
        raise ValidationError("empty ligand pose")
    if not protein_atoms:
        raise ValidationError("protein has no heavy atoms")
    weights = weights or VinaWeights()
    receptor = type_protein_atoms(protein_atoms)
    return [pairwise_energy(type_ligand_atoms(pose), receptor, weights)
            / (1.0 + weights.rot * count_rotatable_bonds(pose)) for pose in poses]


def vina_score(ligand: LigandMolecule, protein_atoms: tuple[HeavyAtomRecord, ...],
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
