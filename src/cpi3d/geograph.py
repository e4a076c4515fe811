"""Heterogeneous radius graphs over ligand atoms and protein residues.

Nodes are ligand heavy atoms and residue alpha carbons; undirected pairs
within a type-dependent cutoff become two directed edges carrying the
relative vector, distance, and a Gaussian radial-basis embedding of the
distance.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .chemio import AMINO_ACIDS_3TO1, ComplexRecord, LigandMolecule, ProteinStructure
from .errors import ValidationError

LIGAND_ELEMENT_CLASSES = ("C", "N", "O", "S", "P", "F", "Cl", "Br", "I")
MAX_DEGREE_CLASS = 5
CHARGE_CLASSES = (-2, -1, 0, 1, 2)
LIGAND_FEATURE_DIM = len(LIGAND_ELEMENT_CLASSES) + 1 + (MAX_DEGREE_CLASS + 1) + len(CHARGE_CLASSES) + 1
RESIDUE_CLASSES = tuple(sorted(AMINO_ACIDS_3TO1)) + ("UNK",)
RESIDUE_FEATURE_DIM = len(RESIDUE_CLASSES)
# edges per pack of `edge_budget_packs`: peak memory follows this budget,
# not the batch or manifest size
PACK_EDGE_BUDGET = 8192


class NodeKind(enum.IntEnum):
    LIGAND_ATOM = 0
    RESIDUE = 1


class EdgeKind(str, enum.Enum):
    CC = "cc"
    PP = "pp"
    PC = "pc"


@dataclass(frozen=True)
class CutoffConfig:
    """Distance cutoffs per edge kind plus the RBF discretization."""
    cc: float = 5.0
    pp: float = 15.0
    pc: float = 10.0
    rbf_k: int = 32
    rbf_gamma: float | None = None     # default 10 / nu_max
    rbf_nu_min: float = 0.0
    rbf_nu_max: float | None = None    # default max(cc, pp, pc)

    def __post_init__(self):
        for name in ("cc", "pp", "pc"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"cutoff {name} must be positive")
        if self.rbf_k < 2:
            raise ValidationError("rbf_k must be at least 2")
        if self.rbf_nu_max is None:
            object.__setattr__(self, "rbf_nu_max", max(self.cc, self.pp, self.pc))
        if self.rbf_gamma is None:
            object.__setattr__(self, "rbf_gamma", 10.0 / self.rbf_nu_max)
        if not self.rbf_nu_min < self.rbf_nu_max:
            raise ValidationError("rbf_nu_min must be below rbf_nu_max")

    def cutoff(self, kind: EdgeKind) -> float:
        return {EdgeKind.CC: self.cc, EdgeKind.PP: self.pp, EdgeKind.PC: self.pc}[kind]

    def anchors(self) -> np.ndarray:
        return np.linspace(self.rbf_nu_min, self.rbf_nu_max, self.rbf_k)

    def to_dict(self) -> dict:
        from .config import config_doc   # cpi3d.config imports this module
        return config_doc(self)


def rbf_embed(dist, cfg: CutoffConfig) -> np.ndarray:
    """Gaussian radial basis: component i is exp(-gamma (d - nu_i)^2).

    Anchors nu_i are evenly spaced on [nu_min, nu_max]. Accepts a scalar or
    an array of distances; the basis index is the trailing axis.
    """
    d = np.asarray(dist, dtype=np.float64)
    nu = cfg.anchors()
    return np.exp(-cfg.rbf_gamma * (d[..., None] - nu) ** 2)


@dataclass(frozen=True)
class EdgeSet:
    """Directed edges of one kind, sorted by (destination, source)."""
    kind: EdgeKind
    a: np.ndarray       # destination node indices
    b: np.ndarray       # source node indices
    r_vec: np.ndarray   # position[b] - position[a], shape (n, 3)
    dist: np.ndarray    # shape (n,)
    rbf: np.ndarray     # shape (n, k)

    def __len__(self):
        return len(self.a)


@dataclass(frozen=True)
class HeteroGraph:
    n_ligand: int
    n_residue: int
    positions: np.ndarray          # (n_nodes, 3), ligand atoms first
    kinds: np.ndarray              # (n_nodes,), NodeKind values
    ligand_features: np.ndarray    # (n_ligand, LIGAND_FEATURE_DIM)
    residue_features: np.ndarray   # (n_residue, RESIDUE_FEATURE_DIM)
    edges: dict[EdgeKind, EdgeSet]
    warnings: tuple[str, ...] = ()

    @property
    def n_nodes(self) -> int:
        return self.n_ligand + self.n_residue

    def edge_count(self) -> int:
        return sum(len(e) for e in self.edges.values())


@dataclass(frozen=True)
class GraphPack:
    """Disjoint union of complex graphs, the unit of one batched forward.

    Graphs are joined in order, each graph's ligand atoms then its
    residues, so every graph's nodes form one contiguous run. Edge indices
    are shifted by their graph's node offset and concatenated in graph
    order: each kind stays sorted by (destination, source), and every
    node's messages are summed in the order of its own graph.
    """
    graphs: tuple[HeteroGraph, ...]
    node_graph: np.ndarray         # (n_nodes,) index of each node's graph
    kinds: np.ndarray              # (n_nodes,) NodeKind values
    ligand_features: np.ndarray    # every graph's ligand rows, in graph order
    residue_features: np.ndarray   # every graph's residue rows, in graph order
    feature_rows: np.ndarray       # (n_nodes,) each node's row in ligand rows + residue rows
    edges: dict[EdgeKind, EdgeSet]

    @property
    def n_graphs(self) -> int:
        return len(self.graphs)

    @property
    def n_nodes(self) -> int:
        return len(self.kinds)


def _join(parts: list[np.ndarray], shifts=None) -> np.ndarray:
    """Concatenate the graphs' arrays, each shifted by its graph's node
    offset if `shifts` is given; a pack of one shares its graph's arrays."""
    if len(parts) == 1:
        return parts[0]
    if shifts is not None:
        parts = [p + shift for p, shift in zip(parts, shifts)]
    return np.concatenate(parts)


def pack_graphs(graphs) -> GraphPack:
    """Join graphs into one `GraphPack`; a single graph is a pack of one."""
    graphs = tuple(graphs)
    if not graphs:
        raise ValidationError("cannot pack zero graphs")
    sizes = [g.n_nodes for g in graphs]
    offsets = np.cumsum([0] + sizes[:-1])
    kinds = _join([g.kinds for g in graphs])
    is_ligand = kinds == NodeKind.LIGAND_ATOM
    n_ligand = int(is_ligand.sum())
    feature_rows = np.empty(len(kinds), dtype=np.intp)
    feature_rows[is_ligand] = np.arange(n_ligand)
    feature_rows[~is_ligand] = n_ligand + np.arange(len(kinds) - n_ligand)
    edges = {}
    for kind in graphs[0].edges:
        sets = [g.edges[kind] for g in graphs]
        edges[kind] = EdgeSet(
            kind=kind,
            a=_join([es.a for es in sets], offsets), b=_join([es.b for es in sets], offsets),
            r_vec=_join([es.r_vec for es in sets]), dist=_join([es.dist for es in sets]),
            rbf=_join([es.rbf for es in sets]))
    return GraphPack(
        graphs=graphs, node_graph=np.repeat(np.arange(len(graphs)), sizes), kinds=kinds,
        ligand_features=_join([g.ligand_features for g in graphs]),
        residue_features=_join([g.residue_features for g in graphs]),
        feature_rows=feature_rows, edges=edges,
    )


def edge_budget_packs(items, build):
    """Yield (run of `items`, `GraphPack` of their graphs) in order, a run
    holding at most `PACK_EDGE_BUDGET` edges or one graph over it. Graphs
    come from `build(item)`, lazily: a run over the budget is yielded
    before the next graph is built, others look one graph ahead."""
    run, graphs, used = [], [], 0
    for item in items:
        graph = build(item)
        if graphs and used + graph.edge_count() > PACK_EDGE_BUDGET:
            yield run, pack_graphs(graphs)
            run, graphs, used = [], [], 0
        run.append(item)
        graphs.append(graph)
        used += graph.edge_count()
        del graph  # an over-budget run is freed before the next build
        if used > PACK_EDGE_BUDGET:
            yield run, pack_graphs(graphs)
            run, graphs, used = [], [], 0
    if graphs:
        yield run, pack_graphs(graphs)


def ligand_atom_features(mol: LigandMolecule) -> np.ndarray:
    """One-hot chemistry features: element, degree (clamped to 5), formal
    charge (clipped to [-2, 2]), aromatic flag."""
    n = len(mol.atoms)
    feats = np.zeros((n, LIGAND_FEATURE_DIM), dtype=np.float64)
    degrees = mol.degrees()
    n_el = len(LIGAND_ELEMENT_CLASSES)
    for i, atom in enumerate(mol.atoms):
        if atom.element in LIGAND_ELEMENT_CLASSES:
            feats[i, LIGAND_ELEMENT_CLASSES.index(atom.element)] = 1.0
        else:
            feats[i, n_el] = 1.0
        col = n_el + 1
        feats[i, col + min(degrees[i], MAX_DEGREE_CLASS)] = 1.0
        col += MAX_DEGREE_CLASS + 1
        charge = int(np.clip(atom.formal_charge, CHARGE_CLASSES[0], CHARGE_CLASSES[-1]))
        feats[i, col + CHARGE_CLASSES.index(charge)] = 1.0
        col += len(CHARGE_CLASSES)
        feats[i, col] = 1.0 if atom.aromatic else 0.0
    return feats


def residue_node_features(protein: ProteinStructure) -> np.ndarray:
    """One-hot over the 20 standard amino acids plus UNK."""
    n = len(protein.residues)
    feats = np.zeros((n, RESIDUE_FEATURE_DIM), dtype=np.float64)
    for i, res in enumerate(protein.residues):
        feats[i, RESIDUE_CLASSES.index(res.aa)] = 1.0
    return feats


# a cell and its 26 neighbours, as (dx, dy, dz) cell steps
_CELL_OFFSETS = np.indices((3, 3, 3)).reshape(3, -1).T - 1


def neighbor_pairs(a_pos, b_pos, cutoff: float):
    """All pairs (i, j) with |b_pos[j] - a_pos[i]| <= cutoff, sorted by (i, j).

    A cell list: both point sets are binned into cubes a hair wider than the
    cutoff, so every pair within the cutoff lies in the same or an adjacent
    cube, and each point of `a_pos` is checked only against the points of
    `b_pos` in its 27 surrounding cubes. Memory grows with the number of
    candidate pairs, not with len(a_pos) * len(b_pos).

    Each distance is sqrt(sum((b_pos[j] - a_pos[i])**2)) evaluated exactly
    as a dense (len(a_pos), len(b_pos)) block would evaluate it, so the
    `<=` test and any later test or sum over the returned distances agree
    bit for bit with the dense computation. A set searched against itself
    yields its (i, i) pairs at distance 0; callers drop them.

    Returns (i, j, dist) as intp, intp and float64 arrays.
    """
    a = np.asarray(a_pos, dtype=np.float64).reshape(-1, 3)
    b = np.asarray(b_pos, dtype=np.float64).reshape(-1, 3)
    if len(a) == 0 or len(b) == 0:
        none = np.zeros(0, dtype=np.intp)
        return none, none, np.zeros(0)
    lo = np.minimum(a.min(axis=0), b.min(axis=0))
    extent = np.maximum(a.max(axis=0), b.max(axis=0)) - lo
    # the slack outgrows the rounding in the cell coordinates, so a pair at
    # exactly the cutoff never lands two cells apart
    width = cutoff * (1.0 + 1e-6) + 1e-12 * float(extent.max())
    # one empty cell of padding on every side keeps neighbour keys unaliased
    dims = np.floor(extent / width) + 3
    if float(np.prod(dims)) >= 2.0 ** 62:
        raise ValidationError(f"points span too many {cutoff} A cells for a neighbour search")
    dims = dims.astype(np.int64)
    stride = np.array([dims[1] * dims[2], dims[2], 1])
    a_key = (np.floor((a - lo) / width).astype(np.int64) + 1) @ stride
    b_key = (np.floor((b - lo) / width).astype(np.int64) + 1) @ stride
    offsets = _CELL_OFFSETS @ stride

    b_order = np.argsort(b_key, kind="stable")
    b_sorted = b_key[b_order]
    query = (a_key[:, None] + offsets[None, :]).ravel()
    first = np.searchsorted(b_sorted, query, side="left")
    count = np.searchsorted(b_sorted, query, side="right") - first
    total = int(count.sum())
    i = np.repeat(np.arange(len(a), dtype=np.intp), count.reshape(len(a), -1).sum(axis=1))
    slot = np.arange(total) + np.repeat(first - (np.cumsum(count) - count), count)
    j = b_order[slot]

    delta = np.take(b, j, axis=0) - np.take(a, i, axis=0)
    dist = np.sqrt(np.sum(delta * delta, axis=-1))
    keep = dist <= cutoff
    i, j, dist = i[keep], j[keep], dist[keep]
    # i is already ascending, so the stable sort only orders j within each i
    order = np.argsort(i * len(b) + j, kind="stable")
    return i[order], j[order], dist[order]


def build_pair_graph(ligand: LigandMolecule, protein: ProteinStructure,
                     cfg: CutoffConfig) -> HeteroGraph:
    """Radius graph over one ligand pose and one protein.

    Node order is all ligand atoms then all residues. Each undirected pair
    within the cutoff for its kind yields two directed edges; a graph with
    no ligand-protein edges gets an out-of-pocket warning rather than an
    error.
    """
    if not ligand.atoms:
        raise ValidationError("ligand has no atoms")
    lig_pos = ligand.coords()
    res_pos = protein.ca_coords()
    nl, nr = len(lig_pos), len(res_pos)
    positions = np.concatenate([lig_pos, res_pos], axis=0)
    kinds = np.concatenate([
        np.full(nl, NodeKind.LIGAND_ATOM, dtype=np.int64),
        np.full(nr, NodeKind.RESIDUE, dtype=np.int64),
    ])

    cc_a, cc_b, cc_d = neighbor_pairs(lig_pos, lig_pos, cfg.cc)
    lr_a, lr_b, lr_d = neighbor_pairs(lig_pos, res_pos, cfg.pc)
    rl_a, rl_b, rl_d = neighbor_pairs(res_pos, lig_pos, cfg.pc)
    pp_a, pp_b, pp_d = neighbor_pairs(res_pos, res_pos, cfg.pp)
    cc_keep, pp_keep = cc_a != cc_b, pp_a != pp_b
    found = {
        EdgeKind.CC: (cc_a[cc_keep], cc_b[cc_keep], cc_d[cc_keep]),
        EdgeKind.PC: (np.concatenate([lr_a, nl + rl_a]), np.concatenate([nl + lr_b, rl_b]),
                      np.concatenate([lr_d, rl_d])),
        EdgeKind.PP: (nl + pp_a[pp_keep], nl + pp_b[pp_keep], pp_d[pp_keep]),
    }

    edges: dict[EdgeKind, EdgeSet] = {}
    for kind, (a_idx, b_idx, dist) in found.items():
        r_vec = positions[b_idx] - positions[a_idx]
        edges[kind] = EdgeSet(kind=kind, a=a_idx, b=b_idx, r_vec=r_vec,
                              dist=dist, rbf=rbf_embed(dist, cfg))

    warnings = ()
    if len(edges[EdgeKind.PC]) == 0:
        warnings = ("ligand outside pocket: no ligand-protein edges within "
                    f"{cfg.pc} A",)

    return HeteroGraph(
        n_ligand=nl, n_residue=nr, positions=positions, kinds=kinds,
        ligand_features=ligand_atom_features(ligand),
        residue_features=residue_node_features(protein),
        edges=edges, warnings=warnings,
    )


def build_graph(record: ComplexRecord, cfg: CutoffConfig, pose: int = 0) -> HeteroGraph:
    """Graph for one pose of a complex record (default: the first pose)."""
    return build_pair_graph(record.poses[pose], record.protein, cfg)


def graph_to_json(graph: HeteroGraph) -> str:
    """Debug dump of nodes, edges, and attributes as stable-key JSON."""
    doc = {
        "n_ligand": graph.n_ligand,
        "n_residue": graph.n_residue,
        "warnings": list(graph.warnings),
        "nodes": [
            {
                "index": i,
                "kind": "LIGAND_ATOM" if graph.kinds[i] == NodeKind.LIGAND_ATOM else "RESIDUE",
                "position": [round(float(x), 6) for x in graph.positions[i]],
            }
            for i in range(graph.n_nodes)
        ],
        "edges": [
            {
                "a": int(a), "b": int(b), "kind": kind.value,
                "dist": round(float(d), 6),
                "r_vec": [round(float(x), 6) for x in rv],
                "rbf": [round(float(x), 6) for x in r],
            }
            for kind, es in sorted(graph.edges.items(), key=lambda kv: kv[0].value)
            for a, b, rv, d, r in zip(es.a, es.b, es.r_vec, es.dist, es.rbf)
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2)
