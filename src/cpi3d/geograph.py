"""Heterogeneous radius graphs over ligand atoms and protein residues.

Nodes are ligand heavy atoms and residue alpha carbons; undirected pairs
within a type-dependent cutoff become two directed edges. Nodes hold the
positions and edges only their endpoints: an edge's relative vector and
distance are derived from the positions (`edge_geometry`), and the
Gaussian radial-basis embedding of the distance is computed per block of
edges by the edge network (`rbf_embed`), from the cutoffs the graph
records.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
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
        if not self.rbf_gamma > 0:
            raise ValidationError("rbf_gamma must be positive")
        if not self.rbf_nu_min < self.rbf_nu_max:
            raise ValidationError("rbf_nu_min must be below rbf_nu_max")

    def anchors(self) -> np.ndarray:
        return np.linspace(self.rbf_nu_min, self.rbf_nu_max, self.rbf_k)

    def to_dict(self) -> dict:
        from .config import config_doc   # cpi3d.config imports this module
        return config_doc(self)


def rbf_embed(dist, cfg: CutoffConfig) -> ad.Tensor:
    """Gaussian radial basis: component i is exp((d - nu_i) (d - nu_i) -gamma).

    Anchors nu_i are evenly spaced on [nu_min, nu_max]. Accepts a scalar,
    an array or a tensor of distances; the basis index is the trailing
    axis. Written with `autodiff` ops, so tracked distances carry their
    adjoint and untracked ones run as plain numpy. Every row equals the
    one a whole-array evaluation gives, bit for bit, whatever rows it is
    given with.
    """
    d = ad.as_tensor(dist)
    diff = ad.add(ad.reshape(d, d.shape + (1,)), -cfg.anchors())
    return ad.exp(ad.mul(ad.mul(diff, diff), -cfg.rbf_gamma))


@dataclass(frozen=True)
class EdgeSet:
    """Directed edges of one kind, sorted by (destination, source). Their
    vectors and lengths follow from the node positions (`edge_geometry`)."""
    a: np.ndarray       # destination node indices
    b: np.ndarray       # source node indices

    def __len__(self):
        return len(self.a)


@dataclass(frozen=True)
class GraphPack:
    """Disjoint union of complex graphs, the unit of one batched forward;
    `build_pair_graph` returns a pack of one.

    Graphs are joined in order, each graph's ligand atoms then its
    residues, so every graph's nodes form one contiguous run. Edge indices
    are shifted by their graph's node offset and concatenated in graph
    order: each kind stays sorted by (destination, source), and every
    node's messages are summed in the order of its own graph.
    """
    node_graph: np.ndarray         # (n_nodes,) index of each node's graph
    kinds: np.ndarray              # (n_nodes,) NodeKind values
    positions: np.ndarray          # (n_nodes, 3)
    ligand_features: np.ndarray    # every graph's ligand rows, in graph order
    residue_features: np.ndarray   # every graph's residue rows, in graph order
    feature_rows: np.ndarray       # (n_nodes,) each node's row in ligand rows + residue rows
    edges: dict[EdgeKind, EdgeSet]
    cutoffs: CutoffConfig          # shared by every graph
    warnings: tuple[tuple[str, ...], ...]  # one tuple per graph

    @property
    def n_graphs(self) -> int:
        return len(self.warnings)

    @property
    def n_nodes(self) -> int:
        return len(self.kinds)

    @property
    def n_ligand(self) -> int:
        return len(self.ligand_features)

    @property
    def n_residue(self) -> int:
        return len(self.residue_features)

    def edge_count(self) -> int:
        return sum(len(e) for e in self.edges.values())


def pack_graphs(packs) -> GraphPack:
    """Join packs into one `GraphPack`; a single pack is returned as it
    is. The packs must share their cutoffs."""
    packs = tuple(packs)
    if not packs:
        raise ValidationError("cannot pack zero graphs")
    if len(packs) == 1:
        return packs[0]
    cutoffs = packs[0].cutoffs
    if any(p.cutoffs != cutoffs for p in packs[1:]):
        raise ValidationError("cannot pack graphs built with different cutoffs")
    offsets = np.cumsum([0] + [p.n_nodes for p in packs[:-1]])
    graph_offsets = np.cumsum([0] + [p.n_graphs for p in packs[:-1]])
    kinds = np.concatenate([p.kinds for p in packs])
    is_ligand = kinds == NodeKind.LIGAND_ATOM
    n_ligand = int(is_ligand.sum())
    feature_rows = np.empty(len(kinds), dtype=np.intp)
    feature_rows[is_ligand] = np.arange(n_ligand)
    feature_rows[~is_ligand] = n_ligand + np.arange(len(kinds) - n_ligand)
    edges = {}
    for kind in packs[0].edges:
        sets = [p.edges[kind] for p in packs]
        edges[kind] = EdgeSet(a=np.concatenate([es.a + o for es, o in zip(sets, offsets)]),
                              b=np.concatenate([es.b + o for es, o in zip(sets, offsets)]))
    return GraphPack(
        node_graph=np.concatenate([p.node_graph + o for p, o in zip(packs, graph_offsets)]),
        kinds=kinds, positions=np.concatenate([p.positions for p in packs]),
        ligand_features=np.concatenate([p.ligand_features for p in packs]),
        residue_features=np.concatenate([p.residue_features for p in packs]),
        feature_rows=feature_rows, edges=edges, cutoffs=cutoffs,
        warnings=tuple(ws for p in packs for ws in p.warnings),
    )


def receptor_only(pack: GraphPack) -> GraphPack:
    """The receptor of a pack of one alone: its residue nodes and its pp
    edges shifted down by `n_ligand`, with no ligand node and no cc or pc
    edge. Its positions and residue features are views of `pack`'s."""
    nl, nr = pack.n_ligand, pack.n_residue
    none = np.zeros(0, dtype=np.intp)
    pp = pack.edges[EdgeKind.PP]
    return GraphPack(
        node_graph=np.zeros(nr, dtype=np.intp), kinds=pack.kinds[nl:],
        positions=pack.positions[nl:], ligand_features=pack.ligand_features[:0],
        residue_features=pack.residue_features, feature_rows=np.arange(nr),
        edges={EdgeKind.CC: EdgeSet(a=none, b=none), EdgeKind.PP: EdgeSet(a=pp.a - nl, b=pp.b - nl),
               EdgeKind.PC: EdgeSet(a=none, b=none)},
        cutoffs=pack.cutoffs, warnings=((),),
    )


def edge_lengths(delta: np.ndarray) -> np.ndarray:
    """Euclidean lengths of the vectors along the last axis of `delta`."""
    return np.sqrt(np.sum(delta * delta, axis=-1))


def edge_geometry(pack: GraphPack, es: EdgeSet):
    """(positions[b] - positions[a], its length) of each edge of `es`, a
    kind of `pack`'s edges: the bits `neighbor_pairs` measured it with."""
    r_vec = pack.positions[es.b] - pack.positions[es.a]
    return r_vec, edge_lengths(r_vec)


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
    n_el = len(LIGAND_ELEMENT_CLASSES)
    degree_col = n_el + 1
    charge_col = degree_col + MAX_DEGREE_CLASS + 1
    rows = np.arange(len(mol))
    feats = np.zeros((len(mol), LIGAND_FEATURE_DIM), dtype=np.float64)
    feats[rows, [LIGAND_ELEMENT_CLASSES.index(e) if e in LIGAND_ELEMENT_CLASSES else n_el
                 for e in mol.elements.tolist()]] = 1.0
    feats[rows, degree_col + np.minimum(mol.degrees(), MAX_DEGREE_CLASS)] = 1.0
    # the charge classes are consecutive integers
    charge = np.clip(mol.charges, CHARGE_CLASSES[0], CHARGE_CLASSES[-1])
    feats[rows, charge_col + charge - CHARGE_CLASSES[0]] = 1.0
    feats[:, -1] = mol.aromatic
    return feats


def residue_node_features(protein: ProteinStructure) -> np.ndarray:
    """One-hot over the 20 standard amino acids plus UNK."""
    codes, row_code = np.unique(protein.aa, return_inverse=True)
    columns = np.array([RESIDUE_CLASSES.index(code) for code in codes.tolist()], dtype=np.int64)
    feats = np.zeros((len(protein), RESIDUE_FEATURE_DIM), dtype=np.float64)
    feats[np.arange(len(protein)), columns[row_code]] = 1.0
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

    Each distance is `edge_lengths(b_pos[j] - a_pos[i])`, evaluated exactly
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

    dist = edge_lengths(np.take(b, j, axis=0) - np.take(a, i, axis=0))
    keep = dist <= cutoff
    i, j, dist = i[keep], j[keep], dist[keep]
    # i is already ascending, so the stable sort only orders j within each i
    order = np.argsort(i * len(b) + j, kind="stable")
    return i[order], j[order], dist[order]


def build_pair_graph(ligand: LigandMolecule, protein: ProteinStructure,
                     cfg: CutoffConfig) -> GraphPack:
    """Radius graph over one ligand pose and one protein, as a pack of one.

    Node order is all ligand atoms then all residues. Each undirected pair
    within the cutoff for its kind yields two directed edges; a graph with
    no ligand-protein edges gets an out-of-pocket warning rather than an
    error.
    """
    if not len(ligand):
        raise ValidationError("ligand has no atoms")
    lig_pos = ligand.positions
    res_pos = protein.ca_coords()
    nl, nr = len(lig_pos), len(res_pos)
    positions = np.concatenate([lig_pos, res_pos], axis=0)
    kinds = np.concatenate([
        np.full(nl, NodeKind.LIGAND_ATOM, dtype=np.int64),
        np.full(nr, NodeKind.RESIDUE, dtype=np.int64),
    ])

    cc_a, cc_b, _ = neighbor_pairs(lig_pos, lig_pos, cfg.cc)
    lr_a, lr_b, _ = neighbor_pairs(lig_pos, res_pos, cfg.pc)
    rl_a, rl_b, _ = neighbor_pairs(res_pos, lig_pos, cfg.pc)
    pp_a, pp_b, _ = neighbor_pairs(res_pos, res_pos, cfg.pp)
    cc_keep, pp_keep = cc_a != cc_b, pp_a != pp_b
    edges = {
        EdgeKind.CC: EdgeSet(a=cc_a[cc_keep], b=cc_b[cc_keep]),
        EdgeKind.PC: EdgeSet(a=np.concatenate([lr_a, nl + rl_a]),
                             b=np.concatenate([nl + lr_b, rl_b])),
        EdgeKind.PP: EdgeSet(a=nl + pp_a[pp_keep], b=nl + pp_b[pp_keep]),
    }

    warnings = ()
    if len(edges[EdgeKind.PC]) == 0:
        warnings = ("ligand outside pocket: no ligand-protein edges within "
                    f"{cfg.pc} A",)

    return GraphPack(
        node_graph=np.zeros(nl + nr, dtype=np.intp), kinds=kinds, positions=positions,
        ligand_features=ligand_atom_features(ligand),
        residue_features=residue_node_features(protein),
        feature_rows=np.arange(nl + nr), edges=edges, cutoffs=cfg, warnings=(warnings,),
    )


def build_graph(record: ComplexRecord, cfg: CutoffConfig) -> GraphPack:
    """Graph for a complex record's ligand (its first pose)."""
    return build_pair_graph(record.ligand, record.protein, cfg)


def graph_to_json(pack: GraphPack) -> str:
    """Debug dump of nodes, edges, and attributes as stable-key JSON; each
    edge's `r_vec`, `dist` and `rbf` come from `edge_geometry` and the
    distance's embedding."""
    edges = []
    for kind, es in sorted(pack.edges.items(), key=lambda kv: kv[0].value):
        r_vec, dist = edge_geometry(pack, es)
        edges += [
            {
                "a": int(a), "b": int(b), "kind": kind.value,
                "dist": round(float(d), 6),
                "r_vec": [round(float(x), 6) for x in rv],
                "rbf": [round(float(x), 6) for x in r],
            }
            for a, b, rv, d, r in zip(es.a, es.b, r_vec, dist, rbf_embed(dist, pack.cutoffs).data)
        ]
    doc = {
        "n_ligand": pack.n_ligand,
        "n_residue": pack.n_residue,
        "warnings": [w for ws in pack.warnings for w in ws],
        "nodes": [
            {
                "index": i,
                "kind": "LIGAND_ATOM" if pack.kinds[i] == NodeKind.LIGAND_ATOM else "RESIDUE",
                "position": [round(float(x), 6) for x in pack.positions[i]],
            }
            for i in range(pack.n_nodes)
        ],
        "edges": edges,
    }
    return json.dumps(doc, sort_keys=True, indent=2)
