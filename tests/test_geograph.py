import dataclasses
import json
import weakref

import numpy as np
import pytest

from cpi3d import autodiff as ad
from cpi3d import geograph
from cpi3d.autodiff import Tape, Tensor
from cpi3d.chemio import Atom, LigandMolecule, ProteinStructure, Residue
from cpi3d.errors import ValidationError
from cpi3d.geograph import (
    CutoffConfig,
    EdgeKind,
    LIGAND_FEATURE_DIM,
    RESIDUE_FEATURE_DIM,
    build_pair_graph,
    edge_budget_packs,
    edge_geometry,
    graph_to_json,
    neighbor_pairs,
    pack_graphs,
    rbf_embed,
)
from cpi3d.so3 import random_rotation
from cpi3d.synthetic import random_complex, random_ligand

from conftest import lattice_receptor, transform_ligand, transform_protein
from oracles import neighbor_oracle, pair_graph_oracle, rbf_oracle


def _single_atom(pos):
    return LigandMolecule(id="a", atoms=(Atom("C", np.asarray(pos, dtype=float)),), bonds=())


def _single_residue(pos):
    return ProteinStructure(id="p", residues=(
        Residue(aa="ALA", chain="A", seq_index=1, ca_position=np.asarray(pos, dtype=float)),
    ))


def _line_ligand(n, spacing):
    atoms = tuple(Atom("C", np.array([spacing * i, 0.0, 0.0])) for i in range(n))
    return LigandMolecule(id="line", atoms=atoms, bonds=())


def test_rbf_at_anchor_is_one():
    cfg = CutoffConfig(rbf_k=8)
    anchors = cfg.anchors()
    for i, nu in enumerate(anchors):
        vec = rbf_embed(nu, cfg).data
        assert vec[i] == pytest.approx(1.0)


def test_rbf_direct_evaluation():
    cfg = CutoffConfig(cc=10, pp=10, pc=10, rbf_k=2, rbf_gamma=0.1,
                       rbf_nu_min=0.0, rbf_nu_max=10.0)
    vec = rbf_embed(0.0, cfg).data
    np.testing.assert_allclose(vec, [1.0, np.exp(-10.0)], rtol=1e-12)


def test_rbf_derivative_identity():
    # d mu_i / d r = -2 gamma (r - nu_i) mu_i, checked by central differences
    # and against the adjoint of the embedding's tape ops
    cfg = CutoffConfig(rbf_k=16)
    h = 1e-6
    for dist in (0.3, 2.0, 7.5, 12.0):
        mu = rbf_embed(dist, cfg).data
        analytic = -2.0 * cfg.rbf_gamma * (dist - cfg.anchors()) * mu
        numeric = (rbf_embed(dist + h, cfg).data - rbf_embed(dist - h, cfg).data) / (2 * h)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)
        d = Tensor(np.array([dist]), requires_grad=True)
        with Tape() as tape:
            total = ad.tsum(rbf_embed(d, cfg))
        (g,) = tape.gradient(total, [d])
        np.testing.assert_allclose(g, [analytic.sum()], rtol=1e-12, atol=1e-15)


def test_rbf_rows_match_the_whole_array_embedding_bit_for_bit(rng):
    """Each row of the embedding equals the whole-array expression that
    graphs used to store, whichever rows it is evaluated with."""
    cfg = CutoffConfig(rbf_k=32)
    dist = rng.uniform(0.0, 15.0, size=5000)
    whole = rbf_oracle(dist, cfg)
    assert rbf_embed(dist, cfg).data.tobytes() == whole.tobytes()
    for rows in (np.arange(7), np.arange(1, 4000, 3), np.array([4999])):
        assert rbf_embed(dist[rows], cfg).data.tobytes() == whole[rows].tobytes()


def test_pc_edges_within_cutoff():
    graph = build_pair_graph(_single_atom([0, 0, 0]), _single_residue([0, 0, 5]),
                             CutoffConfig())
    pc = graph.edges[EdgeKind.PC]
    r_vec, dist = edge_geometry(graph, pc)
    assert len(pc) == 2
    np.testing.assert_allclose(dist, [5.0, 5.0])
    assert graph.warnings == ((),)
    # both directions present with opposite relative vectors
    assert {(int(a), int(b)) for a, b in zip(pc.a, pc.b)} == {(0, 1), (1, 0)}
    np.testing.assert_allclose(r_vec[0], -r_vec[1])


def test_out_of_pocket_warning():
    graph = build_pair_graph(_single_atom([0, 0, 0]), _single_residue([0, 0, 5]),
                             CutoffConfig(pc=4.0))
    assert len(graph.edges[EdgeKind.PC]) == 0
    (warnings,) = graph.warnings    # one tuple per graph of the pack
    assert warnings and "pocket" in warnings[0]


def test_cc_line_edges():
    graph = build_pair_graph(_line_ligand(3, 4.0), _single_residue([100, 100, 100]),
                             CutoffConfig(cc=5.0))
    cc = graph.edges[EdgeKind.CC]
    assert len(cc) == 4  # adjacent pairs only, both directions
    pairs = {(int(a), int(b)) for a, b in zip(cc.a, cc.b)}
    assert pairs == {(0, 1), (1, 0), (1, 2), (2, 1)}


def test_edge_dist_matches_rvec_norm(rng):
    rec = random_complex(rng, "g")
    graph = build_pair_graph(rec.ligand, rec.protein, CutoffConfig())
    for kind, es in graph.edges.items():
        if len(es):
            r_vec, dist = edge_geometry(graph, es)
            np.testing.assert_allclose(np.linalg.norm(r_vec, axis=1), dist, atol=1e-9)
            assert np.all(dist <= getattr(CutoffConfig(), kind.value) + 1e-12)


def test_translation_leaves_edge_attributes(rng):
    rec = random_complex(rng, "g")
    cfg = CutoffConfig()
    g0 = build_pair_graph(rec.ligand, rec.protein, cfg)
    t = np.array([11.0, -3.0, 0.5])
    g1 = build_pair_graph(transform_ligand(rec.ligand, t=t),
                          transform_protein(rec.protein, t=t), cfg)
    for kind in EdgeKind:
        np.testing.assert_array_equal(g0.edges[kind].a, g1.edges[kind].a)
        np.testing.assert_array_equal(g0.edges[kind].b, g1.edges[kind].b)
        (r0, d0), (r1, d1) = edge_geometry(g0, g0.edges[kind]), edge_geometry(g1, g1.edges[kind])
        np.testing.assert_allclose(r0, r1, atol=1e-12)
        np.testing.assert_allclose(d0, d1, atol=1e-12)


def test_rotation_covariance(rng):
    rec = random_complex(rng, "g")
    cfg = CutoffConfig()
    R = random_rotation(rng)
    g0 = build_pair_graph(rec.ligand, rec.protein, cfg)
    g1 = build_pair_graph(transform_ligand(rec.ligand, R=R),
                          transform_protein(rec.protein, R=R), cfg)
    for kind in EdgeKind:
        np.testing.assert_array_equal(g0.edges[kind].a, g1.edges[kind].a)
        (r0, d0), (r1, d1) = edge_geometry(g0, g0.edges[kind]), edge_geometry(g1, g1.edges[kind])
        np.testing.assert_allclose(r1, r0 @ R.T, atol=1e-10)
        np.testing.assert_allclose(d0, d1, atol=1e-10)


def test_edge_symmetry(rng):
    rec = random_complex(rng, "g")
    graph = build_pair_graph(rec.ligand, rec.protein, CutoffConfig())
    for es in graph.edges.values():
        r_vec, dist = edge_geometry(graph, es)
        fwd = {(int(a), int(b)): i for i, (a, b) in enumerate(zip(es.a, es.b))}
        for (a, b), i in fwd.items():
            j = fwd[(b, a)]
            np.testing.assert_allclose(r_vec[i], -r_vec[j], atol=1e-12)
            assert dist[i] == dist[j]


def test_matches_brute_force_pair_scan(rng):
    rec = random_complex(rng, "g", n_atoms=8, n_residues=8)
    cfg = CutoffConfig()
    graph = build_pair_graph(rec.ligand, rec.protein, cfg)
    pos = graph.positions
    kinds = graph.kinds
    expected = {k: set() for k in EdgeKind}
    for i in range(len(pos)):
        for j in range(len(pos)):
            if i == j:
                continue
            d = float(np.linalg.norm(pos[j] - pos[i]))
            if kinds[i] == 0 and kinds[j] == 0:
                kind, cut = EdgeKind.CC, cfg.cc
            elif kinds[i] == 1 and kinds[j] == 1:
                kind, cut = EdgeKind.PP, cfg.pp
            else:
                kind, cut = EdgeKind.PC, cfg.pc
            if d <= cut:
                expected[kind].add((i, j))
    for kind in EdgeKind:
        got = {(int(a), int(b)) for a, b in zip(graph.edges[kind].a, graph.edges[kind].b)}
        assert got == expected[kind]


def _assert_same_pairs(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def test_neighbor_pairs_match_dense_oracle(rng):
    cases = []
    for _ in range(20):
        # negative and positive coordinates, sets of different sizes
        a = rng.normal(size=(int(rng.integers(1, 60)), 3)) * 6.0 - 4.0
        b = rng.normal(size=(int(rng.integers(1, 60)), 3)) * 6.0 + 2.0
        cases.append((a, b, float(rng.uniform(0.5, 9.0))))
        cases.append((a, a, float(rng.uniform(0.5, 9.0))))
    # integer lattices put many pairs exactly at the cutoff
    lattice = rng.integers(-5, 6, size=(80, 3)).astype(float)
    for cutoff in (1.0, 2.0, 3.0, float(np.sqrt(2.0)), float(np.sqrt(3.0))):
        cases.append((lattice, lattice, cutoff))
        cases.append((lattice[:30] * 0.5, lattice[30:] * 0.5, cutoff))
    # 3-4-5 triangles: exactly 5 apart, and a hair beyond
    cases.append((np.zeros((1, 3)),
                  np.array([[3.0, 4.0, 0.0], [0.0, -3.0, -4.0], [-5.0, 0.0, 0.0],
                            [5.000001, 0.0, 0.0], [0.0, 0.0, 0.0]]), 5.0))
    for a, b, cutoff in cases:
        _assert_same_pairs(neighbor_pairs(a, b, cutoff), neighbor_oracle(a, b, cutoff))
    i, j, d = neighbor_pairs(*cases[-1])
    assert i.tolist() == [0, 0, 0, 0] and j.tolist() == [0, 1, 2, 4]
    assert d.tolist() == [5.0, 5.0, 5.0, 0.0]


def test_neighbor_pairs_empty_and_oversized_inputs():
    one = np.zeros((1, 3))
    for a, b in ((np.zeros((0, 3)), one), (one, np.zeros((0, 3))),
                 (np.zeros((0, 3)), np.zeros((0, 3)))):
        i, j, d = neighbor_pairs(a, b, 2.0)
        assert i.size == j.size == d.size == 0
        assert i.dtype == j.dtype == np.intp and d.dtype == np.float64
    with pytest.raises(ValidationError):
        neighbor_pairs(one, np.full((1, 3), 1e200), 1.0)


def test_edges_bit_identical_to_dense_block(rng):
    cfg = CutoffConfig()
    for n_atoms, n_residues in ((1, 1), (5, 12), (30, 300)):
        rec = random_complex(rng, "g", n_atoms=n_atoms, n_residues=n_residues)
        graph = build_pair_graph(rec.ligand, rec.protein, cfg)
        want = pair_graph_oracle(graph.positions, graph.kinds, cfg)
        for kind in EdgeKind:
            es = graph.edges[kind]
            r_vec, dist = edge_geometry(graph, es)
            _assert_same_pairs((es.a, es.b, dist), want[kind.value])
            np.testing.assert_array_equal(r_vec, graph.positions[es.b] - graph.positions[es.a])


def test_edge_geometry_is_the_neighbour_search_geometry_bit_for_bit(rng):
    """Each kind's edges, and each direction of the pc edges, measure the
    same vectors and lengths as the `neighbor_pairs` search that found them."""
    cfg = CutoffConfig()
    rec = random_complex(rng, "g", n_atoms=12, n_residues=40)
    graph = build_pair_graph(rec.ligand, rec.protein, cfg)
    lig, res = graph.positions[:12], graph.positions[12:]
    searches = {   # (destination set, source set, cutoff, offsets, self pairs dropped)
        (EdgeKind.CC, True): (lig, lig, cfg.cc, (0, 0), True),
        (EdgeKind.PC, True): (lig, res, cfg.pc, (0, 12), False),
        (EdgeKind.PC, False): (res, lig, cfg.pc, (12, 0), False),
        (EdgeKind.PP, False): (res, res, cfg.pp, (12, 12), True),
    }
    for (kind, into_ligand), (dst, src, cutoff, (da, db), drop_self) in searches.items():
        es = graph.edges[kind]
        r_vec, dist = edge_geometry(graph, es)
        part = (es.a < 12) == into_ligand
        i, j, want = neighbor_pairs(dst, src, cutoff)
        keep = i != j if drop_self else np.ones(len(i), dtype=bool)
        i, j, want = i[keep], j[keep], want[keep]
        assert len(want) > 0
        np.testing.assert_array_equal(es.a[part], da + i)
        np.testing.assert_array_equal(es.b[part], db + j)
        assert dist[part].tobytes() == want.tobytes()
        assert r_vec[part].tobytes() == (src[j] - dst[i]).tobytes()
        assert r_vec.tobytes() == (graph.positions[es.b] - graph.positions[es.a]).tobytes()


def test_node_features_shapes_and_order(rng):
    rec = random_complex(rng, "g", n_atoms=5, n_residues=4)
    graph = build_pair_graph(rec.ligand, rec.protein, CutoffConfig())
    assert graph.ligand_features.shape == (5, LIGAND_FEATURE_DIM)
    assert graph.residue_features.shape == (4, RESIDUE_FEATURE_DIM)
    assert graph.n_nodes == 9
    assert list(graph.kinds[:5]) == [0] * 5
    assert list(graph.kinds[5:]) == [1] * 4
    # every residue one-hot sums to 1
    np.testing.assert_array_equal(graph.residue_features.sum(axis=1), np.ones(4))


def test_graph_json_dump(rng):
    rec = random_complex(rng, "g", n_atoms=3, n_residues=3)
    graph = build_pair_graph(rec.ligand, rec.protein, CutoffConfig())
    doc = json.loads(graph_to_json(graph))
    assert doc["n_ligand"] == 3 and doc["n_residue"] == 3
    assert len(doc["nodes"]) == 6
    assert len(doc["edges"]) == graph.edge_count()
    # each edge's vector and distance are its `edge_geometry`, and its `rbf`
    # list is its row of the whole-array embedding
    for kind, es in graph.edges.items():
        r_vec, dist = edge_geometry(graph, es)
        got = [e for e in doc["edges"] if e["kind"] == kind.value]
        assert [(e["a"], e["b"]) for e in got] == list(zip(es.a.tolist(), es.b.tolist()))
        assert [e["dist"] for e in got] == [round(float(d), 6) for d in dist]
        assert [e["r_vec"] for e in got] == [[round(float(x), 6) for x in rv] for rv in r_vec]
        assert [e["rbf"] for e in got] == [[round(float(x), 6) for x in r]
                                           for r in rbf_oracle(dist, graph.cutoffs)]


def test_cutoff_config_validation():
    with pytest.raises(ValidationError):
        CutoffConfig(cc=-1.0)
    with pytest.raises(ValidationError):
        CutoffConfig(rbf_k=1)
    for gamma in (0.0, -3.0):
        with pytest.raises(ValidationError, match="^rbf_gamma must be positive$"):
            CutoffConfig(rbf_gamma=gamma)
    cfg = CutoffConfig()
    assert cfg.rbf_nu_max == 15.0
    assert cfg.rbf_gamma == pytest.approx(10.0 / 15.0)


def test_pack_layout(rng):
    cut = CutoffConfig(rbf_k=6)
    graphs = [build_pair_graph(r.ligand, r.protein, cut) for r in (
        random_complex(rng, "a", n_atoms=3, n_residues=4),
        random_complex(rng, "b", n_atoms=1, n_residues=5),
        random_complex(rng, "c", n_atoms=6, n_residues=1))]
    pack = pack_graphs(graphs)
    assert pack.n_graphs == 3 and pack.n_nodes == 7 + 6 + 7
    assert pack.n_ligand == 3 + 1 + 6 and pack.n_residue == 4 + 5 + 1
    assert pack.warnings == tuple(w for g in graphs for w in g.warnings)
    offsets = [0, 7, 13]
    # graph by graph: each graph's ligand atoms, then its residues
    np.testing.assert_array_equal(pack.node_graph, np.repeat([0, 1, 2], [7, 6, 7]))
    np.testing.assert_array_equal(pack.kinds, np.concatenate([g.kinds for g in graphs]))
    np.testing.assert_array_equal(pack.positions, np.concatenate([g.positions for g in graphs]))
    is_ligand = pack.kinds == 0
    n_ligand = len(pack.ligand_features)
    np.testing.assert_array_equal(pack.ligand_features[pack.feature_rows[is_ligand]],
                                  np.concatenate([g.ligand_features for g in graphs]))
    np.testing.assert_array_equal(pack.residue_features[pack.feature_rows[~is_ligand] - n_ligand],
                                  np.concatenate([g.residue_features for g in graphs]))
    for kind in EdgeKind:
        es = pack.edges[kind]
        np.testing.assert_array_equal(
            es.a, np.concatenate([g.edges[kind].a + o for g, o in zip(graphs, offsets)]))
        np.testing.assert_array_equal(
            es.b, np.concatenate([g.edges[kind].b + o for g, o in zip(graphs, offsets)]))
        # each edge keeps its graph's vector and distance, bit for bit
        for got, want in zip(edge_geometry(pack, es),
                             zip(*(edge_geometry(g, g.edges[kind]) for g in graphs))):
            assert got.tobytes() == np.concatenate(want).tobytes()
        # still sorted by (destination, source), and no edge crosses graphs
        key = es.a * pack.n_nodes + es.b
        assert np.all(np.diff(key) > 0)
        np.testing.assert_array_equal(pack.node_graph[es.a], pack.node_graph[es.b])
    assert len(pack.edges[EdgeKind.CC]) == len(graphs[0].edges[EdgeKind.CC]) \
        + len(graphs[2].edges[EdgeKind.CC])
    # packs join like graphs: a pack of packs is the pack of their graphs
    nested = pack_graphs([pack_graphs(graphs[:2]), graphs[2]])
    for f in dataclasses.fields(pack):
        if isinstance(getattr(pack, f.name), np.ndarray):
            np.testing.assert_array_equal(getattr(nested, f.name), getattr(pack, f.name))
    for kind in EdgeKind:
        np.testing.assert_array_equal(nested.edges[kind].a, pack.edges[kind].a)
        np.testing.assert_array_equal(nested.edges[kind].b, pack.edges[kind].b)
    assert nested.warnings == pack.warnings


def test_pack_of_one_shares_the_graph_arrays(rng):
    rec = random_complex(rng, "one", n_atoms=4, n_residues=5)
    graph = build_pair_graph(rec.ligand, rec.protein, CutoffConfig())
    assert pack_graphs([graph]) is graph
    assert graph.n_graphs == 1 and graph.n_ligand == 4 and graph.n_residue == 5
    np.testing.assert_array_equal(graph.node_graph, np.zeros(graph.n_nodes))
    np.testing.assert_array_equal(graph.feature_rows, np.arange(graph.n_nodes))
    with pytest.raises(ValidationError):
        pack_graphs([])


def test_graphs_hold_positions_and_their_cutoffs_not_edge_geometry(rng):
    cut = CutoffConfig(rbf_k=6)
    rec = random_complex(rng, "g", n_atoms=4, n_residues=5)
    graph = build_pair_graph(rec.ligand, rec.protein, cut)
    assert [f.name for f in dataclasses.fields(geograph.EdgeSet)] == ["a", "b"]
    assert graph.positions.shape == (graph.n_nodes, 3)
    assert graph.cutoffs is cut
    other = build_pair_graph(rec.ligand, rec.protein, CutoffConfig(rbf_k=8))
    with pytest.raises(ValidationError, match="^cannot pack graphs built with different cutoffs$"):
        pack_graphs([graph, other])
    assert pack_graphs([graph, build_pair_graph(rec.ligand, rec.protein,
                                                CutoffConfig(rbf_k=6))]).cutoffs == cut


def test_edge_budget_packs_build_lazily(rng, monkeypatch):
    """Runs are cut in order under the budget; a graph over the budget is
    a run of its own, yielded and released before the next graph is
    built, and a run under the budget builds at most one graph ahead."""
    cut = CutoffConfig(rbf_k=6)
    sizes = [(3, 4), (2, 3), (6, 30), (4, 4), (6, 30), (6, 30), (1, 2), (3, 3), (2, 2)]
    records = [random_complex(rng, f"g{i}", n_atoms=a, n_residues=r)
               for i, (a, r) in enumerate(sizes)]
    edges = [build_pair_graph(r.ligand, r.protein, cut).edge_count() for r in records]
    budget = max(sum(edges[:2]), sum(edges[6:]))
    assert min(edges[2], edges[4], edges[5]) > budget
    monkeypatch.setattr(geograph, "PACK_EDGE_BUDGET", budget)
    built, over_budget = [], []

    def build(i):
        assert all(ref() is None for ref in over_budget), "an over-budget graph outlived its run"
        built.append(i)
        graph = build_pair_graph(records[i].ligand, records[i].protein, cut)
        if graph.edge_count() > budget:
            over_budget.append(weakref.ref(graph))
        return graph

    runs = []
    for run, pack in edge_budget_packs(range(len(records)), build):
        per_graph = sum(np.bincount(pack.node_graph[es.a], minlength=pack.n_graphs)
                        for es in pack.edges.values())
        assert per_graph.tolist() == [edges[i] for i in run]
        assert built[-1] <= run[-1] + (edges[run[-1]] <= budget)
        runs.append(run)
        del pack
    assert runs == [[0, 1], [2], [3], [4], [5], [6, 7, 8]]


def graph_held_mb(n_residues: int = 300) -> float:
    """MB held by the arrays of one graph (a pack of one) at the default
    cutoffs: a 32-atom ligand in the pocket of an `n_residues`-residue
    receptor (`conftest.lattice_receptor`)."""
    rng = np.random.default_rng(0)
    graph = build_pair_graph(random_ligand(rng, n_atoms=32), lattice_receptor(rng, n_residues),
                             CutoffConfig())
    arrays = [getattr(graph, f.name) for f in dataclasses.fields(graph)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    arrays += [getattr(es, f.name) for es in graph.edges.values() for f in dataclasses.fields(es)]
    return sum(a.nbytes for a in arrays) / 2 ** 20


def test_a_300_residue_graph_holds_under_half_a_mb():
    # 5.6 MB while each edge also held its 32 float64 RBF components, and
    # 0.92 MB while it held its kind, vector and distance
    assert graph_held_mb() < 0.45
