import math
import time
import tracemalloc

import numpy as np
import pytest

from cpi3d import autodiff as ad
from cpi3d import equinet, geograph
from cpi3d.autodiff import Tape, Tensor
from cpi3d.equinet import (
    EDGE_KIND_ORDER,
    IrrepLayout,
    ModelConfig,
    ParameterStore,
    forward,
    init_params,
)
from cpi3d.errors import ConfigError, TrainingDiverged
from cpi3d.fingerprint import morgan_fingerprint
from cpi3d.geograph import (
    CutoffConfig,
    EdgeKind,
    build_pair_graph,
    edge_budget_packs,
    edge_geometry,
    pack_graphs,
)
from cpi3d.so3 import Y00
from cpi3d.synthetic import random_complex, random_complexes, random_ligand
from cpi3d.train import (
    AdamOptimizer,
    SgdOptimizer,
    TrainConfig,
    batch_gradients,
    grad,
    mse_loss,
    prepare_training_inputs,
    train,
)

from conftest import forward_one, lattice_receptor
from oracles import batch_loss_oracle

TINY_CFG = ModelConfig(layers=1, layout=IrrepLayout((4, 2, 1)),
                       edge_mlp_hidden=8, readout_hidden=6,
                       fingerprint_width=32, fingerprint_embed=4)
TINY_CUT = CutoffConfig(rbf_k=6)


def test_grad_of_sum_of_squares_is_exact():
    store = ParameterStore()
    store.add("w", np.array([1.0, -2.0, 3.0]))
    store.add("v", np.array([[0.5, 4.0]]))

    def loss_fn():
        return ad.add(ad.tsum(ad.mul(store["w"], store["w"])),
                      ad.tsum(ad.mul(store["v"], store["v"])))

    value, grads = grad(loss_fn, store)
    assert value == pytest.approx(1 + 4 + 9 + 0.25 + 16)
    np.testing.assert_array_equal(grads["w"], 2.0 * store["w"].data)
    np.testing.assert_array_equal(grads["v"], 2.0 * store["v"].data)


def test_grad_untouched_parameter_is_zero():
    store = ParameterStore()
    store.add("used", np.array([2.0]))
    store.add("idle", np.array([7.0]))
    _, grads = grad(lambda: ad.tsum(ad.mul(store["used"], store["used"])), store)
    np.testing.assert_array_equal(grads["idle"], [0.0])


def test_grad_requires_scalar():
    store = ParameterStore()
    store.add("w", np.ones(3))
    with pytest.raises(ConfigError):
        grad(lambda: ad.mul(store["w"], 2.0), store)


def test_mse_loss_examples():
    assert float(mse_loss(Tensor(np.array(3.0)), 3.0).data) == 0.0
    assert float(mse_loss(Tensor(np.array(0.0)), -9.0).data) == 81.0
    batch = 0.5 * (float(mse_loss(Tensor(np.array(0.0)), 0.0).data)
                   + float(mse_loss(Tensor(np.array(1.0)), 3.0).data))
    assert batch == 2.0


def _rotation_tensor(theta: Tensor):
    """3x3 rotation Rz(c) Ry(b) Rx(a) assembled from tape scalars."""
    def scalar(i):
        return ad.reshape(ad.take(theta, i), (1,))

    one = np.ones(1)
    zero = np.zeros(1)
    a, b, c = scalar(0), scalar(1), scalar(2)

    def mat(entries):
        return ad.reshape(ad.concat(entries, axis=0), (3, 3))

    sa, ca = ad.sin(a), ad.cos(a)
    sb, cb = ad.sin(b), ad.cos(b)
    sc, cc = ad.sin(c), ad.cos(c)
    Rx = mat([one, zero, zero, zero, ca, ad.mul(sa, -1.0), zero, sa, ca])
    Ry = mat([cb, zero, sb, zero, one, zero, ad.mul(sb, -1.0), zero, cb])
    Rz = mat([cc, ad.mul(sc, -1.0), zero, sc, cc, zero, zero, zero, one])
    return ad.matmul(Rz, ad.matmul(Ry, Rx))


def _differentiable_edges(rot_pos: Tensor, a_idx, b_idx):
    """Edge distances and harmonics as tape ops over rotated positions:
    the `(dist, sh)` of `equinet._edge_tensors`, tracked."""
    r = ad.add(ad.gather_rows(rot_pos, b_idx),
               ad.mul(ad.gather_rows(rot_pos, a_idx), -1.0))
    dist = ad.sqrt(ad.tsum(ad.mul(r, r), axis=1, keepdims=True))  # (n_e, 1)
    unit = ad.div(r, dist)
    x = ad.take(unit, (slice(None), slice(0, 1)))
    y = ad.take(unit, (slice(None), slice(1, 2)))
    z = ad.take(unit, (slice(None), slice(2, 3)))
    c1 = math.sqrt(3.0 / (4.0 * math.pi))
    c2 = 0.5 * math.sqrt(15.0 / math.pi)
    c20 = 0.25 * math.sqrt(5.0 / math.pi)
    c22 = 0.25 * math.sqrt(15.0 / math.pi)
    n_e = len(a_idx)
    cols = [
        np.full((n_e, 1), Y00),
        ad.mul(y, c1), ad.mul(z, c1), ad.mul(x, c1),
        ad.mul(ad.mul(x, y), c2),
        ad.mul(ad.mul(y, z), c2),
        ad.mul(ad.add(ad.mul(ad.mul(z, z), 3.0), -1.0), c20),
        ad.mul(ad.mul(z, x), c2),
        ad.mul(ad.add(ad.mul(x, x), ad.mul(ad.mul(y, y), -1.0)), c22),
    ]
    return ad.reshape(dist, (n_e,)), ad.concat(cols, axis=1)


def _track_edges(monkeypatch, graph, pos: Tensor):
    """Patch `equinet._edge_tensors` to give `graph`'s edges with the
    tracked distances and harmonics of `_differentiable_edges` over `pos`."""
    edges = {kind: (es.a, es.b, *_differentiable_edges(pos, es.a, es.b))
             for kind, es in graph.edges.items()}
    monkeypatch.setattr(equinet, "_edge_tensors", lambda pack: edges)


def test_gradient_through_global_rotation_is_zero(rng, monkeypatch):
    """The prediction is rotation invariant, so its adjoint with respect to
    learnable rotation angles applied to all coordinates must vanish."""
    rec = random_complex(rng, "probe", n_atoms=5, n_residues=4)
    graph = build_pair_graph(rec.ligand, rec.protein, TINY_CUT)
    fp = morgan_fingerprint(rec.ligand, nbits=TINY_CFG.fingerprint_width)
    params = init_params(TINY_CFG, TINY_CUT, seed=3)
    theta = Tensor(np.array([0.3, -0.2, 0.5]), requires_grad=True)

    with Tape() as tape:
        R = _rotation_tensor(theta)
        _track_edges(monkeypatch, graph, ad.einsum("ni,ji->nj", graph.positions, R))
        pred = forward_one(graph, fp, params, TINY_CFG, training=False)
    (g_theta,) = tape.gradient(pred, [theta])
    assert np.abs(g_theta).max() < 1e-6


def test_differentiable_edges_match_graph_constants(rng):
    rec = random_complex(rng, "probe", n_atoms=5, n_residues=4)
    graph = build_pair_graph(rec.ligand, rec.protein, TINY_CUT)
    theta = Tensor(np.zeros(3), requires_grad=True)
    with Tape():
        R = _rotation_tensor(theta)
        rot_pos = ad.einsum("ni,ji->nj", graph.positions, R)
        for kind in EDGE_KIND_ORDER:
            es = graph.edges[kind]
            if len(es) == 0:
                continue
            dist, sh = _differentiable_edges(rot_pos, es.a, es.b)
            r_vec, want = edge_geometry(graph, es)
            np.testing.assert_allclose(dist.data, want, atol=1e-10)
            from cpi3d.so3 import spherical_harmonics_batch
            unit = r_vec / want[:, None]
            np.testing.assert_allclose(sh.data, spherical_harmonics_batch(unit),
                                       atol=1e-10)


def test_zero_learning_rate_leaves_parameters(rng):
    records = random_complexes(2, seed=5, with_label=True, n_atoms=4, n_residues=4)
    cfg = TrainConfig(learning_rate=0.0, steps=3, batch_size=2, seed=0)
    before = init_params(TINY_CFG, TINY_CUT, seed=0)
    model, losses = train(records, cfg, TINY_CFG, TINY_CUT)
    for name in model.params.trainable_names():
        np.testing.assert_array_equal(before[name].data, model.params[name].data)
    assert len(losses) == 3


def test_same_seed_identical_loss_traces(rng):
    records = random_complexes(3, seed=9, with_label=True, n_atoms=4, n_residues=4)
    cfg = TrainConfig(learning_rate=1e-3, steps=5, batch_size=2, seed=7)
    _, trace_a = train(records, cfg, TINY_CFG, TINY_CUT)
    _, trace_b = train(records, cfg, TINY_CFG, TINY_CUT)
    assert trace_a == trace_b   # bitwise


def test_sgd_loss_non_increasing_at_small_lr(rng):
    records = random_complexes(1, seed=2, with_label=True, n_atoms=4, n_residues=3)
    cfg = TrainConfig(learning_rate=1e-5, steps=50, batch_size=1, seed=0,
                      optimizer="sgd")
    _, losses = train(records, cfg, TINY_CFG, TINY_CUT)
    for prev, cur in zip(losses, losses[1:]):
        assert cur <= prev + 1e-12


def test_optimizers_ignore_zero_gradient():
    store = ParameterStore()
    t = store.add("w", np.array([1.0, -2.0]))
    zero = {"w": np.zeros(2)}
    SgdOptimizer(lr=0.5).step(store, zero)
    np.testing.assert_array_equal(t.data, [1.0, -2.0])
    adam = AdamOptimizer(lr=0.5)
    adam.step(store, zero)
    np.testing.assert_array_equal(t.data, [1.0, -2.0])


def test_training_divergence_raises(rng):
    records = random_complexes(1, seed=2, n_atoms=4, n_residues=3)
    cfg = TrainConfig(learning_rate=1e-3, steps=2, batch_size=1, seed=0)
    with pytest.raises(TrainingDiverged) as err:
        train(records, cfg, TINY_CFG, TINY_CUT, labels=[float("nan")])
    assert err.value.step == 0


def test_training_reduces_loss(rng):
    records = random_complexes(4, seed=21, with_label=True, n_atoms=4, n_residues=4)
    cfg = TrainConfig(learning_rate=3e-3, steps=60, batch_size=4, seed=0)
    _, losses = train(records, cfg, TINY_CFG, TINY_CUT)
    assert losses[-1] < losses[0]


# ------------------------------------------------------------ packed training

PACK_CFG = ModelConfig(layers=2, layout=IrrepLayout((4, 2, 1)), edge_mlp_hidden=8,
                       readout_hidden=6, fingerprint_width=32, fingerprint_embed=4)
# acceptance 2's tiny model
ACC2_CFG = ModelConfig(layers=2, layout=IrrepLayout((3, 2, 1)), edge_mlp_hidden=6,
                       readout_hidden=5, fingerprint_width=16, fingerprint_embed=3)
# (ligand atoms, residues) per graph: one graph has no cc edges, one no pp edges
PACK_SIZES = ((5, 4), (1, 6), (7, 3), (4, 1), (3, 5), (6, 4), (2, 7), (8, 2))
# an EDGE_BLOCK that cuts every edge kind of a PACK_SIZES pack into blocks
SMALL_EDGE_BLOCK = 7


def _pack_inputs(cfg, sizes, seed=31):
    rng = np.random.default_rng(seed)
    records = [random_complex(rng, f"pack{i}", n_atoms=a, n_residues=r)
               for i, (a, r) in enumerate(sizes)]
    graphs, fps = prepare_training_inputs(records, cfg, TINY_CUT)
    return graphs, fps, rng.normal(size=len(records))


def _assert_within_1e12(got, want):
    """Equal within 1e-12 of the largest entry of `want`, so entries that
    cancel to near zero are held to the tensor's scale, not their own."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def _assert_packed_matches_oracle(graphs, fps, labels, batch, before_packed=lambda: None):
    packed = init_params(PACK_CFG, TINY_CUT, seed=3)
    looped = init_params(PACK_CFG, TINY_CUT, seed=3)
    want_loss, want_grads = batch_loss_oracle(graphs, fps, labels, batch, looped, PACK_CFG)
    before_packed()
    loss, grads = batch_gradients(graphs, fps, labels, batch, packed, PACK_CFG)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert sorted(grads) == sorted(want_grads)
    for name, want in want_grads.items():
        _assert_within_1e12(grads[name], want)
    # running statistics: one EMA step per graph, in batch order
    stats = [n for n in packed.names() if not packed.is_trainable(n)]
    assert stats
    for name in stats:
        _assert_within_1e12(packed[name].data, looped[name].data)


@pytest.mark.parametrize("n_packs", [1, 2, 8])
def test_packed_batch_matches_per_graph_loop(monkeypatch, n_packs):
    graphs, fps, labels = _pack_inputs(PACK_CFG, PACK_SIZES)
    assert len(graphs[1].edges[EdgeKind.CC]) == 0 and len(graphs[3].edges[EdgeKind.PP]) == 0
    batch = [6, 1, 3, 0, 7, 2, 5, 4]
    edges = [graphs[i].edge_count() for i in batch]
    budget = {1: sum(edges), 2: max(sum(edges[:4]), sum(edges[4:])), 8: 0}[n_packs]
    monkeypatch.setattr(geograph, "PACK_EDGE_BUDGET", budget)
    packs = [ids for ids, _ in edge_budget_packs(batch, lambda i: graphs[i])]
    assert len(packs) == n_packs
    assert [i for p in packs for i in p] == batch
    _assert_packed_matches_oracle(graphs, fps, labels, batch)


@pytest.mark.parametrize("index", [0, 1, 3])
def test_packed_batch_of_one_matches_per_graph_loop(index):
    graphs, fps, labels = _pack_inputs(PACK_CFG, PACK_SIZES)
    _assert_packed_matches_oracle(graphs, fps, labels, [index])


def test_packed_gradients_in_small_edge_blocks_match_per_graph_loop(monkeypatch):
    # the oracle's graphs are below the default block, so it runs unblocked
    graphs, fps, labels = _pack_inputs(PACK_CFG, PACK_SIZES)
    assert max(len(es) for g in graphs for es in g.edges.values()) < equinet.EDGE_BLOCK
    pack = pack_graphs(graphs)
    assert all(len(pack.edges[kind]) > SMALL_EDGE_BLOCK for kind in EDGE_KIND_ORDER)
    _assert_packed_matches_oracle(
        graphs, fps, labels, [6, 1, 3, 0, 7, 2, 5, 4],
        before_packed=lambda: monkeypatch.setattr(equinet, "EDGE_BLOCK", SMALL_EDGE_BLOCK))


def test_packed_inference_does_not_depend_on_the_edge_block(monkeypatch):
    graphs, fps, _ = _pack_inputs(PACK_CFG, PACK_SIZES)
    pack = pack_graphs(graphs)
    assert all(len(pack.edges[kind]) > SMALL_EDGE_BLOCK for kind in EDGE_KIND_ORDER)
    params = init_params(PACK_CFG, TINY_CUT, seed=3)

    def predict(block):
        monkeypatch.setattr(equinet, "EDGE_BLOCK", block)
        return forward(pack, fps, params, PACK_CFG).data

    np.testing.assert_allclose(predict(SMALL_EDGE_BLOCK), predict(10 ** 9), rtol=1e-12, atol=0)


def test_packed_inference_matches_single_graph_forwards():
    graphs, fps, _ = _pack_inputs(PACK_CFG, PACK_SIZES)
    params = init_params(PACK_CFG, TINY_CUT, seed=3)
    packed = forward(pack_graphs(graphs), fps, params, PACK_CFG)
    assert packed.shape == (len(graphs),)
    single = [float(forward_one(g, fp, params, PACK_CFG).data) for g, fp in zip(graphs, fps)]
    np.testing.assert_allclose(packed.data, single, rtol=1e-12, atol=0)


def test_training_losses_do_not_depend_on_the_pack_budget(monkeypatch):
    records = random_complexes(6, seed=13, with_label=True, n_atoms=5, n_residues=5)
    cfg = TrainConfig(learning_rate=1e-3, steps=4, batch_size=4, seed=2)

    def run(budget):
        monkeypatch.setattr(geograph, "PACK_EDGE_BUDGET", budget)
        return train(records, cfg, PACK_CFG, TINY_CUT)

    (one, one_losses), (many, many_losses) = run(10 ** 9), run(0)
    np.testing.assert_allclose(many_losses, one_losses, rtol=1e-12, atol=0)
    for name in one.params.names():
        _assert_within_1e12(many.params[name].data, one.params[name].data)


def test_packed_gradients_match_finite_differences():
    """Acceptance 2's check on a pack of three graphs at its tiny config:
    analytic gradients against central differences for every trainable
    tensor, at four seeded entries of each (acceptance 2 itself checks
    every entry on one graph)."""
    graphs, fps, labels = _pack_inputs(ACC2_CFG, ((4, 3), (1, 5), (5, 1)), seed=7)
    pack = pack_graphs(graphs)
    params = init_params(ACC2_CFG, TINY_CUT, seed=1)
    pick = np.random.default_rng(0)

    def loss_fn():
        preds = forward(pack, fps, params, ACC2_CFG, training=True)
        return ad.mul(ad.tsum(mse_loss(preds, labels)), 1.0 / len(graphs))

    _, grads = grad(loss_fn, params)
    h = 1e-5
    worst = 0.0
    for name in params.trainable_names():
        flat = params[name].data.reshape(-1)
        analytic = grads[name].reshape(-1)
        for i in pick.choice(flat.size, size=min(flat.size, 4), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(loss_fn().data)
            flat[i] = orig - h
            f_minus = float(loss_fn().data)
            flat[i] = orig
            fd = (f_plus - f_minus) / (2 * h)
            worst = max(worst, abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd), 1e-5))
    assert worst < 1e-4, f"gradient mismatch: max relative error {worst}"


def test_packed_gradients_in_small_edge_blocks_match_finite_differences(monkeypatch):
    monkeypatch.setattr(equinet, "EDGE_BLOCK", 16)
    pack = pack_graphs(_pack_inputs(ACC2_CFG, ((4, 3), (1, 5), (5, 1)), seed=7)[0])
    assert all(len(pack.edges[kind]) > 16 for kind in EDGE_KIND_ORDER)
    test_packed_gradients_match_finite_differences()


def test_packed_training_peak_memory_follows_the_budget(monkeypatch):
    """With the budget below one graph's edges every graph is its own pack,
    so a batch of 4 peaks near one graph's forward and backward, not 4x."""
    cfg = ModelConfig(layers=2, layout=IrrepLayout((8, 4, 2)), edge_mlp_hidden=16,
                      readout_hidden=8, fingerprint_width=64, fingerprint_embed=8)
    records = random_complexes(4, seed=17, with_label=True, n_atoms=8, n_residues=24)
    graph = build_pair_graph(records[0].ligand, records[0].protein, TINY_CUT)
    monkeypatch.setattr(geograph, "PACK_EDGE_BUDGET", graph.edge_count() // 2)
    train_cfg = TrainConfig(learning_rate=1e-3, steps=1, seed=0)

    def peak(batch):
        tracemalloc.start()
        try:
            train(records[:batch], TrainConfig(**{**train_cfg.__dict__, "batch_size": batch}),
                  cfg, TINY_CUT)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, four = peak(1), peak(4)
    assert four <= 1.5 * one, f"batch of 4 peaked at {four / one:.2f}x one graph"


def _training_step(n_residues: int, side: int):
    """One training step of a 32-atom ligand in a lattice receptor of
    `n_residues` from a `side`^3 grid (the 9^3 grid keeps 722, the 13^3
    grid 2,190) at the default config, as a function of no arguments."""
    rng = np.random.default_rng(5)
    ligand = random_ligand(rng, n_atoms=32, mol_id="lig", center=(0.0, 0.0, 0.0))
    cfg, cut = ModelConfig(), CutoffConfig()
    receptor = lattice_receptor(rng, n_residues=n_residues, side=side)
    assert len(receptor.residues) == n_residues
    graph = build_pair_graph(ligand, receptor, cut)
    assert len(graph.edges[EdgeKind.PP]) > 15_000
    fp = morgan_fingerprint(ligand, nbits=cfg.fingerprint_width)
    params = init_params(cfg, cut, seed=0)
    return lambda: batch_gradients([graph], fp[None], np.array([6.0]), [0], params, cfg)


def training_step_peak_mb(n_residues: int = 300, side: int = 9):
    """`tracemalloc` peak, in MB, of one `_training_step`."""
    step = _training_step(n_residues, side)
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def training_step_s(n_residues: int = 300, side: int = 9, runs: int = 3):
    """Wall time, in s, of one `_training_step`: the minimum of `runs`."""
    step = _training_step(n_residues, side)
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        step()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_training_step_on_a_300_residue_complex_peaks_below_80_mb():
    """Each EDGE_BLOCK block's per-edge work is one checkpoint and its
    scatter into the sums runs outside it, so the tape saves node-sized
    tensors and parameters once per stage and holds one block's per-edge
    arrays at a time: 30 MB here (34 MB when backward reran each block on
    a tape), where checkpointing only the edge network and the couplings
    peaked at 191 MB and saving every intermediate at 383 MB."""
    peak = training_step_peak_mb()
    assert peak < 80, f"one step peaked at {peak:.0f} MB"


def test_training_step_in_smaller_edge_blocks_peaks_no_higher(monkeypatch):
    """The tape keeps no node-sized array per block, so more, smaller
    blocks hold fewer per-edge arrays at a time: 18 MB at 256 edges a block
    against 30 MB at 2,048, where checkpointing each block's running sums
    peaked at 60 MB against 39 MB."""
    monkeypatch.setattr(equinet, "EDGE_BLOCK", 256)
    small = training_step_peak_mb()
    monkeypatch.setattr(equinet, "EDGE_BLOCK", 2048)
    large = training_step_peak_mb()
    assert small <= large, f"256-edge blocks peaked at {small:.0f} MB, 2,048 at {large:.0f} MB"


def test_training_step_on_a_722_residue_lattice_peaks_below_70_mb():
    """47k edges: 48 MB (51 MB when backward reran each block on a tape),
    where checkpointing each block's running sums peaked at 81 MB, and
    checkpointing only the edge network and the couplings at 465 MB."""
    peak = training_step_peak_mb(n_residues=722)
    assert peak < 70, f"one step peaked at {peak:.0f} MB"


def test_checkpointed_gradients_equal_the_unwrapped_ops_bit_for_bit(monkeypatch):
    """Every input of a message block's `ad.custom_adjoint` is a fresh
    gather or take, or a parameter used once per call, so a packed step
    over several edge blocks gives the loss and gradients of the same step
    run with `ad.custom_adjoint` as a plain call of the block, bit for
    bit."""
    monkeypatch.setattr(equinet, "EDGE_BLOCK", 16)
    graphs, fps, labels = _pack_inputs(ACC2_CFG, ((4, 3), (1, 5), (5, 1)), seed=7)
    runs = []
    for plain in (False, True):
        if plain:
            monkeypatch.setattr(ad, "custom_adjoint", lambda fn, adjoint, *inputs: fn(*inputs))
        params = init_params(ACC2_CFG, TINY_CUT, seed=3)
        loss, grads = batch_gradients(graphs, fps, labels, [0, 1, 2], params, ACC2_CFG)
        runs.append([np.float64(loss).tobytes()] + [grads[k].tobytes() for k in sorted(grads)])
    assert runs[0] == runs[1]


def test_grad_leaves_no_adjoint_on_the_parameters():
    graphs, fps, labels = _pack_inputs(ACC2_CFG, ((4, 3), (1, 5)), seed=7)
    params = init_params(ACC2_CFG, TINY_CUT, seed=3)
    pack = pack_graphs(graphs)

    def loss_fn():
        return ad.tsum(mse_loss(forward(pack, fps, params, ACC2_CFG, training=True), labels))

    _, grads = grad(loss_fn, params)
    assert any(np.abs(g).max() > 0 for g in grads.values())
    assert all(params[name].grad is None for name in params.names())


def test_one_pack_batch_gradients_equal_its_grad_bit_for_bit():
    """The first pack's gradients are the totals, with no zero start."""
    graphs, fps, labels = _pack_inputs(ACC2_CFG, ((4, 3), (1, 5), (5, 1)), seed=7)
    batch = [2, 0, 1]
    runs = []
    for packed in (True, False):
        params = init_params(ACC2_CFG, TINY_CUT, seed=3)
        if packed:
            loss, grads = batch_gradients(graphs, fps, labels, batch, params, ACC2_CFG)
        else:
            pack = pack_graphs([graphs[i] for i in batch])

            def loss_fn():
                preds = forward(pack, fps[batch], params, ACC2_CFG, training=True)
                return ad.mul(ad.tsum(mse_loss(preds, labels[batch])), 1.0 / len(batch))

            loss, grads = grad(loss_fn, params)
        runs.append([np.float64(loss).tobytes()] + [grads[k].tobytes() for k in sorted(grads)])
    assert runs[0] == runs[1]


def test_gradients_through_tracked_edge_constants_in_small_blocks(monkeypatch):
    """Tracked distances and harmonics feed every message block, which
    embeds the distances itself. The gradient of a prediction with
    respect to one ligand atom's coordinates equals the run
    with `ad.custom_adjoint` as a plain call of the block bit for bit, is
    nonzero, and matches central differences."""
    monkeypatch.setattr(equinet, "EDGE_BLOCK", 16)
    rec = random_complex(np.random.default_rng(23), "probe", n_atoms=8, n_residues=10)
    graph = build_pair_graph(rec.ligand, rec.protein, TINY_CUT)
    assert all(len(graph.edges[kind]) > 16 for kind in EDGE_KIND_ORDER)
    fp = morgan_fingerprint(rec.ligand, nbits=TINY_CFG.fingerprint_width)
    params = init_params(TINY_CFG, TINY_CUT, seed=3)
    for name in params.names():
        if name.endswith(".psi.b2"):    # gates near 1: messages well above rounding
            params[name].data = params[name].data + 1.0
    atom = 2

    def predict(xyz):
        pos = ad.concat([graph.positions[:atom], ad.reshape(xyz, (1, 3)),
                         graph.positions[atom + 1:]], axis=0)
        _track_edges(monkeypatch, graph, pos)
        # batch statistics keep the features, and so this gradient, at O(1)
        return forward_one(graph, fp, params, TINY_CFG, training=True)

    def gradient():
        xyz = Tensor(graph.positions[atom].copy(), requires_grad=True)
        with Tape() as tape:
            pred = predict(xyz)
        (g,) = tape.gradient(pred, [xyz])
        return g

    got = gradient()
    with monkeypatch.context() as m:
        m.setattr(ad, "custom_adjoint", lambda fn, adjoint, *inputs: fn(*inputs))
        assert gradient().tobytes() == got.tobytes()
    assert np.abs(got).max() > 1e-4
    h = 1e-6
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        xyz = graph.positions[atom]
        fd = (float(predict(xyz + step).data) - float(predict(xyz - step).data)) / (2 * h)
        assert abs(got[i] - fd) <= 1e-6 * np.abs(got).max(), (i, got[i], fd)


def train_peak_mb():
    """`tracemalloc` peak, in MB, of one `train` call at the default
    config: 32 seeded toy complexes, 8 adam steps at batch 8."""
    records = random_complexes(32, seed=0, with_label=True)
    tracemalloc.start()
    try:
        train(records, TrainConfig(steps=8, batch_size=8, seed=0), ModelConfig(), CutoffConfig())
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
