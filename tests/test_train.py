import math
import tracemalloc

import numpy as np
import pytest

from cpi3d import autodiff as ad
from cpi3d import geograph
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
    pack_graphs,
)
from cpi3d.so3 import Y00
from cpi3d.synthetic import random_complex, random_complexes
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


def _differentiable_edges(rot_pos: Tensor, a_idx, b_idx, cut: CutoffConfig):
    """Edge RBF and harmonics as tape ops over rotated positions."""
    r = ad.add(ad.gather_rows(rot_pos, b_idx),
               ad.mul(ad.gather_rows(rot_pos, a_idx), -1.0))
    dist = ad.sqrt(ad.tsum(ad.mul(r, r), axis=1, keepdims=True))  # (n_e, 1)
    diff = ad.add(dist, -cut.anchors())
    rbf = ad.exp(ad.mul(ad.mul(diff, diff), -cut.rbf_gamma))
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
    return rbf, ad.concat(cols, axis=1)


def test_gradient_through_global_rotation_is_zero(rng):
    """The prediction is rotation invariant, so its adjoint with respect to
    learnable rotation angles applied to all coordinates must vanish."""
    rec = random_complex(rng, "probe", n_atoms=5, n_residues=4)
    graph = build_pair_graph(rec.ligand, rec.protein, TINY_CUT)
    fp = morgan_fingerprint(rec.ligand, nbits=TINY_CFG.fingerprint_width)
    params = init_params(TINY_CFG, TINY_CUT, seed=3)
    theta = Tensor(np.array([0.3, -0.2, 0.5]), requires_grad=True)

    with Tape() as tape:
        R = _rotation_tensor(theta)
        rot_pos = ad.einsum("ni,ji->nj", graph.positions, R)
        override = {}
        for kind in EDGE_KIND_ORDER:
            es = graph.edges[kind]
            override[kind] = _differentiable_edges(rot_pos, es.a, es.b, TINY_CUT)
        pred = forward(graph, fp, params, TINY_CFG, training=False,
                       edge_override=override)
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
            rbf, sh = _differentiable_edges(rot_pos, es.a, es.b, TINY_CUT)
            np.testing.assert_allclose(rbf.data, es.rbf, atol=1e-10)
            from cpi3d.so3 import spherical_harmonics_batch
            unit = es.r_vec / es.dist[:, None]
            np.testing.assert_allclose(sh.data, spherical_harmonics_batch(unit),
                                       atol=1e-10)


def test_zero_learning_rate_leaves_parameters(rng):
    records = random_complexes(2, seed=5, with_label=True, n_atoms=4, n_residues=4)
    cfg = TrainConfig(learning_rate=0.0, steps=3, batch_size=2, seed=0)
    before = init_params(TINY_CFG, TINY_CUT, seed=0).state_dict()
    model, losses = train(records, cfg, TINY_CFG, TINY_CUT)
    after = model.params.state_dict()
    for name in model.params.trainable_names():
        np.testing.assert_array_equal(before[name], after[name])
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


def _assert_packed_matches_oracle(graphs, fps, labels, batch):
    packed = init_params(PACK_CFG, TINY_CUT, seed=3)
    looped = init_params(PACK_CFG, TINY_CUT, seed=3)
    loss, grads = batch_gradients(graphs, fps, labels, batch, packed, PACK_CFG)
    want_loss, want_grads = batch_loss_oracle(graphs, fps, labels, batch, looped, PACK_CFG)
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


def test_packed_inference_matches_single_graph_forwards():
    graphs, fps, _ = _pack_inputs(PACK_CFG, PACK_SIZES)
    params = init_params(PACK_CFG, TINY_CUT, seed=3)
    packed = forward(pack_graphs(graphs), fps, params, PACK_CFG)
    assert packed.shape == (len(graphs),)
    single = [float(forward(g, fp, params, PACK_CFG).data) for g, fp in zip(graphs, fps)]
    np.testing.assert_allclose(packed.data, single, rtol=1e-12, atol=0)


def test_training_losses_do_not_depend_on_the_pack_budget(monkeypatch):
    records = random_complexes(6, seed=13, with_label=True, n_atoms=5, n_residues=5)
    cfg = TrainConfig(learning_rate=1e-3, steps=4, batch_size=4, seed=2)

    def run(budget):
        monkeypatch.setattr(geograph, "PACK_EDGE_BUDGET", budget)
        return train(records, cfg, PACK_CFG, TINY_CUT)

    (one, one_losses), (many, many_losses) = run(10 ** 9), run(0)
    np.testing.assert_allclose(many_losses, one_losses, rtol=1e-12, atol=0)
    for name, want in one.params.state_dict().items():
        _assert_within_1e12(many.params[name].data, want)


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
