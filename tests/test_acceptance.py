"""Acceptance suite: one test per criterion, each timed against its budget
and printing one PASS line with the measured numbers (run with `-s` to see
the lines as they happen).
"""

import math
import time

import numpy as np

from cpi3d.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from cpi3d.chemio import parse_sdf, write_sdf
from cpi3d.datasplit import (
    SplitSetting,
    assign_folds,
    compound_similarity_matrix,
    hierarchical_cluster,
    leakage_report,
    normalize_label,
    protein_similarity_matrix,
)
from cpi3d.equinet import (
    IrrepLayout,
    ModelConfig,
    init_params,
    params_from_state,
)
from cpi3d.fingerprint import morgan_fingerprint
from cpi3d.geograph import CutoffConfig, build_pair_graph
from cpi3d.metrics import (
    bedroc,
    concordance_index,
    enrichment_factor,
    simulate_random_screen,
    spearman,
)
from cpi3d.physscore import VinaWeights, rerank_poses, vina_score
from cpi3d.so3 import random_rotation
from cpi3d.synthetic import (
    clustered_records,
    random_complex,
    random_complexes,
    random_ligand,
)
from cpi3d.train import TrainConfig, grad, mse_loss, train

from conftest import forward_one, transform_ligand, transform_protein
from oracles import bedroc_oracle, ci_oracle, ef_oracle, spearman_oracle, wigner_d
from test_physscore import _moved, _receptor


def _report(num, name, detail, elapsed, budget):
    assert elapsed < budget, f"criterion {num} overran its {budget}s budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE {num} [{name}]: PASS ({detail}; {elapsed:.1f}s < {budget}s)")


# 1 ---------------------------------------------------------------------------

def test_acceptance_1_equivariance_suite():
    t0 = time.monotonic()
    cfg = ModelConfig(layers=2, layout=IrrepLayout((16, 6, 3)), edge_mlp_hidden=32,
                      readout_hidden=16, fingerprint_width=128, fingerprint_embed=16)
    cut = CutoffConfig(rbf_k=16)
    # a briefly trained model: fresh initializations are contractive and
    # nearly geometry-insensitive at the output, which would make the
    # output-level invariance check vacuous
    warm = random_complexes(6, seed=77, with_label=True, n_atoms=6, n_residues=6)
    model, _ = train(warm, TrainConfig(learning_rate=3e-3, steps=40, batch_size=6,
                                       seed=1), cfg, cut)
    params = model.params
    rng = np.random.default_rng(2024)

    # tripwire: the prediction must actually respond to geometry
    probe = random_complex(rng, "sens", n_atoms=7, n_residues=7)
    fp_probe = morgan_fingerprint(probe.ligand, nbits=cfg.fingerprint_width)
    before = float(forward_one(build_pair_graph(probe.ligand, probe.protein, cut),
                               fp_probe, params, cfg, training=True).data)
    squashed = transform_ligand(probe.ligand, t=[0.0, 0.0, 0.0])
    moved_atoms = list(squashed.atoms)
    moved_atoms[0] = type(moved_atoms[0])(
        moved_atoms[0].element, moved_atoms[0].position + np.array([0.3, 0.0, 0.0]),
        moved_atoms[0].formal_charge, moved_atoms[0].aromatic)
    squashed = type(squashed)(squashed.id, tuple(moved_atoms), squashed.bonds)
    after = float(forward_one(build_pair_graph(squashed, probe.protein, cut),
                              fp_probe, params, cfg, training=True).data)
    assert abs(after - before) > 1e-6, "prediction ignores geometry; test is vacuous"

    worst_rel = 0.0
    worst_block = 0.0
    block_magnitude = 0.0
    for c in range(50):
        rec = random_complex(rng, f"acc1_{c}", n_atoms=int(rng.integers(3, 11)),
                             n_residues=int(rng.integers(3, 11)))
        graph = build_pair_graph(rec.ligand, rec.protein, cut)
        fp = morgan_fingerprint(rec.ligand, nbits=cfg.fingerprint_width)
        # batch-statistics mode: batch norm scales the l>0 blocks to unit
        # RMS, so the covariance check runs on order-one numbers
        base, base_feats = forward_one(graph, fp, params, cfg, training=True,
                                       return_features=True)
        base_val = float(base.data)
        for snap in base_feats:
            for l in (1, 2):
                block_magnitude = max(block_magnitude,
                                      np.abs(snap["feature"].blocks[l].data).max())
        for _ in range(20):
            R = random_rotation(rng)
            t = rng.normal(size=3) * 15.0
            g2 = build_pair_graph(transform_ligand(rec.ligand, R, t),
                                  transform_protein(rec.protein, R, t), cut)
            moved, moved_feats = forward_one(g2, fp, params, cfg, training=True,
                                             return_features=True)
            rel = abs(float(moved.data) - base_val) / (abs(base_val) + 1e-8)
            worst_rel = max(worst_rel, rel)
            D = {l: wigner_d(R, l) for l in (1, 2)}
            for snap, snap_rot in zip(base_feats, moved_feats):
                for l in (1, 2):
                    want = np.einsum("MN,ncN->ncM", D[l],
                                     snap["feature"].blocks[l].data)
                    err = np.abs(want - snap_rot["feature"].blocks[l].data).max()
                    worst_block = max(worst_block, err)

    assert worst_rel < 1e-5, f"prediction drifted under rigid motion: {worst_rel}"
    assert worst_block < 1e-8, f"internal blocks broke covariance: {worst_block}"
    assert block_magnitude > 1e-2, "l>0 blocks numerically dead; check is vacuous"
    _report(1, "equivariance suite",
            f"max rel drift {worst_rel:.2e}, max block err {worst_block:.2e}, "
            f"peak block magnitude {block_magnitude:.2f}",
            time.monotonic() - t0, 60)


# 2 ---------------------------------------------------------------------------

def test_acceptance_2_gradient_check():
    t0 = time.monotonic()
    cfg = ModelConfig(layers=2, layout=IrrepLayout((3, 2, 1)), edge_mlp_hidden=6,
                      readout_hidden=5, fingerprint_width=16, fingerprint_embed=3)
    cut = CutoffConfig(rbf_k=6)
    rng = np.random.default_rng(7)
    rec = random_complex(rng, "acc2", n_atoms=4, n_residues=3)
    graph = build_pair_graph(rec.ligand, rec.protein, cut)
    fp = morgan_fingerprint(rec.ligand, nbits=cfg.fingerprint_width)
    params = init_params(cfg, cut, seed=1)

    def loss_fn():
        return mse_loss(forward_one(graph, fp, params, cfg, training=True), 0.5)

    _, grads = grad(loss_fn, params)

    h = 1e-5
    worst = 0.0
    n_checked = 0
    for name in params.trainable_names():
        tensor = params[name]
        flat = tensor.data.reshape(-1)
        analytic = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp_val = float(loss_fn().data)
            flat[i] = orig - h
            fm_val = float(loss_fn().data)
            flat[i] = orig
            fd = (fp_val - fm_val) / (2 * h)
            rel = abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd), 1e-5)
            worst = max(worst, rel)
            n_checked += 1

    assert worst < 1e-4, f"gradient mismatch: max relative error {worst}"
    _report(2, "gradient check",
            f"{n_checked} parameters, max rel err {worst:.2e}",
            time.monotonic() - t0, 120)


# 3 ---------------------------------------------------------------------------

def test_acceptance_3_overfit_capacity():
    t0 = time.monotonic()
    cfg = ModelConfig(layers=2, layout=IrrepLayout((8, 4, 2)), edge_mlp_hidden=16,
                      readout_hidden=32, fingerprint_width=128, fingerprint_embed=16)
    cut = CutoffConfig(rbf_k=8)
    records = random_complexes(8, seed=42, n_atoms=5, n_residues=5)
    graphs = [build_pair_graph(r.ligand, r.protein, cut) for r in records]
    fps = [morgan_fingerprint(r.ligand, nbits=cfg.fingerprint_width) for r in records]

    frozen = init_params(cfg, cut, seed=123)
    raw = np.array([float(forward_one(g, f, frozen, cfg).data)
                    for g, f in zip(graphs, fps)])
    labels = (raw - raw.mean()) / raw.std()   # frozen-model labels, standardized

    train_cfg = TrainConfig(learning_rate=1e-3, steps=2000, batch_size=8, seed=0)
    _, losses = train(records, train_cfg, cfg, cut, labels=labels, target_mse=0.01)
    assert losses[-1] < 0.01, f"MSE stuck at {losses[-1]} after {len(losses)} steps"
    assert len(losses) <= 2000
    _report(3, "overfit capacity",
            f"MSE {losses[-1]:.4f} after {len(losses)} Adam steps",
            time.monotonic() - t0, 300)


# 4 ---------------------------------------------------------------------------

def test_acceptance_4_random_guessing_baseline():
    t0 = time.monotonic()
    result = simulate_random_screen(n_actives=1759, n_decoys=107590,
                                    trials=200, seed=0)
    assert 0.017 <= result["bedroc_mean"] <= 0.027, result
    assert 0.79 <= result["ef_mean"] <= 1.09, result
    _report(4, "random-guessing baseline",
            f"BEDROC {result['bedroc_mean']:.4f}, EF1% {result['ef_mean']:.3f} "
            f"over {result['trials']} trials",
            time.monotonic() - t0, 120)


# 5 ---------------------------------------------------------------------------

def test_acceptance_5_metric_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(5, 201))
        if rng.random() < 0.5:
            preds = rng.normal(size=n)
            labels = rng.normal(size=n)
        else:   # integer-valued inputs force ties
            preds = rng.integers(0, 8, size=n).astype(float)
            labels = rng.integers(0, 5, size=n).astype(float)
        if len(set(labels.tolist())) < 2:
            continue
        binary = (rng.random(n) < 0.3).astype(float)
        if binary.sum() in (0, n):
            continue
        checked += 1
        worst = max(worst, abs(concordance_index(preds, labels)
                               - ci_oracle(preds.tolist(), labels.tolist())))
        if np.std(preds) > 0:
            worst = max(worst, abs(spearman(preds, labels)
                                   - spearman_oracle(preds.tolist(), labels.tolist())))
        for x in (1.0, 5.0, 25.0):
            worst = max(worst, abs(enrichment_factor(preds, binary, x)
                                   - ef_oracle(preds.tolist(), binary.tolist(), x)))
        for alpha in (20.0, 80.5):
            worst = max(worst, abs(bedroc(preds, binary, alpha)
                                   - bedroc_oracle(preds.tolist(), binary.tolist(),
                                                   alpha)))
    assert worst < 1e-10, f"metric/oracle disagreement: {worst}"
    _report(5, "metric oracles", f"100 vectors, max abs err {worst:.2e}",
            time.monotonic() - t0, 120)


# 6 ---------------------------------------------------------------------------

def test_acceptance_6_label_normalization():
    t0 = time.monotonic()
    lo = normalize_label(0.003)
    hi = normalize_label(4.59e8)
    assert lo == math.log10(0.003 * 1e-9)
    assert hi == math.log10(4.59e8 * 1e-9)
    assert abs(lo - (-11.523)) < 5e-4
    assert abs(hi - (-0.338)) < 5e-4
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        ec50 = float(10 ** rng.uniform(-3, 9))
        worst = max(worst, abs(10.0 ** normalize_label(ec50) * 1e9 - ec50) / ec50)
    assert worst < 1e-9
    _report(6, "label normalization",
            f"endpoints {lo:.3f} / {hi:.3f}, round-trip rel err {worst:.1e}",
            time.monotonic() - t0, 60)


# 7 ---------------------------------------------------------------------------

def test_acceptance_7_split_leakage():
    t0 = time.monotonic()
    records = clustered_records(n_families=100, family_size=5, seed=0)
    ids = [r.complex_id for r in records]
    comp_sim = compound_similarity_matrix([r.ligand for r in records])
    prot_sim = protein_similarity_matrix([r.protein for r in records])
    comp_clusters = hierarchical_cluster(ids, comp_sim, 0.4)
    prot_clusters = hierarchical_cluster(ids, prot_sim, 0.5)

    for setting, sim, threshold in (
        (SplitSetting.NOVEL_COMPOUND, comp_sim, 0.4),
        (SplitSetting.NOVEL_PROTEIN, prot_sim, 0.5),
    ):
        fa = assign_folds(ids, setting, comp_clusters, prot_clusters, k=5, seed=0)
        report = leakage_report(fa, ids, comp_sim, prot_sim, 0.4, 0.5)
        assert report.passed, f"{setting}: leakage detected"

        # O(n^2) oracle: no cross-fold pair above the threshold, and the
        # reported per-fold-pair maxima match an exhaustive scan exactly
        fold_of = [fa.fold_of[rid] for rid in ids]
        maxima = {}
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                fi, fj = fold_of[i], fold_of[j]
                if fi == fj:
                    continue
                assert sim[i, j] <= threshold, (
                    f"{setting}: records {ids[i]} / {ids[j]} leak at {sim[i, j]}"
                )
                key = (min(fi, fj), max(fi, fj))
                maxima[key] = max(maxima.get(key, 0.0), sim[i, j])
        reported = (report.max_compound_tanimoto
                    if setting == SplitSetting.NOVEL_COMPOUND
                    else report.max_protein_jaccard)
        for key, value in maxima.items():
            assert reported[key] == value

    _report(7, "split leakage",
            "novel-compound and novel-protein 5-fold splits leak-free on 500 records",
            time.monotonic() - t0, 300)


# 8 ---------------------------------------------------------------------------

def test_acceptance_8_physics_score_invariance():
    t0 = time.monotonic()
    rng = np.random.default_rng(17)
    lig = random_ligand(rng, n_atoms=8)
    prot_atoms = _receptor(*[
        (str(rng.choice(["C", "N", "O", "S"])), rng.normal(size=3) * 3 + 4) for _ in range(12)
    ])
    base = vina_score(lig, prot_atoms)
    worst = 0.0
    for _ in range(10):
        R = random_rotation(rng)
        t = rng.normal(size=3) * 30
        lig2 = transform_ligand(lig, R, t)
        prot2 = _moved(prot_atoms, R, t)
        worst = max(worst, abs(vina_score(lig2, prot2) - base))
    assert worst < 1e-9, f"score moved under rigid transform: {worst}"

    # a clashing pose of identical composition ranks strictly below clash-free
    pocket = _receptor(("C", [4.0, 0.0, 0.0]), ("C", [0.0, 4.0, 0.0]))
    clash_free = random_ligand(np.random.default_rng(3), n_atoms=3,
                               center=(0.0, 0.0, 0.0))
    clashing = transform_ligand(clash_free, t=[3.6, 0.0, 0.0])
    ranked = rerank_poses([clashing, clash_free], pocket, VinaWeights())
    assert ranked[0].pose_index == 1
    assert ranked[0].e_vina < ranked[1].e_vina
    _report(8, "physics-score invariance",
            f"max drift {worst:.1e}; clash ranked below clash-free",
            time.monotonic() - t0, 60)


# 9 ---------------------------------------------------------------------------

def test_acceptance_9_round_trips(tmp_path):
    t0 = time.monotonic()
    rng = np.random.default_rng(23)
    mols = [random_ligand(rng, mol_id=f"rt{i}") for i in range(10)]
    text1 = write_sdf(mols)
    parsed = parse_sdf(text1)
    text2 = write_sdf(parsed)
    assert text2 == write_sdf(parse_sdf(text2))   # bitwise-stable fixpoint
    for a, b in zip(mols, parsed):
        assert a.bonds == b.bonds
        for x, y in zip(a.atoms, b.atoms):
            assert x.element == y.element
            np.testing.assert_allclose(x.position, y.position, atol=5e-5)

    cfg = ModelConfig(layers=1, layout=IrrepLayout((4, 2, 1)), edge_mlp_hidden=8,
                      readout_hidden=6, fingerprint_width=32, fingerprint_embed=4)
    params = init_params(cfg, CutoffConfig(rbf_k=6), seed=11)
    path = tmp_path / "rt.eqcp"
    save_checkpoint(path, params, config={"model": cfg.to_dict()})
    first = path.read_bytes()
    state, config, _ = load_checkpoint(path)
    reloaded = params_from_state(cfg, CutoffConfig(rbf_k=6), state)
    assert checkpoint_bytes(reloaded, config=config) == first   # byte identity
    _report(9, "round trips", "SDF and checkpoint round trips bitwise stable",
            time.monotonic() - t0, 60)
