import json
import math
import tracemalloc

import numpy as np
import pytest

from cpi3d.errors import ValidationError
from cpi3d.metrics import (
    average_ranks,
    bedroc,
    concordance_index,
    enrichment_factor,
    evaluate,
    evaluate_grouped,
    mse,
    pearson,
    sample_std,
    simulate_random_screen,
    spearman,
)


from oracles import (
    bedroc_oracle,
    ci_oracle,
    ef_oracle,
    pearson_oracle,
    rank_oracle,
    spearman_oracle,
)


# ----------------------------------------------------------------- CI

def test_ci_examples():
    assert concordance_index([1, 2, 3], [1, 2, 3]) == 1.0
    assert concordance_index([3, 2, 1], [1, 2, 3]) == 0.0
    assert concordance_index([1, 3, 2], [1, 2, 3]) == pytest.approx(2 / 3)


def test_ci_tied_predictions_half_credit():
    assert concordance_index([1, 1], [0, 1]) == 0.5


def test_ci_all_labels_equal_undefined():
    with pytest.raises(ValidationError):
        concordance_index([1, 2, 3], [5, 5, 5])


def test_ci_complement_identity(rng):
    for _ in range(20):
        p = rng.normal(size=30)            # continuous: no prediction ties
        y = rng.normal(size=30)
        total = concordance_index(p, y) + concordance_index(-p, y)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_ci_matches_oracle(rng):
    for _ in range(300):
        n = int(rng.integers(2, 70))
        # few distinct values force prediction, label and joint ties
        p = rng.integers(0, int(rng.integers(1, 8)), size=n).astype(float)
        y = rng.integers(0, int(rng.integers(2, 6)), size=n).astype(float)
        if len(set(y.tolist())) < 2:
            continue
        assert concordance_index(p, y) == ci_oracle(p.tolist(), y.tolist())


def test_ci_memory_bounded_at_1e5_rows(rng):
    n = 100_000
    p = rng.normal(size=n)
    y = rng.integers(0, 1000, size=n).astype(float)
    tracemalloc.start()
    try:
        ci = concordance_index(p, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500 * 2 ** 20
    assert 0.49 < ci < 0.51   # independent scores sit at chance level


# -------------------------------------------------- correlations and mse

def test_perfect_correlation_examples():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson(y, y) == pytest.approx(1.0)
    assert spearman(y, y) == pytest.approx(1.0)
    assert mse(y, y) == 0.0
    assert pearson(-y, y) == pytest.approx(-1.0)
    assert spearman(-y, y) == pytest.approx(-1.0)


def test_spearman_with_ties_matches_hand_ranks():
    preds = [1.0, 2.0, 2.0, 4.0]
    labels = [1.0, 2.0, 3.0, 4.0]
    assert rank_oracle(preds) == [1.0, 2.5, 2.5, 4.0]
    assert spearman(preds, labels) == pytest.approx(
        spearman_oracle(preds, labels), abs=1e-12)


def test_average_ranks_match_oracle(rng):
    for _ in range(20):
        v = rng.integers(0, 5, size=int(rng.integers(1, 30))).astype(float)
        np.testing.assert_array_equal(average_ranks(v), rank_oracle(v.tolist()))


def test_correlations_match_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(3, 50))
        p = rng.normal(size=n)
        y = rng.normal(size=n)
        assert pearson(p, y) == pytest.approx(pearson_oracle(p, y), abs=1e-10)
        assert spearman(p, y) == pytest.approx(spearman_oracle(p, y), abs=1e-10)


def test_zero_variance_undefined():
    with pytest.raises(ValidationError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_mse_example():
    assert mse([0.0, 1.0], [0.0, 3.0]) == pytest.approx(2.0)


# ---------------------------------------------------------------- EF

def test_ef_uniform_interleaving_is_one():
    labels = [1, 0] * 50
    scores = list(range(100, 0, -1))
    assert enrichment_factor(scores, labels, x_percent=10) == pytest.approx(1.0)


def test_ef_perfect_early_enrichment():
    n = 10000
    labels = np.zeros(n)
    labels[:50] = 1
    scores = np.arange(n, 0, -1, dtype=float)   # actives hold the top 50 slots
    assert enrichment_factor(scores, labels, x_percent=1) == pytest.approx(
        (50 / 100) / (50 / 10000))


def test_ef_all_active_is_one():
    labels = np.ones(20)
    scores = np.arange(20, dtype=float)
    for x in (1, 5, 50, 100):
        assert enrichment_factor(scores, labels, x_percent=x) == pytest.approx(1.0)


def test_ef_no_actives_undefined():
    with pytest.raises(ValidationError):
        enrichment_factor([1.0, 2.0], [0, 0], x_percent=50)


def test_ef_matches_oracle_and_bound(rng):
    for _ in range(30):
        n = int(rng.integers(5, 150))
        scores = rng.normal(size=n)
        labels = (rng.random(n) < 0.3).astype(float)
        if labels.sum() == 0:
            continue
        x = float(rng.choice([1.0, 5.0, 10.0, 50.0]))
        got = enrichment_factor(scores, labels, x_percent=x)
        assert got == pytest.approx(ef_oracle(scores.tolist(), labels.tolist(), x),
                                    abs=1e-12)
        m = math.ceil(n * x / 100)
        assert got <= min(n / m, n / labels.sum()) + 1e-12


# ------------------------------------------------------------- BEDROC

def test_bedroc_perfect_ranking_near_one():
    N, n = 1000, 10
    labels = np.zeros(N)
    labels[:n] = 1
    scores = np.arange(N, 0, -1, dtype=float)
    got = bedroc(scores, labels, alpha=80.5)
    want = bedroc_oracle(scores.tolist(), labels.tolist(), 80.5)
    assert got == pytest.approx(want, abs=1e-12)
    assert got > 0.999
    assert got <= 1.0 + 1e-9


def test_bedroc_matches_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(10, 120))
        scores = rng.normal(size=n)
        labels = (rng.random(n) < 0.25).astype(float)
        if labels.sum() in (0, n):
            continue
        for alpha in (20.0, 80.5):
            assert bedroc(scores, labels, alpha=alpha) == pytest.approx(
                bedroc_oracle(scores.tolist(), labels.tolist(), alpha), abs=1e-12)


def test_bedroc_degenerate_undefined():
    with pytest.raises(ValidationError):
        bedroc([1.0, 2.0], [1, 1])
    with pytest.raises(ValidationError):
        bedroc([1.0, 2.0], [0, 0])


def test_bedroc_small_alpha_approaches_rank_auc(rng):
    for _ in range(5):
        N = 200
        labels = (rng.random(N) < 0.2).astype(float)
        if labels.sum() in (0, N):
            continue
        scores = rng.normal(size=N)
        got = bedroc(scores, labels, alpha=0.001)
        order = np.argsort(-scores, kind="stable")
        ranks = np.nonzero(labels[order])[0] + 1.0
        n = labels.sum()
        auc = (np.sum(N - ranks) - n * (n - 1) / 2) / (n * (N - n))
        assert abs(got - auc) < 1e-3


# ------------------------------------------ invariance and report plumbing

def test_rank_metrics_invariant_under_monotone_transform(rng):
    scores = rng.normal(size=60)
    values = rng.normal(size=60)
    labels = (rng.random(60) < 0.3).astype(float)
    labels[:2] = [1, 0]   # ensure both classes
    for transform in (lambda s: 2.0 * s + 1.0, np.exp):
        t = transform(scores)
        assert concordance_index(t, values) == pytest.approx(
            concordance_index(scores, values), abs=1e-12)
        assert spearman(t, values) == pytest.approx(
            spearman(scores, values), abs=1e-12)
        assert enrichment_factor(t, labels, 10) == pytest.approx(
            enrichment_factor(scores, labels, 10), abs=1e-12)
        assert bedroc(t, labels) == pytest.approx(
            bedroc(scores, labels), abs=1e-12)


def test_evaluate_dispatch_and_omissions(rng):
    preds = rng.normal(size=20)
    labels = rng.normal(size=20)
    report = evaluate(preds, labels, ["ci", "spearman", "pearson", "mse",
                                      "ef1", "bedroc80.5"])
    assert set(report.values) == {"ci", "spearman", "pearson", "mse", "ef1",
                                  "bedroc80.5"} - set(report.omitted)
    # continuous labels are all "active" (nonzero): bedroc degenerates
    assert "bedroc80.5" in report.omitted
    assert report.n == 20

    empty = evaluate(preds, labels, [])
    assert empty.values == {} and empty.omitted == {}

    import json
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["n"] == 20


def test_evaluate_grouped(rng):
    preds = rng.normal(size=40)
    labels = preds + rng.normal(size=40) * 0.1
    groups = ["t1"] * 20 + ["t2"] * 20
    doc = evaluate_grouped(preds, labels, ["pearson"], groups)
    assert set(doc["groups"]) == {"t1", "t2"}
    agg = doc["aggregate"]["pearson"]
    vals = [doc["groups"][g]["values"]["pearson"] for g in ("t1", "t2")]
    assert agg["mean"] == pytest.approx(np.mean(vals))
    assert agg["n_groups"] == 2


def _grouped_by_masks(preds, labels, metrics, groups):
    """`evaluate_grouped` by one full-length mask per group: the reference."""
    p, y, groups = np.asarray(preds), np.asarray(labels), np.asarray(groups)
    out = {"groups": {}, "aggregate": {}}
    collected = {}
    for g in sorted(set(groups.tolist())):
        report = evaluate(p[groups == g], y[groups == g], metrics)
        out["groups"][str(g)] = report.to_dict()
        for name, value in report.values.items():
            collected.setdefault(name, []).append(value)
    for name, vals in sorted(collected.items()):
        arr = np.asarray(vals)
        out["aggregate"][name] = {"mean": float(arr.mean()), "std": sample_std(arr),
                                  "n_groups": int(arr.size)}
    return out


@pytest.mark.parametrize("groups", [
    np.random.default_rng(8).permutation([f"T{t:02d}" for t in range(12)] * 25),
    ["only"] * 300,
    np.random.default_rng(9).integers(-3, 40, size=300),
], ids=["shuffled-strings", "one-group", "integers"])
def test_evaluate_grouped_matches_per_mask_loop(groups):
    """Rows keep their input order within each group, so the ranking
    metrics, whose ties break by input order, match bit for bit; so does
    the JSON, including omitted metrics of one-row or one-label groups."""
    rng = np.random.default_rng(10)
    preds = np.round(rng.normal(size=300), 1)       # tie-heavy
    labels = (rng.random(300) < 0.3).astype(float)
    metrics = ["ci", "spearman", "pearson", "mse", "ef1", "bedroc"]
    got = evaluate_grouped(preds, labels, metrics, list(groups))
    assert json.dumps(got) == json.dumps(_grouped_by_masks(preds, labels, metrics, groups))


def test_simulate_random_screen_reproducible():
    a = simulate_random_screen(50, 450, trials=10, seed=42)
    b = simulate_random_screen(50, 450, trials=10, seed=42)
    assert a == b
    assert 0.2 < a["ef_mean"] < 3.0
    assert 0.0 < a["bedroc_mean"] < 0.35
