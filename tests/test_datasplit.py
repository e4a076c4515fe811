import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cpi3d import datasplit
from cpi3d.datasplit import (
    FoldAssignment,
    SplitSetting,
    assign_folds,
    compound_similarity_matrix,
    hierarchical_cluster,
    leakage_report,
    normalize_label,
    protein_similarity_matrix,
)
from cpi3d.errors import ValidationError
from cpi3d.fingerprint import (
    KmerSet,
    jaccard,
    morgan_fingerprint,
    protein_kmer_set,
    tanimoto,
)
from cpi3d.synthetic import clustered_records, random_ligand

from oracles import complete_linkage_oracle, similarity_matrix


def test_normalize_label_examples():
    assert normalize_label(1e9) == pytest.approx(0.0, abs=1e-12)
    assert normalize_label(0.003) == pytest.approx(-11.522878745280337, abs=1e-9)
    assert normalize_label(4.59e8) == pytest.approx(-0.33818731446273875, abs=1e-9)


def test_normalize_label_round_trip(rng):
    for _ in range(50):
        ec50 = float(10 ** rng.uniform(-3, 9))
        p = normalize_label(ec50)
        assert 10.0 ** p * 1e9 == pytest.approx(ec50, rel=1e-9)


def test_normalize_label_strictly_increasing(rng):
    values = np.sort(10 ** rng.uniform(-3, 9, size=30))
    normed = [normalize_label(v) for v in values]
    assert all(b > a for a, b in zip(normed, normed[1:]))


def test_normalize_label_rejects_nonpositive():
    with pytest.raises(ValidationError):
        normalize_label(0.0)
    with pytest.raises(ValidationError):
        normalize_label(-5.0)


def test_cluster_all_similar_single_cluster():
    S = np.ones((4, 4))
    assert hierarchical_cluster(list(range(4)), S, threshold=0.5) == [0, 0, 0, 0]


def test_cluster_all_dissimilar_singletons():
    S = np.eye(5)
    assert hierarchical_cluster(list(range(5)), S, threshold=0.3) == [0, 1, 2, 3, 4]


def test_cluster_three_item_example():
    S = np.array([
        [1.0, 0.9, 0.1],
        [0.9, 1.0, 0.1],
        [0.1, 0.1, 1.0],
    ])
    assert hierarchical_cluster(list(range(3)), S, threshold=0.5) == [0, 0, 1]


def test_cluster_complete_linkage_chains_do_not_merge():
    # a-b similar, b-c similar, a-c not: complete linkage keeps the pair whose
    # worst-case similarity stays above the threshold
    S = np.array([
        [1.0, 0.8, 0.0],
        [0.8, 1.0, 0.8],
        [0.0, 0.8, 1.0],
    ])
    ids = hierarchical_cluster(list(range(3)), S, threshold=0.5)
    # 0 and 1 merge first (tie broken by smallest member), then {0,1} vs {2}
    # has complete-linkage similarity 0.0 -> stays split
    assert ids == [0, 0, 1]


def test_cluster_empty_input():
    assert hierarchical_cluster([], np.zeros((0, 0)), threshold=0.5) == []


def test_cluster_with_callable_similarity():
    items = [0.0, 0.1, 5.0]
    S = similarity_matrix(items, lambda a, b: 1.0 if abs(a - b) < 1 else 0.0)
    assert hierarchical_cluster(items, S, threshold=0.5) == [0, 0, 1]


def test_cluster_matches_leader_table_oracle():
    # few similarity levels make many exact ties, including ties at the cut
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(1, 41))
        levels = int(rng.integers(2, 9))
        S = np.triu(rng.integers(0, levels, size=(n, n)) / (levels - 1), 1)
        S = S + S.T
        np.fill_diagonal(S, 1.0)
        threshold = float(rng.choice([0.2, 0.25, 0.4, 0.5, 0.6, 0.75]))
        assert hierarchical_cluster(list(range(n)), S, threshold) == \
            complete_linkage_oracle(S, threshold)


def _singleton_clusters(n):
    return list(range(n))


def test_assign_folds_singletons_balanced():
    ids = [f"r{i}" for i in range(10)]
    fa = assign_folds(ids, SplitSetting.NOVEL_COMPOUND,
                      _singleton_clusters(10), _singleton_clusters(10), k=5, seed=0)
    assert sorted(fa.fold_sizes()) == [2, 2, 2, 2, 2]
    assert sorted(sum(fa.folds, [])) == sorted(ids)


def test_assign_folds_big_cluster_greedy_trace():
    ids = [f"r{i}" for i in range(10)]
    comp = [0, 0, 0, 0, 0, 0, 1, 2, 3, 4]
    fa = assign_folds(ids, SplitSetting.NOVEL_COMPOUND, comp,
                      _singleton_clusters(10), k=5, seed=0)
    assert sorted(fa.fold_sizes(), reverse=True) == [6, 1, 1, 1, 1]


def test_assign_folds_partition_property(rng):
    records = clustered_records(n_families=6, family_size=4, seed=1)
    ids = [r.complex_id for r in records]
    comp_sim = compound_similarity_matrix([r.ligand for r in records])
    prot_sim = protein_similarity_matrix([r.protein for r in records])
    comp = hierarchical_cluster(ids, comp_sim, 0.4)
    prot = hierarchical_cluster(ids, prot_sim, 0.5)
    for setting in SplitSetting:
        fa = assign_folds(ids, setting, comp, prot, k=5, seed=0)
        combined = sum(fa.folds, [])
        assert sorted(combined) == sorted(ids)
        assert len(combined) == len(set(combined))


def _no_cluster_spans_folds(fa: FoldAssignment, cluster_of: dict):
    folds_of_cluster: dict = {}
    for rid, cid in cluster_of.items():
        folds_of_cluster.setdefault(cid, set()).add(fa.fold_of[rid])
    return all(len(v) == 1 for v in folds_of_cluster.values())


def test_novel_compound_clusters_do_not_span():
    records = clustered_records(n_families=7, family_size=3, seed=2)
    ids = [r.complex_id for r in records]
    comp = hierarchical_cluster(
        ids, compound_similarity_matrix([r.ligand for r in records]), 0.4)
    prot = hierarchical_cluster(
        ids, protein_similarity_matrix([r.protein for r in records]), 0.5)
    fa = assign_folds(ids, SplitSetting.NOVEL_COMPOUND, comp, prot, k=5, seed=3)
    assert _no_cluster_spans_folds(fa, fa.compound_cluster_of)


def test_novel_pair_both_constraints_hold():
    records = clustered_records(n_families=8, family_size=3, seed=4)
    ids = [r.complex_id for r in records]
    comp = hierarchical_cluster(
        ids, compound_similarity_matrix([r.ligand for r in records]), 0.4)
    prot = hierarchical_cluster(
        ids, protein_similarity_matrix([r.protein for r in records]), 0.5)
    fa = assign_folds(ids, SplitSetting.NOVEL_PAIR, comp, prot, k=5, seed=0)
    assert _no_cluster_spans_folds(fa, fa.compound_cluster_of)
    assert _no_cluster_spans_folds(fa, fa.protein_cluster_of)


def test_novel_pair_crossed_clusters_fixed_point():
    # compound clusters {0,1} and protein clusters tie records across them:
    # records 0,1 share a compound cluster; records 1,2 share a protein cluster
    ids = ["a", "b", "c", "d"]
    comp = [0, 0, 1, 2]
    prot = [0, 1, 1, 2]
    fa = assign_folds(ids, SplitSetting.NOVEL_PAIR, comp, prot, k=2, seed=0)
    assert _no_cluster_spans_folds(fa, fa.compound_cluster_of)
    assert _no_cluster_spans_folds(fa, fa.protein_cluster_of)
    # a, b, c all end in one fold through the shared chains
    assert len({fa.fold_of["a"], fa.fold_of["b"], fa.fold_of["c"]}) == 1


@pytest.mark.parametrize("k", [2, 3])
def test_similarity_matrices_match_pairwise_loops(k):
    records = clustered_records(n_families=6, family_size=4, seed=9)
    proteins = [r.protein for r in records]
    kmer_sets = [protein_kmer_set(p.sequence, k=k) for p in proteins]
    got = protein_similarity_matrix(proteins, k=k)
    np.testing.assert_array_equal(got, similarity_matrix(kmer_sets, jaccard))
    assert ((0.0 < got) & (got < 1.0)).any()   # partial overlaps occur
    fps = [morgan_fingerprint(r.ligand, radius=k) for r in records]
    np.testing.assert_array_equal(compound_similarity_matrix([r.ligand for r in records],
                                                             radius=k),
                                  similarity_matrix(fps, tanimoto))


@pytest.mark.parametrize("block", [1, 7, 10**9])
def test_jaccard_matrix_pair_blocks_match_pairwise_loops(monkeypatch, block):
    """Any pair block, from one pair (every row over it) to more than all
    pairs, gives the bits of the pairwise `tanimoto` and `jaccard`, with two
    empty rows (1.0 between them, 0.0 to the rest), an all-ones column and
    a row whose shared-column pairs alone exceed a block of 7."""
    rng = np.random.default_rng(11)
    incidence = rng.random((12, 40)) < 0.3
    incidence[:, 5] = True
    incidence[[3, 8]] = False
    incidence[10] = True
    assert incidence[10] @ incidence.sum(axis=0) > 7
    monkeypatch.setattr(datasplit, "PAIR_BLOCK", block)
    got = datasplit._jaccard_matrix(incidence)
    kmer_sets = [KmerSet(kmers=frozenset(map(str, np.flatnonzero(row))), k=1)
                 for row in incidence]
    assert got.tobytes() == similarity_matrix(incidence, tanimoto).tobytes()
    assert got.tobytes() == similarity_matrix(kmer_sets, jaccard).tobytes()
    assert got[3, 8] == 1.0 and got[3, 0] == 0.0
    assert datasplit._jaccard_matrix(np.zeros((0, 4), dtype=bool)).shape == (0, 0)


def similarity_peak_mb() -> float:
    """`tracemalloc` peak, in MB, of `protein_similarity_matrix` over 400
    random 300-residue sequences (about 8,000 distinct 3-mer columns)."""
    rng = np.random.default_rng(2)
    letters = np.array(list("ACDEFGHIKLMNPQRSTVWY"))
    proteins = [SimpleNamespace(sequence="".join(rng.choice(letters, 300))) for _ in range(400)]
    tracemalloc.start()
    try:
        protein_similarity_matrix(proteins)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def compound_similarity_peak_mb() -> float:
    """`tracemalloc` peak, in MB, of `compound_similarity_matrix` over 400
    random 4- to 40-atom ligands at the default radius and width."""
    rng = np.random.default_rng(3)
    mols = [random_ligand(rng, n_atoms=int(n)) for n in rng.integers(4, 41, size=400)]
    tracemalloc.start()
    try:
        compound_similarity_matrix(mols)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_protein_similarity_of_400_sequences_peaks_below_30_mb():
    """No float copy of the (400, ~8,000) k-mer incidence is made: a
    whole-table float copy alone is 25.6 MB here."""
    peak = similarity_peak_mb()
    assert peak < 30, f"400 sequences peaked at {peak:.1f} MB"


def test_leakage_report_matches_brute_force():
    records = clustered_records(n_families=5, family_size=3, seed=6)
    ids = [r.complex_id for r in records]
    comp_sim = compound_similarity_matrix([r.ligand for r in records])
    prot_sim = protein_similarity_matrix([r.protein for r in records])
    comp = hierarchical_cluster(ids, comp_sim, 0.4)
    prot = hierarchical_cluster(ids, prot_sim, 0.5)
    fa = assign_folds(ids, SplitSetting.NOVEL_COMPOUND, comp, prot, k=3, seed=0)
    report = leakage_report(fa, ids, comp_sim, prot_sim, 0.4, 0.5)

    k = len(fa.folds)
    for a in range(k):
        for b in range(a + 1, k):
            best_c, best_p = 0.0, 0.0
            for i, ri in enumerate(ids):
                for j, rj in enumerate(ids):
                    if fa.fold_of[ri] == a and fa.fold_of[rj] == b:
                        best_c = max(best_c, comp_sim[i, j])
                        best_p = max(best_p, prot_sim[i, j])
            assert report.max_compound_tanimoto[(a, b)] == best_c
            assert report.max_protein_jaccard[(a, b)] == best_p


def test_random_split_of_near_duplicates_fails_leakage():
    records = clustered_records(n_families=4, family_size=5, seed=8)
    ids = [r.complex_id for r in records]
    comp_sim = compound_similarity_matrix([r.ligand for r in records])
    prot_sim = protein_similarity_matrix([r.protein for r in records])
    # deliberately split every family across folds
    fa = FoldAssignment(
        setting=SplitSetting.NOVEL_COMPOUND,
        folds=[ids[0::2], ids[1::2]],
        fold_of={rid: i % 2 for i, rid in enumerate(ids)},
        compound_cluster_of={rid: 0 for rid in ids},
        protein_cluster_of={rid: 0 for rid in ids},
        warnings=[],
    )
    report = leakage_report(fa, ids, comp_sim, prot_sim, 0.4, 0.5)
    assert not report.passed


def test_cluster_disjoint_split_passes_leakage():
    records = clustered_records(n_families=5, family_size=4, seed=9)
    ids = [r.complex_id for r in records]
    comp_sim = compound_similarity_matrix([r.ligand for r in records])
    prot_sim = protein_similarity_matrix([r.protein for r in records])
    comp = hierarchical_cluster(ids, comp_sim, 0.4)
    prot = hierarchical_cluster(ids, prot_sim, 0.5)
    fa = assign_folds(ids, SplitSetting.NOVEL_PAIR, comp, prot, k=4, seed=0)
    report = leakage_report(fa, ids, comp_sim, prot_sim, 0.4, 0.5)
    assert report.passed


def test_oversize_cluster_warning():
    ids = [f"r{i}" for i in range(10)]
    comp = [0] * 9 + [1]
    fa = assign_folds(ids, SplitSetting.NOVEL_COMPOUND, comp,
                      _singleton_clusters(10), k=5, seed=0)
    assert any("cannot balance" in w for w in fa.warnings)
