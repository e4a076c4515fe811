"""Label normalization and leakage-free cross-cluster fold assignment.

Compounds cluster by fingerprint Tanimoto, proteins by k-mer Jaccard, both
through complete-linkage agglomeration; whole clusters go to single folds
so no test item has a near neighbor in training.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fingerprint import PROTEIN_ALPHABET, morgan_fingerprints, protein_kmer_set

DEFAULT_COMPOUND_THRESHOLD = 0.4
DEFAULT_PROTEIN_THRESHOLD = 0.5
# shared-column pairs counted per block of incidence rows; a row with more
# pairs than this is a block of its own
PAIR_BLOCK = 1 << 14
# byte -> rank of the letter in the sorted protein alphabet, -1 off it
_LETTER_RANK = np.full(256, -1, dtype=np.int64)
_LETTER_RANK[[ord(c) for c in sorted(PROTEIN_ALPHABET)]] = np.arange(len(PROTEIN_ALPHABET))


def normalize_label(ec50_nm: float) -> float:
    """Log-molar transform of an EC50 in nanomolar: log10(ec50 * 1e-9)."""
    if not ec50_nm > 0:
        raise ValidationError(f"ec50 must be positive, got {ec50_nm}")
    return math.log10(ec50_nm * 1e-9)


class SplitSetting(str, enum.Enum):
    NOVEL_PAIR = "novel_pair"
    NOVEL_COMPOUND = "novel_compound"
    NOVEL_PROTEIN = "novel_protein"


def _shared_counts(incidence: np.ndarray) -> np.ndarray:
    """(n, n) float64 number of columns each pair of rows of a bool
    incidence matrix shares, counted exactly from the set entries.

    Every set entry (a, c) pairs row a with each row b that also holds
    column c. The rows are walked in blocks of at most PAIR_BLOCK such pairs
    (whole rows; a row with more pairs is a block of its own), and each
    block's rows of the counts are one `np.bincount` over the cells
    a * n + b.
    """
    n, m = incidence.shape
    rows, cols = np.divmod(np.flatnonzero(incidence), m)   # entries by row
    by_col = rows[np.argsort(cols, kind="stable")]         # and by column
    col_size = np.bincount(cols, minlength=m)
    col_start = np.cumsum(col_size) - col_size
    row_start = np.searchsorted(rows, np.arange(n + 1))
    pairs = col_size[cols]
    # pairs before each row, and per block the longest run of rows that fits
    pairs_before = np.concatenate([[0], np.cumsum(pairs)])[row_start]
    counts = np.empty((n, n))
    r0 = 0
    while r0 < n:
        r1 = max(r0 + 1, int(np.searchsorted(pairs_before, pairs_before[r0] + PAIR_BLOCK,
                                             side="right")) - 1)
        entries = slice(row_start[r0], row_start[r1])
        lengths = pairs[entries]
        # position in `by_col` of each pair's second row
        at = np.arange(lengths.sum()) + np.repeat(
            col_start[cols[entries]] - (np.cumsum(lengths) - lengths), lengths)
        cells = np.repeat(rows[entries] - r0, lengths) * n + by_col[at]
        counts[r0:r1] = np.bincount(cells, minlength=(r1 - r0) * n).reshape(r1 - r0, n)
        r0 = r1
    return counts


def _jaccard_matrix(incidence: np.ndarray) -> np.ndarray:
    """|a AND b| / |a OR b| for every pair of rows of a bool incidence
    matrix; 1.0 for two empty rows.

    The intersections are exact integer counts (`_shared_counts`), so each
    entry divides the same two integers as `fingerprint.tanimoto` and
    `fingerprint.jaccard` do, and no float copy of the incidence is made.
    """
    n = incidence.shape[0]
    inter = _shared_counts(incidence)
    size = incidence.sum(axis=1, dtype=np.float64)
    union = np.add.outer(size, size)
    union -= inter
    return np.divide(inter, union, out=np.ones((n, n)), where=union > 0)


def compound_similarity_matrix(mols, radius: int = 2, nbits: int = 2048) -> np.ndarray:
    """Tanimoto over Morgan bitsets, vectorized through the bit matrix; (0, 0)
    for no molecules."""
    return _jaccard_matrix(morgan_fingerprints(mols, radius=radius, nbits=nbits))


def _kmer_incidence(proteins, k: int) -> np.ndarray:
    """(proteins, distinct k-mers) bool matrix, columns in k-mer order.

    Each k-mer is one integer, its letters' alphabet ranks read as base-21
    digits, so integer order is k-mer order. A sequence shorter than k or
    off the alphabet raises as `protein_kmer_set` does, first one first.
    """
    sequences = [p.sequence for p in proteins]
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    text = "".join(sequences)
    rank = _LETTER_RANK[np.frombuffer(text.encode(), dtype=np.uint8)] if text.isascii() else None
    if rank is None or (rank < 0).any() or (lengths < k).any():
        for sequence in sequences:
            protein_kmer_set(sequence, k=k)
    # the k-mer starting at each position, kept where it ends in its own sequence
    starts = np.arange(max(rank.size - k + 1, 0))
    kmer = np.zeros(starts.size, dtype=np.int64)
    for j in range(k):
        kmer = kmer * len(PROTEIN_ALPHABET) + rank[j:j + starts.size]
    row = np.repeat(np.arange(len(sequences)), lengths)[:starts.size]
    inside = starts + k <= np.cumsum(lengths)[row]
    columns, column = np.unique(kmer[inside], return_inverse=True)
    incidence = np.zeros((len(sequences), columns.size), dtype=bool)
    incidence[row[inside], column] = True
    return incidence


def protein_similarity_matrix(proteins, k: int = 3) -> np.ndarray:
    """k-mer Jaccard, vectorized through the k-mer incidence matrix (the
    k-mer strings are freed before the pairs are counted)."""
    return _jaccard_matrix(_kmer_incidence(proteins, k))


def hierarchical_cluster(items, similarity: np.ndarray, threshold: float) -> list[int]:
    """Complete-linkage agglomeration over distance 1 - similarity.

    `similarity` is the (n, n) matrix over `items`. Merging stops once the
    smallest inter-cluster distance exceeds 1 - threshold. A merge keeps
    the row of its smaller index, so a cluster's row is its smallest
    member, and ties break toward the first minimum in row-major order,
    that is the pair with the smallest (member, member) indices. Returned
    ids are dense, ordered by each cluster's smallest member.
    """
    if not 0 < threshold < 1:
        raise ValidationError(f"threshold must be in (0, 1), got {threshold}")
    n = len(items)
    if n == 0:
        return []
    D = 1.0 - np.asarray(similarity, dtype=np.float64)
    if D.shape != (n, n):
        raise ValidationError(f"similarity matrix shape {D.shape} != ({n}, {n})")
    cut = 1.0 - threshold

    np.fill_diagonal(D, np.inf)
    row_of = np.arange(n)
    while True:
        i, j = divmod(int(np.argmin(D)), n)
        if D[i, j] > cut:
            break
        # complete linkage: distance to the merge is the max of the parts
        D[i] = D[:, i] = np.maximum(D[i], D[j])
        D[j] = D[:, j] = np.inf
        row_of[row_of == j] = i
    return np.unique(row_of, return_inverse=True)[1].tolist()


@dataclass
class FoldAssignment:
    setting: SplitSetting
    folds: list[list[str]]                 # record ids per fold
    fold_of: dict[str, int]
    compound_cluster_of: dict[str, int]
    protein_cluster_of: dict[str, int]
    warnings: list[str]

    def fold_sizes(self) -> list[int]:
        return [len(f) for f in self.folds]

    def to_dict(self) -> dict:
        return {
            "setting": self.setting.value,
            "folds": {str(i): sorted(ids) for i, ids in enumerate(self.folds)},
            "fold_sizes": self.fold_sizes(),
            "warnings": self.warnings,
        }


def _greedy_place(cluster_ids: list[int], k: int, rng) -> dict[int, int]:
    """Clusters sorted by size descending go to the currently smallest fold.

    The seeded rng shuffles clusters before the (stable) size sort, so
    equal-size clusters land in a reproducible but seed-dependent order.
    """
    unique = sorted(set(cluster_ids))
    sizes = {c: cluster_ids.count(c) for c in unique}
    shuffled = list(rng.permutation(unique))
    shuffled.sort(key=lambda c: -sizes[c])
    fold_load = [0] * k
    fold_of_cluster = {}
    for c in shuffled:
        target = int(np.argmin(fold_load))
        fold_of_cluster[c] = target
        fold_load[target] += sizes[c]
    return fold_of_cluster


def _majority_fold(indices: list[int], fold_of: list[int], k: int) -> int:
    counts = [0] * k
    for i in indices:
        counts[fold_of[i]] += 1
    return int(np.argmax(counts))


def assign_folds(record_ids: list[str], setting: SplitSetting,
                 compound_clusters: list[int], protein_clusters: list[int],
                 k: int = 5, seed: int = 0) -> FoldAssignment:
    """Partition records into k folds without splitting any constrained
    cluster across folds.

    NOVEL_COMPOUND constrains compound clusters, NOVEL_PROTEIN protein
    clusters. NOVEL_PAIR places compound clusters first, then iteratively
    moves every cluster that spans folds (protein first, then compound) to
    its majority fold until both constraints reach a fixed point; if the
    iteration stalls, records connected through either cluster kind merge
    into components that are placed greedily.
    """
    n = len(record_ids)
    if len(compound_clusters) != n or len(protein_clusters) != n:
        raise ValidationError("cluster assignments must align with records")
    if n == 0:
        raise ValidationError("no records to split")
    if k < 1:
        raise ValidationError(f"need at least one fold, got {k}")
    rng = np.random.default_rng(seed)
    warnings: list[str] = []

    if setting == SplitSetting.NOVEL_COMPOUND:
        primary = compound_clusters
    elif setting == SplitSetting.NOVEL_PROTEIN:
        primary = protein_clusters
    else:
        primary = compound_clusters

    fold_of_cluster = _greedy_place(list(primary), k, rng)
    fold_of = [fold_of_cluster[c] for c in primary]

    if setting == SplitSetting.NOVEL_PAIR:
        comp_members: dict[int, list[int]] = {}
        prot_members: dict[int, list[int]] = {}
        for i in range(n):
            comp_members.setdefault(compound_clusters[i], []).append(i)
            prot_members.setdefault(protein_clusters[i], []).append(i)

        def spans(groups):
            return [c for c, idxs in sorted(groups.items())
                    if len({fold_of[i] for i in idxs}) > 1]

        converged = False
        for _ in range(200):
            moved = False
            for c in spans(prot_members):
                target = _majority_fold(prot_members[c], fold_of, k)
                for i in prot_members[c]:
                    if fold_of[i] != target:
                        fold_of[i] = target
                        moved = True
            for c in spans(comp_members):
                target = _majority_fold(comp_members[c], fold_of, k)
                for i in comp_members[c]:
                    if fold_of[i] != target:
                        fold_of[i] = target
                        moved = True
            if not moved:
                converged = True
                break
        if not converged or spans(prot_members) or spans(comp_members):
            # fallback: records linked by either cluster kind must co-locate
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            def union(a, b):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

            for idxs in list(comp_members.values()) + list(prot_members.values()):
                for i in idxs[1:]:
                    union(idxs[0], i)
            component = [find(i) for i in range(n)]
            comp_fold = _greedy_place(component, k, rng)
            fold_of = [comp_fold[c] for c in component]
            warnings.append("pair constraint resolved via connected components")

    folds: list[list[str]] = [[] for _ in range(k)]
    for i, rid in enumerate(record_ids):
        folds[fold_of[i]].append(rid)

    limit = 2 * math.ceil(n / k)
    for groups, tag in ((compound_clusters, "compound"), (protein_clusters, "protein")):
        sizes: dict[int, int] = {}
        for c in groups:
            sizes[c] = sizes.get(c, 0) + 1
        for c, size in sizes.items():
            if size > limit:
                warnings.append(f"{tag} cluster {c} holds {size} records "
                                f"(> {limit}); folds cannot balance")

    return FoldAssignment(
        setting=setting, folds=folds,
        fold_of={rid: fold_of[i] for i, rid in enumerate(record_ids)},
        compound_cluster_of=dict(zip(record_ids, compound_clusters)),
        protein_cluster_of=dict(zip(record_ids, protein_clusters)),
        warnings=warnings,
    )


@dataclass
class LeakageReport:
    compound_threshold: float
    protein_threshold: float
    max_compound_tanimoto: dict[tuple[int, int], float]
    max_protein_jaccard: dict[tuple[int, int], float]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "compound_threshold": self.compound_threshold,
            "protein_threshold": self.protein_threshold,
            "max_compound_tanimoto": {
                f"{a}-{b}": v for (a, b), v in sorted(self.max_compound_tanimoto.items())
            },
            "max_protein_jaccard": {
                f"{a}-{b}": v for (a, b), v in sorted(self.max_protein_jaccard.items())
            },
            "passed": self.passed,
        }


def leakage_report(assignment: FoldAssignment, record_ids: list[str],
                   compound_sim: np.ndarray, protein_sim: np.ndarray,
                   compound_threshold: float = DEFAULT_COMPOUND_THRESHOLD,
                   protein_threshold: float = DEFAULT_PROTEIN_THRESHOLD) -> LeakageReport:
    """Maximum cross-fold similarity per fold pair, checked against the
    clustering thresholds for the modalities the setting constrains."""
    fold_of = [assignment.fold_of[rid] for rid in record_ids]
    k = len(assignment.folds)
    fold_members = [[i for i, f in enumerate(fold_of) if f == fi] for fi in range(k)]

    max_comp: dict[tuple[int, int], float] = {}
    max_prot: dict[tuple[int, int], float] = {}
    for a in range(k):
        for b in range(a + 1, k):
            if not fold_members[a] or not fold_members[b]:
                max_comp[(a, b)] = 0.0
                max_prot[(a, b)] = 0.0
                continue
            block_c = compound_sim[np.ix_(fold_members[a], fold_members[b])]
            block_p = protein_sim[np.ix_(fold_members[a], fold_members[b])]
            max_comp[(a, b)] = float(block_c.max())
            max_prot[(a, b)] = float(block_p.max())

    check_comp = assignment.setting in (SplitSetting.NOVEL_COMPOUND, SplitSetting.NOVEL_PAIR)
    check_prot = assignment.setting in (SplitSetting.NOVEL_PROTEIN, SplitSetting.NOVEL_PAIR)
    passed = True
    if check_comp and any(v > compound_threshold for v in max_comp.values()):
        passed = False
    if check_prot and any(v > protein_threshold for v in max_prot.values()):
        passed = False
    return LeakageReport(
        compound_threshold=compound_threshold, protein_threshold=protein_threshold,
        max_compound_tanimoto=max_comp, max_protein_jaccard=max_prot, passed=passed,
    )
