"""Brute-force reference implementations used to verify the metric code,
the tensor-product message kernel, the neighbour search, atom typing,
complete-linkage clustering and packed training.

Everything here is written longhand (python loops, explicit rank formulas,
one einsum per coupling path, dense distance blocks, a leader table with an
explicit tie list, one forward per graph on one tape) and stays independent
of the vectorized implementations under test.
"""

import math

import numpy as np

from cpi3d import autodiff as ad
from cpi3d.equinet import forward
from cpi3d.physscore import INTERACTION_CUTOFF, ramp
from cpi3d.so3 import clebsch_gordan, sh_slice
from cpi3d.train import grad, mse_loss


def ci_oracle(preds, labels):
    n = len(preds)
    num, den = 0.0, 0
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                continue
            den += 1
            if preds[i] == preds[j]:
                num += 0.5
            elif (preds[i] - preds[j]) * (labels[i] - labels[j]) > 0:
                num += 1.0
    return num / den


def rank_oracle(values):
    out = []
    for x in values:
        less = sum(1 for y in values if y < x)
        equal = sum(1 for y in values if y == x)
        out.append(less + (equal - 1) / 2.0 + 1.0)
    return out


def pearson_oracle(a, b):
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = sum((x - ma) ** 2 for x in a)
    vb = sum((y - mb) ** 2 for y in b)
    return cov / math.sqrt(va * vb)


def spearman_oracle(a, b):
    return pearson_oracle(rank_oracle(a), rank_oracle(b))


def ef_oracle(scores, labels, x):
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    m = math.ceil(n * x / 100.0)
    top = sum(labels[i] for i in order[:m])
    total = sum(labels)
    return (top / m) / (total / n)


def bedroc_oracle(scores, labels, alpha):
    n_total = len(scores)
    order = sorted(range(n_total), key=lambda i: (-scores[i], i))
    ranks = [r + 1 for r, i in enumerate(order) if labels[i]]
    n = len(ranks)
    ra = n / n_total
    rie = sum(math.exp(-alpha * r / n_total) for r in ranks) / (
        ra * (1 - math.exp(-alpha)) / (math.exp(alpha / n_total) - 1)
    )
    factor = ra * math.sinh(alpha / 2) / (
        math.cosh(alpha / 2) - math.cosh(alpha / 2 - alpha * ra)
    )
    return rie * factor + 1.0 / (1.0 - math.exp(alpha * (1.0 - ra)))


def tp_message_oracle(h_blocks, sh, gates, weights, paths, out_muls):
    """Per-path tensor-product message in plain numpy.

    For each path (l_in, l_sh, l_out): one three-operand Clebsch-Gordan
    einsum over the source block and the harmonic block, the per-edge gate,
    then a channel-mixing einsum with the path's (m_in, m_out) weights.
    Returns the output blocks keyed by l_out, zeros where no path lands.
    """
    n_e = sh.shape[0]
    out = {l: np.zeros((n_e, m, 2 * l + 1)) for l, m in enumerate(out_muls) if m > 0}
    for idx, (li, ls, lo) in enumerate(paths):
        coupled = np.einsum("Mab,eca,eb->ecM", clebsch_gordan(li, ls, lo),
                            h_blocks[li], sh[:, sh_slice(ls)])
        gated = coupled * gates[:, idx].reshape(n_e, 1, 1)
        out[lo] = out[lo] + np.einsum("ecM,cd->edM", gated, weights[(li, ls, lo)])
    return out


def dense_distances(a, b):
    """The dense (len(a), len(b)) block sqrt(sum((b[j] - a[i])**2))."""
    delta = np.asarray(b)[None, :, :] - np.asarray(a)[:, None, :]
    return np.sqrt((delta ** 2).sum(axis=-1))


def neighbor_oracle(a, b, cutoff):
    """(i, j, dist) for every pair within the cutoff, in row-major order."""
    d = dense_distances(a, b)
    i, j = np.nonzero(d <= cutoff)
    return i, j, d[i, j]


def pair_graph_oracle(positions, kinds, cfg):
    """(a, b, dist) per edge kind from one dense block over all nodes."""
    n = len(positions)
    dmat = dense_distances(positions, positions)
    is_res = kinds == 1
    pair_kind = np.where(is_res[:, None] & is_res[None, :], 2,
                         np.where(is_res[:, None] | is_res[None, :], 1, 0))
    cut = np.array([cfg.cc, cfg.pc, cfg.pp])[pair_kind]
    connected = (dmat <= cut) & ~np.eye(n, dtype=bool)
    out = {}
    for kind, code in (("cc", 0), ("pc", 1), ("pp", 2)):
        a, b = np.nonzero(connected & (pair_kind == code))
        out[kind] = (a, b, dmat[a, b])
    return out


def protein_typing_oracle(atoms):
    """(hydrophobic, donor, acceptor) from dense distance rows, 512
    receptor atoms at a time, and a python loop over every atom; bonds are
    heavy-atom pairs below 1.9 A."""
    valence = {"N": 3, "O": 2}
    block = 512
    pos = np.array([a.position for a in atoms])
    elements = [a.element for a in atoms]
    n = len(atoms)
    hydrophobic = np.zeros(n, dtype=bool)
    donor = np.zeros(n, dtype=bool)
    acceptor = np.zeros(n, dtype=bool)
    for lo in range(0, n, block):
        bonded = dense_distances(pos[lo:lo + block], pos) < 1.9
        for row, i in enumerate(range(lo, min(lo + block, n))):
            bonded[row, i] = False
            nbrs = np.nonzero(bonded[row])[0]
            if elements[i] == "C":
                hydrophobic[i] = all(elements[j] == "C" for j in nbrs)
            elif elements[i] in valence:
                acceptor[i] = True
                donor[i] = len(nbrs) < valence[elements[i]]
    return hydrophobic, donor, acceptor


def pair_energy_oracle(lig, prot, weights):
    """Weighted pair terms summed over the dense ligand x receptor block,
    masked to pairs within the interaction cutoff (ligand-major)."""
    r = dense_distances(lig.positions, prot.positions)
    within = r <= INTERACTION_CUTOFF
    if not within.any():
        return 0.0
    d = (r - lig.radii[:, None] - prot.radii[None, :])[within]
    hp = (lig.hydrophobic[:, None] & prot.hydrophobic[None, :])[within]
    hb = ((lig.donor[:, None] & prot.acceptor[None, :])
          | (lig.acceptor[:, None] & prot.donor[None, :]))[within]
    terms = (weights.gauss1 * np.exp(-((d / 0.5) ** 2))
             + weights.gauss2 * np.exp(-(((d - 3.0) / 2.0) ** 2))
             + weights.repulsion * np.where(d < 0.0, d * d, 0.0)
             + weights.hydrophobic * ramp(d, 0.5, 1.5) * hp
             + weights.hbond * ramp(d, -0.7, 0.0) * hb)
    return float(terms.sum())


def ligand_typing_oracle(mol):
    """(hydrophobic, donor, acceptor) by a python loop over the atoms and
    their SDF bonds; aromatic bonds (order 4) count 1.5 toward the valence."""
    valence = {"N": 3, "O": 2}
    n = len(mol.atoms)
    hydrophobic = np.zeros(n, dtype=bool)
    donor = np.zeros(n, dtype=bool)
    acceptor = np.zeros(n, dtype=bool)
    adjacency = mol.neighbors()
    for i, atom in enumerate(mol.atoms):
        nbr_elements = [mol.atoms[j].element for j, _ in adjacency[i]]
        if atom.element == "C":
            hydrophobic[i] = all(e == "C" for e in nbr_elements)
        elif atom.element in valence:
            acceptor[i] = True
            order_sum = sum(1.5 if order == 4 else order for _, order in adjacency[i])
            donor[i] = round(order_sum) < valence[atom.element]
    return hydrophobic, donor, acceptor


def similarity_matrix(items, similarity):
    """Symmetric all-pairs matrix of a pairwise similarity function."""
    n = len(items)
    S = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            S[i, j] = S[j, i] = similarity(items[i], items[j])
    return S


def complete_linkage_oracle(S, threshold):
    """Complete linkage over distance 1 - S with an explicit leader table:
    among all minimum-distance pairs of active clusters, merge the one with
    the smallest (leader, leader), leader being a cluster's smallest member;
    stop once the minimum exceeds 1 - threshold. Ids are dense, ordered by
    smallest member."""
    n = len(S)
    cut = 1.0 - threshold
    D = 1.0 - np.asarray(S, dtype=np.float64)
    np.fill_diagonal(D, np.inf)
    members = {i: [i] for i in range(n)}
    leaders = {i: i for i in range(n)}
    active = set(range(n))
    while len(active) > 1:
        idx = sorted(active)
        sub = D[np.ix_(idx, idx)]
        best = sub.flat[np.argmin(sub)]
        if best > cut:
            break
        pairs = []
        for a, b in np.argwhere(sub == best):
            if a < b:
                ca, cb = idx[a], idx[b]
                pairs.append((min(leaders[ca], leaders[cb]),
                              max(leaders[ca], leaders[cb]), ca, cb))
        pairs.sort()
        _, _, ci, cj = pairs[0]
        for ck in active:
            if ck not in (ci, cj):
                D[ci, ck] = D[ck, ci] = max(D[ci, ck], D[cj, ck])
        members[ci].extend(members[cj])
        leaders[ci] = min(leaders[ci], leaders[cj])
        del members[cj], leaders[cj]
        active.discard(cj)
        D[cj, :] = np.inf
        D[:, cj] = np.inf
    ids = [0] * n
    for cid, group in enumerate(sorted(members.values(), key=min)):
        for i in group:
            ids[i] = cid
    return ids


def batch_loss_oracle(graphs, fps, labels, batch, params, cfg):
    """(loss, name -> gradient) of one training batch: one forward per
    graph, in batch order, all recorded on one tape, the squared errors
    summed and divided by the batch size. Updates the batch-norm running
    statistics in `params` like a training step does."""
    def batch_loss():
        terms = [mse_loss(forward(graphs[i], fps[i], params, cfg, training=True), labels[i])
                 for i in batch]
        total = terms[0]
        for t in terms[1:]:
            total = ad.add(total, t)
        return ad.mul(total, 1.0 / len(terms))

    return grad(batch_loss, params)
