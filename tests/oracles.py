"""Brute-force reference implementations used to verify the metric code,
the tensor-product message kernel, the edge gates' RBF rows, the
neighbour search, atom typing,
complete-linkage clustering, packed training, Morgan hashing, the PDB
alpha-carbon and heavy-atom parses and the SDF parse, plus the Wigner
rotation matrices that the equivariance tests rotate feature blocks with.

Everything here is written longhand (python loops, explicit rank formulas,
one einsum per coupling path, one whole-array RBF matrix, dense distance
blocks, a leader table with an
explicit tie list, one forward per graph on one tape, one hashed string per
atom and round, one float per coordinate field) and stays independent of
the vectorized implementations under test.
"""

import math

import numpy as np

from cpi3d import autodiff as ad
from cpi3d.chemio import AMINO_ACIDS_3TO1, ELEMENT_SYMBOLS, UNKNOWN_AA
from cpi3d.equinet import edge_weight_net
from cpi3d.errors import EmptyStructureError, ParseError, ValidationError
from cpi3d.fingerprint import fnv1a64
from cpi3d.physscore import INTERACTION_CUTOFF, ramp
from cpi3d.so3 import LMAX, clebsch_gordan, sh_slice
from cpi3d.train import grad, mse_loss

from conftest import forward_one

# permutation taking a cartesian (x, y, z) vector to l=1 component order (m=-1,0,1)
P_YZX = np.array([
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0],
])


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


def rbf_oracle(dist, cfg):
    """The (E, rbf_k) RBF matrix that graphs used to store, evaluated once
    over every distance: exp(-gamma (d - nu)**2)."""
    d = np.asarray(dist, dtype=np.float64)
    return np.exp(-cfg.rbf_gamma * (d[..., None] - cfg.anchors()) ** 2)


def block_gates_oracle(e, src, dst, dist, cutoffs, h_dst, h_src, weights):
    """`equinet.edge_gates` on rows of the whole-array `rbf_oracle` matrix
    of every edge's distance, the route before each block embedded its
    own: untracked gates of edge ids `e`."""
    rbf = rbf_oracle(ad.as_tensor(dist).data, cutoffs)[e]
    return edge_weight_net(rbf, ad.as_tensor(h_dst).data[dst[e]], ad.as_tensor(h_src).data[src[e]],
                           [ad.as_tensor(w).data for w in weights]).data


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
    pos, elements = atoms.positions, atoms.elements
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


def morgan_oracle(mol, radius=2, nbits=2048):
    """Morgan bits of one molecule, each round's code the FNV-1a hash of its
    payload string: `atom|{element}|{degree}|{charge}|{aromatic}` in round
    0, then `round|{r}|{code:016x}` and `|{order}:{code:016x}` per neighbor
    in ascending (order, code) order; an atom without neighbors keeps its
    code."""
    adjacency = [[] for _ in mol.atoms]
    for b in mol.bonds:
        adjacency[b.i].append((b.j, b.order))
        adjacency[b.j].append((b.i, b.order))
    codes = [fnv1a64(f"atom|{a.element}|{len(adjacency[i])}|{a.formal_charge}|"
                     f"{int(a.aromatic)}".encode()) for i, a in enumerate(mol.atoms)]
    bits = np.zeros(nbits, dtype=bool)
    for c in codes:
        bits[c % nbits] = True
    for rnd in range(1, radius + 1):
        new_codes = list(codes)
        for i, nbrs in enumerate(adjacency):
            if not nbrs:
                continue
            env = sorted((order, codes[j]) for j, order in nbrs)
            payload = f"round|{rnd}|{codes[i]:016x}" + "".join(
                f"|{order}:{code:016x}" for order, code in env
            )
            new_codes[i] = fnv1a64(payload.encode())
        codes = new_codes
        for c in codes:
            bits[c % nbits] = True
    return bits


def _pdb_number(line, start, end, lineno, what):
    raw = line[start:end].strip()
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"malformed {what} field {raw!r}", line=lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what} field {raw!r}", line=lineno)
    return value


def _pdb_xyz(line, lineno):
    return (_pdb_number(line, 30, 38, lineno, "x"), _pdb_number(line, 38, 46, lineno, "y"),
            _pdb_number(line, 46, 54, lineno, "z"))


def pdb_ca_oracle(text):
    """(aa, chain, resSeq, (x, y, z)) per residue of a PDB text, sorted by
    (chain, resSeq): the first CA ATOM record of each (chain, resSeq) wins,
    each field is parsed as it is reached, and the first bad field raises
    `ParseError` with its line."""
    found = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.startswith("ATOM") or line[12:16].strip() != "CA":
            continue
        try:
            seq_index = int(line[22:26])
        except ValueError:
            raise ParseError(f"malformed resSeq field {line[22:26]!r}", line=lineno) from None
        key = (line[21:22].strip(), seq_index)
        if key in found:
            continue
        res_name = line[17:20].strip()
        found[key] = (res_name if res_name in AMINO_ACIDS_3TO1 else UNKNOWN_AA, *key,
                      _pdb_xyz(line, lineno))
    if not found:
        raise EmptyStructureError("no CA ATOM records found")
    return [found[key] for key in sorted(found)]


def pdb_atoms_oracle(text):
    """(element, (x, y, z)) per heavy ATOM record of a PDB text, in file
    order: the first record of each (chain, resSeq, atom name) wins, H and
    D are skipped, a blank element column falls back to the first letter of
    the atom name, each field is parsed as it is reached, and the first bad
    field raises `ParseError` with its line."""
    atoms = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.startswith("ATOM"):
            continue
        name = line[12:16].strip()
        try:
            seq_index = int(line[22:26])
        except ValueError:
            raise ParseError(f"malformed resSeq field {line[22:26]!r}", line=lineno) from None
        key = (line[21:22].strip(), seq_index, name)
        if key in seen:
            continue
        element = line[76:78].strip().capitalize()
        if not element:
            element = name.lstrip("0123456789")[:1].upper()
        if element in ("H", "D"):
            continue
        if element not in ELEMENT_SYMBOLS:
            raise ParseError(f"unknown element {element!r}", line=lineno)
        seen.add(key)
        atoms.append((element, _pdb_xyz(line, lineno)))
    if not atoms:
        raise EmptyStructureError("no heavy-atom ATOM records found")
    return atoms


_SDF_CHARGE_CODES = {0: 0, 1: 3, 2: 2, 3: 1, 4: 0, 5: -1, 6: -2, 7: -3}


def sdf_oracle(text):
    """(id, atoms, bonds) per record of a V2000 SDF text, atoms as (element,
    (x, y, z), formal charge, aromatic) and bonds as (i, j, order) over the
    heavy atoms: one `Atom`-like tuple and one `Bond`-like tuple at a time,
    each line parsed as it is reached, hydrogens dropped through an index
    map, and the first bad line raising `ParseError` with its line; then,
    per molecule, the bond and position checks raise `ValidationError`."""
    lines = text.splitlines()
    mols = []
    start = 0
    while start < len(lines):
        end = start
        while end < len(lines) and lines[end].strip() != "$$$$":
            end += 1
        block = lines[start:end]
        if any(line.strip() for line in block):
            mols.append(_mol_block_oracle(block, start, len(mols)))
        start = end + 1
    return mols


def _mol_block_oracle(block, offset, record_index):
    if len(block) < 4:
        raise ParseError("truncated mol block", line=offset + 1)
    counts = block[3]
    try:
        n_atoms = int(counts[0:3])
        n_bonds = int(counts[3:6])
    except ValueError:
        raise ParseError(f"malformed counts line {counts!r}", line=offset + 4) from None
    atom_lines = block[4:4 + n_atoms]
    bond_lines = block[4 + n_atoms:4 + n_atoms + n_bonds]
    if len(atom_lines) != n_atoms or len(bond_lines) != n_bonds:
        raise ParseError(f"counts line declares {n_atoms} atoms / {n_bonds} bonds "
                         f"but block holds {len(atom_lines)} / {len(bond_lines)}",
                         line=offset + 4)
    atoms = []
    for k, line in enumerate(atom_lines):
        try:
            xyz = (float(line[0:10]), float(line[10:20]), float(line[20:30]))
        except ValueError:
            raise ParseError(f"malformed coordinates in {line!r}", line=offset + 5 + k) from None
        symbol = line[31:34].strip()
        if symbol not in ELEMENT_SYMBOLS:
            raise ParseError(f"unknown element symbol {symbol!r}", line=offset + 5 + k)
        try:
            charge = _SDF_CHARGE_CODES.get(int(line[36:39].strip() or "0"), 0)
        except ValueError:
            charge = 0
        atoms.append([symbol, xyz, charge, False])
    raw_bonds = []
    for k, line in enumerate(bond_lines):
        lineno = offset + 5 + n_atoms + k
        try:
            i, j, order = int(line[0:3]) - 1, int(line[3:6]) - 1, int(line[6:9])
        except ValueError:
            raise ParseError(f"malformed bond line {line!r}", line=lineno) from None
        if not (0 <= i < n_atoms and 0 <= j < n_atoms):
            raise ParseError(f"bond endpoint out of range in {line!r}", line=lineno)
        raw_bonds.append((i, j, order))
    overrides = {}
    for k, line in enumerate(block[4 + n_atoms + n_bonds:]):
        lineno = offset + 5 + n_atoms + n_bonds + k
        if line.startswith("M  END"):
            break
        if not line.startswith("M  CHG"):
            continue
        fields = line.split()
        try:
            count = int(fields[2])
            pairs = [(int(fields[3 + 2 * p]) - 1, int(fields[4 + 2 * p]))
                     for p in range((len(fields) - 3) // 2)]
        except (IndexError, ValueError):
            count = -1
        if len(fields) != 3 + 2 * count:
            raise ParseError(f"malformed charge line {line!r}", line=lineno)
        for idx, charge in pairs:
            if not 0 <= idx < n_atoms:
                raise ParseError(f"charge atom index out of range in {line!r}", line=lineno)
        for idx, charge in pairs:
            overrides[idx] = charge
    if overrides:
        for idx, atom in enumerate(atoms):
            atom[2] = overrides.get(idx, 0)
    heavy = {}
    for idx, atom in enumerate(atoms):
        if atom[0] != "H":
            heavy[idx] = len(heavy)
    bonds = []
    for i, j, order in raw_bonds:
        if i in heavy and j in heavy:
            bonds.append((heavy[i], heavy[j], order))
            if order == 4:
                atoms[i][3] = atoms[j][3] = True
    kept = [tuple(atom) for idx, atom in enumerate(atoms) if idx in heavy]
    seen = set()
    for i, j, order in bonds:
        if i == j:
            raise ValidationError(f"bond ({i},{j}) has invalid endpoints")
        if (min(i, j), max(i, j)) in seen:
            raise ValidationError(f"duplicate bond {(min(i, j), max(i, j))}")
        seen.add((min(i, j), max(i, j)))
    for atom in kept:
        if not all(math.isfinite(v) for v in atom[1]):
            raise ValidationError("non-finite atom position")
    title = block[0].strip()
    return title if title else f"mol{record_index}", kept, bonds


def wigner_d(R, l):
    """Rotation matrix acting on a degree-l block of real harmonics.

    D(0) is [1]; D(1) conjugates R into (y, z, x) component order; D(2) is
    the l=2 projection of D(1) x D(1) through the coupling tensor.
    """
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (3, 3):
        raise ValidationError(f"rotation must be 3x3, got {R.shape}")
    if np.abs(R @ R.T - np.eye(3)).max() > 1e-8 or np.linalg.det(R) < 0:
        raise ValidationError("matrix is not a proper rotation")
    if l == 0:
        return np.ones((1, 1))
    d1 = P_YZX @ R @ P_YZX.T
    if l == 1:
        return d1
    if l == 2:
        c = clebsch_gordan(1, 1, 2)
        return np.einsum("Mab,ac,bd,Ncd->MN", c, d1, d1, c)
    raise ValidationError(f"degree {l} not supported (lmax = {LMAX})")


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
        terms = [mse_loss(forward_one(graphs[i], fps[i], params, cfg, training=True), labels[i])
                 for i in batch]
        total = terms[0]
        for t in terms[1:]:
            total = ad.add(total, t)
        return ad.mul(total, 1.0 / len(terms))

    return grad(batch_loss, params)
