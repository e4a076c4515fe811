import tracemalloc

import numpy as np
import pytest

from cpi3d import physscore
from cpi3d.chemio import Atom, Bond, HeavyAtoms, LigandMolecule
from cpi3d.errors import ValidationError
from cpi3d.physscore import (
    VinaWeights,
    count_rotatable_bonds,
    fuse_scores,
    pairwise_energy,
    ramp,
    rerank_poses,
    score_poses,
    type_ligand_atoms,
    type_protein_atoms,
    vina_score,
)
from cpi3d.so3 import random_rotation
from cpi3d.synthetic import random_ligand

from conftest import transform_ligand
from oracles import ligand_typing_oracle, pair_energy_oracle, protein_typing_oracle

CARBON_CONTACT = 3.8   # vdW radius sum of two carbons


def _atom(element, pos, **kw):
    return Atom(element=element, position=np.asarray(pos, dtype=float), **kw)


def _receptor(*atoms):
    """Receptor heavy atoms from (element, position) pairs."""
    return HeavyAtoms(elements=tuple(e for e, _ in atoms),
                      positions=np.array([p for _, p in atoms], dtype=float).reshape(-1, 3))


def _moved(atoms, R, t):
    """`atoms` under the rigid motion x -> R x + t."""
    return HeavyAtoms(elements=atoms.elements, positions=atoms.positions @ R.T + t)


def _mol(atoms, bonds=(), mol_id="m"):
    return LigandMolecule(id=mol_id, atoms=tuple(atoms), bonds=tuple(bonds))


def test_gauss1_is_one_at_zero_surface_distance():
    lig = _mol([_atom("C", [0, 0, 0])])
    prot = _receptor(("C", [CARBON_CONTACT, 0, 0]))
    only_gauss1 = VinaWeights(gauss1=1.0, gauss2=0.0, repulsion=0.0,
                              hydrophobic=0.0, hbond=0.0, rot=0.0)
    assert pairwise_energy(type_ligand_atoms(lig), type_protein_atoms(prot),
                           only_gauss1) == pytest.approx(1.0, abs=1e-12)


def test_gauss2_is_one_at_three_angstroms():
    lig = _mol([_atom("C", [0, 0, 0])])
    prot = _receptor(("C", [CARBON_CONTACT + 3.0, 0, 0]))
    typed_l, typed_p = type_ligand_atoms(lig), type_protein_atoms(prot)
    g2 = pairwise_energy(typed_l, typed_p, VinaWeights(1e0 * 0, 1.0, 0, 0, 0, 0))
    g1 = pairwise_energy(typed_l, typed_p, VinaWeights(1.0, 0, 0, 0, 0, 0))
    assert g2 == pytest.approx(1.0, abs=1e-12)
    assert g1 == pytest.approx(np.exp(-36.0), abs=1e-18)


def test_repulsion_active_only_for_clashes():
    lig = _mol([_atom("C", [0, 0, 0])])
    weights = VinaWeights(0, 0, 1.0, 0, 0, 0)
    clash = _receptor(("C", [CARBON_CONTACT - 1.0, 0, 0]))   # d = -1
    clear = _receptor(("C", [CARBON_CONTACT + 1.0, 0, 0]))   # d = +1
    assert pairwise_energy(type_ligand_atoms(lig), type_protein_atoms(clash),
                           weights) == pytest.approx(1.0)
    assert pairwise_energy(type_ligand_atoms(lig), type_protein_atoms(clear),
                           weights) == 0.0


def test_increasing_repulsion_weight_increases_clashing_score():
    lig = _mol([_atom("C", [0, 0, 0])])
    prot = _receptor(("C", [2.0, 0, 0]))   # d = 2 - 3.8 < 0
    low = vina_score(lig, prot, VinaWeights(repulsion=0.5))
    high = vina_score(lig, prot, VinaWeights(repulsion=2.0))
    assert high > low


def test_ramp_shape():
    assert ramp(0.4, 0.5, 1.5) == 1.0
    assert ramp(1.0, 0.5, 1.5) == pytest.approx(0.5)
    assert ramp(2.0, 0.5, 1.5) == 0.0
    assert ramp(-1.0, -0.7, 0.0) == 1.0
    assert ramp(-0.35, -0.7, 0.0) == pytest.approx(0.5)


def test_hydrophobic_and_hbond_typing():
    mol = _mol(
        [_atom("C", [0, 0, 0]), _atom("C", [1.5, 0, 0]), _atom("O", [3, 0, 0]),
         _atom("N", [0, 1.5, 0])],
        [Bond(0, 1, 1), Bond(1, 2, 1), Bond(0, 3, 1)],
    )
    typed = type_ligand_atoms(mol)
    assert not typed.hydrophobic[1]          # carbon bonded to O
    assert not typed.hydrophobic[0]          # carbon bonded to N
    assert typed.acceptor[2] and typed.acceptor[3]
    assert typed.donor[2]                    # O with one single bond: implicit H
    assert typed.donor[3]                    # N with one single bond
    lone = type_ligand_atoms(_mol([_atom("C", [0, 0, 0])]))
    assert lone.hydrophobic[0]


def test_ligand_typing_matches_loop_oracle(rng):
    # random graphs with cycles, bond orders 1-4 (aromatic sums such as 2.5
    # round half to even) and an isolated atom
    for _ in range(300):
        n = int(rng.integers(1, 13))
        atoms = [_atom(str(e), rng.normal(size=3))
                 for e in rng.choice(["C", "C", "N", "O", "S", "Cl"], size=n)]
        pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
        chosen = [pairs[k] for k in np.flatnonzero(rng.random(len(pairs)) < 0.3)]
        bonds = [Bond(i, j, int(rng.integers(1, 5))) for i, j in chosen]
        mol = _mol(atoms, bonds)
        typed = type_ligand_atoms(mol)
        hydrophobic, donor, acceptor = ligand_typing_oracle(mol)
        np.testing.assert_array_equal(typed.hydrophobic, hydrophobic)
        np.testing.assert_array_equal(typed.donor, donor)
        np.testing.assert_array_equal(typed.acceptor, acceptor)


def test_rotatable_bond_count():
    # butane: only the central C-C rotates
    chain = _mol(
        [_atom("C", [1.5 * i, 0, 0]) for i in range(4)],
        [Bond(0, 1, 1), Bond(1, 2, 1), Bond(2, 3, 1)],
    )
    assert count_rotatable_bonds(chain) == 1
    # cyclobutane: ring bonds never rotate
    ring = _mol(
        [_atom("C", [0, 0, 0]), _atom("C", [1.5, 0, 0]),
         _atom("C", [1.5, 1.5, 0]), _atom("C", [0, 1.5, 0])],
        [Bond(0, 1, 1), Bond(1, 2, 1), Bond(2, 3, 1), Bond(3, 0, 1)],
    )
    assert count_rotatable_bonds(ring) == 0
    # double bond in the middle does not rotate
    ene = _mol(
        [_atom("C", [1.5 * i, 0, 0]) for i in range(4)],
        [Bond(0, 1, 2), Bond(1, 2, 1), Bond(2, 3, 1)],
    )
    assert count_rotatable_bonds(ene) == 1   # only bond (1,2): (2,3) is terminal


def test_rigid_ligand_score_equals_pairwise_energy():
    lig = _mol([_atom("C", [0, 0, 0])])
    prot = _receptor(("C", [4.0, 0, 0]), ("O", [0, 4.5, 0]))
    weights = VinaWeights()
    assert vina_score(lig, prot, weights) == pytest.approx(
        pairwise_energy(type_ligand_atoms(lig), type_protein_atoms(prot), weights),
        abs=1e-15,
    )


def test_flexibility_penalty_divides():
    chain = _mol(
        [_atom("C", [1.5 * i, 0.2 * i, 0]) for i in range(4)],
        [Bond(0, 1, 1), Bond(1, 2, 1), Bond(2, 3, 1)],
    )
    prot = _receptor(("C", [0, 4.0, 0]))
    weights = VinaWeights()
    e_inter = pairwise_energy(type_ligand_atoms(chain), type_protein_atoms(prot),
                              weights)
    assert vina_score(chain, prot, weights) == pytest.approx(
        e_inter / (1.0 + weights.rot * 1), rel=1e-12)


def test_score_invariant_under_joint_rigid_motion(rng):
    lig = random_ligand(rng, n_atoms=6)
    prot_atoms = _receptor(*[
        (str(rng.choice(["C", "N", "O"])), rng.normal(size=3) * 3 + 4) for _ in range(8)
    ])
    base = vina_score(lig, prot_atoms)
    for _ in range(5):
        R = random_rotation(rng)
        t = rng.normal(size=3) * 20
        lig2 = transform_ligand(lig, R, t)
        prot2 = _moved(prot_atoms, R, t)
        assert vina_score(lig2, prot2) == pytest.approx(base, abs=1e-10)


def test_score_order_independence(rng):
    lig = random_ligand(rng, n_atoms=7)
    prot_atoms = _receptor(*[
        (str(rng.choice(["C", "N", "O"])), rng.normal(size=3) * 3 + 3) for _ in range(9)
    ])
    base = vina_score(lig, prot_atoms)
    order = rng.permutation(len(prot_atoms))
    shuffled = HeavyAtoms(elements=tuple(prot_atoms.elements[i] for i in order),
                          positions=prot_atoms.positions[order])
    assert abs(vina_score(lig, shuffled) - base) < 1e-9


def test_empty_pose_rejected():
    with pytest.raises(ValidationError, match="^empty ligand pose$"):
        vina_score(_mol([]), _receptor(("C", [4.0, 0, 0])))
    with pytest.raises(ValidationError, match="^protein has no heavy atoms$"):
        vina_score(_mol([_atom("C", [0, 0, 0])]), _receptor())


def test_fuse_scores_limits():
    p = np.array([0.9, 0.5, 0.2])
    e = np.array([-8.0, -6.0, -4.0])
    np.testing.assert_allclose(fuse_scores(p, e, lam=1.0, alpha=0.0), p)
    fused = fuse_scores(p, e, lam=0.0, alpha=1.0)
    # ranking equals z-scored (negated) energies: best energy first
    assert list(np.argsort(-fused)) == [0, 1, 2]


def test_fuse_scores_hand_example():
    p = np.array([0.9, 0.5])
    e = np.array([-8.0, -6.0])
    fused = fuse_scores(p, e, lam=1.0, alpha=1.0)
    z = (e - e.mean()) / e.std(ddof=1)
    np.testing.assert_allclose(z, [-0.7071067811865476, 0.7071067811865476])
    np.testing.assert_allclose(fused, p - z)
    assert fused[0] > fused[1]


def test_fuse_scores_shift_invariant_ranking(rng):
    p = rng.random(6)
    e = rng.normal(size=6)
    base = fuse_scores(p, e)
    shifted = fuse_scores(p, e + 123.0)
    np.testing.assert_allclose(base, shifted, atol=1e-9)


def test_fuse_single_pose_zscore_zero():
    np.testing.assert_allclose(fuse_scores([0.7], [-9.0], lam=1.0, alpha=1.0), [0.7])


def _pose_set(rng):
    prot = _receptor(("C", [4.0, 0, 0]), ("C", [0, 4.0, 0]))
    good = _mol([_atom("C", [0, 0, 0])], mol_id="good")
    clashing = _mol([_atom("C", [3.2, 0, 0])], mol_id="clash")  # d < 0 vs first
    return prot, good, clashing


def test_rerank_single_pose(rng):
    prot, good, _ = _pose_set(rng)
    (ranked,) = rerank_poses([good], prot)
    assert ranked.pose_index == 0
    assert ranked.fused is None


def test_rerank_orders_by_energy_without_confidence(rng):
    prot, good, clashing = _pose_set(rng)
    ranked = rerank_poses([clashing, good], prot)
    assert [s.pose_index for s in ranked] == [1, 0]
    assert ranked[0].e_vina < ranked[1].e_vina


def test_rerank_tie_preserves_pose_order(rng):
    prot, good, _ = _pose_set(rng)
    ranked = rerank_poses([good, good, good], prot)
    assert [s.pose_index for s in ranked] == [0, 1, 2]


def test_rerank_with_confidences(rng):
    prot, good, clashing = _pose_set(rng)
    ranked = rerank_poses([clashing, good], prot, confidences=[0.5, 0.5])
    assert [s.pose_index for s in ranked] == [1, 0]
    assert all(s.fused is not None for s in ranked)


def _chain_receptor(n_atoms, seed):
    """Heavy atoms on a random walk with PDB-rounded coordinates: steps of
    1.2-2.0 A straddle the covalent cutoff, and the walk folds back on
    itself, so bonded, near-bonded and distant contacts all occur."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(size=(n_atoms, 3))
    steps *= rng.uniform(1.2, 2.0, size=(n_atoms, 1)) / np.linalg.norm(steps, axis=1,
                                                                      keepdims=True)
    pos = np.round(np.cumsum(steps, axis=0), 3)
    elements = rng.choice(["C", "C", "C", "N", "O", "S"], size=n_atoms)
    return HeavyAtoms(elements=tuple(str(e) for e in elements), positions=pos)


def test_protein_typing_matches_dense_oracle():
    atoms = _chain_receptor(4000, seed=1)
    typed = type_protein_atoms(atoms)
    hydrophobic, donor, acceptor = protein_typing_oracle(atoms)
    np.testing.assert_array_equal(typed.hydrophobic, hydrophobic)
    np.testing.assert_array_equal(typed.donor, donor)
    np.testing.assert_array_equal(typed.acceptor, acceptor)
    # the receptor exercises every flag both ways
    for flags in (hydrophobic, donor, acceptor):
        assert 0 < flags.sum() < len(atoms)


def test_pairwise_energy_bit_identical_to_dense_block(rng):
    atoms = _chain_receptor(1500, seed=2)
    receptor = type_protein_atoms(atoms)
    weights = VinaWeights()
    for _ in range(6):
        center = atoms.positions[int(rng.integers(len(atoms)))]
        lig = type_ligand_atoms(random_ligand(rng, n_atoms=20, center=center))
        assert pairwise_energy(lig, receptor, weights) == pair_energy_oracle(
            lig, receptor, weights)
    far = type_ligand_atoms(random_ligand(rng, n_atoms=5, center=(500.0, 0.0, 0.0)))
    assert pairwise_energy(far, receptor, weights) == 0.0


@pytest.mark.parametrize("score", [rerank_poses, score_poses])
def test_receptor_typed_once_per_call(rng, monkeypatch, score):
    prot, good, clashing = _pose_set(rng)
    calls = []
    original = physscore.type_protein_atoms

    def counting(atoms):
        calls.append(len(atoms))
        return original(atoms)

    monkeypatch.setattr(physscore, "type_protein_atoms", counting)
    score([good, clashing, good, clashing], prot)
    assert calls == [len(prot)]


def test_rerank_10k_atom_receptor_memory_bounded(rng):
    atoms = _chain_receptor(10_000, seed=3)
    center = atoms.positions[5000]
    poses = [random_ligand(rng, n_atoms=30, center=center + rng.normal(size=3))
             for _ in range(9)]
    tracemalloc.start()
    try:
        ranked = rerank_poses(poses, atoms, confidences=rng.uniform(size=9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(s.pose_index for s in ranked) == list(range(9))
    assert peak < 1 << 30
