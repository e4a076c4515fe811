import importlib.util
import itertools
import os
import re
import tempfile
import timeit
import tracemalloc

import numpy as np
import pytest

from cpi3d import chemio
from cpi3d.chemio import (
    Atom,
    Bond,
    LigandMolecule,
    ProteinStructure,
    Residue,
    load_manifest,
    parse_pdb,
    parse_pdb_atoms,
    parse_sdf,
    write_sdf,
)
from cpi3d.errors import EmptyStructureError, ParseError, ValidationError
from cpi3d.synthetic import clustered_records, random_complexes, write_manifest

from conftest import pdb_atom_line
from oracles import pdb_atoms_oracle, pdb_ca_oracle, sdf_oracle


def test_parse_pdb_single_ca():
    text = pdb_atom_line(1, "CA", " ", "ALA", "A", 1, 1.0, 2.0, 3.0, "C")
    prot = parse_pdb(text)
    assert len(prot.residues) == 1
    res = prot.residues[0]
    assert res.aa == "ALA"
    assert res.chain == "A" and res.seq_index == 1
    np.testing.assert_allclose(res.ca_position, [1.0, 2.0, 3.0])


def test_parse_pdb_first_altloc_wins():
    lines = [
        pdb_atom_line(1, "CA", "A", "GLY", "A", 5, 1.0, 1.0, 1.0, "C"),
        pdb_atom_line(2, "CA", "B", "GLY", "A", 5, 9.0, 9.0, 9.0, "C"),
    ]
    prot = parse_pdb("\n".join(lines))
    assert len(prot.residues) == 1
    np.testing.assert_allclose(prot.residues[0].ca_position, [1.0, 1.0, 1.0])


def test_parse_pdb_hetatm_only_is_empty():
    text = pdb_atom_line(1, "CA", " ", "ALA", "A", 1, 0, 0, 0, "C", record="HETATM")
    with pytest.raises(EmptyStructureError):
        parse_pdb(text)


def test_parse_pdb_counts_and_ordering():
    lines = [
        pdb_atom_line(1, "CA", " ", "ALA", "B", 2, 0, 0, 0, "C"),
        pdb_atom_line(2, "CB", " ", "ALA", "B", 2, 1, 1, 1, "C"),   # not CA
        pdb_atom_line(3, "CA", " ", "GLY", "A", 7, 2, 2, 2, "C"),
        pdb_atom_line(4, "CA", " ", "XYZ", "A", 3, 3, 3, 3, "C"),   # non-standard
    ]
    prot = parse_pdb("\n".join(lines))
    keys = [(r.chain, r.seq_index) for r in prot.residues]
    assert keys == [("A", 3), ("A", 7), ("B", 2)]
    assert prot.residues[0].aa == "UNK"
    assert prot.sequence == "XG" + "A"


def test_parse_pdb_residue_count_matches_distinct_keys(rng):
    lines = []
    keys = set()
    serial = 0
    for _ in range(40):
        chain = str(rng.choice(["A", "B"]))
        seq = int(rng.integers(1, 15))
        keys.add((chain, seq))
        serial += 1
        lines.append(pdb_atom_line(serial, "CA", " ", "LEU", chain, seq,
                                   rng.uniform(-9, 9), rng.uniform(-9, 9),
                                   rng.uniform(-9, 9), "C"))
    prot = parse_pdb("\n".join(lines))
    assert len(prot.residues) == len(keys)


def test_parse_pdb_malformed_coordinate_reports_line():
    good = pdb_atom_line(1, "CA", " ", "ALA", "A", 1, 0, 0, 0, "C")
    bad = pdb_atom_line(2, "CA", " ", "ALA", "A", 2, 0, 0, 0, "C")
    bad = bad[:30] + "  xx.xxx" + bad[38:]
    with pytest.raises(ParseError) as err:
        parse_pdb(good + "\n" + bad)
    assert err.value.line == 2


def _parsed(text):
    """parse_pdb's residues as pdb_ca_oracle tuples, or its error."""
    try:
        prot = parse_pdb(text)
    except (ParseError, EmptyStructureError) as err:
        return type(err), str(err), getattr(err, "line", None)
    return [(r.aa, r.chain, r.seq_index, tuple(r.ca_position.tolist())) for r in prot.residues]


def _oracle(text):
    try:
        return pdb_ca_oracle(text)
    except (ParseError, EmptyStructureError) as err:
        return type(err), str(err), getattr(err, "line", None)


def _with_field(line, start, raw):
    return line[:start] + f"{raw:>8s}" + line[start + 8:]


@pytest.mark.parametrize("raw", ["x", "", "nan", "inf", "1e309"])
@pytest.mark.parametrize("start", [30, 38, 46])
def test_parse_pdb_bad_coordinate_names_field_and_line(start, raw):
    """A bad x, y or z on the fourth kept record is reported as the
    field-by-field parse reports it; the same value on a skipped duplicate
    or a record after a bad resSeq is not reached."""
    lines = [pdb_atom_line(i + 1, "CA", " ", "ALA", "A", i + 1, i, -i, 0.5, "C")
             for i in range(6)]
    lines[3] = _with_field(lines[3], start, raw)
    text = "\n".join(lines)
    got = _parsed(text)
    assert got == _oracle(text)
    assert got[0] is ParseError and got[2] == 4
    assert ("non-finite" if raw in ("nan", "inf", "1e309") else "malformed") in got[1]
    # a later bad resSeq is not reached; an earlier one is
    resseq = lines[0][:22] + "  ?A" + lines[0][26:]
    for text in ("\n".join(lines + [resseq]), "\n".join([resseq] + lines)):
        assert _parsed(text) == _oracle(text)
    # the bad field on a duplicate (chain, resSeq) is never parsed
    dup = _with_field(pdb_atom_line(9, "CA", "B", "ALA", "A", 1, 0, 0, 0, "C"), start, raw)
    text = "\n".join([lines[0], dup])
    assert _parsed(text) == _oracle(text) != []


def test_parse_pdb_matches_the_field_by_field_parse():
    """Underscored and odd-width numbers parse as Python's `float` does;
    altLoc and duplicate keys keep the first record; chains out of order
    come back sorted; HETATM and non-CA records are skipped."""
    rng = np.random.default_rng(5)
    lines = []
    for i in range(200):
        chain = str(rng.choice(["C", "A", "B", " "]))
        seq = int(rng.integers(-5, 30))
        x, y, z = rng.uniform(-999, 9999, size=3)
        name = str(rng.choice(["CA", "CA", "CB", "N"]))
        record = "HETATM" if rng.random() < 0.1 else "ATOM"
        altloc = str(rng.choice([" ", "A", "B"]))
        lines.append(pdb_atom_line(i + 1, name, altloc, str(rng.choice(["GLY", "HOH", "TRP"])),
                                   chain, seq, x, y, z, "C", record=record))
    lines[7] = pdb_atom_line(8, "CA", " ", "ALA", "Z", 1, 0, 0, 0, "C")
    lines[7] = _with_field(_with_field(lines[7], 30, "1_0"), 38, "  -.5e1")
    text = "\n".join(lines)
    got = _parsed(text)
    assert got == _oracle(text)
    assert ("ALA", "Z", 1, (10.0, -5.0, 0.0)) in got
    assert len(got) > 50


def test_residue_positions_must_be_three_numbers():
    for bad in (np.zeros(2), np.zeros((1, 3)), ["a", "b", "c"], [1.0, None, 2.0]):
        residues = (Residue("ALA", "A", 1, np.zeros(3)), Residue("GLY", "B", 7, bad))
        with pytest.raises(ValidationError,
                           match=r"^CA position for \('B', 7\) is not three numbers$"):
            ProteinStructure(id="p", residues=residues)


def test_protein_checks_report_the_first_failing_residue():
    """A duplicate key and a bad position raise for whichever residue comes
    first; on the same residue the duplicate key is reported."""
    ok = np.zeros(3)
    nan = np.array([np.nan, 0.0, 0.0])

    def check(*residues):
        with pytest.raises(ValidationError) as err:
            ProteinStructure(id="p", residues=tuple(Residue("ALA", c, i, p) for c, i, p in residues))
        return str(err.value)

    assert check(("A", 1, ok), ("A", 1, nan), ("A", 2, nan)) == "duplicate residue key ('A', 1)"
    assert check(("A", 1, ok), ("A", 2, nan), ("A", 1, ok)) == "non-finite CA position for ('A', 2)"
    assert check(("A", 1, ok), ("A", 2, ok[:2]), ("A", 1, ok)) == \
        "CA position for ('A', 2) is not three numbers"


def test_ligand_checks_report_the_first_failing_atom():
    """Bonds are checked first; then atom by atom, a hydrogen before its
    own position."""
    ok = np.zeros(3)
    nan = np.array([0.0, np.inf, 0.0])

    def check(atoms, bonds=()):
        with pytest.raises(ValidationError) as err:
            LigandMolecule(id="m", atoms=tuple(Atom(e, p) for e, p in atoms), bonds=bonds)
        return str(err.value)

    assert check([("C", ok), ("H", nan)], (Bond(0, 5, 1),)) == "bond (0,5) has invalid endpoints"
    assert check([("C", ok), ("H", nan), ("C", nan)]) == \
        "hydrogens must be stripped before construction"
    assert check([("C", nan), ("H", ok)]) == "non-finite atom position"
    assert check([("C", ok), ("O", [1.0, 2.0]), ("H", ok)]) == \
        "atom 1 position is not three numbers"
    assert check([("C", ok), ("O", "xyz")]) == "atom 1 position is not three numbers"
    mol = LigandMolecule(id="m", atoms=(Atom("C", [1, 2, 3]), Atom("N", ok)), bonds=())
    np.testing.assert_array_equal(mol.coords(), [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_protein_rejects_non_finite_ca_position(bad):
    residues = (Residue("ALA", "A", 1, np.zeros(3)),
                Residue("GLY", "A", 2, np.array([1.0, bad, 0.0])))
    with pytest.raises(ValidationError, match=r"non-finite CA position for \('A', 2\)"):
        ProteinStructure(id="p", residues=residues)


def test_parse_pdb_pure():
    text = "\n".join(
        pdb_atom_line(i + 1, "CA", " ", "VAL", "A", i + 1, i, 2 * i, 3 * i, "C")
        for i in range(5)
    )
    a, b = parse_pdb(text), parse_pdb(text)
    assert a.sequence == b.sequence
    np.testing.assert_array_equal(a.ca_coords(), b.ca_coords())


def _sdf_record(title, atoms, bonds, props=()):
    lines = [title, "  gen", ""]
    lines.append(f"{len(atoms):3d}{len(bonds):3d}  0  0  0  0  0  0  0  0999 V2000")
    for x, y, z, el in atoms:
        lines.append(f"{x:10.4f}{y:10.4f}{z:10.4f} {el:<3s} 0  0  0  0  0  0  0  0  0  0  0  0")
    for i, j, order in bonds:
        lines.append(f"{i:3d}{j:3d}{order:3d}  0")
    lines.extend(props)
    lines.append("M  END")
    lines.append("$$$$")
    return "\n".join(lines)


METHANE = _sdf_record("methane", [
    (0.0, 0.0, 0.0, "C"),
    (0.6, 0.6, 0.6, "H"),
    (-0.6, -0.6, 0.6, "H"),
    (0.6, -0.6, -0.6, "H"),
    (-0.6, 0.6, -0.6, "H"),
], [(1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1)])

ETHANE = _sdf_record("ethane", [
    (0.0, 0.0, 0.0, "C"),
    (1.5, 0.0, 0.0, "C"),
    (-0.5, 0.9, 0.0, "H"),
    (-0.5, -0.9, 0.0, "H"),
    (-0.5, 0.0, 0.9, "H"),
    (2.0, 0.9, 0.0, "H"),
    (2.0, -0.9, 0.0, "H"),
    (2.0, 0.0, -0.9, "H"),
], [(1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1), (2, 6, 1), (2, 7, 1), (2, 8, 1)])


def test_parse_sdf_methane_strips_hydrogens():
    mols = parse_sdf(METHANE)
    assert len(mols) == 1
    assert len(mols[0].atoms) == 1
    assert mols[0].atoms[0].element == "C"
    assert len(mols[0].bonds) == 0


def test_parse_sdf_ethane_remaps_bonds():
    (mol,) = parse_sdf(ETHANE)
    assert [a.element for a in mol.atoms] == ["C", "C"]
    assert len(mol.bonds) == 1
    b = mol.bonds[0]
    assert {b.i, b.j} == {0, 1} and b.order == 1


def test_parse_sdf_two_records():
    mols = parse_sdf(METHANE + "\n" + ETHANE)
    assert [m.id for m in mols] == ["methane", "ethane"]


def test_parse_sdf_count_mismatch():
    broken = METHANE.replace("  5  4", "  6  4")
    with pytest.raises(ParseError):
        parse_sdf(broken)


def test_parse_sdf_unknown_element():
    bad = _sdf_record("bad", [(0.0, 0.0, 0.0, "Xx")], [])
    with pytest.raises(ParseError):
        parse_sdf(bad)


def test_parse_sdf_aromatic_flag():
    ring = _sdf_record("ring", [
        (0.0, 0.0, 0.0, "C"), (1.4, 0.0, 0.0, "C"), (2.1, 1.2, 0.0, "C"),
        (1.4, 2.4, 0.0, "C"), (0.0, 2.4, 0.0, "C"), (-0.7, 1.2, 0.0, "C"),
    ], [(1, 2, 4), (2, 3, 4), (3, 4, 4), (4, 5, 4), (5, 6, 4), (6, 1, 4)])
    (mol,) = parse_sdf(ring)
    assert all(a.aromatic for a in mol.atoms)
    assert all(b.order == 4 for b in mol.bonds)


def test_parse_sdf_m_chg_override():
    rec = _sdf_record("charged", [(0.0, 0.0, 0.0, "N"), (1.3, 0.0, 0.0, "O")],
                      [(1, 2, 1)], props=["M  CHG  2   1   1   2  -1"])
    (mol,) = parse_sdf(rec)
    assert mol.atoms[0].formal_charge == 1
    assert mol.atoms[1].formal_charge == -1


@pytest.mark.parametrize("prop,needle", [
    ("M  CHG  2   1   1", "line 8: malformed charge line"),
    ("M  CHG  1   9   1", "line 8: charge atom index out of range"),
    ("M  CHG  1   0   1", "line 8: charge atom index out of range"),
    ("M  CHG  x   1   1", "line 8: malformed charge line"),
    ("M  CHG  1   1 9223372036854775808", "line 8: malformed charge line"),
], ids=["missing-pair", "index-past-block", "index-zero", "bad-count", "charge-past-int64"])
def test_parse_sdf_bad_m_chg_line(prop, needle):
    rec = _sdf_record("charged", [(0.0, 0.0, 0.0, "N"), (1.3, 0.0, 0.0, "O")],
                      [(1, 2, 1)], props=[prop])
    with pytest.raises(ParseError, match=needle):
        parse_sdf(rec)


def test_sdf_round_trip(rng):
    from cpi3d.synthetic import random_ligand
    for k in range(5):
        mol = random_ligand(rng, mol_id=f"m{k}")
        text = write_sdf(mol)
        (back,) = parse_sdf(text)
        assert len(back.atoms) == len(mol.atoms)
        for a, b in zip(mol.atoms, back.atoms):
            assert a.element == b.element
            np.testing.assert_allclose(a.position, b.position, atol=5e-5)
            assert a.formal_charge == b.formal_charge
        assert back.bonds == mol.bonds
        # a second pass is byte-stable
        assert write_sdf(back) == write_sdf(parse_sdf(write_sdf(back))[0])


def _fields(obj) -> tuple:
    """A parsed protein's or ligand's id and each of its arrays as (dtype,
    shape, bytes)."""
    names = (("aa", "chain", "seq_index", "ca") if isinstance(obj, ProteinStructure)
             else ("elements", "positions", "charges", "aromatic", "bond_table"))
    return (obj.id,) + tuple((getattr(obj, n).dtype.str, getattr(obj, n).shape,
                              getattr(obj, n).tobytes()) for n in names)


_MANIFEST_HEADER = "complex_id,ligand_sdf,protein_pdb,ec50_nm,is_active"


def _check_through_manifest(tmp_path, outcomes, kind):
    """`load_manifest` reads each text of `outcomes`, as the ligand SDF
    (`kind` "sdf") or the protein PDB ("pdb") of a row between two other
    rows, as the per-file parse does. `outcomes` pairs each text with that
    parse's molecules (`_sdf_rows`) or residues (`_ca_rows`), or its error
    (type, message, line). One manifest holds every text that parses and
    must give the same arrays; each text that fails is the middle row of a
    three-row manifest and must raise the error the row's parse raises."""
    directory = tmp_path / "chunk"
    write_manifest(random_complexes(2, seed=3), str(directory))
    first, last = "toy0,toy0.sdf,toy0.pdb,,", "toy1,toy1.sdf,toy1.pdb,,"

    def row(cid, name):
        return f"{cid},{name},toy0.pdb,," if kind == "sdf" else f"{cid},toy0.sdf,{name},,"

    passing, failing = [], []
    for i, (text, got) in enumerate(outcomes):
        if isinstance(got[0] if got else None, type):
            failing.append((text, f"row 'mid': {directory / f'mid.{kind}'}: {got[1]}"))
        elif kind == "sdf" and not (got and got[0][1]):
            failing.append((text, "row 'mid': " + ("ligand has no heavy atoms" if got
                                                   else "ligand SDF holds no molecules")))
        else:
            (directory / f"m{i}.{kind}").write_bytes(text.encode())
            passing.append((f"m{i}", f"m{i}.{kind}", got))
    assert passing and failing
    manifest = directory / "passing.csv"
    manifest.write_text("\n".join([_MANIFEST_HEADER, first] + [row(c, n) for c, n, _ in passing]
                                  + [last]) + "\n")
    records = load_manifest(str(manifest))
    for rec, (cid, _, want) in zip(records[1:-1], passing):
        assert (_sdf_rows(rec.poses) if kind == "sdf" else _ca_rows(rec.protein)) == want, cid
    manifest = directory / "failing.csv"
    manifest.write_text("\n".join([_MANIFEST_HEADER, first, row("mid", f"mid.{kind}"), last]) + "\n")
    for text, message in failing:
        (directory / f"mid.{kind}").write_bytes(text.encode())
        with pytest.raises(ValidationError) as err:
            load_manifest(str(manifest))
        assert str(err.value) == message, text


def _sdf_atom(x, y, z, element, code=0):
    return f"{x:10.4f}{y:10.4f}{z:10.4f} {element:<3s} 0  {code}  0  0  0  0  0  0  0  0  0  0"


_SDF_LINES = [
    "lig-a", "  gen", "", "  6  6  0  0  0  0  0  0  0  0999 V2000",
    _sdf_atom(0.0, 0.0, 0.0, "C"),
    _sdf_atom(1.4, 0.0, -0.0, "N", code=3),
    _sdf_atom(-0.5, 0.9, 0.0, "H"),
    _sdf_atom(2.1, 1.2, 0.0, "C"),
    _sdf_atom(1.4, 2.4, 0.0, "O", code=5),
    _sdf_atom(0.0, 2.4, -9.999, "C"),
    "  1  2  1  0", "  1  3  1  0", "  2  4  4  0", "  4  5  2  0", "  5  6  4  0",
    "  6  1  1  0",
    "M  END", "$$$$",
    "", "  gen", "", "  3  2  0  0  0  0  0  0  0  0999 V2000",
    _sdf_atom(5.0, 5.0, 5.0, "S"),
    _sdf_atom(6.5, 5.0, 5.0, "Cl", code=1),
    _sdf_atom(4.5, 5.9, 5.0, "H"),
    "  1  2  1  0", "  1  3  1  0",
    "M  CHG  1   1  -1", "M  END", "$$$$",
]


def _columns(start, end, raw):
    return lambda lines, i: lines[i][:start] + f"{raw:>{end - start}s}" + lines[i][end:]


def _replaced(text):
    return lambda lines, i: text


_SDF_MUTATIONS = {
    "x=abc": _columns(0, 10, "abc"),
    "x=nan": _columns(0, 10, "nan"),
    "y=inf": _columns(10, 20, "inf"),
    "z=1e309": _columns(20, 30, "1e309"),
    "z=blank": _columns(20, 30, ""),
    "element=Xx": _columns(31, 34, "Xx "),
    "element=H": _columns(31, 34, "H  "),
    "element=Cl": _columns(31, 34, "Cl "),
    "code=3": _columns(36, 39, "3"),
    "code=x": _columns(36, 39, "x"),
    "code=9": _columns(36, 39, "9"),
    "cols0-3=x": _columns(0, 3, "x"),       # counts: atoms; bond: first atom
    "cols0-3=0": _columns(0, 3, "0"),
    "cols0-3=2": _columns(0, 3, "2"),
    "cols0-3=99": _columns(0, 3, "99"),
    "cols3-6=1": _columns(3, 6, "1"),       # counts: bonds; bond: second atom
    "cols3-6=x": _columns(3, 6, "x"),
    "cols6-9=4": _columns(6, 9, "4"),       # bond order
    "cols6-9=x": _columns(6, 9, "x"),
    "chg-missing-pair": _replaced("M  CHG  2   1   1"),
    "chg-index-past": _replaced("M  CHG  1   9   1"),
    "chg-index-zero": _replaced("M  CHG  1   0   2"),
    "chg-two": _replaced("M  CHG  2   1   2   2  -3"),
    "m-end": _replaced("M  END"),
    "record-end": _replaced("$$$$"),
    "blank": _replaced(""),
    "copy-previous": lambda lines, i: lines[i - 1],
    "drop": _replaced(None),
}


def _sdf_mutated(mutations):
    lines = list(_SDF_LINES)
    for name, i in mutations:
        lines[i] = _SDF_MUTATIONS[name](lines, i)
    return "\n".join(line for line in lines if line is not None)


def _sdf_parsed(text):
    """parse_sdf's molecules as `_sdf_rows` gives them, or its error."""
    try:
        mols = parse_sdf(text)
    except (ParseError, ValidationError) as err:
        return type(err), str(err), getattr(err, "line", None)
    return _sdf_rows(mols)


def _sdf_rows(mols):
    """Molecules as (id, elements, charges, aromatic flags, bond rows,
    coordinate bytes)."""
    out = []
    for mol in mols:
        assert mol.positions.dtype == np.float64 and mol.positions.shape == (len(mol), 3)
        assert mol.bond_table.dtype == np.int64 and mol.bond_table.shape[1:] == (3,)
        assert mol.charges.dtype == np.int64 and mol.aromatic.dtype == bool
        out.append((mol.id, tuple(mol.elements.tolist()), tuple(mol.charges.tolist()),
                    tuple(mol.aromatic.tolist()), tuple(map(tuple, mol.bond_table.tolist())),
                    mol.positions.tobytes()))
    return out


def _sdf_oracle(text):
    try:
        mols = sdf_oracle(text)
    except (ParseError, ValidationError) as err:
        return type(err), str(err), getattr(err, "line", None)
    return [(mol_id, tuple(a[0] for a in atoms), tuple(a[2] for a in atoms),
             tuple(a[3] for a in atoms), tuple(bonds),
             np.array([a[1] for a in atoms], dtype=np.float64).reshape(-1, 3).tobytes())
            for mol_id, atoms, bonds in mols]


def test_parse_sdf_matches_the_object_building_parse_under_line_mutations(tmp_path):
    """Every mutation of one line, and pairs of mutations on two lines, give
    the per-atom parse's elements, charges, aromatic flags, bonds and
    coordinate bytes, or its error for the same line: counts, atom, bond,
    `M  CHG` and record-boundary lines, hydrogens that appear, vanish or
    carry a bad field, and bonds that repeat or close on themselves. Read
    by `load_manifest` from the middle of a chunk of files, each mutated
    file gives the same molecules, or the same error for its row."""
    texts = [_sdf_mutated([])]
    texts += [_sdf_mutated([(name, i)])
              for name in _SDF_MUTATIONS for i in range(len(_SDF_LINES))]
    pair_kinds = ("x=nan", "element=H", "cols3-6=1", "chg-two", "copy-previous")
    texts += [_sdf_mutated([(a, i), (b, j)])
              for i, j in itertools.combinations(range(len(_SDF_LINES)), 2)
              for a in pair_kinds for b in pair_kinds]
    outcomes, parsed = set(), []
    for text in texts:
        got = _sdf_parsed(text)
        assert got == _sdf_oracle(text), text
        parsed.append((text, got))
        # the message without its line number and the quoted line or numbers
        outcomes.add("parsed" if isinstance(got, list) else
                     re.sub(r"^line \d+: |( in)? ?['(\d].*", "", got[1]))
    assert _sdf_parsed(texts[0])[0][1:5] == (
        ("C", "N", "C", "O", "C"), (0, 1, 0, -1, 0), (False, True, True, True, True),
        ((0, 1, 1), (1, 2, 4), (2, 3, 2), (3, 4, 4), (4, 0, 1)))
    assert _sdf_parsed(texts[0])[1][:3] == ("mol1", ("S", "Cl"), (-1, 0))
    assert {"parsed", "truncated mol block", "malformed counts line", "counts line declares",
            "malformed coordinates", "unknown element symbol", "malformed bond line",
            "bond endpoint out of range", "malformed charge line",
            "charge atom index out of range", "bond", "duplicate bond",
            "non-finite atom position"} <= outcomes, outcomes
    _check_through_manifest(tmp_path, parsed, "sdf")


def test_parse_pdb_atoms_full_detail():
    lines = [
        pdb_atom_line(1, "N", " ", "ALA", "A", 1, 0.0, 0.0, 0.0, "N"),
        pdb_atom_line(2, "CA", " ", "ALA", "A", 1, 1.5, 0.0, 0.0, "C"),
        pdb_atom_line(3, "O", " ", "ALA", "A", 1, 2.0, 1.0, 0.0, "O"),
        pdb_atom_line(4, "H", " ", "ALA", "A", 1, -0.5, 0.5, 0.0, "H"),
        pdb_atom_line(5, "CA", "B", "ALA", "A", 1, 9.0, 9.0, 9.0, "C"),  # altloc dup
    ]
    atoms = parse_pdb_atoms("\n".join(lines))
    assert atoms.elements == ("N", "C", "O")
    np.testing.assert_allclose(atoms.positions[1], [1.5, 0.0, 0.0])


def _atoms_parsed(text):
    """parse_pdb_atoms's elements and coordinate bytes, or its error."""
    try:
        atoms = parse_pdb_atoms(text)
    except (ParseError, EmptyStructureError) as err:
        return type(err), str(err), getattr(err, "line", None)
    assert atoms.positions.dtype == np.float64 and atoms.positions.shape == (len(atoms), 3)
    return atoms.elements, atoms.positions.tobytes()


def _atoms_oracle(text):
    try:
        atoms = pdb_atoms_oracle(text)
    except (ParseError, EmptyStructureError) as err:
        return type(err), str(err), getattr(err, "line", None)
    return tuple(e for e, _ in atoms), np.array([xyz for _, xyz in atoms]).tobytes()


def test_a_lone_small_text_parses_in_the_array_pass(monkeypatch):
    """A valid SDF, CA PDB or heavy-atom PDB text of a few lines is read
    by the array passes alone, with the oracles' fields."""
    sdf = "\n".join([METHANE, ETHANE])
    pdb = "\n".join(pdb_atom_line(i + 1, name, " ", "GLY", "A", 1 + i // 3, i, -i, 0.5 * i, el)
                     for i, (name, el) in enumerate([("N", "N"), ("CA", "C"), ("O", "O")] * 5))
    assert sdf.count("\n") < 50 and pdb.count("\n") < 50

    def per_line_parse(*args, **kwargs):
        raise AssertionError("a valid small text took the per-line parse")

    for name in ("_parse_sdf_lines", "_parse_pdb_lines", "_scan_atoms"):
        monkeypatch.setattr(chemio, name, per_line_parse)
    assert _sdf_parsed(sdf) == _sdf_oracle(sdf)
    assert len(_parsed(pdb)) == 5 and _parsed(pdb) == _oracle(pdb)
    assert len(_atoms_parsed(pdb)[0]) == 15 and _atoms_parsed(pdb) == _atoms_oracle(pdb)


def _bench_receptor_pdb(seed, directory):
    """The `rerank-split-eval` benchmark workload's receptor_full.pdb."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads._gen_rerank_split_eval(seed, str(directory))
    return (directory / "receptor_full.pdb").read_text()


@pytest.mark.parametrize("seed", [0, 29])
def test_parse_pdb_atoms_matches_the_field_by_field_parse_on_bench_receptors(tmp_path, seed):
    text = _bench_receptor_pdb(seed, tmp_path)
    got = _atoms_parsed(text)
    assert got == _atoms_oracle(text)
    assert len(got[0]) == 4000


_ATOM_LINES = [
    pdb_atom_line(1, "N", " ", "ALA", "A", 1, 0.0, 0.0, 0.0, "N"),
    pdb_atom_line(2, "CA", " ", "ALA", "A", 1, 1.458, 0.0, 0.0, "C"),
    pdb_atom_line(3, "C", " ", "ALA", "A", 1, 2.009, 1.42, -0.001, "C"),
    pdb_atom_line(4, "O", " ", "ALA", "A", 1, 1.251, 2.39, 0.0, "O"),
    pdb_atom_line(5, "H", " ", "ALA", "A", 1, -0.5, 0.5, 0.0, "H"),
    pdb_atom_line(6, "CA", "B", "ALA", "A", 1, 9.0, 9.0, 9.0, "C"),        # altLoc duplicate
    pdb_atom_line(7, "N", " ", "GLY", "B", 2, 3.326, 1.54, 0.0, "N"),
    pdb_atom_line(8, "CA", " ", "GLY", "B", 2, 3.941, 2.83, 0.0, ""),      # element from name
    pdb_atom_line(9, "D", " ", "GLY", "B", 2, 3.9, 3.1, 1.0, "D"),
    pdb_atom_line(10, "ZN", " ", "ZN", "C", 1, 7.0, 7.0, 7.0, "ZN", record="HETATM"),
    pdb_atom_line(11, "1HB", " ", "GLY", "B", 2, 4.1, 2.9, -1.0, ""),     # H from name
    pdb_atom_line(12, "SD", " ", "MET", "B", 3, -9.999, 999.5, -0.0, "S"),
]


def _coordinate(start, raw):
    return lambda lines, i: _with_field(lines[i], start, raw)


_ATOM_MUTATIONS = {
    **{f"{axis}={raw or 'blank'}": _coordinate(start, raw)
       for axis, start in (("x", 30), ("y", 38), ("z", 46))
       for raw in ("x", "", "nan", "inf", "1e309")},
    "resseq": lambda lines, i: lines[i][:22] + "  ?A" + lines[i][26:],
    "unknown-element": lambda lines, i: lines[i][:76] + "Xx",
    "blank-element": lambda lines, i: lines[i][:76] + "  ",
    "hydrogen": lambda lines, i: lines[i][:76] + " H",
    "deuterium": lambda lines, i: lines[i][:76] + " D",
    "duplicate-key": lambda lines, i: lines[i][:12] + lines[0][12:27] + lines[i][27:],
}


def _mutated(mutations):
    lines = list(_ATOM_LINES)
    for name, i in mutations:
        lines[i] = _ATOM_MUTATIONS[name](lines, i)
    return "\n".join(lines)


def test_parse_pdb_atoms_matches_the_field_by_field_parse_under_line_mutations(tmp_path):
    """Every mutation of one line, and pairs of mutations on two lines,
    give the same elements and coordinate bytes as the per-field parse, or
    the same error for the same line; a bad field on a skipped line (an H,
    D, HETATM or duplicate record) is never reached. Read by `load_manifest`
    from the middle of a chunk of files, each mutated file gives the
    residues of `parse_pdb`, or its error for the row."""
    texts = [_mutated([])]
    texts += [_mutated([(name, i)]) for name in _ATOM_MUTATIONS for i in range(len(_ATOM_LINES))]
    pair_kinds = ("x=x", "y=nan", "z=1e309", "resseq", "unknown-element", "blank-element",
                  "hydrogen", "duplicate-key")
    texts += [_mutated([(a, i), (b, j)])
              for i, j in itertools.combinations(range(len(_ATOM_LINES)), 2)
              for a in pair_kinds for b in pair_kinds]
    outcomes = set()
    for text in texts:
        got = _atoms_parsed(text)
        assert got == _atoms_oracle(text), text
        if got[0] is ParseError:
            outcomes.add(got[1].partition(": ")[2].split(" field")[0])
        else:
            outcomes.add("parsed")
    assert _atoms_parsed(texts[0])[0] == ("N", "C", "C", "O", "N", "C", "S")
    assert {"parsed", "malformed x", "malformed y", "non-finite z", "malformed resSeq",
            "unknown element 'Xx'"} <= outcomes
    # a bad coordinate on each skipped line parses as the unmutated text
    for i in (4, 5, 8, 9, 10):
        assert _atoms_parsed(_mutated([("x=nan", i)])) == _atoms_parsed(texts[0])
    _check_through_manifest(tmp_path, [(text, _ca_oracle(text)) for text in texts], "pdb")


def test_load_manifest_round_trip(tmp_path):
    records = random_complexes(3, seed=7, with_label=True)
    manifest = write_manifest(records, str(tmp_path))
    loaded = load_manifest(manifest)
    assert [r.complex_id for r in loaded] == [r.complex_id for r in records]
    assert loaded[0].label_ec50_nm == pytest.approx(records[0].label_ec50_nm)
    for orig, back in zip(records, loaded):
        assert len(back.ligand.atoms) == len(orig.ligand.atoms)
        assert back.protein.sequence == orig.protein.sequence


def test_load_manifest_rejects_nonpositive_ec50(tmp_path):
    records = random_complexes(1, seed=3)
    manifest = write_manifest(records, str(tmp_path))
    text = open(manifest).read().replace("toy0.pdb,,", "toy0.pdb,0,")
    open(manifest, "w").write(text)
    with pytest.raises(ValidationError):
        load_manifest(manifest)


def test_load_manifest_missing_file_names_row(tmp_path):
    records = random_complexes(1, seed=3)
    manifest = write_manifest(records, str(tmp_path))
    (tmp_path / "toy0.sdf").unlink()
    with pytest.raises(FileNotFoundError, match="toy0"):
        load_manifest(manifest)


def test_load_manifest_rejects_duplicate_complex_id(tmp_path):
    records = random_complexes(3, seed=7)
    manifest = write_manifest(records, str(tmp_path))
    lines = open(manifest).read().splitlines()
    open(manifest, "w").write("\n".join(lines + [lines[1]]) + "\n")   # toy0 again as row 4
    with pytest.raises(ValidationError, match=r"row 4: duplicate complex_id 'toy0'"):
        load_manifest(manifest)


def test_load_manifest_multi_pose(tmp_path):
    records = random_complexes(1, seed=11)
    rec = records[0]
    rec.poses = (rec.ligand, rec.ligand)
    manifest = write_manifest([rec], str(tmp_path))
    (loaded,) = load_manifest(manifest)
    assert len(loaded.poses) == 2


def _shared_receptor_manifest(tmp_path):
    """Three records whose first and last name the same protein file."""
    manifest = write_manifest(random_complexes(3, seed=7), str(tmp_path))
    lines = open(manifest).read().splitlines()
    lines[3] = lines[3].replace("toy2.pdb", "toy0.pdb")
    open(manifest, "w").write("\n".join(lines) + "\n")
    return manifest


def test_load_manifest_parses_each_protein_path_once(tmp_path, monkeypatch):
    """The protein array pass reads the text of each protein path once."""
    manifest = _shared_receptor_manifest(tmp_path)
    texts = []

    def counted(table):
        texts.append(len(table.plain))
        return ca_residues(table)

    ca_residues = chemio._ca_residues
    monkeypatch.setattr(chemio, "_ca_residues", counted)
    loaded = load_manifest(manifest)
    assert texts == [2]
    assert [rec.protein.id for rec in loaded] == ["toy0", "toy1", "toy2"]
    shared, first = loaded[2].protein, loaded[0].protein
    assert all(getattr(shared, name) is getattr(first, name)
               for name in ("aa", "chain", "seq_index", "ca"))


def test_load_manifest_shared_protein_equals_per_row_parse(tmp_path):
    manifest = _shared_receptor_manifest(tmp_path)
    for rec, pdb in zip(load_manifest(manifest), ("toy0", "toy1", "toy0")):
        want = parse_pdb((tmp_path / f"{pdb}.pdb").read_text(), structure_id=rec.complex_id)
        assert rec.protein.id == want.id == rec.complex_id
        assert len(rec.protein.residues) == len(want.residues)
        for got_res, want_res in zip(rec.protein.residues, want.residues):
            assert (got_res.aa, got_res.chain, got_res.seq_index) == \
                (want_res.aa, want_res.chain, want_res.seq_index)
            np.testing.assert_array_equal(got_res.ca_position, want_res.ca_position)


def _ca_parsed(text):
    """parse_pdb's residue arrays as `_ca_rows` gives them, or its error."""
    try:
        prot = parse_pdb(text)
    except (ParseError, EmptyStructureError) as err:
        return type(err), str(err), getattr(err, "line", None)
    return _ca_rows(prot)


def _ca_rows(prot):
    """A protein's residue arrays as (codes, chains, resSeqs, CA bytes)."""
    assert prot.ca.dtype == np.float64 and prot.ca.shape == (len(prot), 3)
    assert prot.seq_index.dtype == np.int64
    return (tuple(prot.aa.tolist()), tuple(prot.chain.tolist()), tuple(prot.seq_index.tolist()),
            prot.ca.tobytes())


def _ca_oracle(text):
    try:
        residues = pdb_ca_oracle(text)
    except (ParseError, EmptyStructureError) as err:
        return type(err), str(err), getattr(err, "line", None)
    aa, chain, seq, xyz = zip(*residues)
    return aa, chain, seq, np.array(xyz, dtype=np.float64).tobytes()


@pytest.mark.parametrize("seed", [0, 29])
def test_parse_pdb_matches_the_field_by_field_parse_on_bench_receptors(tmp_path, seed):
    """A full-atom file: one CA among eight heavy atoms per residue."""
    text = _bench_receptor_pdb(seed, tmp_path)
    got = _ca_parsed(text)
    assert got == _ca_oracle(text)
    assert len(got[0]) == 500


_CA_LINES = [
    pdb_atom_line(1, "N", " ", "ALA", "B", 4, 0.0, 0.0, 0.0, "N"),
    pdb_atom_line(2, "CA", " ", "ALA", "B", 4, 1.458, 0.0, 0.0, "C"),
    pdb_atom_line(3, "CA", " ", "GLY", "A", 9, 3.8, -1.25, 0.5, "C"),
    pdb_atom_line(4, "CA", "A", "SER", "A", 2, -2.0, 7.125, -0.0, "C"),
    pdb_atom_line(5, "CA", "B", "SER", "A", 2, 9.0, 9.0, 9.0, "C"),        # altLoc duplicate
    pdb_atom_line(6, "CB", " ", "SER", "A", 2, -3.0, 7.5, 1.0, "C"),
    pdb_atom_line(7, "CA", " ", "XYZ", "C", -3, 999.999, -99.5, 12.0, "C"),  # non-standard
    pdb_atom_line(8, "CA", " ", "MET", " ", 5, 0.25, 0.5, 0.75, "C"),      # blank chain
    pdb_atom_line(9, "ZN", " ", "ZN", "A", 1, 7.0, 7.0, 7.0, "ZN", record="HETATM"),
    pdb_atom_line(10, "CA", " ", "TRP", "A", 1, -9.999, 0.001, 4.0, "C"),
]


_CA_MUTATIONS = {
    **{f"{axis}={raw or 'blank'}": _coordinate(start, raw)
       for axis, start in (("x", 30), ("y", 38), ("z", 46))
       for raw in ("x", "", "nan", "inf", "1e309")},
    "resseq": lambda lines, i: lines[i][:22] + "  ?A" + lines[i][26:],
    "resseq-moved": lambda lines, i: lines[i][:22] + "  17" + lines[i][26:],
    "altloc": lambda lines, i: lines[i][:16] + "C" + lines[i][17:],
    "duplicate-key": lambda lines, i: lines[i][:21] + lines[1][21:26] + lines[i][26:],
    "hetatm": lambda lines, i: "HETATM" + lines[i][6:],
    "chain-first": lambda lines, i: lines[i][:21] + "0" + lines[i][22:],
    "chain-last": lambda lines, i: lines[i][:21] + "z" + lines[i][22:],
    "not-ca": lambda lines, i: lines[i][:12] + " CB " + lines[i][16:],
    "ca": lambda lines, i: lines[i][:12] + " CA " + lines[i][16:],
}


def _ca_mutated(mutations):
    lines = list(_CA_LINES)
    for name, i in mutations:
        lines[i] = _CA_MUTATIONS[name](lines, i)
    return "\n".join(lines)


def test_parse_pdb_matches_the_field_by_field_parse_under_line_mutations(tmp_path):
    """Every mutation of one line, and pairs of mutations on two lines, give
    the per-field parse's residue codes, chains, resSeqs and coordinate
    bytes, or its error for the same line: bad coordinates and resSeqs,
    altLoc and duplicate keys (the first record wins), HETATM and non-CA
    records (skipped, bad fields included) and chains out of order. Read by
    `load_manifest` from the middle of a chunk of files, each mutated file
    gives the same residues, or the same error for its row."""
    texts = [_ca_mutated([])]
    texts += [_ca_mutated([(name, i)]) for name in _CA_MUTATIONS for i in range(len(_CA_LINES))]
    pair_kinds = ("x=x", "y=nan", "z=1e309", "resseq", "altloc", "duplicate-key", "hetatm",
                  "chain-first", "not-ca", "ca")
    texts += [_ca_mutated([(a, i), (b, j)])
              for i, j in itertools.combinations(range(len(_CA_LINES)), 2)
              for a in pair_kinds for b in pair_kinds]
    outcomes, parsed = set(), []
    for text in texts:
        got = _ca_parsed(text)
        assert got == _ca_oracle(text), text
        parsed.append((text, got))
        outcomes.add(got[1].partition(": ")[2].split(" field")[0] if got[0] is ParseError
                     else "empty" if got[0] is EmptyStructureError else "parsed")
    assert _ca_parsed(texts[0])[:3] == (("MET", "TRP", "SER", "GLY", "ALA", "UNK"),
                                        ("", "A", "A", "A", "B", "C"), (5, 1, 2, 9, 4, -3))
    assert {"parsed", "malformed x", "non-finite y", "non-finite z", "malformed resSeq"} <= outcomes
    _check_through_manifest(tmp_path, parsed, "pdb")


def test_protein_arrays_are_read_only_and_round_trip_through_residues():
    prot = parse_pdb(_ca_mutated([]), structure_id="p")
    for name in ("aa", "chain", "seq_index", "ca"):
        assert not getattr(prot, name).flags.writeable, name
    assert prot.ca_coords() is prot.ca
    again = ProteinStructure(id="q", residues=prot.residues)
    for name in ("aa", "chain", "seq_index", "ca"):
        assert getattr(again, name).tobytes() == getattr(prot, name).tobytes(), name
    assert all(type(r.aa) is str and type(r.seq_index) is int for r in again.residues)
    assert again.sequence == prot.sequence == "MWSGAX"
    assert prot.renamed("r").id == "r" and prot.renamed("r").ca is prot.ca


def manifest_held_mb() -> float:
    """`tracemalloc` size, in MB, of what `load_manifest` returns for a
    400-record `clustered_records(80, 5)` manifest (32,000 residues and
    about 5,200 ligand heavy atoms), measured while the records live."""
    with tempfile.TemporaryDirectory() as directory:
        manifest = write_manifest(clustered_records(80, 5), directory)
        tracemalloc.start()
        try:
            records = load_manifest(manifest)
            held = tracemalloc.get_traced_memory()[0] / 2 ** 20
        finally:
            tracemalloc.stop()
    assert len(records) == 400
    return held


def test_manifest_records_hold_a_third_of_the_per_residue_objects_memory():
    """Residues as arrays, and slotted atoms and bonds, hold at most a third
    of the 11.2 MB that per-residue `Residue` objects held."""
    held = manifest_held_mb()
    assert held <= 11.2 / 3, f"400 records hold {held:.2f} MB"


def test_manifest_records_hold_at_most_2_9_mb_with_ligands_as_arrays():
    """Ligand atoms and bonds as arrays hold less than the 3.32 MB of the
    slotted `Atom` and `Bond` objects."""
    held = manifest_held_mb()
    assert held <= 2.9, f"400 records hold {held:.2f} MB"


def test_ligand_arrays_are_read_only_and_round_trip_through_atoms_and_bonds():
    (mol,) = parse_sdf(_sdf_mutated([]).split("$$$$")[0])
    for name in ("elements", "positions", "charges", "aromatic", "bond_table"):
        assert not getattr(mol, name).flags.writeable, name
    assert mol.coords() is mol.positions
    again = LigandMolecule("again", mol.atoms, mol.bonds)
    for name in ("elements", "positions", "charges", "aromatic", "bond_table"):
        assert getattr(again, name).tobytes() == getattr(mol, name).tobytes(), name
    assert all(type(a.element) is str and type(a.formal_charge) is int for a in again.atoms)
    assert again.bonds == ((0, 1, 1), (1, 2, 4), (2, 3, 2), (3, 4, 4), (4, 0, 1))
    assert again.degrees().tolist() == [2, 2, 2, 2, 2]


def test_load_manifest_reads_structure_files_with_a_byte_order_mark(tmp_path):
    """A UTF-8 byte-order mark before the first PDB record or the first SDF
    title changes neither the residues nor the molecule id."""
    manifest = write_manifest(random_complexes(1, seed=0), str(tmp_path))
    (plain,) = load_manifest(manifest)
    for name in ("toy0.pdb", "toy0.sdf"):
        text = (tmp_path / name).read_text(encoding="utf-8")
        (tmp_path / name).write_text("\ufeff" + text, encoding="utf-8")
    (bom,) = load_manifest(manifest)
    assert len(bom.protein) == len(plain.protein) == 6
    assert bom.protein.ca.tobytes() == plain.protein.ca.tobytes()
    assert bom.ligand.id == plain.ligand.id == "toy0_lig"
    assert bom.ligand.positions.tobytes() == plain.ligand.positions.tobytes()


@pytest.mark.parametrize("bom", [False, True])
def test_load_manifest_skips_a_byte_order_mark(tmp_path, bom):
    records = random_complexes(2, seed=7, with_label=True)
    manifest = write_manifest(records, str(tmp_path))
    text = open(manifest, encoding="utf-8").read()
    open(manifest, "w", encoding="utf-8").write("\ufeff" * bom + text)
    loaded = load_manifest(manifest)
    assert [r.label_ec50_nm for r in loaded] == [r.label_ec50_nm for r in records]


@pytest.mark.parametrize("header,column", [
    ("complex_id,ligand_sdf,protein_pdb,ec50nm,is_active", "ec50nm"),
    ("complex_id,ligand_sdf,protein_pdb,ec50_nm,is_active,confidence", "confidence"),
    ("complex_id,ligand_sdf,protein_pdb,ec50_nm,is_active,", ""),
], ids=["typo", "retired-column", "unnamed"])
def test_load_manifest_rejects_an_unknown_column(tmp_path, header, column):
    manifest = write_manifest(random_complexes(1, seed=3, with_label=True), str(tmp_path))
    lines = open(manifest).read().splitlines()
    open(manifest, "w").write("\n".join([header] + [line + "," for line in lines[1:]]) + "\n")
    allowed = "['complex_id', 'ec50_nm', 'is_active', 'ligand_sdf', 'protein_pdb']"
    with pytest.raises(ValidationError) as err:
        load_manifest(manifest)
    assert str(err.value) == f"manifest: unknown column {column!r}, allowed {allowed}"


def manifest_load_s() -> float:
    """Wall time, in seconds, of `load_manifest` of the 400-record
    `clustered_records(80, 5)` manifest: the minimum of 3 runs."""
    with tempfile.TemporaryDirectory() as directory:
        manifest = write_manifest(clustered_records(80, 5), directory)
        return min(timeit.repeat(lambda: load_manifest(manifest), number=1, repeat=3))


def _workloads():
    """The benchmark's `perfbench/workloads.py` as a module."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _assert_records_match_the_per_file_parses(records, directory):
    """Each record's protein and poses equal, dtype, shape and bytes, the
    per-file `parse_pdb` and `parse_sdf` of its files and their per-line
    parses, which read no line table."""
    rows = {}
    with open(os.path.join(directory, "manifest.csv"), encoding="utf-8-sig") as fh:
        for line in fh.read().splitlines()[1:]:
            cid, sdf, pdb = line.split(",")[:3]
            rows[cid] = (os.path.join(directory, sdf), os.path.join(directory, pdb))
    assert [rec.complex_id for rec in records] == list(rows)
    for rec in records:
        sdf, pdb = (open(path, encoding="utf-8").read() for path in rows[rec.complex_id])
        poses = [_fields(mol) for mol in rec.poses]
        assert poses == [_fields(mol) for mol in parse_sdf(sdf)], rec.complex_id
        assert poses == [_fields(mol) for mol in chemio._parse_sdf_lines(sdf)], rec.complex_id
        protein = _fields(rec.protein)
        assert protein == _fields(parse_pdb(pdb, structure_id=rec.complex_id)), rec.complex_id
        assert protein == _fields(chemio._parse_pdb_lines(pdb, rec.complex_id)), rec.complex_id


@pytest.mark.parametrize("seed", [0, 29])
def test_load_manifest_reads_every_bench_input_as_the_per_file_parse(tmp_path, seed):
    """Every manifest the three benchmark workloads write, and every pose
    file, reads the same arrays through the chunked array pass, the
    one-file parse and the per-line parse."""
    workloads = _workloads()
    manifests = 0
    for name in ("screen-pocket", "train-toy", "rerank-split-eval"):
        workloads.generate(name, seed, str(tmp_path / name))
    for path in sorted(tmp_path.rglob("*.csv")):
        text = path.read_text(encoding="utf-8")
        if text.startswith("complex_id,"):
            directory = tmp_path / f"rows{manifests}"
            directory.mkdir()
            # one manifest.csv per directory, as `write_manifest` writes it
            for line in text.splitlines()[1:]:
                for name in line.split(",")[1:3]:
                    if not (directory / name).exists():
                        (directory / name).write_bytes((path.parent / name).read_bytes())
            (directory / "manifest.csv").write_text(text, encoding="utf-8")
            _assert_records_match_the_per_file_parses(
                load_manifest(str(directory / "manifest.csv")), str(directory))
            manifests += 1
    assert manifests == 8
    for path in tmp_path.rglob("*.sdf"):
        text = path.read_text(encoding="utf-8")
        assert [_fields(m) for m in parse_sdf(text)] == \
            [_fields(m) for m in chemio._parse_sdf_lines(text)], path


def _edge_case_files(directory):
    """PDB and SDF files of every form the array passes read, and one with a
    tab that they leave to the per-line parse; returns (ligand, protein)
    file names, one pair per manifest row."""
    ca = [pdb_atom_line(1, "N", " ", "ALA", "B", 4, 0.0, 0.0, 0.0, "N"),
          pdb_atom_line(2, "CA", " ", "ALA", "B", 4, 1.458, 0.0, 0.0, "C"),
          pdb_atom_line(3, "CA", "A", "SER", "A", 2, -2.0, 7.125, -0.0, "C"),
          pdb_atom_line(4, "CA", "B", "SER", "A", 2, 9.0, 9.0, 9.0, "C"),      # altLoc duplicate
          pdb_atom_line(5, "CA", " ", "XYZ", "A", -3, 999.999, -99.5, 12.0, "C"),
          "TER",
          pdb_atom_line(6, "CA", " ", "TRP", "A", 1, -9.999, 0.001, 4.0, "C")[:50],  # short
          "END"]
    left = [line[:12] + "CA  " + line[16:] if line[12:16] == " CA " else line for line in ca]
    right = [line[:12] + "  CA" + line[16:] if line[12:16] == " CA " else line for line in ca]
    tab = [line[:12] + " CA\t" + line[16:] if line[12:16] == " CA " else line for line in ca]
    proteins = {"ca.pdb": "\n".join(ca) + "\n", "left.pdb": "\n".join(left),
                "right.pdb": "\n".join(right) + "\n", "crlf.pdb": "\r\n".join(ca) + "\r\n",
                "bom.pdb": "\ufeff" + "\n".join(ca) + "\n", "tab.pdb": "\n".join(tab) + "\n",
                "full.pdb": "\n".join(_ATOM_LINES) + "\n"}
    sdf = "\n".join(_SDF_LINES) + "\n"
    ring = _sdf_record("ring" * 12, [
        (0.0, 0.0, 0.0, "C"), (1.4, 0.0, 0.0, "C"), (2.1, 1.2, 0.0, "C"),
        (1.4, 2.4, 0.0, "N"), (0.0, 2.4, 0.0, "C"), (-0.7, 1.2, 0.0, "C"), (-1.7, 1.2, 0.0, "H"),
    ], [(1, 2, 4), (2, 3, 4), (3, 4, 4), (4, 5, 4), (5, 6, 4), (6, 1, 4), (6, 7, 1)],
        props=["M  CHG  1   4   1", "M  CHG  1   1  -1"])
    ligands = {"two.sdf": sdf, "crlf.sdf": sdf.replace("\n", "\r\n"), "bom.sdf": "\ufeff" + sdf,
               "ring.sdf": ring.replace("$$$$", " " * 45 + "$$$$ ") + "\n"
               + METHANE.replace("$$$$", "  $$$$") + "\n" + " " * 50 + "\n$$$$\n" + ETHANE,
               "methane.sdf": METHANE.replace("methane", "") + "\n" + ETHANE}
    for name, text in {**proteins, **ligands}.items():
        (directory / name).write_bytes(text.encode("utf-8"))
    return list(zip(["two.sdf", "crlf.sdf", "bom.sdf", "ring.sdf", "ethane.sdf", "two.sdf",
                     "ring.sdf"], list(proteins)))


def test_load_manifest_reads_edge_cases_as_the_per_file_parse(tmp_path):
    """Full-atom PDBs, CRLF and BOM files, lines shorter than 54 columns,
    left- and right-justified CA names, a tab in a name field, altLoc
    duplicates, unsorted residues, two chains, `M  CHG` lines, hydrogens,
    aromatic bonds, padded "$$$$" lines (one past the line table's width),
    a blank record, a title wider than the line table and multi-pose SDFs
    read the same arrays from one manifest as from each file alone; the
    array passes decide every file but the one with a tab."""
    (tmp_path / "ethane.sdf").write_text(ETHANE)
    pairs = _edge_case_files(tmp_path)
    (tmp_path / "manifest.csv").write_text("\n".join(
        [_MANIFEST_HEADER] + [f"e{i},{sdf},{pdb},," for i, (sdf, pdb) in enumerate(pairs)]) + "\n")
    records = load_manifest(str(tmp_path / "manifest.csv"))
    _assert_records_match_the_per_file_parses(records, str(tmp_path))
    assert [len(rec.poses) for rec in records] == [2, 2, 2, 3, 1, 2, 3]
    assert records[3].ligand.id == "ring" * 12 and records[3].ligand.charges.tolist()[:4] == \
        [-1, 0, 0, 1] and records[3].ligand.aromatic.all()
    pdbs = sorted(tmp_path.glob("*.pdb"))
    decided = chemio._ca_residues(chemio._LineTable([p.read_bytes() for p in pdbs],
                                                    chemio._PDB_WIDTH))
    assert [p.name for p, d in zip(pdbs, decided) if d is None] == ["tab.pdb"]
    sdfs = sorted(tmp_path.glob("*.sdf"))
    decided = chemio._sdf_records(chemio._LineTable([p.read_bytes() for p in sdfs],
                                                    chemio._SDF_WIDTH))
    assert None not in decided


@pytest.mark.parametrize("chunk", [1, None], ids=["a-chunk-per-row", "one-chunk"])
@pytest.mark.parametrize("later,needle", [
    ("e4,toy4.sdf,toy4.pdb,abc,", "row 'e4': ec50_nm 'abc' is not a number"),
    ("e4,toy4.sdf,missing.pdb,,", "missing file"),
    ("e0,toy4.sdf,toy4.pdb,,", "row 5: duplicate complex_id 'e0'"),
    ("e4,toy4.sdf,toy4.pdb,,,extra", "row 5: more fields than the header"),
], ids=["ec50", "missing-file", "duplicate-id", "extra-field"])
def test_load_manifest_reports_the_first_bad_row_whatever_its_error(tmp_path, monkeypatch,
                                                                    chunk, later, needle):
    """A bad PDB on row 3 is reported, not the error of row 5, whether the
    rows share a chunk or not; alone, row 5 reports its own error."""
    if chunk is not None:
        monkeypatch.setattr(chemio, "_CHUNK_BYTES", chunk)
    manifest = write_manifest(random_complexes(5, seed=3), str(tmp_path))
    lines = open(manifest).read().splitlines()
    rows = [f"e{i}," + line.split(",", 1)[1] for i, line in enumerate(lines[1:5])] + [later]
    text = (tmp_path / "toy2.pdb").read_text().splitlines()
    text[1] = text[1][:30] + "  xx.xxx" + text[1][38:]
    (tmp_path / "bad.pdb").write_text("\n".join(text) + "\n")
    good = "\n".join([lines[0]] + rows) + "\n"
    rows[2] = rows[2].replace("toy2.pdb", "bad.pdb")
    open(manifest, "w").write("\n".join([lines[0]] + rows) + "\n")
    with pytest.raises(ValidationError, match=r"^row 'e2': .*bad\.pdb: line 2: malformed x field"):
        load_manifest(manifest)
    open(manifest, "w").write(good)
    with pytest.raises((ValidationError, FileNotFoundError)) as err:
        load_manifest(manifest)
    assert needle in str(err.value)


def _load_transient_mb(families: int, directory) -> float:
    """`load_manifest`'s `tracemalloc` peak less what its records hold, in
    MB, for a `clustered_records(families, 5)` manifest."""
    manifest = write_manifest(clustered_records(families, 5), str(directory))
    load_manifest(manifest)  # lazy imports and caches outside the measurement
    tracemalloc.start()
    try:
        records = load_manifest(manifest)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 5 * families
    return (peak - held) / 2 ** 20


def test_load_manifest_transient_memory_does_not_grow_with_the_manifest(tmp_path):
    """The line tables are built a chunk of files at a time, so the
    transient memory of 2,000 records stays within 0.5 MB of 200 records'
    (the bookkeeping of row ids and protein paths grows with the rows)."""
    small = _load_transient_mb(40, tmp_path / "small")
    large = _load_transient_mb(400, tmp_path / "large")
    assert large <= small + 0.5, f"{small:.2f} MB for 200 records, {large:.2f} MB for 2,000"


_V3000_SDF = "\n".join([
    "v3", "  cpi3d", "", "  0  0  0  0  0  0  0  0  0  0999 V3000",
    "M  V30 BEGIN CTAB", "M  V30 COUNTS 2 1 0 0 0", "M  V30 BEGIN ATOM",
    "M  V30 1 C 0 0 0 0", "M  V30 2 O 1.2 0 0 0", "M  V30 END ATOM", "M  V30 BEGIN BOND",
    "M  V30 1 1 1 2", "M  V30 END BOND", "M  V30 END CTAB", "M  END", "$$$$", ""])


def test_parse_sdf_rejects_a_v3000_record_at_its_counts_line():
    """A V3000 counts line declares no atoms; it is rejected, not read as a
    molecule with none, in a file of its own and after a V2000 record."""
    for text, line in ((_V3000_SDF, 4), (METHANE + "\n" + _V3000_SDF, 19)):
        with pytest.raises(ParseError) as err:
            parse_sdf(text)
        assert str(err.value) == f"line {line}: V3000 mol block is not supported (write V2000)"
        assert err.value.line == line
