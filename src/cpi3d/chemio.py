"""Parsers for protein (PDB) and ligand (SDF V2000) structure files.

Only the fields the pipeline consumes are extracted: alpha-carbon positions
and residue identities on the protein side, heavy atoms with connectivity on
the ligand side. All parsers are pure functions of their input bytes.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import EmptyStructureError, ParseError, ValidationError

AMINO_ACIDS_3TO1 = {
    "ALA": "A", "ARG": "R", "ASN": "N", "ASP": "D", "CYS": "C",
    "GLN": "Q", "GLU": "E", "GLY": "G", "HIS": "H", "ILE": "I",
    "LEU": "L", "LYS": "K", "MET": "M", "PHE": "F", "PRO": "P",
    "SER": "S", "THR": "T", "TRP": "W", "TYR": "Y", "VAL": "V",
}
UNKNOWN_AA = "UNK"
UNKNOWN_AA_1 = "X"

ELEMENT_SYMBOLS = frozenset(
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni "
    "Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I "
    "Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt "
    "Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U".split()
)

# MDL atom-block charge codes (field value -> formal charge)
_SDF_CHARGE_CODES = {0: 0, 1: 3, 2: 2, 3: 1, 4: 0, 5: -1, 6: -2, 7: -3}
_SDF_CHARGE_FIELDS = {v: k for k, v in _SDF_CHARGE_CODES.items() if k != 4}

AROMATIC_BOND = 4


@dataclass(frozen=True)
class Residue:
    aa: str                # three-letter code, UNK for non-standard
    chain: str
    seq_index: int
    ca_position: np.ndarray

    @property
    def one_letter(self) -> str:
        return AMINO_ACIDS_3TO1.get(self.aa, UNKNOWN_AA_1)


@dataclass(frozen=True)
class ProteinStructure:
    id: str
    residues: tuple[Residue, ...]

    def __post_init__(self):
        if not self.residues:
            raise EmptyStructureError("protein has no residues")
        seen = set()
        for r in self.residues:
            key = (r.chain, r.seq_index)
            if key in seen:
                raise ValidationError(f"duplicate residue key {key}")
            seen.add(key)
            if not np.all(np.isfinite(r.ca_position)):
                raise ValidationError(f"non-finite CA position for {key}")

    @property
    def sequence(self) -> str:
        """One-letter sequence over the 21-letter alphabet (X = non-standard)."""
        return "".join(r.one_letter for r in self.residues)

    def ca_coords(self) -> np.ndarray:
        return np.array([r.ca_position for r in self.residues], dtype=np.float64)


@dataclass(frozen=True)
class HeavyAtomRecord:
    """One non-hydrogen ATOM record from a full-detail protein parse."""
    element: str
    position: np.ndarray
    name: str
    res_name: str
    chain: str
    seq_index: int


@dataclass(frozen=True)
class Atom:
    element: str
    position: np.ndarray
    formal_charge: int = 0
    aromatic: bool = False


@dataclass(frozen=True)
class Bond:
    i: int
    j: int
    order: int  # 1, 2, 3 or AROMATIC_BOND (4)


@dataclass(frozen=True)
class LigandMolecule:
    id: str
    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]

    def __post_init__(self):
        n = len(self.atoms)
        seen = set()
        for b in self.bonds:
            if not (0 <= b.i < n and 0 <= b.j < n) or b.i == b.j:
                raise ValidationError(f"bond ({b.i},{b.j}) has invalid endpoints")
            key = (min(b.i, b.j), max(b.i, b.j))
            if key in seen:
                raise ValidationError(f"duplicate bond {key}")
            seen.add(key)
        for a in self.atoms:
            if a.element == "H":
                raise ValidationError("hydrogens must be stripped before construction")
            if not np.all(np.isfinite(a.position)):
                raise ValidationError("non-finite atom position")

    def coords(self) -> np.ndarray:
        return np.array([a.position for a in self.atoms], dtype=np.float64)

    def neighbors(self) -> list[list[tuple[int, int]]]:
        """Per atom: list of (neighbor index, bond order)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.atoms]
        for b in self.bonds:
            adj[b.i].append((b.j, b.order))
            adj[b.j].append((b.i, b.order))
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * len(self.atoms)
        for b in self.bonds:
            deg[b.i] += 1
            deg[b.j] += 1
        return deg


@dataclass
class ComplexRecord:
    """One compound-protein pair, possibly with several docked poses."""
    complex_id: str
    ligand: LigandMolecule
    protein: ProteinStructure
    poses: tuple[LigandMolecule, ...] = ()
    label_ec50_nm: float | None = None
    upstream_confidence: float | None = None
    is_active: bool | None = None

    def __post_init__(self):
        if not self.poses:
            self.poses = (self.ligand,)
        if self.label_ec50_nm is not None and not self.label_ec50_nm > 0:
            raise ValidationError(
                f"{self.complex_id}: ec50 must be positive, got {self.label_ec50_nm}"
            )
        if self.upstream_confidence is not None and not 0.0 <= self.upstream_confidence <= 1.0:
            raise ValidationError(
                f"{self.complex_id}: confidence must lie in [0, 1], "
                f"got {self.upstream_confidence}"
            )


def _as_text(data) -> str:
    if isinstance(data, bytes):
        return data.decode("utf-8", errors="replace")
    return data


def _pdb_float(line: str, start: int, end: int, lineno: int, what: str) -> float:
    raw = line[start:end].strip()
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"malformed {what} field {raw!r}", line=lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what} field {raw!r}", line=lineno)
    return value


def parse_pdb(data, structure_id: str = "protein") -> ProteinStructure:
    """Extract one residue per (chain, resSeq) that has a CA ATOM record.

    The first CA encountered for a residue wins, which also resolves
    alternate locations in favour of the first altLoc. HETATM records and
    insertion codes are ignored. Residues come back sorted by (chain, resSeq).
    """
    text = _as_text(data)
    by_key: dict[tuple[str, int], Residue] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.startswith("ATOM"):
            continue
        if line[12:16].strip() != "CA":
            continue
        chain = line[21:22].strip()
        try:
            seq_index = int(line[22:26])
        except ValueError:
            raise ParseError(f"malformed resSeq field {line[22:26]!r}", line=lineno) from None
        key = (chain, seq_index)
        if key in by_key:
            continue
        x = _pdb_float(line, 30, 38, lineno, "x")
        y = _pdb_float(line, 38, 46, lineno, "y")
        z = _pdb_float(line, 46, 54, lineno, "z")
        res_name = line[17:20].strip()
        aa = res_name if res_name in AMINO_ACIDS_3TO1 else UNKNOWN_AA
        by_key[key] = Residue(aa=aa, chain=chain, seq_index=seq_index,
                              ca_position=np.array([x, y, z]))
    if not by_key:
        raise EmptyStructureError("no CA ATOM records found")
    residues = tuple(by_key[k] for k in sorted(by_key))
    return ProteinStructure(id=structure_id, residues=residues)


def parse_pdb_atoms(data) -> tuple[HeavyAtomRecord, ...]:
    """Full-detail parse keeping every non-hydrogen ATOM record.

    Used by the physics score, which needs all protein heavy atoms rather
    than just alpha carbons. Alternate locations resolve to the first seen
    (chain, resSeq, atom name).
    """
    text = _as_text(data)
    atoms: list[HeavyAtomRecord] = []
    seen: set[tuple[str, int, str]] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.startswith("ATOM"):
            continue
        name = line[12:16].strip()
        chain = line[21:22].strip()
        try:
            seq_index = int(line[22:26])
        except ValueError:
            raise ParseError(f"malformed resSeq field {line[22:26]!r}", line=lineno) from None
        key = (chain, seq_index, name)
        if key in seen:
            continue
        element = line[76:78].strip().capitalize()
        if not element:
            # fall back to the first letter of the atom name
            stripped = name.lstrip("0123456789")
            element = stripped[:1].upper()
        if element in ("H", "D"):
            continue
        if element not in ELEMENT_SYMBOLS:
            raise ParseError(f"unknown element {element!r}", line=lineno)
        seen.add(key)
        x = _pdb_float(line, 30, 38, lineno, "x")
        y = _pdb_float(line, 38, 46, lineno, "y")
        z = _pdb_float(line, 46, 54, lineno, "z")
        atoms.append(HeavyAtomRecord(element=element, position=np.array([x, y, z]),
                                     name=name, res_name=line[17:20].strip(),
                                     chain=chain, seq_index=seq_index))
    if not atoms:
        raise EmptyStructureError("no heavy-atom ATOM records found")
    return tuple(atoms)


def parse_sdf(data) -> list[LigandMolecule]:
    """Parse a V2000 SDF; one molecule per $$$$-delimited record.

    Hydrogens are dropped and bond indices remapped onto the remaining heavy
    atoms. Bond type 4 marks aromatic bonds; atoms touching one get the
    aromatic flag.
    """
    text = _as_text(data)
    lines = text.splitlines()
    mols: list[LigandMolecule] = []
    start = 0
    n = len(lines)
    while start < n:
        end = start
        while end < n and lines[end].strip() != "$$$$":
            end += 1
        block = lines[start:end]
        if any(l.strip() for l in block):
            mols.append(_parse_mol_block(block, start, len(mols)))
        start = end + 1
    return mols


def _parse_mol_block(block: list[str], offset: int, record_index: int) -> LigandMolecule:
    if len(block) < 4:
        raise ParseError("truncated mol block", line=offset + 1)
    title = block[0].strip()
    counts = block[3]
    counts_lineno = offset + 4
    try:
        n_atoms = int(counts[0:3])
        n_bonds = int(counts[3:6])
    except ValueError:
        raise ParseError(f"malformed counts line {counts!r}", line=counts_lineno) from None
    atom_lines = block[4:4 + n_atoms]
    bond_lines = block[4 + n_atoms:4 + n_atoms + n_bonds]
    if len(atom_lines) != n_atoms or len(bond_lines) != n_bonds:
        raise ParseError(
            f"counts line declares {n_atoms} atoms / {n_bonds} bonds "
            f"but block holds {len(atom_lines)} / {len(bond_lines)}",
            line=counts_lineno,
        )

    elements: list[str] = []
    positions: list[np.ndarray] = []
    charges: list[int] = []
    for k, line in enumerate(atom_lines):
        lineno = offset + 5 + k
        try:
            x = float(line[0:10])
            y = float(line[10:20])
            z = float(line[20:30])
        except ValueError:
            raise ParseError(f"malformed coordinates in {line!r}", line=lineno) from None
        symbol = line[31:34].strip()
        if symbol not in ELEMENT_SYMBOLS:
            raise ParseError(f"unknown element symbol {symbol!r}", line=lineno)
        code_field = line[36:39].strip() or "0"
        try:
            charge = _SDF_CHARGE_CODES.get(int(code_field), 0)
        except ValueError:
            charge = 0
        elements.append(symbol)
        positions.append(np.array([x, y, z]))
        charges.append(charge)

    raw_bonds: list[tuple[int, int, int]] = []
    for k, line in enumerate(bond_lines):
        lineno = offset + 5 + n_atoms + k
        try:
            i = int(line[0:3]) - 1
            j = int(line[3:6]) - 1
            order = int(line[6:9])
        except ValueError:
            raise ParseError(f"malformed bond line {line!r}", line=lineno) from None
        if not (0 <= i < n_atoms and 0 <= j < n_atoms):
            raise ParseError(f"bond endpoint out of range in {line!r}", line=lineno)
        raw_bonds.append((i, j, order))

    # "M  CHG" property lines supersede all atom-block charge codes
    chg_overrides: dict[int, int] = {}
    for line in block[4 + n_atoms + n_bonds:]:
        if line.startswith("M  CHG"):
            fields = line.split()
            count = int(fields[2])
            for c in range(count):
                idx = int(fields[3 + 2 * c]) - 1
                chg_overrides[idx] = int(fields[4 + 2 * c])
        elif line.startswith("M  END"):
            break
    if chg_overrides:
        charges = [chg_overrides.get(i, 0) for i in range(n_atoms)]

    heavy_map: dict[int, int] = {}
    for i, el in enumerate(elements):
        if el != "H":
            heavy_map[i] = len(heavy_map)

    aromatic = [False] * len(heavy_map)
    bonds: list[Bond] = []
    for i, j, order in raw_bonds:
        if i not in heavy_map or j not in heavy_map:
            continue
        hi, hj = heavy_map[i], heavy_map[j]
        bonds.append(Bond(i=hi, j=hj, order=order))
        if order == AROMATIC_BOND:
            aromatic[hi] = True
            aromatic[hj] = True

    atoms = tuple(
        Atom(element=elements[i], position=positions[i],
             formal_charge=charges[i], aromatic=aromatic[heavy_map[i]])
        for i in sorted(heavy_map)
    )
    mol_id = title if title else f"mol{record_index}"
    return LigandMolecule(id=mol_id, atoms=atoms, bonds=tuple(bonds))


def write_sdf(mols, stream=None) -> str:
    """Serialize molecules as V2000 SDF (coordinates to 4 decimals)."""
    if isinstance(mols, LigandMolecule):
        mols = [mols]
    chunks: list[str] = []
    for mol in mols:
        lines = [mol.id, "  cpi3d", ""]
        lines.append(f"{len(mol.atoms):3d}{len(mol.bonds):3d}  0  0  0  0  0  0  0  0999 V2000")
        for a in mol.atoms:
            code = _SDF_CHARGE_FIELDS.get(a.formal_charge, 0)
            lines.append(
                f"{a.position[0]:10.4f}{a.position[1]:10.4f}{a.position[2]:10.4f}"
                f" {a.element:<3s} 0  {code}  0  0  0  0  0  0  0  0  0  0"
            )
        for b in mol.bonds:
            lines.append(f"{b.i + 1:3d}{b.j + 1:3d}{b.order:3d}  0")
        charged = [(i, a.formal_charge) for i, a in enumerate(mol.atoms) if a.formal_charge]
        for start in range(0, len(charged), 8):
            group = charged[start:start + 8]
            entry = "".join(f" {i + 1:3d} {c:3d}" for i, c in group)
            lines.append(f"M  CHG{len(group):3d}{entry}")
        lines.append("M  END")
        lines.append("$$$$")
        chunks.append("\n".join(lines))
    out = "\n".join(chunks) + "\n"
    if stream is not None:
        stream.write(out)
    return out


def _parse_bool(raw: str):
    value = raw.strip().lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValidationError(f"cannot interpret {raw!r} as a boolean")


def load_manifest(path) -> list[ComplexRecord]:
    """Load a dataset manifest CSV and parse every referenced file.

    Required columns: complex_id, ligand_sdf, protein_pdb. Optional:
    ec50_nm, confidence, is_active. Each complex_id may appear once; data
    rows are numbered from 1 in errors. File paths resolve relative to the
    manifest's directory. Multi-record SDFs become multiple poses.
    """
    base = os.path.dirname(os.path.abspath(path))
    records: list[ComplexRecord] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"complex_id", "ligand_sdf", "protein_pdb"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValidationError(
                f"manifest must have columns {sorted(required)}, got {reader.fieldnames}"
            )
        first_row: dict[str, int] = {}
        for row_no, row in enumerate(reader, start=1):
            cid = row["complex_id"].strip()
            if cid in first_row:
                raise ValidationError(f"row {row_no}: duplicate complex_id {cid!r} "
                                      f"(first in row {first_row[cid]})")
            first_row[cid] = row_no
            lig_path = os.path.join(base, row["ligand_sdf"].strip())
            prot_path = os.path.join(base, row["protein_pdb"].strip())
            for p in (lig_path, prot_path):
                if not os.path.exists(p):
                    raise FileNotFoundError(f"row {cid!r}: missing file {p}")
            with open(lig_path, encoding="utf-8") as f:
                poses = parse_sdf(f.read())
            if not poses:
                raise ValidationError(f"row {cid!r}: ligand SDF holds no molecules")
            with open(prot_path, encoding="utf-8") as f:
                protein = parse_pdb(f.read(), structure_id=cid)

            ec50 = None
            raw = (row.get("ec50_nm") or "").strip()
            if raw:
                ec50 = float(raw)
                if not ec50 > 0:
                    raise ValidationError(f"row {cid!r}: ec50_nm must be positive, got {raw}")
            conf = None
            raw = (row.get("confidence") or "").strip()
            if raw:
                conf = float(raw)
            active = None
            raw = (row.get("is_active") or "").strip()
            if raw:
                active = _parse_bool(raw)

            records.append(ComplexRecord(
                complex_id=cid, ligand=poses[0], protein=protein,
                poses=tuple(poses), label_ec50_nm=ec50,
                upstream_confidence=conf, is_active=active,
            ))
    return records
