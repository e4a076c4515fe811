"""3D compound-protein interaction scoring toolkit.

Builds heterogeneous geometric graphs from docked ligand poses and protein
structures, scores them with a rotation-equivariant message-passing network,
re-ranks poses with an empirical physics score, and evaluates predictions
with cluster-split cross-validation and virtual-screening metrics.
"""

__version__ = "0.1.0"

from .chemio import (
    LigandMolecule,
    ProteinStructure,
    ComplexRecord,
    parse_pdb,
    parse_sdf,
    load_manifest,
)
from .geograph import CutoffConfig, GraphPack, build_graph, rbf_embed
from .fingerprint import morgan_fingerprint, morgan_fingerprints, tanimoto, protein_kmer_set, jaccard

__all__ = [
    "LigandMolecule",
    "ProteinStructure",
    "ComplexRecord",
    "parse_pdb",
    "parse_sdf",
    "load_manifest",
    "CutoffConfig",
    "GraphPack",
    "build_graph",
    "rbf_embed",
    "morgan_fingerprint",
    "morgan_fingerprints",
    "tanimoto",
    "protein_kmer_set",
    "jaccard",
]
