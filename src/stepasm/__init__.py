"""Step-wise protein multimer assembly.

Rigid-body assembly over labeled trees of chains, a graph encoder pretrained
on assembly correctness, prompt-based conditional link prediction with the
encoder frozen, meta-learned prompt initialization, and greedy docking-path
inference with TM-score / RMSD evaluation. Pure numpy throughout.
"""

__version__ = "0.1.0"

from .geometry import (
    DegenerateGeometryError,
    RigidTransform,
    aligned_rmsd,
    kabsch_align,
    rmsd,
    superposed_scores,
    tm_d0,
    tm_score,
)
from .graphs import (
    AssemblyGraph,
    ChainStructure,
    DimerLibrary,
    Multimer,
    assembly_correctness,
    best_assembly,
    enumerate_uca,
    random_uca_edges,
)
from .inference import (
    DockingPath,
    EvalReport,
    ScoringPipeline,
    cka_similarity,
    evaluate,
    infer_path,
    predict_structure,
)

__all__ = [
    "AssemblyGraph",
    "ChainStructure",
    "DegenerateGeometryError",
    "DimerLibrary",
    "DockingPath",
    "EvalReport",
    "Multimer",
    "RigidTransform",
    "ScoringPipeline",
    "aligned_rmsd",
    "assembly_correctness",
    "best_assembly",
    "cka_similarity",
    "enumerate_uca",
    "evaluate",
    "infer_path",
    "kabsch_align",
    "predict_structure",
    "random_uca_edges",
    "rmsd",
    "superposed_scores",
    "tm_d0",
    "tm_score",
    "__version__",
]
