"""Zigzag persistence barcodes and representatives under atomic filtration edits."""

from .chains import Simplex, SimplicialComplex
from .errors import (ContractViolation, Exhausted, IllegalContraction, IllegalExpansion,
                     IllegalSwitch, IllegalTransposition, UnsupportedOnFzzPath)
from .filtration import ADD, DELETE, Step, ZigzagFiltration
from .fzz import FzzEngine, barcode_from_scratch, convert, map_intervals, reduce
from .rep_updates import PersistenceState, apply_op
from .reps import ChainStore, RepSeq, validate_rep
from .results import CREATED, DESTROYED, OpResult

__all__ = [
    "ADD", "DELETE", "CREATED", "DESTROYED",
    "Simplex", "SimplicialComplex", "Step", "ZigzagFiltration",
    "ChainStore", "RepSeq", "OpResult", "PersistenceState", "FzzEngine",
    "validate_rep", "apply_op", "barcode_from_scratch", "convert", "map_intervals", "reduce",
    "ContractViolation", "Exhausted", "IllegalContraction", "IllegalExpansion",
    "IllegalSwitch", "IllegalTransposition", "UnsupportedOnFzzPath",
]
