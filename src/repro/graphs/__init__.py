"""Graph substrates: component tracking and reveal sequences."""

from repro.graphs.clique_forest import CliqueForest, MergeRecord
from repro.graphs.components import DisjointSetForest
from repro.graphs.line_forest import LineForest, LineMergeRecord
from repro.graphs.reveal import (
    CliqueRevealSequence,
    GraphKind,
    LineRevealSequence,
    RevealSequence,
    RevealStep,
)

__all__ = [
    "CliqueForest",
    "CliqueRevealSequence",
    "DisjointSetForest",
    "GraphKind",
    "LineForest",
    "LineMergeRecord",
    "LineRevealSequence",
    "MergeRecord",
    "RevealSequence",
    "RevealStep",
]
