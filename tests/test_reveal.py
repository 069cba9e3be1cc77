"""Unit tests for reveal sequences (the online request model)."""

import pytest

from repro.errors import RevealError
from repro.graphs.reveal import (
    CliqueRevealSequence,
    GraphKind,
    LineRevealSequence,
    RevealStep,
)


class TestRevealStep:
    def test_as_tuple(self):
        assert RevealStep("a", "b").as_tuple() == ("a", "b")


class TestCliqueRevealSequence:
    def test_valid_sequence(self):
        sequence = CliqueRevealSequence.from_pairs(range(4), [(0, 1), (2, 3), (0, 2)])
        assert sequence.kind is GraphKind.CLIQUES
        assert sequence.num_nodes == 4
        assert len(sequence) == 3
        final = sequence.final_components()
        assert final == [frozenset(range(4))]

    def test_invalid_merge_rejected_at_construction(self):
        with pytest.raises(RevealError):
            CliqueRevealSequence.from_pairs(range(3), [(0, 1), (1, 0)])

    def test_empty_universe_rejected(self):
        with pytest.raises(RevealError):
            CliqueRevealSequence([], [])

    def test_duplicate_universe_rejected(self):
        with pytest.raises(RevealError):
            CliqueRevealSequence([1, 1], [])

    def test_components_after_each_prefix(self):
        sequence = CliqueRevealSequence.from_pairs(range(4), [(0, 1), (2, 3)])
        assert len(sequence.components_after(0)) == 4
        assert len(sequence.components_after(1)) == 3
        assert len(sequence.components_after(2)) == 2

    def test_components_after_out_of_range(self):
        sequence = CliqueRevealSequence.from_pairs(range(3), [(0, 1)])
        with pytest.raises(RevealError):
            sequence.components_after(5)
        with pytest.raises(RevealError):
            sequence.forest_after(-1)

    def test_prefix(self):
        sequence = CliqueRevealSequence.from_pairs(range(4), [(0, 1), (2, 3), (0, 2)])
        prefix = sequence.prefix(2)
        assert len(prefix) == 2
        assert len(prefix.final_components()) == 2

    def test_replay_shares_forest(self):
        sequence = CliqueRevealSequence.from_pairs(range(3), [(0, 1), (0, 2)])
        seen = [forest.num_components for _, forest in sequence.replay()]
        assert seen == [2, 1]

    def test_iteration(self):
        sequence = CliqueRevealSequence.from_pairs(range(3), [(0, 1)])
        steps = list(sequence)
        assert steps == [RevealStep(0, 1)]


class TestLineRevealSequence:
    def test_valid_sequence(self):
        sequence = LineRevealSequence.from_pairs(range(4), [(0, 1), (2, 3), (1, 2)])
        assert sequence.kind is GraphKind.LINES
        assert sequence.final_paths() in ([(0, 1, 2, 3)], [(3, 2, 1, 0)])

    def test_degree_three_rejected(self):
        with pytest.raises(RevealError):
            LineRevealSequence.from_pairs(range(4), [(0, 1), (1, 2), (1, 3)])

    def test_cycle_rejected(self):
        with pytest.raises(RevealError):
            LineRevealSequence.from_pairs(range(3), [(0, 1), (1, 2), (2, 0)])

    def test_components_track_paths(self):
        sequence = LineRevealSequence.from_pairs(range(5), [(0, 1), (3, 4)])
        components = sequence.final_components()
        sizes = sorted(len(c) for c in components)
        assert sizes == [1, 2, 2]

    def test_prefix_preserves_kind(self):
        sequence = LineRevealSequence.from_pairs(range(3), [(0, 1), (1, 2)])
        prefix = sequence.prefix(1)
        assert isinstance(prefix, LineRevealSequence)
        assert prefix.kind is GraphKind.LINES
