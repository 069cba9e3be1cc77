"""Equivalence tests for the array-backed fast path.

Two layers are covered:

* :class:`~repro.core.permutation.MutableArrangement` block operations must
  produce the same final order as the immutable
  :class:`~repro.core.permutation.Arrangement` slide or an explicitly built
  order, at a swap count equal to the Kendall-tau distance, on seeded random
  block layouts; a merged path's layout is priced by ``Rand``'s closed form
  :func:`~repro.core.rand_lines.forward_layout_cost`;
* the online algorithms' in-place updates must report, step by step, the
  Kendall-tau distance between consecutive trajectory snapshots, spend
  exactly that many swaps across the moving and rearranging phases, and
  replay identically from the same seed.
"""

import itertools
import random

import pytest

from repro.core.det import DeterministicClosestLearner
from repro.core.instance import OnlineMinLAInstance
from repro.core.permutation import Arrangement, MutableArrangement
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.rand_lines import RandomizedLineLearner, forward_layout_cost
from repro.core.simulator import run_online
from repro.errors import ArrangementError
from repro.graphs.generators import random_clique_merge_sequence, random_line_sequence


def _random_disjoint_spans(rng: random.Random, n: int):
    """Two disjoint, non-empty contiguous position spans of ``range(n)``."""
    while True:
        cuts = sorted(rng.sample(range(n + 1), 4))
        (a_lo, a_hi), (b_lo, b_hi) = (cuts[0], cuts[1]), (cuts[2], cuts[3])
        if a_hi > a_lo and b_hi > b_lo:
            return (a_lo, a_hi), (b_lo, b_hi)


#: Every mix of (part A laid out reversed, part B laid out reversed, B left of A).
_PART_MIXES = list(itertools.product((False, True), repeat=3))


def _two_part_path(rng: random.Random, order, mix):
    """A merged path over two adjacent spans of ``order``, laid out as ``mix`` says.

    Returns ``(lo, hi, merged, first_size)``: the union fills
    ``order[lo : hi + 1]``, and ``merged`` lists part A then part B, each in
    path order, where a reversed part's path order is its layout backwards.
    """
    a_reversed, b_reversed, b_left = mix
    n = len(order)
    lo = rng.randrange(n - 1)
    hi = rng.randrange(lo + 1, n)
    cut = rng.randrange(lo + 1, hi + 1)
    left, right = order[lo:cut], order[cut : hi + 1]
    part_a, part_b = (right, left) if b_left else (left, right)
    path_a = part_a[::-1] if a_reversed else part_a
    path_b = part_b[::-1] if b_reversed else part_b
    return lo, hi, tuple(path_a + path_b), len(path_a)


class TestBlockOperationEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_slide_block_matches_immutable(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(4, 24)
        order = list(range(n))
        rng.shuffle(order)
        immutable = Arrangement(order)
        mutable = MutableArrangement(order)
        (a_lo, a_hi), (b_lo, b_hi) = _random_disjoint_spans(rng, n)
        block = [order[i] for i in range(a_lo, a_hi)]
        target = [order[i] for i in range(b_lo, b_hi)]
        if rng.random() < 0.5:
            block, target = target, block
        expected, expected_cost = immutable.slide_block_next_to(block, target)
        cost = mutable.slide_block_next_to(block, target)
        assert cost == expected_cost
        assert mutable.snapshot() == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_block_rewrite_costs_kendall_tau(self, seed):
        rng = random.Random(seed + 100)
        for mix in _PART_MIXES:
            n = rng.randrange(3, 20)
            order = [f"v{i}" for i in range(n)]
            rng.shuffle(order)
            mutable = MutableArrangement(order)
            lo, hi, merged, first_size = _two_part_path(rng, order, mix)
            size = len(merged)
            expected = Arrangement(order[:lo] + list(merged) + order[hi + 1 :])
            cost = forward_layout_cost(mutable, merged, first_size)
            assert cost == Arrangement(order).kendall_tau(expected)
            # The two orientations of a block cost all of its pairs together;
            # backwards, part B comes first.
            backward = forward_layout_cost(mutable, merged[::-1], size - first_size)
            assert cost + backward == size * (size - 1) // 2
            if mix == (True, True, True):
                # Both parts reversed and swapped: the whole span reversed.
                assert cost == size * (size - 1) // 2
            mutable.set_block_order(merged)
            assert mutable.snapshot() == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_rewrite_to_costs_kendall_tau(self, seed):
        rng = random.Random(seed + 300)
        n = rng.randrange(2, 30)
        order = list(range(n))
        rng.shuffle(order)
        target_order = list(range(n))
        rng.shuffle(target_order)
        mutable = MutableArrangement(order)
        target = Arrangement(target_order)
        cost = mutable.rewrite_to(target)
        assert cost == Arrangement(order).kendall_tau(target)
        assert mutable.snapshot() == target

    @pytest.mark.parametrize("seed", range(10))
    def test_operation_chain_keeps_positions_consistent(self, seed):
        # The in-place operations reindex only the span they touch; a chain
        # of them must leave ``position`` in step with the order throughout.
        rng = random.Random(seed + 500)
        n = rng.randrange(4, 24)
        order = list(range(n))
        rng.shuffle(order)
        mutable = MutableArrangement(order)
        previous = mutable.snapshot()
        for _ in range(12):
            current = list(mutable)
            kind = rng.randrange(3)
            if kind == 0:
                (a_lo, a_hi), (b_lo, b_hi) = _random_disjoint_spans(rng, n)
                expected, cost = previous.slide_block_next_to(
                    current[a_lo:a_hi], current[b_lo:b_hi]
                )
                assert mutable.slide_block_next_to(
                    current[a_lo:a_hi], current[b_lo:b_hi]
                ) == cost
            elif kind == 1:
                mix = rng.choice(_PART_MIXES)
                lo, hi, merged, first_size = _two_part_path(rng, current, mix)
                expected = Arrangement(current[:lo] + list(merged) + current[hi + 1 :])
                cost = forward_layout_cost(mutable, merged, first_size)
                mutable.set_block_order(merged)
            else:
                target_order = list(current)
                rng.shuffle(target_order)
                expected = Arrangement(target_order)
                cost = mutable.rewrite_to(expected)
            after = mutable.snapshot()
            assert after == expected
            assert cost == previous.kendall_tau(after)
            for index, node in enumerate(mutable):
                assert mutable.position(node) == index
            previous = after

    def test_query_surface_matches_immutable(self):
        order = ["a", "b", "c", "d", "e"]
        immutable = Arrangement(order)
        mutable = MutableArrangement(order)
        assert list(mutable) == list(immutable)
        assert len(mutable) == len(immutable)
        assert mutable.order == immutable.order
        assert mutable.nodes == immutable.nodes
        for node in order:
            assert mutable.position(node) == immutable.position(node)
            assert node in mutable
        assert "z" not in mutable
        assert mutable[2] == immutable[2]
        assert mutable.span(["b", "d"]) == immutable.span(["b", "d"])
        assert mutable.is_contiguous(["b", "c"]) and not mutable.is_contiguous(["a", "c"])
        assert mutable.kendall_tau(immutable) == 0

    def test_validation_errors_match_immutable_semantics(self):
        mutable = MutableArrangement(["a", "b", "c", "d"])
        with pytest.raises(ArrangementError):
            MutableArrangement(["a", "a"])
        with pytest.raises(ArrangementError):
            mutable.position("z")
        with pytest.raises(ArrangementError):
            mutable.set_block_order([])
        with pytest.raises(ArrangementError):
            mutable.set_block_order(["a", "c"])  # not contiguous
        with pytest.raises(ArrangementError):
            mutable.slide_block_next_to(["a", "b"], ["b", "c"])  # overlap
        with pytest.raises(ArrangementError):
            mutable.rewrite_to(Arrangement(["a", "b"]))  # node-set mismatch
        with pytest.raises(ArrangementError):
            mutable.set_block_order(["a", "a", "b"])  # duplicate node
        with pytest.raises(ArrangementError):
            mutable.slide_block_next_to(["a", "c"], ["d"])  # not contiguous
        # Failed operations must not have corrupted the state.
        assert mutable.snapshot() == Arrangement(["a", "b", "c", "d"])

    def test_slide_rejects_a_repeated_node(self):
        # ["a", "a"] spans one position; charging it as two nodes would
        # report 6 swaps for a move of Kendall-tau distance 3.
        mutable = MutableArrangement("abcde")
        with pytest.raises(ArrangementError, match="duplicate node"):
            mutable.slide_block_next_to(["a", "a"], ["e"])
        with pytest.raises(ArrangementError, match="duplicate node"):
            mutable.slide_block_next_to(["a"], ["e", "e"])
        assert mutable.slide_block_next_to(["a"], ["e"]) == 3
        assert mutable.snapshot() == Arrangement("bcdae")

    def test_handlerless_algorithm_subclass_fails_at_construction(self):
        from repro.core.algorithm import OnlineMinLAAlgorithm

        class NoHandlers(OnlineMinLAAlgorithm):
            pass

        with pytest.raises(TypeError, match="_handle_step_fast"):
            NoHandlers()
        with pytest.raises(TypeError):
            OnlineMinLAAlgorithm()


def _records(result):
    return [
        (r.step_index, r.moving_cost, r.rearranging_cost, r.kendall_tau)
        for r in result.ledger
    ]


def _assert_in_place_run_matches_snapshots(make_learner, instance, seed):
    """Each record's distance is the snapshots' distance and its swap count;
    a second run from the same seed reproduces every record."""
    result = run_online(
        make_learner(),
        instance,
        rng=random.Random(seed),
        verify=True,
        record_trajectory=True,
    )
    assert result.arrangements is not None
    assert result.arrangements[0] == instance.initial_arrangement
    assert result.arrangements[-1] == result.final_arrangement
    for before, after, record in zip(
        result.arrangements, result.arrangements[1:], result.ledger
    ):
        assert before.kendall_tau(after) == record.kendall_tau
        assert record.moving_cost + record.rearranging_cost == record.kendall_tau
    replay = run_online(make_learner(), instance, rng=random.Random(seed), verify=True)
    assert _records(replay) == _records(result)
    assert replay.final_arrangement == result.final_arrangement


class TestInPlaceUpdatesMatchSnapshots:
    @pytest.mark.parametrize("seed", range(5))
    def test_rand_cliques(self, seed):
        rng = random.Random(seed)
        sequence = random_clique_merge_sequence(24, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        _assert_in_place_run_matches_snapshots(RandomizedCliqueLearner, instance, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_rand_lines(self, seed):
        rng = random.Random(seed)
        sequence = random_line_sequence(20, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        _assert_in_place_run_matches_snapshots(RandomizedLineLearner, instance, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_det(self, seed):
        rng = random.Random(seed)
        sequence = random_clique_merge_sequence(10, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        _assert_in_place_run_matches_snapshots(
            DeterministicClosestLearner, instance, seed
        )


class TestReportedKendallTau:
    def test_misreported_kendall_tau_is_caught_independently(self):
        """The simulator measures the distance itself; it must not trust the
        learner's self-reported Kendall-tau."""
        from repro.errors import ReproError

        class LyingKendallTau(RandomizedCliqueLearner):
            def _handle_step_fast(self, step, arrangement):
                moving, rearranging, kendall_tau = super()._handle_step_fast(
                    step, arrangement
                )
                return moving + 5, rearranging, kendall_tau + 5

        rng = random.Random(0)
        sequence = random_clique_merge_sequence(8, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        with pytest.raises(ReproError, match="measured Kendall-tau"):
            run_online(LyingKendallTau(), instance, rng=random.Random(1))

    def test_trajectory_snapshots_match_reported_kendall_tau(self):
        rng = random.Random(1)
        sequence = random_clique_merge_sequence(8, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(
            RandomizedCliqueLearner(),
            instance,
            rng=random.Random(2),
            record_trajectory=True,
        )
        assert result.arrangements is not None
        assert len(result.arrangements) == instance.num_steps + 1
        for before, after, record in zip(
            result.arrangements, result.arrangements[1:], result.ledger
        ):
            assert before.kendall_tau(after) == record.kendall_tau
