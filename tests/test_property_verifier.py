"""Property tests for the incremental step verifier.

:class:`~repro.minla.characterizations.IncrementalStepVerifier` checks each
step inside its mismatch window only: the window holds every node that
moved, so guard 2 (untouched nodes keep their relative order) and the
Kendall-tau measurement never look outside it.  These tests hold the
windowed verifier to a reference that works on full orders — guard 2 over
the full filtered lists, Kendall tau by merge sort — on random Rand runs,
on randomly corrupted arrangements, and on illegal moves injected into a
run through :func:`~repro.core.simulator.run_online`.
"""

import contextlib
import random
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import OnlineMinLAInstance
from repro.core.permutation import Arrangement
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.rand_lines import RandomizedLineLearner
from repro.core.simulator import run_online
from repro.errors import ArrangementError, InfeasibleArrangementError, ReproError
from repro.graphs.clique_forest import CliqueForest
from repro.graphs.generators import random_clique_merge_sequence, random_line_sequence
from repro.graphs.reveal import RevealStep
from repro.minla.characterizations import IncrementalStepVerifier, is_minla_of_forest
from repro.obs.profile import work_snapshot
from repro.telemetry.backends import MergeSortBackend

REFERENCE = MergeSortBackend()

KINDS = {
    "cliques": (random_clique_merge_sequence, RandomizedCliqueLearner),
    "lines": (random_line_sequence, RandomizedLineLearner),
}


class FullOrderVerifier(IncrementalStepVerifier):
    """The verifier with both window shortcuts replaced by full-order scans."""

    def _kendall_tau_from_previous(self, order):
        previous = self._previous_order
        position = {node: index for index, node in enumerate(order)}
        if len(order) != len(previous) or set(position) != set(previous):
            raise ArrangementError("the node universe changed during an update")
        kendall_tau = REFERENCE.count_inversions([position[node] for node in previous])
        return kendall_tau, 0, len(order) - 1

    def _step_left_rest_untouched(self, order, touched, lo, hi, w_lo, w_hi):
        if lo > 0 and hi + 1 < len(order):
            if self._forest.same_component(order[lo - 1], order[hi + 1]):
                return False
        untouched_now = [node for node in order if node not in touched]
        untouched_before = [node for node in self._previous_order if node not in touched]
        return untouched_now == untouched_before


def _make_instance(kind, n, workload_seed):
    generator, _ = KINDS[kind]
    rng = random.Random(workload_seed)
    return OnlineMinLAInstance.with_random_start(generator(n, rng), rng)


def _verifier_work():
    return {
        name: count
        for name, count in work_snapshot().items()
        if name.startswith("minla.verifier.")
    }


def _check_both(windowed, full, arrangement, merged, full_merged):
    """Run both verifiers on one arrangement; their outcome and path must agree."""
    outcomes = []
    for verifier, component in ((windowed, merged), (full, full_merged)):
        before = _verifier_work()
        try:
            outcome = verifier.check_step(arrangement, component)
        except ArrangementError as error:
            outcome = ("error", str(error))
        after = _verifier_work()
        path = {name: after[name] - before.get(name, 0) for name in after}
        outcomes.append((outcome, path))
    assert outcomes[0] == outcomes[1]
    return outcomes[0][0]


run_params = st.tuples(
    st.sampled_from(sorted(KINDS)),
    st.integers(min_value=2, max_value=40),  # number of nodes
    st.integers(min_value=0, max_value=10_000),  # workload seed
    st.integers(min_value=0, max_value=10_000),  # algorithm seed
    st.integers(min_value=0, max_value=10_000),  # corruption seed
)


class TestWindowedVerifierMatchesFullOrders:
    @given(run_params)
    @settings(max_examples=80, deadline=None)
    def test_rand_runs_with_random_corruptions(self, params):
        kind, n, workload_seed, algorithm_seed, corruption_seed = params
        instance = _make_instance(kind, n, workload_seed)
        learner = KINDS[kind][1]()
        learner.reset(
            nodes=instance.nodes,
            kind=instance.kind,
            initial_arrangement=instance.initial_arrangement,
            rng=random.Random(algorithm_seed),
        )
        windowed = IncrementalStepVerifier(
            instance.sequence.new_forest(), instance.initial_arrangement
        )
        full = FullOrderVerifier(instance.sequence.new_forest(), instance.initial_arrangement)
        corrupt = random.Random(corruption_seed)
        for step in instance.steps:
            record = learner.process(step)
            merged = windowed.observe(step)
            full_merged = full.observe(step)
            view = learner.arrangement_view()
            order = view.order_list()
            # A feasible corruption becomes both verifiers' previous order,
            # so the honest step is then measured from it instead.
            corrupted_feasible = False
            roll = corrupt.random()
            if roll < 0.3:
                i, j = corrupt.randrange(n), corrupt.randrange(n)
                order[i], order[j] = order[j], order[i]
                corrupted_feasible, _ = _check_both(
                    windowed, full, Arrangement(order), merged, full_merged
                )
            elif roll < 0.35:
                order[corrupt.randrange(n)] = ("foreign",)
                outcome = _check_both(
                    windowed, full, Arrangement(order), merged, full_merged
                )
                assert outcome[0] == "error"
            feasible, kendall_tau = _check_both(windowed, full, view, merged, full_merged)
            assert feasible
            if not corrupted_feasible:
                assert kendall_tau == record.kendall_tau


def _window(before, after):
    moved = [index for index, (old, new) in enumerate(zip(before, after)) if old != new]
    return (moved[0], moved[-1]) if moved else (0, -1)


def _swap_untouched(before, order, merged, pick, inside):
    """Swap two untouched nodes inside (or outside) the step's window."""
    w_lo, w_hi = _window(before, order)
    candidates = [
        index
        for index, node in enumerate(order)
        if node not in merged and (w_lo <= index <= w_hi) == inside
    ]
    if len(candidates) < 2:
        return None
    i, j = pick.sample(candidates, 2)
    corrupted = list(order)
    corrupted[i], corrupted[j] = corrupted[j], corrupted[i]
    return corrupted


def _split_merged(before, order, merged, pick):
    """Move the merged block's first node to the far side of an untouched node."""
    if len(merged) == len(order):
        return None
    lo = min(index for index, node in enumerate(order) if node in merged)
    rest = order[:lo] + order[lo + 1 :]
    return [order[lo]] + rest if lo > 0 else rest + [order[lo]]


CORRUPTIONS = {
    "swap-inside-window": partial(_swap_untouched, inside=True),
    "swap-outside-window": partial(_swap_untouched, inside=False),
    "split-merged-block": _split_merged,
}


def corrupting_learner(kind, corruption, at_step, pick_seed):
    """A Rand learner that makes one illegal move after step ``at_step``.

    The learner reports the move's true Kendall-tau distance, so the only
    check it can fail is feasibility.  ``corruption == "foreign-node"``
    shows the verifier an arrangement with one node replaced instead.
    """

    # run_online builds the learner itself, so what happened is recorded on
    # this one-off class.
    class Corrupting(KINDS[kind][1]):
        injected = False
        truly_infeasible = False

        def _after_reset(self):
            super()._after_reset()
            self._seen = 0
            self._foreign_view = None

        def _handle_step_fast(self, step, arrangement):
            before = arrangement.order_list()
            honest = super()._handle_step_fast(step, arrangement)
            self._seen += 1
            if self._seen - 1 != at_step:
                return honest
            pick = random.Random(pick_seed)
            order = arrangement.order_list()
            if corruption == "foreign-node":
                order[pick.randrange(len(order))] = ("foreign",)
                self._foreign_view = Arrangement(order)
                type(self).injected = True
                return honest
            merged = self.forest.component_of(step.u)
            corrupted = CORRUPTIONS[corruption](before, order, merged, pick)
            if corrupted is None:
                return honest
            arrangement.rewrite_to(Arrangement(corrupted))
            kendall_tau = Arrangement(before).kendall_tau(Arrangement(corrupted))
            type(self).injected = True
            type(self).truly_infeasible = not is_minla_of_forest(
                Arrangement(corrupted), self.forest
            )
            return kendall_tau, 0, kendall_tau

        def arrangement_view(self):
            if self._foreign_view is not None:
                return self._foreign_view
            return super().arrangement_view()

    return Corrupting


def _outcome(learner_class, instance, verifier_class=None):
    patch = (
        mock.patch("repro.core.simulator.IncrementalStepVerifier", verifier_class)
        if verifier_class is not None
        else contextlib.nullcontext()
    )
    with patch:
        try:
            result = run_online(learner_class(), instance, rng=random.Random(7))
        except ReproError as error:
            return type(error), str(error)
    return None, result.total_cost


class TestInjectedIllegalMoves:
    @given(
        st.sampled_from(sorted(KINDS)),
        st.sampled_from(sorted(CORRUPTIONS) + ["foreign-node"]),
        st.integers(min_value=3, max_value=30),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_errors_as_full_order_reference(
        self, kind, corruption, n, workload_seed, step_seed, pick_seed
    ):
        instance = _make_instance(kind, n, workload_seed)
        at_step = step_seed % instance.num_steps
        learner_class = corrupting_learner(kind, corruption, at_step, pick_seed)
        error_type, detail = _outcome(learner_class, instance)
        assert (error_type, detail) == _outcome(learner_class, instance, FullOrderVerifier)
        if not learner_class.injected:
            assert error_type is None
        elif corruption == "foreign-node":
            assert error_type is ArrangementError
            assert "node universe changed" in detail
        elif corruption == "split-merged-block":
            assert error_type is InfeasibleArrangementError
        else:
            expected = InfeasibleArrangementError if learner_class.truly_infeasible else None
            assert error_type is expected

    @pytest.mark.parametrize(
        "previous, after",
        [
            # Slide 6 right to 7: the window spans the two cliques.
            ([6, 0, 1, 2, 3, 4, 5, 7], [0, 1, 2, 3, 4, 5, 6, 7]),
            # Slide 7 left to 6: the two cliques lie outside the window.
            ([0, 1, 2, 3, 4, 5, 6, 8, 7], [0, 1, 2, 3, 4, 5, 6, 7, 8]),
        ],
    )
    def test_swap_across_two_cliques_is_caught(self, previous, after):
        forest = CliqueForest(previous)
        for u, v in ((0, 1), (1, 2), (3, 4), (4, 5)):
            forest.merge(u, v)
        windowed = IncrementalStepVerifier(forest, previous)
        full = FullOrderVerifier(forest.copy(), previous)
        merged = windowed.observe(RevealStep(6, 7))
        full_merged = full.observe(RevealStep(6, 7))
        corrupted = list(after)
        corrupted[1], corrupted[4] = corrupted[4], corrupted[1]
        feasible, _ = _check_both(
            windowed, full, Arrangement(corrupted), merged, full_merged
        )
        assert not feasible
        assert _check_both(windowed, full, Arrangement(after), merged, full_merged)[0]
