"""Property tests for the incremental step verifier.

:class:`~repro.minla.characterizations.IncrementalStepVerifier` checks each
step on interned index lists and inside its mismatch window only: the window
holds every node that moved, so guard 2 (untouched nodes keep their relative
order) and the Kendall-tau measurement never look outside it, and a rotated
window settles guard 2 by its two halves.  These tests hold the windowed
verifier to :class:`FullOrderVerifier`, a reference that shares none of
that machinery — label lists, guard 2 over the full filtered lists, Kendall
tau by a quadratic pair count — on random Rand runs, on randomly corrupted
arrangements, on rotation-shaped corruptions, on arrangements interned in
another label order, and on illegal moves injected into a run through
:func:`~repro.core.simulator.run_online`.
"""

import contextlib
import random
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import OnlineMinLAInstance
from repro.core.permutation import Arrangement, MutableArrangement
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.rand_lines import RandomizedLineLearner
from repro.core.simulator import run_online
from repro.errors import ArrangementError, InfeasibleArrangementError, ReproError
from repro.graphs.clique_forest import CliqueForest
from repro.graphs.line_forest import LineForest
from repro.graphs.reveal import RevealStep
from repro.minla.characterizations import IncrementalStepVerifier, is_minla_of_forest
from repro.obs.profile import count_work, work_snapshot
from repro.workloads.generation import random_clique_merge_sequence, random_line_sequence

UNIVERSE_CHANGED = "the node universe changed during an update"


def _pair_count(values):
    """Pairs ``i < j`` with ``values[i] > values[j]``, by checking every pair."""
    return sum(
        1
        for i in range(len(values))
        for j in range(i + 1, len(values))
        if values[i] > values[j]
    )

KINDS = {
    "cliques": (random_clique_merge_sequence, RandomizedCliqueLearner),
    "lines": (random_line_sequence, RandomizedLineLearner),
}


class FullOrderVerifier:
    """A reference for the windowed verifier that checks whole label orders.

    It has the same ``observe``/``check_step`` surface and takes the same
    path: guard 1 on the merged component, then guards 2 and 3, counted as an
    incremental check when they pass and as a full check (followed by
    :func:`is_minla_of_forest`) when they do not.  Guard 2 compares the
    untouched nodes of the whole previous and current orders, and Kendall
    tau is a quadratic pair count over the whole order.
    """

    def __init__(self, forest, initial_order):
        self.forest = forest
        self._previous_order = list(initial_order)

    def observe(self, step):
        if isinstance(self.forest, CliqueForest):
            return self.forest.merge(step.u, step.v).merged
        return self.forest.add_edge(step.u, step.v).merged

    def check_step(self, arrangement, merged):
        order = list(arrangement)
        previous = self._previous_order
        position = {node: index for index, node in enumerate(order)}
        if len(order) != len(previous) or set(position) != set(previous):
            raise ArrangementError(UNIVERSE_CHANGED)
        kendall_tau = _pair_count([position[node] for node in previous])
        positions = [position[node] for node in merged]
        lo, hi = min(positions), max(positions)
        merged_ok = hi - lo + 1 == len(positions)
        if merged_ok and isinstance(self.forest, LineForest):
            path = list(merged)
            merged_ok = order[lo : hi + 1] in (path, path[::-1])
        if not merged_ok:
            return False, kendall_tau
        touched = set(merged)
        splits_a_component = (
            0 < lo
            and hi + 1 < len(order)
            and self.forest.same_component(order[lo - 1], order[hi + 1])
        )
        untouched_now = [node for node in order if node not in touched]
        untouched_before = [node for node in previous if node not in touched]
        if not splits_a_component and untouched_now == untouched_before:
            count_work("minla.verifier.incremental_checks")
            feasible = True
        else:
            count_work("minla.verifier.full_checks")
            feasible = is_minla_of_forest(arrangement, self.forest)
        if feasible:
            self._previous_order = order
        return feasible, kendall_tau


def _make_instance(kind, n, workload_seed):
    generator, _ = KINDS[kind]
    rng = random.Random(workload_seed)
    return OnlineMinLAInstance.with_random_start(generator(n, rng), rng)


def _start_run(kind, n, workload_seed, algorithm_seed):
    instance = _make_instance(kind, n, workload_seed)
    learner = KINDS[kind][1]()
    learner.reset(
        nodes=instance.nodes,
        kind=instance.kind,
        initial_arrangement=instance.initial_arrangement,
        rng=random.Random(algorithm_seed),
    )
    return instance, learner


def _verifier_work():
    return {
        name: count
        for name, count in work_snapshot().items()
        if name.startswith("minla.verifier.")
    }


def _checked(verifier, arrangement, merged):
    """One ``check_step``: its outcome (or error) and the counters it bumped."""
    before = _verifier_work()
    try:
        outcome = verifier.check_step(arrangement, merged)
    except ArrangementError as error:
        outcome = ("error", str(error))
    after = _verifier_work()
    path = {name: after[name] - before.get(name, 0) for name in after}
    return outcome, {name: delta for name, delta in path.items() if delta}


def _check_both(windowed, full, arrangement, merged, full_merged):
    """Run both verifiers on one arrangement; their outcome and path must agree."""
    checked = _checked(windowed, arrangement, merged)
    assert checked == _checked(full, arrangement, full_merged)
    return checked


def _mutable(order, labels):
    """A mutable arrangement holding ``order``, interned in ``labels`` order."""
    arrangement = MutableArrangement(labels)
    arrangement.rewrite_to(Arrangement(order))
    return arrangement


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
        instance, learner = _start_run(kind, n, workload_seed, algorithm_seed)
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
            order = list(view)
            # A feasible corruption becomes both verifiers' previous order,
            # so the honest step is then measured from it instead.
            corrupted_feasible = False
            roll = corrupt.random()
            if roll < 0.3:
                i, j = corrupt.randrange(n), corrupt.randrange(n)
                order[i], order[j] = order[j], order[i]
                (corrupted_feasible, _), _ = _check_both(
                    windowed, full, Arrangement(order), merged, full_merged
                )
            elif roll < 0.35:
                order[corrupt.randrange(n)] = ("foreign",)
                outcome, _ = _check_both(
                    windowed, full, Arrangement(order), merged, full_merged
                )
                assert outcome == ("error", UNIVERSE_CHANGED)
            (feasible, kendall_tau), _ = _check_both(
                windowed, full, view, merged, full_merged
            )
            assert feasible
            if not corrupted_feasible:
                assert kendall_tau == record.kendall_tau

    @given(run_params)
    @settings(max_examples=60, deadline=None)
    def test_mutable_views_interned_in_another_label_order(self, params):
        kind, n, workload_seed, algorithm_seed, corruption_seed = params
        instance, learner = _start_run(kind, n, workload_seed, algorithm_seed)
        own_labels = list(instance.initial_arrangement)
        other_labels = list(own_labels)
        corrupt = random.Random(corruption_seed)
        corrupt.shuffle(other_labels)
        forest = instance.sequence.new_forest
        initial = instance.initial_arrangement
        shared = IncrementalStepVerifier(forest(), initial)
        reinterned = IncrementalStepVerifier(forest(), initial)
        full = FullOrderVerifier(forest(), initial)
        for step in instance.steps:
            record = learner.process(step)
            merged = shared.observe(step)
            reinterned_merged = reinterned.observe(step)
            full_merged = full.observe(step)
            order = list(learner.arrangement_view())
            views = [order]
            if corrupt.random() < 0.3:
                corrupted = list(order)
                i, j = corrupt.randrange(n), corrupt.randrange(n)
                corrupted[i], corrupted[j] = corrupted[j], corrupted[i]
                views.insert(0, corrupted)
            for view in views:
                checked = _check_both(
                    shared, full, _mutable(view, own_labels), merged, full_merged
                )
                assert _checked(
                    reinterned, _mutable(view, other_labels), reinterned_merged
                ) == checked
            (feasible, kendall_tau), _ = checked
            assert feasible
            if len(views) == 1:
                assert kendall_tau == record.kendall_tau

    @given(run_params)
    @settings(max_examples=40, deadline=None)
    def test_foreign_node_raises_through_both_view_types(self, params):
        kind, n, workload_seed, algorithm_seed, corruption_seed = params
        instance, learner = _start_run(kind, n, workload_seed, algorithm_seed)
        labels = list(instance.initial_arrangement)
        windowed = IncrementalStepVerifier(
            instance.sequence.new_forest(), instance.initial_arrangement
        )
        full = FullOrderVerifier(instance.sequence.new_forest(), instance.initial_arrangement)
        pick = random.Random(corruption_seed)
        at_step = pick.randrange(instance.num_steps)
        for index, step in enumerate(instance.steps):
            learner.process(step)
            merged = windowed.observe(step)
            full_merged = full.observe(step)
            view = learner.arrangement_view()
            if index == at_step:
                order = list(view)
                order[pick.randrange(n)] = ("foreign",)
                for foreign in (Arrangement(order), MutableArrangement(order)):
                    outcome, path = _check_both(
                        windowed, full, foreign, merged, full_merged
                    )
                    assert (outcome, path) == (("error", UNIVERSE_CHANGED), {})
            _check_both(windowed, full, view, merged, full_merged)
        # An arrangement of another size leaves the universe as well.
        longer = MutableArrangement(labels[:-1] + [("foreign",), ("other",)])
        assert _check_both(windowed, full, longer, merged, full_merged)[0] == (
            "error",
            UNIVERSE_CHANGED,
        )


def _layout_forest(kind, order, sizes):
    """A forest whose components are the consecutive runs of ``order``."""
    forest = CliqueForest(order) if kind == "cliques" else LineForest(order)
    blocks, start = [], 0
    for size in sizes:
        block = order[start : start + size]
        for u, v in zip(block, block[1:]):
            if kind == "cliques":
                forest.merge(u, v)
            else:
                forest.add_edge(u, v)
        blocks.append(block)
        start += size
    return forest, blocks


class TestRotationShortcut:
    @given(
        st.sampled_from(sorted(KINDS)),
        st.lists(st.integers(min_value=1, max_value=5), min_size=4, max_size=10),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_untouched_nodes_in_both_halves_go_to_the_full_check(
        self, kind, sizes, seed, mirrored
    ):
        """``L+U1+A+U2+B+R`` becomes ``L+U2+U1+A+B+R`` on the reveal of ``A-B``.

        The window rotates from ``X+Y = (U1+A)+U2`` to ``Y+X`` with untouched
        nodes in both halves, so guard 2 must fail.  Guards 1 and 3 hold by
        construction, so the step goes to the full check, whose verdict
        depends on whether ``U1`` splits a component of ``L``.
        """
        pick = random.Random(seed)
        nodes = list(range(sum(sizes)))
        pick.shuffle(nodes)
        forest, blocks = _layout_forest(kind, nodes, sizes)
        a = pick.randrange(1, len(blocks) - 2)
        b = pick.randrange(a + 2, len(blocks))
        a_lo = sum(sizes[:a])
        a_hi = a_lo + sizes[a]
        b_lo = sum(sizes[:b])
        u1_lo = pick.randrange(0, a_lo)
        rotated = (
            nodes[:u1_lo]
            + nodes[a_hi:b_lo]
            + nodes[u1_lo:a_lo]
            + nodes[a_lo:a_hi]
            + nodes[b_lo:]
        )
        step = RevealStep(blocks[a][-1], blocks[b][0])
        previous = nodes
        if mirrored:
            previous, rotated = previous[::-1], rotated[::-1]
        views = {
            "immutable": Arrangement,
            "mutable": lambda order: _mutable(order, previous),
        }
        for make_view in views.values():
            windowed = IncrementalStepVerifier(forest.copy(), previous)
            full = FullOrderVerifier(forest.copy(), previous)
            merged = windowed.observe(step)
            full_merged = full.observe(step)
            (feasible, kendall_tau), path = _check_both(
                windowed, full, make_view(rotated), merged, full_merged
            )
            assert path == {"minla.verifier.full_checks": 1}
            assert feasible == is_minla_of_forest(Arrangement(rotated), full.forest)
            assert kendall_tau == (a_lo - u1_lo + sizes[a]) * (b_lo - a_hi)

def _segmented(pick, previous, segments):
    """``previous`` with one window cut into ``segments`` shuffled, flipped pieces.

    The window is a random stretch of at least ``segments`` positions; each
    piece keeps its order or is reversed, and the pieces are put back in a
    random order.
    """
    n = len(previous)
    lo = pick.randrange(n - segments + 1)
    hi = pick.randrange(lo + segments - 1, n)
    cuts = sorted(pick.sample(range(lo + 1, hi + 1), segments - 1))
    bounds = [lo, *cuts, hi + 1]
    pieces = [previous[a:b] for a, b in zip(bounds, bounds[1:])]
    pieces = [piece[::-1] if pick.random() < 0.5 else piece for piece in pieces]
    pick.shuffle(pieces)
    return previous[:lo] + [node for piece in pieces for node in piece] + previous[hi + 1 :]


def _backend_calls():
    return work_snapshot().get("telemetry.backends.calls", 0)


class TestWindowKendallTau:
    """``_kendall_tau_from_previous`` against a quadratic pair count.

    Windows cut into at most eight forward or reversed segments must be
    priced by the segment closed form, without the inversion counter;
    windows of more segments and arbitrary shuffles may take either path,
    and every answer must equal the number of node pairs the two orders
    disagree on.
    """

    @staticmethod
    def _measure(previous, order):
        verifier = IncrementalStepVerifier(LineForest(range(len(previous))), range(len(previous)))
        verifier._previous_order = list(previous)
        return verifier._kendall_tau_from_previous(list(order))

    @staticmethod
    def _expected(previous, order):
        position = {node: index for index, node in enumerate(order)}
        return _pair_count([position[node] for node in previous])

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=80),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=300, deadline=None)
    def test_up_to_eight_segments_take_the_closed_form(self, segments, extra, seed):
        pick = random.Random(seed)
        previous = list(range(segments + extra))
        pick.shuffle(previous)
        order = _segmented(pick, previous, segments)
        calls = _backend_calls()
        distance, w_lo, w_hi, _ = self._measure(previous, order)
        assert distance == self._expected(previous, order)
        assert (w_lo, w_hi) == _window(previous, order)
        assert _backend_calls() == calls

    @given(
        st.integers(min_value=9, max_value=40),
        st.integers(min_value=0, max_value=80),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_nine_or_more_segments(self, segments, extra, seed):
        pick = random.Random(seed)
        previous = list(range(segments + extra))
        pick.shuffle(previous)
        order = _segmented(pick, previous, segments)
        distance, w_lo, w_hi, _ = self._measure(previous, order)
        assert distance == self._expected(previous, order)
        assert (w_lo, w_hi) == _window(previous, order)

    @given(st.permutations(list(range(30))), st.integers(min_value=1, max_value=30))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_shuffles(self, previous, size):
        previous = previous[:size]
        order = sorted(previous)
        distance, w_lo, w_hi, _ = self._measure(previous, order)
        assert distance == self._expected(previous, order)
        assert (w_lo, w_hi) == _window(previous, order)

    def test_scattered_window_gives_up_after_eight_segments(self):
        # 0 2 4 ... 1 3 5 ...: every node starts a one-node segment.
        previous = list(range(40))
        order = previous[0::2] + previous[1::2]
        calls = _backend_calls()
        distance, _, _, x_len = self._measure(previous, order)
        assert distance == self._expected(previous, order)
        assert x_len == -1
        assert _backend_calls() == calls + 1


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
            before = list(arrangement)
            honest = super()._handle_step_fast(step, arrangement)
            self._seen += 1
            if self._seen - 1 != at_step:
                return honest
            pick = random.Random(pick_seed)
            order = list(arrangement)
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
        (feasible, _), _ = _check_both(
            windowed, full, Arrangement(corrupted), merged, full_merged
        )
        assert not feasible
        assert _check_both(windowed, full, Arrangement(after), merged, full_merged)[0][0]
