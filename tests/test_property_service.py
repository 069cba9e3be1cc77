"""Property test: thread serving ≡ process serving ≡ sequential serving.

Both worker backends run one serving loop
(:func:`repro.service.broker.serve_shard`).  With ``batch_timeout=None``
batch composition depends only on each shard's request order, so for any
stream, batch size, shard count and queue capacity both backends must serve
every request with the cost outcome a plain sequential loop of
:meth:`~repro.service.engine.ShardEngine.serve_batch` calls produces, end
with the same shard totals, and leave every shard in the same arrangement —
also when blocking ``submit`` and non-blocking ``try_submit`` calls
interleave on the buffered submission path, and when results reach an
``on_result`` hook instead of being retained (the path perfbench drives).
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    BACKENDS,
    ShardEngine,
    build_traffic_service,
    discover_stream_partition,
    learner_factory,
    shard_rng,
)
from repro.vnet.topology import LinearDatacenter
from repro.workloads.registry import get_scenario

NUM_NODES = 24
NUM_REQUESTS = 120


def _sequential(stream, requests, partition, seed, batch_size):
    """Serve each shard's requests in order, ``batch_size`` at a time."""
    engines = [
        ShardEngine(
            shard_index=index,
            nodes=nodes,
            kind=stream.kind,
            learner_factory=learner_factory(stream.kind, "rand"),
            rng=shard_rng(seed, index),
            datacenter=LinearDatacenter(len(nodes)),
        )
        for index, nodes in enumerate(partition.shard_nodes)
    ]
    per_shard = [[] for _ in engines]
    for index, pair in enumerate(requests):
        per_shard[partition.shard_of_pair(*pair)].append((index, pair))
    outcomes = {}
    for engine, items in zip(engines, per_shard):
        for start in range(0, len(items), batch_size):
            batch = items[start : start + batch_size]
            rows = engine.serve_batch([pair for _, pair in batch])
            for (index, pair), (revealed, swaps, cost) in zip(batch, rows):
                outcomes[index] = (
                    index,
                    pair,
                    engine.shard_index,
                    revealed,
                    swaps,
                    cost,
                    len(batch),
                )
    return (
        [outcomes[index] for index in range(len(requests))],
        [engine.report() for engine in engines],
        [engine.current_arrangement.order for engine in engines],
    )


def _outcome(result):
    """The deterministic slice of a ServeResult (timings excluded)."""
    return (
        result.request_index,
        result.pair,
        result.shard,
        result.revealed,
        result.migration_swaps,
        result.communication_cost,
        result.batch_size,
    )


def _served(
    stream,
    requests,
    partition,
    seed,
    batch_size,
    capacity,
    backend,
    tries=None,
    hooked=False,
):
    """Serve ``requests``; ``tries[i]`` sends request ``i`` by ``try_submit``.

    ``hooked`` collects results through an ``on_result`` hook with
    ``retain_results=False`` instead of from the drain, checking that each
    request reaches the hook exactly once.
    """
    hook_results = []
    service = build_traffic_service(
        stream,
        seed=seed,
        batch_size=batch_size,
        batch_timeout=None,
        queue_capacity=capacity,
        partition=partition,
        backend=backend,
        on_result=hook_results.append if hooked else None,
        retain_results=not hooked,
    )
    try:
        service.start()
        for index, pair in enumerate(requests):
            if tries is not None and tries[index]:
                assert service.try_submit(pair) == index
            else:
                service.submit(pair)
        results = service.drain()
        if hooked:
            assert results == []
            indices = Counter(result.request_index for result in hook_results)
            assert indices == Counter(range(len(requests)))
            results = sorted(hook_results, key=lambda result: result.request_index)
        return (
            [_outcome(result) for result in results],
            service.shard_reports(),
            [
                service.shard_arrangement(shard).order
                for shard in range(service.num_shards)
            ],
        )
    finally:
        service.close()


@settings(max_examples=15, deadline=None)
@given(
    scenario=st.sampled_from(["zipf-tenants", "uniform-cliques"]),
    seed=st.integers(min_value=0, max_value=2**16),
    batch_size=st.integers(min_value=1, max_value=8),
    shards=st.integers(min_value=1, max_value=3),
    capacity=st.integers(min_value=1, max_value=16),
)
def test_backends_match_sequential_serving(
    scenario, seed, batch_size, shards, capacity
):
    stream = get_scenario(scenario).request_stream(NUM_NODES, NUM_REQUESTS, seed)
    requests = list(stream)
    partition = discover_stream_partition(stream, shards)
    reference = _sequential(stream, requests, partition, seed, batch_size)
    for backend in BACKENDS:
        for hooked in (False, True):
            served = _served(
                stream,
                requests,
                partition,
                seed,
                batch_size,
                capacity,
                backend,
                hooked=hooked,
            )
            assert served[0] == reference[0], (backend, hooked)
            assert served[1] == reference[1], (backend, hooked)
            assert served[2] == reference[2], (backend, hooked)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    batch_size=st.integers(min_value=1, max_value=8),
    shards=st.integers(min_value=1, max_value=3),
    tries=st.lists(st.booleans(), min_size=NUM_REQUESTS, max_size=NUM_REQUESTS),
)
def test_interleaved_submit_and_try_submit_match_sequential_serving(
    seed, batch_size, shards, tries
):
    # Capacity for every request: no try_submit is ever refused.
    stream = get_scenario("zipf-tenants").request_stream(
        NUM_NODES, NUM_REQUESTS, seed
    )
    requests = list(stream)
    partition = discover_stream_partition(stream, shards)
    reference = _sequential(stream, requests, partition, seed, batch_size)
    for backend in BACKENDS:
        served = _served(
            stream,
            requests,
            partition,
            seed,
            batch_size,
            NUM_REQUESTS,
            backend,
            tries=tries,
        )
        assert served == reference, backend
