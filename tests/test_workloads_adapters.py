"""Equivalence guards: generators and traffic are bit-identical.

``repro.workloads.generation`` holds the reveal-sequence generators and
``repro.vnet.traffic`` is a thin adapter over ``repro.workloads``; the
fingerprints pinned here were captured from the pre-subsystem
implementations, so every seeded workload of experiments E1–E10 is
provably unchanged by the refactor.  Any intentional change to a
generator's draw order must bump these values **and** invalidates archived
results — treat a mismatch as a regression first.
"""

import hashlib
import random

import pytest

from repro.dynamic_minla import requests_from_line_pattern
from repro.vnet.traffic import pipeline_traffic, tenant_traffic
from repro.workloads.generation import (
    balanced_clique_merge_sequence,
    growing_clique_sequence,
    pipeline_line_sequence,
    random_clique_merge_sequence,
    random_line_sequence,
    sequential_line_sequence,
    tenant_clique_sequence,
)
from repro.workloads.registry import get_scenario


def _sequence_fingerprint(sequence) -> str:
    payload = repr(
        (sequence.kind.value, sequence.nodes, tuple(s.as_tuple() for s in sequence.steps))
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _stream_fingerprint(stream) -> str:
    payload = repr((stream.kind.value, stream.virtual_nodes, tuple(stream)))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _trace_fingerprint(trace) -> str:
    payload = repr(
        (
            trace.kind.value,
            trace.virtual_nodes,
            trace.requests,
            tuple(s.as_tuple() for s in trace.sequence.steps),
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


SEQUENCE_GOLDEN = {
    ("clique_merge", 0): "fd2f585210de894c",
    ("clique_merge", 1): "9a3c47261109caef",
    ("clique_merge", 42): "922895d845935a12",
    ("clique_merge_components", 0): "8b4300ea08183640",
    ("clique_merge_biased", 0): "51a91720ed58a102",
    ("balanced", 0): "aafc0cded1d7e356",
    ("balanced", 1): "f6649d178a5dc666",
    ("tenant_cliques", 0): "c77d1e0a07146052",
    ("tenant_cliques", 42): "2342269409fb7287",
    ("tenant_cliques_sequential", 0): "51aa172fec8e2531",
    ("line", 0): "47cb9f3f007ae54c",
    ("line", 1): "753bbf94988bc641",
    ("line", 42): "af9fb6b3ad453fff",
    ("line_components", 0): "0f4cc91cdb8f5471",
    ("line_sequential", 0): "ac0f19ebd2b1cd8f",
    ("pipeline", 0): "5e7577dde4baa596",
    ("pipeline", 42): "817a4e3bfc24f1f4",
    ("pipeline_sequential", 0): "8241f6281be1bc55",
}

SEQUENCE_BUILDERS = {
    "clique_merge": lambda rng: random_clique_merge_sequence(17, rng),
    "clique_merge_components": lambda rng: random_clique_merge_sequence(
        17, rng, num_final_components=3
    ),
    "clique_merge_biased": lambda rng: random_clique_merge_sequence(
        17, rng, size_biased=True
    ),
    "balanced": lambda rng: balanced_clique_merge_sequence(12, rng),
    "tenant_cliques": lambda rng: tenant_clique_sequence([4, 5, 3], rng),
    "tenant_cliques_sequential": lambda rng: tenant_clique_sequence(
        [4, 5, 3], rng, interleave=False
    ),
    "line": lambda rng: random_line_sequence(17, rng),
    "line_components": lambda rng: random_line_sequence(
        17, rng, num_final_components=3
    ),
    "line_sequential": lambda rng: random_line_sequence(17, rng, sequential=True),
    "pipeline": lambda rng: pipeline_line_sequence([4, 5, 3], rng),
    "pipeline_sequential": lambda rng: pipeline_line_sequence(
        [4, 5, 3], rng, interleave=False
    ),
}

TRAFFIC_GOLDEN = {
    ("tenant_traffic", 0): "20908319b42ec412",
    ("tenant_traffic", 1): "41321d6fb9de1d2e",
    ("tenant_traffic", 42): "c338ca1ba454331c",
    ("pipeline_traffic", 0): "4a3889c26f1df449",
    ("pipeline_traffic", 1): "6e89e8da6e66dc2f",
    ("pipeline_traffic", 42): "643ab2708cb2724c",
}

#: Streams of the scenario registry, fingerprinted before tenant traffic
#: made its draws directly instead of through ``random.choices`` and
#: ``random.sample``: the perfbench serve stream (zipf-tenants, n = 256,
#: 100,000 requests), a single 40-node group (the rejection-set branch of
#: ``sample``) and the datacenter-scale E12 stream.
STREAM_GOLDEN = {
    ("zipf-tenants", 256, 100_000, 0): "ec1edd8780d0b354",
    ("zipf-tenants", 256, 100_000, 3): "ee368129fb69f20c",
    ("growing-hotspot", 40, 5_000, 0): "63a3caf1061639d4",
    ("datacenter-tenants", 1_000, 10_000, 0): "5bd240fc6d7f7e52",
}

#: E9's pipeline requests (``dynamic_minla.requests_from_line_pattern``),
#: fingerprinted with the generator's next 64 random bits while it still
#: drew from its own edge list instead of through
#: ``workloads.streaming.iter_pipeline_requests``.
LINE_PATTERN_GOLDEN = {
    ((4, 4, 4), 120, 0): "29768002df9a7662",
    ((2, 5, 9, 3), 1_000, 1): "ad029b1dcfcdee46",
    ((6,) * 8, 5_000, 42): "1ade7550b37b2088",
    ((64,), 2_000, 7): "451cecec2be99024",
}

TRAFFIC_BUILDERS = {
    "tenant_traffic": lambda rng: tenant_traffic([4, 4, 4], 120, rng),
    "pipeline_traffic": lambda rng: pipeline_traffic([4, 4, 4], 120, rng),
}


class TestGeneratorAdapters:
    @pytest.mark.parametrize("name,seed", sorted(SEQUENCE_GOLDEN))
    def test_sequence_generators_bit_identical(self, name, seed):
        sequence = SEQUENCE_BUILDERS[name](random.Random(seed))
        assert _sequence_fingerprint(sequence) == SEQUENCE_GOLDEN[(name, seed)]

    def test_deterministic_generators_bit_identical(self):
        assert _sequence_fingerprint(growing_clique_sequence(9)) == "c9b644defdf7514a"
        assert _sequence_fingerprint(sequential_line_sequence(9)) == "477f6352845c329e"
        assert (
            _sequence_fingerprint(balanced_clique_merge_sequence(12))
            == "9dce79297172f9f1"
        )

    def test_generators_delegate_to_workloads(self):
        # The adapter and the subsystem expose the *same* function objects —
        # there is exactly one implementation.
        from repro.workloads import generation

        assert random_clique_merge_sequence is generation.random_clique_merge_sequence
        assert random_line_sequence is generation.random_line_sequence


class TestTrafficAdapters:
    @pytest.mark.parametrize("name,seed", sorted(TRAFFIC_GOLDEN))
    def test_traffic_bit_identical(self, name, seed):
        trace = TRAFFIC_BUILDERS[name](random.Random(seed))
        assert _trace_fingerprint(trace) == TRAFFIC_GOLDEN[(name, seed)]

    @pytest.mark.parametrize("case", sorted(STREAM_GOLDEN))
    def test_scenario_streams_bit_identical(self, case):
        name, num_nodes, num_requests, seed = case
        stream = get_scenario(name).request_stream(num_nodes, num_requests, seed)
        assert _stream_fingerprint(stream) == STREAM_GOLDEN[case]

    def test_trace_matches_streamed_equivalent(self):
        # The materialized trace and a workloads stream over the same groups
        # replay identical hidden patterns (requests drawn from one shared
        # generator implementation).
        from repro.workloads.streaming import (
            iter_tenant_requests,
            pair_count_weights,
            split_groups,
        )

        rng = random.Random(11)
        trace = tenant_traffic([3, 5], 80, rng)
        groups = split_groups([3, 5])
        replay = list(
            iter_tenant_requests(
                groups, pair_count_weights(groups), 80, random.Random(11)
            )
        )
        assert list(trace.requests) == replay

    @pytest.mark.parametrize("case", sorted(LINE_PATTERN_GOLDEN))
    def test_line_pattern_requests_bit_identical(self, case):
        sizes, num_requests, seed = case
        rng = random.Random(seed)
        nodes, requests = requests_from_line_pattern(list(sizes), num_requests, rng)
        payload = repr(
            (
                tuple(nodes),
                tuple((request.u, request.v) for request in requests),
                rng.getrandbits(64),
            )
        )
        fingerprint = hashlib.sha256(payload.encode()).hexdigest()[:16]
        assert fingerprint == LINE_PATTERN_GOLDEN[case]
