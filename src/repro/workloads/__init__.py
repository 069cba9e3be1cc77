"""Scenario-generation subsystem: composable, seedable, streaming workloads.

The paper's experiments reveal cliques and lines under hand-rolled orders;
its motivating applications (virtual network embedding, dynamic MinLA) face
*real traffic* — skewed tenant popularity, bursty pipelines, fleets mixing
both patterns.  This package makes such workloads first-class:

* :mod:`repro.workloads.base` — the :class:`Scenario` protocol and lazy,
  re-iterable :class:`RequestStream` objects,
* :mod:`repro.workloads.sizes` — component-size distributions (fixed,
  heavy-tailed, single-component),
* :mod:`repro.workloads.orders` — merge-order policies (uniform, Zipf,
  bursty, sequential),
* :mod:`repro.workloads.generation` — the single implementation of every
  reveal-sequence generator,
* :mod:`repro.workloads.streaming` — lazy request generation behind
  ``repro.vnet.traffic`` and the datacenter-scale E12 experiment,
* :mod:`repro.workloads.registry` — the named catalog behind
  ``python -m repro scenarios list/run`` and ``REPRO_SCENARIO``.

Every scenario is a pure function of ``(parameters, seed)``: same seed,
same workload — bit-identical across worker counts and across streaming
versus materialized generation.
"""

from repro.workloads.base import (
    RequestStream,
    SCALE_NAMES,
    Scenario,
    ScenarioParams,
    check_scale,
)
from repro.workloads.discovery import (
    SCENARIO_FILE_NAME,
    autodiscover_scenarios,
    load_scenario_file,
    scenario_from_recipe,
)
from repro.workloads.orders import (
    BurstyInterleave,
    MergeOrderPolicy,
    SequentialOrder,
    UniformInterleave,
    ZipfInterleave,
)
from repro.workloads.registry import (
    SCENARIO_ENV_VAR,
    ComposedScenario,
    DatacenterScenario,
    all_scenarios,
    default_scenario_name,
    get_scenario,
    register,
    scenario_names,
)
from repro.workloads.sizes import (
    FixedSizes,
    HeavyTailedSizes,
    SingleComponent,
    SizeDistribution,
)
from repro.workloads.streaming import (
    iter_induced_reveals,
    materialize_trace,
    mixed_request_stream,
    pipeline_request_stream,
    stream_statistics,
    tenant_request_stream,
)

__all__ = [
    "BurstyInterleave",
    "ComposedScenario",
    "DatacenterScenario",
    "FixedSizes",
    "HeavyTailedSizes",
    "MergeOrderPolicy",
    "RequestStream",
    "SCALE_NAMES",
    "SCENARIO_ENV_VAR",
    "SCENARIO_FILE_NAME",
    "Scenario",
    "ScenarioParams",
    "SequentialOrder",
    "SingleComponent",
    "SizeDistribution",
    "UniformInterleave",
    "ZipfInterleave",
    "all_scenarios",
    "autodiscover_scenarios",
    "check_scale",
    "default_scenario_name",
    "get_scenario",
    "iter_induced_reveals",
    "load_scenario_file",
    "materialize_trace",
    "mixed_request_stream",
    "pipeline_request_stream",
    "register",
    "scenario_from_recipe",
    "scenario_names",
    "stream_statistics",
    "tenant_request_stream",
]
