"""ExecutionPlan: validation, precedence, resolution and path equivalence.

Contracts under test (see :mod:`repro.engine.plan`):

* contradictory or out-of-domain knob combinations raise a typed
  ``PlanError`` whose message states the precedence rule — never a
  silently picked path;
* a plan resolves to the executor stack the old hand-wired selection
  produced: workers → pipeline_lookahead → async_inflight → batch_size →
  per-tuple;
* **path equivalence**: every determinism-preserving plan (per-tuple,
  batched, inflight=1, lookahead=1, workers=1, each transport) produces
  bit-identical outputs, error bounds and UDF call counts to the serial
  batched path under a fixed seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accuracy import AccuracyRequirement
from repro.engine import (
    AsyncRefinementExecutor,
    BatchExecutor,
    ExecutionPlan,
    ParallelExecutor,
    PipelinedExecutor,
    ThreadPoolTransport,
    UDFExecutionEngine,
)
from repro.exceptions import PlanError, QueryError
from repro.udf.synthetic import async_service_udf
from repro.workloads.generators import input_stream, workload_for_udf

REQUIREMENT = AccuracyRequirement(epsilon=0.15, delta=0.05)


def _fixture(n_tuples=4, seed=31, stream_seed=4):
    """Fresh (async-service udf, engine, distributions) with fixed seeds.

    An :class:`~repro.udf.base.AsyncUDF` (zero latency) is used so the same
    fixture exercises *every* transport — the serial and thread paths run
    it through its blocking bridge, the asyncio path natively.
    """
    udf = async_service_udf("F4", latency=0.0)
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=seed, n_samples=120
    )
    dists = list(
        input_stream(
            workload_for_udf(udf), n_tuples, random_state=np.random.default_rng(stream_seed)
        )
    )
    return udf, engine, dists


def _assert_identical(a_outputs, b_outputs):
    assert len(a_outputs) == len(b_outputs)
    for i, (a, b) in enumerate(zip(a_outputs, b_outputs)):
        assert np.array_equal(a.distribution.samples, b.distribution.samples), i
        assert a.error_bound == b.error_bound, i


# ---------------------------------------------------------------------------
# Validation: conflicts raise typed PlanError with the precedence rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"batch_size": 0},
        {"workers": 0},
        {"async_inflight": 0},
        {"pipeline_lookahead": -1},
        {"speculative_k": 0},
        {"merge": "replace"},
        {"async_inflight": 2, "transport": "no-such-transport"},
        # The only merge policies are "discard" and "shared".
        {"workers": 2, "merge": "union"},
        {"workers": 2, "merge": "refit-threshold"},
        # Counts accept only what operator.index accepts, minus bool.
        {"async_inflight": 1.9},
        {"batch_size": 2.5},
        {"batch_size": True},
        {"batch_size": "8"},
    ],
)
def test_out_of_domain_values_raise_plan_error(kwargs):
    with pytest.raises(PlanError):
        ExecutionPlan(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        # merge="shared" needs learners to share with: workers or a pipeline.
        {"merge": "shared"},
        {"merge": "shared", "batch_size": 8, "async_inflight": 4},
        # a serial transport cannot overlap a window.
        {"async_inflight": 8, "transport": "serial"},
        {"pipeline_lookahead": 4, "transport": "serial"},
        # an asyncio transport without any window to carry.
        {"transport": "asyncio"},
        {"batch_size": 8, "transport": "asyncio"},
    ],
)
def test_knob_conflicts_raise_plan_error_with_precedence(kwargs):
    with pytest.raises(PlanError, match="precedence"):
        ExecutionPlan(**kwargs)


def test_plan_error_is_a_query_error():
    with pytest.raises(QueryError):
        ExecutionPlan(batch_size=0)


def test_shared_merge_needs_workers_or_a_pipeline():
    # merge="shared" is the one policy meaningful beyond the sharded layer:
    # with workers it shares the model across shards, with a pipeline it
    # keeps prefetch walks refreshed against the live model.  Alone it
    # would be silently inert, so the plan rejects it.
    assert ExecutionPlan(workers=2, merge="shared").merge == "shared"
    assert ExecutionPlan(pipeline_lookahead=4, merge="shared").merge == "shared"
    with pytest.raises(PlanError, match="precedence"):
        ExecutionPlan(merge="shared")
    # "discard" is the default and, without workers, has no effect.
    assert ExecutionPlan(pipeline_lookahead=4, merge="discard") == ExecutionPlan(
        pipeline_lookahead=4
    )


def test_shared_merge_resolution_arms_the_walk_refresh():
    _, engine, _ = _fixture(n_tuples=1)
    piped = ExecutionPlan(pipeline_lookahead=4, merge="shared").resolve(engine)
    assert isinstance(piped, PipelinedExecutor)
    assert piped.shared_refresh is True
    default = ExecutionPlan(pipeline_lookahead=4).resolve(engine)
    assert default.shared_refresh is False
    sharded = ExecutionPlan(workers=2, merge="shared").resolve(engine)
    assert isinstance(sharded, ParallelExecutor)
    assert sharded.merge == "shared"


def test_transport_instance_with_workers_is_rejected():
    with pytest.raises(PlanError, match="process-local"):
        ExecutionPlan(workers=2, async_inflight=2, transport=ThreadPoolTransport())


def test_serial_transport_with_window_of_one_is_legal():
    plan = ExecutionPlan(batch_size=4, async_inflight=1, transport="serial")
    assert plan.async_inflight == 1


def test_serial_transport_without_a_window_is_legal():
    # "serial" is the explicit no-overlap spelling, so a plan with no
    # window knob accepts it (and resolution simply never consults it).
    _, engine, _ = _fixture(n_tuples=1)
    plan = ExecutionPlan(batch_size=8, transport="serial")
    assert isinstance(plan.resolve(engine), BatchExecutor)


def test_with_overrides_revalidates():
    plan = ExecutionPlan(batch_size=8)
    assert plan.with_overrides(batch_size=16).batch_size == 16
    with pytest.raises(PlanError):
        plan.with_overrides(batch_size=0)


# ---------------------------------------------------------------------------
# Resolution: the plan picks the executor the old selection logic picked
# ---------------------------------------------------------------------------

def test_resolution_precedence():
    _, engine, _ = _fixture(n_tuples=1)
    assert ExecutionPlan().resolve(engine) is None
    assert isinstance(ExecutionPlan(batch_size=8).resolve(engine), BatchExecutor)
    assert isinstance(
        ExecutionPlan(async_inflight=4).resolve(engine), AsyncRefinementExecutor
    )
    assert isinstance(
        ExecutionPlan(async_inflight=4, pipeline_lookahead=4).resolve(engine),
        PipelinedExecutor,
    )
    assert isinstance(
        ExecutionPlan(workers=2, pipeline_lookahead=4, async_inflight=4).resolve(engine),
        ParallelExecutor,
    )


def test_resolution_forwards_the_knobs():
    _, engine, _ = _fixture(n_tuples=1)
    executor = ExecutionPlan(
        workers=3, batch_size=8, merge="discard", parallel_seed=17,
        async_inflight=4, pipeline_lookahead=2, transport="asyncio",
    ).resolve(engine)
    assert executor.workers == 3
    assert executor.batch_size == 8
    assert executor.merge == "discard"
    assert executor.seed == 17
    assert executor.async_inflight == 4
    assert executor.pipeline_lookahead == 2
    assert executor.transport == "asyncio"


def test_speculative_k_needs_the_engine_constructor():
    _, engine, _ = _fixture(n_tuples=1)
    with pytest.raises(PlanError, match="speculative_k"):
        ExecutionPlan(speculative_k=3).resolve(engine)


def test_engine_accepts_a_plan_and_applies_speculative_k():
    plan = ExecutionPlan(batch_size=4, speculative_k=3)
    engine = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=1, plan=plan,
    )
    assert engine.plan is plan
    assert engine._processor_kwargs["speculative_k"] == 3
    # The stored plan resolves cleanly against its own engine.
    assert isinstance(plan.resolve(engine), BatchExecutor)
    with pytest.raises(PlanError, match="conflicts"):
        UDFExecutionEngine(strategy="gp", plan=plan, speculative_k=2)


# ---------------------------------------------------------------------------
# Path equivalence: every determinism-preserving plan == serial batched
# ---------------------------------------------------------------------------

DETERMINISM_PRESERVING_PLANS = [
    pytest.param(ExecutionPlan(batch_size=4), id="batched"),
    pytest.param(ExecutionPlan(batch_size=4, async_inflight=1), id="inflight1-threads"),
    pytest.param(
        ExecutionPlan(batch_size=4, async_inflight=1, transport="serial"),
        id="inflight1-serial",
    ),
    pytest.param(
        ExecutionPlan(batch_size=4, async_inflight=1, transport="asyncio"),
        id="inflight1-asyncio",
    ),
    pytest.param(ExecutionPlan(batch_size=4, pipeline_lookahead=1), id="lookahead1"),
    pytest.param(ExecutionPlan(batch_size=4, workers=1), id="workers1"),
]


@pytest.mark.parametrize("plan", DETERMINISM_PRESERVING_PLANS)
def test_determinism_preserving_plans_match_serial_batched(plan):
    """The parametrized property at the heart of the refactor: plans that
    promise bit-identity with the serial batched path keep that promise —
    outputs, error bounds and UDF call counts."""
    udf_ref, engine_ref, dists_ref = _fixture()
    reference = BatchExecutor(engine_ref, batch_size=4).compute_batch(udf_ref, dists_ref)

    udf, engine, dists = _fixture()
    outputs = engine.compute_with_plan(udf, dists, plan)
    _assert_identical(reference, outputs)
    assert udf.call_count == udf_ref.call_count


def test_per_tuple_plan_is_numerically_equivalent_to_batched():
    """The all-default plan (per-tuple path) matches the batched pipeline's
    *numerical* equivalence contract from PR 1 (same stream, same results
    to floating-point noise — the batched kernel algebra reorders the
    arithmetic, so bitwise identity is not part of that contract)."""
    udf_ref, engine_ref, dists_ref = _fixture()
    reference = BatchExecutor(engine_ref, batch_size=4).compute_batch(udf_ref, dists_ref)
    udf, engine, dists = _fixture()
    outputs = engine.compute_with_plan(udf, dists, ExecutionPlan())
    assert len(reference) == len(outputs)
    for a, b in zip(reference, outputs):
        np.testing.assert_allclose(
            a.distribution.samples, b.distribution.samples, rtol=1e-9, atol=1e-9
        )
        assert a.error_bound == pytest.approx(b.error_bound, rel=1e-9)


def test_compute_with_plan_uses_the_engine_default_plan():
    udf_a, engine_a, dists_a = _fixture()
    direct = engine_a.compute_with_plan(udf_a, dists_a, ExecutionPlan(batch_size=4))

    udf_b, _, dists_b = _fixture()
    engine_b = UDFExecutionEngine(
        strategy="gp", requirement=REQUIREMENT, random_state=31, n_samples=120,
        plan=ExecutionPlan(batch_size=4),
    )
    defaulted = engine_b.compute_with_plan(udf_b, dists_b)
    _assert_identical(direct, defaulted)
