"""Worker-budget negotiation and the sweep scheduler.

The budget tests lock the ``ValidationError`` message shapes (the CLI shows
them verbatim), and the scheduler tests prove the negotiated plan reaches
the snapshot.
"""

from __future__ import annotations

import pytest

from repro.evaluation.sweep import ParameterSweep
from repro.exceptions import ValidationError
from repro.execution import (
    AUTO_INNER,
    BudgetPlan,
    SerialExecutor,
    SweepScheduler,
    ThreadExecutor,
    WorkerBudget,
)
from repro.execution.faults import FaultInjectingExecutor, FaultPlan


def _pure_runner(x):
    return {"y": x * x}


class TestWorkerBudget:
    def test_defaults_to_cpu_count(self):
        assert WorkerBudget().total >= 1

    def test_rejects_non_positive_total(self):
        with pytest.raises(ValidationError, match="worker budget must be >= 1"):
            WorkerBudget(0)

    def test_resolve_accepts_int_budget_or_none(self):
        assert WorkerBudget.resolve(3).total == 3
        budget = WorkerBudget(2)
        assert WorkerBudget.resolve(budget) is budget
        assert WorkerBudget.resolve(None).total >= 1

    def test_plan_defaults_serial_to_one_worker(self):
        plan = WorkerBudget(4).plan()
        assert plan == BudgetPlan(executor="serial", total=4, outer_workers=1, inner_workers=1)
        # Serial fits any budget, even a single slot.
        assert WorkerBudget(1).plan(executor=None).outer_workers == 1

    def test_plan_pool_executor_takes_the_budget_by_default(self):
        plan = WorkerBudget(4).plan(executor="process")
        assert plan.outer_workers == 4 and plan.inner_workers == 1

    def test_plan_auto_inner_hands_leftover_slots_to_the_inner_layer(self):
        plan = WorkerBudget(8).plan(executor="process", outer_workers=2, inner_workers=AUTO_INNER)
        assert plan.inner_workers == 4
        assert plan.outer_workers * plan.inner_workers <= plan.total

    def test_plan_from_executor_instance_uses_its_width(self):
        pool = ThreadExecutor(max_workers=3)
        try:
            plan = WorkerBudget(4).plan(executor=pool)
            assert plan.executor == "thread" and plan.outer_workers == 3
            with pytest.raises(ValidationError, match="exceeds the worker budget of 2"):
                WorkerBudget(2).plan(executor=pool)
        finally:
            pool.close()

    def test_workers_over_budget_is_a_clear_validation_error(self):
        """Satellite fix: no silent oversubscription — the message names the
        request, the budget, and both remedies."""
        with pytest.raises(ValidationError) as excinfo:
            WorkerBudget(2).plan(executor="process", outer_workers=5)
        message = str(excinfo.value)
        assert "--workers 5" in message
        assert "exceeds the worker budget of 2 slot(s)" in message
        assert "raise --worker-budget" in message

    def test_nested_oversubscription_names_the_product(self):
        with pytest.raises(ValidationError) as excinfo:
            WorkerBudget(4).plan(executor="process", outer_workers=2, inner_workers=3)
        message = str(excinfo.value)
        assert "oversubscribe" in message
        assert "2 outer worker(s) x 3 inner thread(s) = 6 slots" in message
        assert "budget is 4" in message

    def test_serial_with_workers_points_at_pool_executors(self):
        with pytest.raises(ValidationError, match="one combination at a time"):
            WorkerBudget(4).plan(executor="serial", outer_workers=2)

    def test_plan_dict_is_snapshot_ready(self):
        plan = WorkerBudget(4).plan(executor="thread", outer_workers=2)
        assert plan.to_dict() == {
            "executor": "thread",
            "total": 4,
            "outer_workers": 2,
            "inner_workers": 1,
        }


class TestSweepScheduler:
    def test_scope_yields_executor_sized_to_the_plan(self):
        scheduler = SweepScheduler(executor="thread", workers=2, budget=4)
        with scheduler.scope() as pool:
            assert pool.name == "thread"
            assert pool.max_workers == 2
        with SweepScheduler(executor="thread", workers=4, budget=WorkerBudget(4)).scope() as pool:
            assert pool.max_workers == 4
        with SweepScheduler(executor=None, budget=1).scope() as pool:
            assert pool.name == "serial"

    def test_invalid_request_fails_at_construction(self):
        with pytest.raises(ValidationError, match="exceeds the worker budget"):
            SweepScheduler(executor="process", workers=9, budget=2)
        with pytest.raises(ValidationError, match="exceeds the worker budget of 2"):
            SweepScheduler(executor="process", workers=3, budget=2)
        with pytest.raises(ValidationError, match="exceeds the worker budget of 4"):
            SweepScheduler(executor="thread", workers=5, budget=WorkerBudget(4))

    def test_accepts_executor_instances(self, tmp_path):
        chaos = FaultInjectingExecutor(
            SerialExecutor(), FaultPlan(), tmp_path
        )
        scheduler = SweepScheduler(executor=chaos, budget=4)
        assert scheduler.plan.executor == "chaos-serial"
        with scheduler.scope() as pool:
            assert pool is chaos  # instances stay caller-owned

    def test_plan_lands_in_the_sweep_snapshot(self):
        scheduler = SweepScheduler(executor="serial", budget=3)
        sweep = ParameterSweep(_pure_runner, {"x": [1, 2, 3]})
        result = sweep.run(scheduler=scheduler, snapshot=None, progress=lambda line: None)
        assert result.snapshot is not None
        assert result.snapshot.plan == scheduler.plan.to_dict()
        assert result.snapshot.is_converged()
        assert [row["y"] for row in result.rows] == [1, 4, 9]

    def test_scheduler_and_executor_are_mutually_exclusive(self):
        sweep = ParameterSweep(_pure_runner, {"x": [1]})
        with pytest.raises(Exception, match="not both"):
            sweep.run(scheduler=SweepScheduler(budget=1), executor="thread")
