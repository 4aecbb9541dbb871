"""Tests for the pluggable execution backends."""

import time

import pytest

from repro.exceptions import TaskTimeoutError, TransientError, ValidationError
from repro.execution import (
    EXECUTOR_NAMES,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    check_executor_name,
    default_max_workers,
    executor_name,
    executor_scope,
    make_executor,
)
from repro.execution.faults import FaultInjectingExecutor, FaultPlan, KillWorkerFault


def test_executor_name_resolves_specs():
    assert executor_name(None) == "serial"
    assert executor_name("process") == "process"
    assert executor_name(SerialExecutor()) == "serial"
    with ThreadExecutor(max_workers=1) as pool:
        assert executor_name(pool) == "thread"
    with pytest.raises(ValidationError):
        executor_name("gpu")


def _square(value):
    """Module-level so the process executor can pickle it."""
    return value * value


def _boom(task):
    raise TransientError(f"boom {task}")


def _sleepy(seconds):
    time.sleep(seconds)
    return seconds


class TestSerialExecutor:
    def test_maps_in_order(self):
        assert SerialExecutor().map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_empty_tasks(self):
        assert SerialExecutor().map(_square, []) == []

    def test_close_is_idempotent(self):
        executor = SerialExecutor()
        executor.close()
        executor.close()
        assert executor.map(_square, [2]) == [4]


@pytest.mark.parametrize("executor_cls", [ThreadExecutor, ProcessExecutor])
class TestPoolExecutors:
    def test_matches_serial_semantics(self, executor_cls):
        tasks = list(range(20))
        expected = SerialExecutor().map(_square, tasks)
        with executor_cls(max_workers=2) as executor:
            assert executor.map(_square, tasks) == expected

    def test_empty_and_single_task(self, executor_cls):
        with executor_cls(max_workers=2) as executor:
            assert executor.map(_square, []) == []
            assert executor.map(_square, [7]) == [49]

    def test_pool_is_lazy_and_closeable(self, executor_cls):
        executor = executor_cls(max_workers=2)
        assert executor._pool is None
        assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert executor._pool is not None
        executor.close()
        assert executor._pool is None
        # Reusable after close: a fresh pool is created on demand.
        assert executor.map(_square, [4, 5]) == [16, 25]
        executor.close()

    def test_invalid_max_workers_rejected(self, executor_cls):
        with pytest.raises(ValidationError):
            executor_cls(max_workers=0)


def test_thread_single_task_skips_pool_dispatch():
    """Threads never pickle, so the inline single-task shortcut is safe."""
    with ThreadExecutor(max_workers=2) as executor:
        assert executor.map(_square, [7]) == [49]
        assert executor._pool is None


def test_process_enforces_picklability_even_for_one_task():
    """No inline shortcut: a non-picklable task must fail at n==1 exactly as
    it would at n==2, not succeed silently until the task count grows."""
    with ProcessExecutor(max_workers=2) as executor:
        with pytest.raises(Exception):  # PicklingError/AttributeError by backend
            executor.map(lambda value: value, [1])


class TestProcessExecutor:
    def test_reusable_across_maps(self):
        with ProcessExecutor(max_workers=2) as pool:
            assert pool.map(_square, [1, 2]) == [1, 4]
            assert pool.map(_square, [3]) == [9]

    def test_task_exception_propagates(self):
        with ProcessExecutor(max_workers=2) as pool:
            with pytest.raises(TransientError, match="boom"):
                pool.map(_boom, [1, 2])

    def test_task_timeout_raises(self):
        with ProcessExecutor(max_workers=2) as pool:
            with pytest.raises(TaskTimeoutError):
                pool.map(_sleepy, [5.0], timeout=0.3)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValidationError):
            ProcessExecutor(max_pool_rebuilds=-1)

    def test_killed_worker_is_recovered_and_announced(self, tmp_path):
        """A SIGKILL'd worker's tasks are resubmitted (results identical to
        serial) and the resubmission is announced through ``on_retry``."""
        plan = FaultPlan({1: (KillWorkerFault(attempts=(1,)),)})
        inner = ProcessExecutor(max_workers=2)
        chaos = FaultInjectingExecutor(inner, plan, tmp_path)
        retried = []
        chaos.on_retry = retried.append
        try:
            assert chaos.map(_square, [3, 4, 5, 6]) == [9, 16, 25, 36]
        finally:
            chaos.close()
        assert chaos.ledger.attempts("map-1", 1) == 2  # killed, then re-ran
        assert any(1 in indices for indices in retried)


class TestFactories:
    def test_default_max_workers_floor(self):
        assert default_max_workers() >= 1

    @pytest.mark.parametrize(
        "spec, expected",
        [
            (None, SerialExecutor),
            ("serial", SerialExecutor),
            ("thread", ThreadExecutor),
            ("process", ProcessExecutor),
        ],
    )
    def test_make_executor_by_name(self, spec, expected):
        executor = make_executor(spec, max_workers=2)
        try:
            assert isinstance(executor, expected)
            assert isinstance(executor, Executor)
        finally:
            executor.close()

    def test_make_executor_passes_instances_through(self):
        instance = SerialExecutor()
        assert make_executor(instance) is instance

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            make_executor("gpu")
        with pytest.raises(ValidationError):
            check_executor_name("gpu")

    def test_names_are_checkable(self):
        for name in EXECUTOR_NAMES:
            assert check_executor_name(name) == name


class TestExecutorScope:
    def test_scope_closes_pool_it_created(self):
        with executor_scope("thread", max_workers=2) as executor:
            assert executor.map(_square, [1, 2]) == [1, 4]
            assert executor._pool is not None
        assert executor._pool is None

    def test_scope_leaves_caller_owned_instance_open(self):
        owned = ThreadExecutor(max_workers=2)
        try:
            owned.map(_square, [1, 2])
            with executor_scope(owned) as executor:
                assert executor is owned
            # Still open: the caller owns the lifecycle.
            assert owned._pool is not None
            assert owned.map(_square, [3]) == [9]
        finally:
            owned.close()

    def test_scope_defaults_to_serial(self):
        with executor_scope(None) as executor:
            assert isinstance(executor, SerialExecutor)


def test_scope_closes_pool_on_exception_exit():
    """A failure inside the scope still closes the pool it created."""
    with pytest.raises(RuntimeError, match="boom"):
        with executor_scope("thread", max_workers=2) as executor:
            executor.map(_square, [1, 2])
            assert executor._pool is not None
            raise RuntimeError("boom")
    assert executor._pool is None
