"""Store-backed sweeps: cache hits, resumability, bitwise identity.

The acceptance bar for the experiment store: re-running an identical sweep
against a warmed store simulates **zero** cells (proven both by counting
:meth:`ScenarioRunner.run` invocations and by the ``store.*`` telemetry
counters), and a sweep interrupted mid-grid resumes to results
bitwise-identical to an uninterrupted run — serially and with ``--jobs 2``.
"""

import dataclasses

import numpy as np
import pytest

from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.sweep import sweep_scenario
from repro.store import ExperimentStore
from repro.telemetry import Telemetry

FAST = {"duration_days": 2, "routing.latency_probe_s": 0.0}

#: A 4-cell grid of one Pass A group: perfect and noisy cells replay one
#: Pass A, so a store hit and a simulated cell can share a group.
FORECAST_AXES = {
    "forecast.model": ["perfect", "noisy"],
    "forecast.noise_sigma": [0.1, 0.3],
}

PLAIN_AXES = {"demand.fraction_of_capacity": [0.3, 0.6]}


def _spec(name="carbon-buffer"):
    return get_scenario(name).with_overrides(FAST)


def _assert_sweeps_identical(first, second):
    assert first.axes == second.axes
    assert len(first.cells) == len(second.cells)
    for a, b in zip(first.cells, second.cells):
        assert a.overrides == b.overrides
        assert b.result.spec == a.result.spec
        for field in dataclasses.fields(a.result.report):
            x = getattr(a.result.report, field.name)
            y = getattr(b.result.report, field.name)
            if isinstance(x, np.ndarray):
                assert np.array_equal(x, y), f"report field {field.name} differs"
            else:
                assert x == y, f"report field {field.name} differs"
        assert b.result.site_costs == a.result.site_costs
        assert b.result.latency == a.result.latency
        assert b.result.charging_savings == a.result.charging_savings
        assert b.result.summary_dict() == a.result.summary_dict()


def _count_runs(monkeypatch):
    """Patch ScenarioRunner.run to count invocations in this process."""
    calls = []
    original = ScenarioRunner.run

    def counted(self):
        calls.append(self.spec.sha256())
        return original(self)

    monkeypatch.setattr(ScenarioRunner, "run", counted)
    return calls


@pytest.mark.parametrize("jobs", [None, 2])
def test_second_pass_simulates_zero_cells(tmp_path, monkeypatch, jobs):
    spec = _spec()
    store = ExperimentStore(str(tmp_path / "es"))
    t1 = Telemetry()
    first = sweep_scenario(spec, PLAIN_AXES, jobs=jobs, telemetry=t1, store=store)
    assert t1.counters["store.misses"] == 2
    assert t1.counters["store.writes"] == 2
    assert t1.counters["store.hits"] == 0

    calls = _count_runs(monkeypatch)
    t2 = Telemetry()
    second = sweep_scenario(spec, PLAIN_AXES, jobs=jobs, telemetry=t2, store=store)
    assert calls == []  # zero simulations, in-process or pooled
    assert t2.counters["store.hits"] == 2
    assert t2.counters["store.misses"] == 0
    assert "store.writes" not in t2.counters or t2.counters["store.writes"] == 0
    _assert_sweeps_identical(first, second)


@pytest.mark.parametrize("jobs", [None, 2])
def test_second_pass_of_a_forecast_grid_simulates_zero_cells(
    tmp_path, monkeypatch, jobs
):
    spec = _spec("forecast-buffer")
    store = ExperimentStore(str(tmp_path / "es"))
    first = sweep_scenario(spec, FORECAST_AXES, jobs=jobs, store=store)

    calls = _count_runs(monkeypatch)
    t2 = Telemetry()
    second = sweep_scenario(spec, FORECAST_AXES, jobs=jobs, telemetry=t2, store=store)
    assert calls == []
    assert t2.counters["store.hits"] == 4
    assert t2.counters["store.misses"] == 0
    _assert_sweeps_identical(first, second)


def test_store_backed_sweep_matches_storeless_sweep(tmp_path):
    spec = _spec("forecast-buffer")
    reference = sweep_scenario(spec, FORECAST_AXES)
    store = ExperimentStore(str(tmp_path / "es"))
    populated = sweep_scenario(spec, FORECAST_AXES, store=store)
    cached = sweep_scenario(spec, FORECAST_AXES, store=store)
    _assert_sweeps_identical(reference, populated)
    _assert_sweeps_identical(reference, cached)


def test_interrupted_serial_sweep_resumes_bitwise_identical(tmp_path, monkeypatch):
    spec = _spec()
    axes = {"demand.fraction_of_capacity": [0.3, 0.5, 0.7]}
    reference = sweep_scenario(spec, axes)

    store = ExperimentStore(str(tmp_path / "es"))

    class Interrupted(RuntimeError):
        pass

    state = {"budget": 2}
    original = ScenarioRunner.run

    def failing(self):
        if state["budget"] == 0:
            raise Interrupted("simulated crash mid-grid")
        state["budget"] -= 1
        return original(self)

    monkeypatch.setattr(ScenarioRunner, "run", failing)
    with pytest.raises(Interrupted):
        sweep_scenario(spec, axes, store=store)
    monkeypatch.setattr(ScenarioRunner, "run", original)

    # The two completed cells were checkpointed before the crash.
    assert len(store) == 2

    # Resume un-instrumented (the reference is too — the embedded telemetry
    # snapshot would otherwise differ); counting runs proves only the
    # missing cell simulated, len(store) that it persisted.
    calls = _count_runs(monkeypatch)
    resumed = sweep_scenario(spec, axes, store=store)
    assert len(calls) == 1
    assert len(store) == 3
    _assert_sweeps_identical(reference, resumed)


def test_interrupted_parallel_sweep_resumes_bitwise_identical(tmp_path):
    spec = _spec("forecast-buffer")
    reference = sweep_scenario(spec, FORECAST_AXES)

    # Interruption-equivalent state for a pool sweep: only part of the grid
    # was persisted before the "crash" (checkpointing is per completed cell
    # in the parent, so any kill leaves exactly some prefix of entries).
    store = ExperimentStore(str(tmp_path / "es"))
    sweep_scenario(
        spec,
        {"forecast.model": ["noisy"], "forecast.noise_sigma": [0.3]},
        store=store,
    )
    partial = len(store)
    assert partial >= 1

    resumed = sweep_scenario(spec, FORECAST_AXES, jobs=2, store=store)
    assert len(store) > partial  # the missing cells were persisted
    _assert_sweeps_identical(reference, resumed)


def test_half_stored_group_simulates_only_pending_cells(tmp_path, monkeypatch):
    """A resumed group runs Pass A once for its pending cells only."""
    from repro.fleet.scheduler import FleetSimulation

    spec = _spec("forecast-buffer")
    store = ExperimentStore(str(tmp_path / "es"))
    # Instrumented throughout, so every stored and fresh result carries the
    # telemetry snapshot the reference's cells do.
    sweep_scenario(
        spec,
        {"forecast.model": ["noisy"], "forecast.noise_sigma": [0.1]},
        telemetry=Telemetry(),
        store=store,
    )
    assert len(store) == 1  # the noisy cell alone: no twin entries

    calls = _count_runs(monkeypatch)
    pass_a = []
    original = FleetSimulation.pass_a

    def counted(self, n_days):
        pass_a.append(n_days)
        return original(self, n_days)

    monkeypatch.setattr(FleetSimulation, "pass_a", counted)
    telemetry = Telemetry()
    axes = {"forecast.model": ["noisy"], "forecast.noise_sigma": [0.1, 0.2, 0.3]}
    resumed = sweep_scenario(spec, axes, telemetry=telemetry, store=store)
    assert telemetry.counters["store.hits"] == 1
    assert telemetry.counters["sweep.pass_a_groups"] == 1
    assert len(calls) == 2  # only the two pending cells simulated
    assert len(pass_a) == 1  # over one Pass A
    assert len(store) == 3
    monkeypatch.undo()
    reference = sweep_scenario(spec, axes, telemetry=Telemetry())
    _assert_sweeps_identical(reference, resumed)


def test_store_counters_absent_without_a_store(tmp_path):
    telemetry = Telemetry()
    sweep_scenario(_spec(), PLAIN_AXES, telemetry=telemetry)
    assert not any(key.startswith("store.") for key in telemetry.counters)


def test_sweep_manifests_are_persisted_for_instrumented_runs(tmp_path):
    store = ExperimentStore(str(tmp_path / "es"))
    sweep_scenario(_spec(), PLAIN_AXES, telemetry=Telemetry(), store=store)
    entries = list(store.entries())
    assert entries and all(entry.manifest is not None for entry in entries)
    assert all(
        entry.manifest["schema"] == "repro-telemetry/1" for entry in entries
    )
