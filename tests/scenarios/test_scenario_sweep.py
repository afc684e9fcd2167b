"""Cartesian scenario sweeps: grid expansion, parsing, and tabulation."""

import itertools

import numpy as np
import pytest

from repro.scenarios import (
    ScenarioRunner,
    ScenarioValidationError,
    parse_sweep_override,
    spec_hash,
    sweep_scenario,
)
from repro.scenarios.spec import (
    DemandSpec,
    DeviceMixSpec,
    RoutingSpec,
    ScenarioSpec,
    SiteSpec,
    TraceSpec,
)


def tiny_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="sweep-tiny",
        sites=(
            SiteSpec(
                name="dirty",
                trace=TraceSpec(kind="constant", intensity_g_per_kwh=600.0, n_days=2),
                devices=DeviceMixSpec(count=5),
            ),
            SiteSpec(
                name="clean",
                trace=TraceSpec(kind="constant", intensity_g_per_kwh=30.0, n_days=2),
                devices=DeviceMixSpec(count=5),
            ),
        ),
        routing=RoutingSpec(policy="round-robin", latency_probe_s=0.0),
        demand=DemandSpec(fraction_of_capacity=0.4),
        duration_days=1,
    )


class TestSweepScenario:
    def test_cartesian_grid_is_fully_expanded(self):
        sweep = sweep_scenario(
            tiny_spec(),
            {
                "routing.policy": ["round-robin", "greedy-lowest-intensity"],
                "demand.fraction_of_capacity": [0.3, 0.6],
            },
        )
        assert len(sweep.cells) == 4
        assert sweep.axis_names == ("routing.policy", "demand.fraction_of_capacity")
        combos = {cell.overrides for cell in sweep.cells}
        assert len(combos) == 4
        for cell in sweep.cells:
            overrides = dict(cell.overrides)
            assert cell.result.spec.routing.policy == overrides["routing.policy"]
            assert cell.result.spec.demand.fraction_of_capacity == pytest.approx(
                overrides["demand.fraction_of_capacity"]
            )

    def test_greedy_wins_the_grid_on_asymmetric_sites(self):
        sweep = sweep_scenario(
            tiny_spec(),
            {"routing.policy": ["round-robin", "greedy-lowest-intensity"]},
        )
        best = sweep.best_cell()
        assert dict(best.overrides)["routing.policy"] == "greedy-lowest-intensity"

    def test_table_has_one_row_per_cell(self):
        sweep = sweep_scenario(
            tiny_spec(), {"duration_days": [1, 2]}
        )
        headers, rows = sweep.table()
        assert headers[0] == "duration_days"
        assert "CCI (g/req)" in headers
        assert len(rows) == 2
        assert rows[0][0] == "1" and rows[1][0] == "2"

    def test_sweep_is_deterministic(self):
        axes = {"routing.policy": ["round-robin", "greedy-lowest-intensity"]}
        first = sweep_scenario(tiny_spec(), axes)
        second = sweep_scenario(tiny_spec(), axes)
        for a, b in zip(first.cells, second.cells):
            assert a.cci_g_per_request == b.cci_g_per_request
            assert np.array_equal(
                a.result.report.served_rps, b.result.report.served_rps
            )

    def test_empty_axes_rejected(self):
        with pytest.raises(ScenarioValidationError, match="at least one"):
            sweep_scenario(tiny_spec(), {})
        with pytest.raises(ScenarioValidationError, match="at least one value"):
            sweep_scenario(tiny_spec(), {"duration_days": []})

    def test_bad_path_fails_fast(self):
        with pytest.raises(ScenarioValidationError, match="duration_dayz"):
            sweep_scenario(tiny_spec(), {"duration_dayz": [1, 2]})

    def test_bad_policy_anywhere_in_grid_fails_before_any_run(self):
        """A typo in the *last* axis value must not waste the earlier cells."""
        with pytest.raises(ScenarioValidationError, match="routing.policy"):
            sweep_scenario(
                tiny_spec(),
                {"routing.policy": ["round-robin", "clairvoyant"]},
            )


class TestParallelSweep:
    AXES = {
        "routing.policy": ["round-robin", "greedy-lowest-intensity"],
        "demand.fraction_of_capacity": [0.3, 0.6],
    }

    def test_parallel_results_are_bitwise_identical_to_serial(self):
        serial = sweep_scenario(tiny_spec(), self.AXES)
        parallel = sweep_scenario(tiny_spec(), self.AXES, jobs=2)
        assert parallel.axes == serial.axes
        for ours, theirs in zip(parallel.cells, serial.cells):
            assert ours.overrides == theirs.overrides
            assert ours.result.spec == theirs.result.spec
            assert ours.cci_g_per_request == theirs.cci_g_per_request
            assert np.array_equal(
                ours.result.report.served_rps, theirs.result.report.served_rps
            )
            assert np.array_equal(
                ours.result.report.operational_g, theirs.result.report.operational_g
            )

    def test_jobs_one_is_the_serial_path(self):
        serial = sweep_scenario(tiny_spec(), {"duration_days": [1, 2]})
        one_job = sweep_scenario(tiny_spec(), {"duration_days": [1, 2]}, jobs=1)
        for ours, theirs in zip(one_job.cells, serial.cells):
            assert ours.cci_g_per_request == theirs.cci_g_per_request

    def test_more_jobs_than_cells_is_fine(self):
        sweep = sweep_scenario(tiny_spec(), {"duration_days": [1, 2]}, jobs=8)
        assert len(sweep.cells) == 2

    def test_duplicate_cells_share_one_simulation(self):
        """Axis values that collapse to the same spec hash equal results."""
        sweep = sweep_scenario(
            tiny_spec(), {"duration_days": [1, 1, 2]}, jobs=2
        )
        assert len(sweep.cells) == 3
        assert spec_hash(sweep.cells[0].result.spec) == spec_hash(
            sweep.cells[1].result.spec
        )
        assert (
            sweep.cells[0].cci_g_per_request == sweep.cells[1].cci_g_per_request
        )

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ScenarioValidationError, match="jobs"):
            sweep_scenario(tiny_spec(), {"duration_days": [1, 2]}, jobs=0)

    def test_spec_hash_is_content_addressed(self):
        assert spec_hash(tiny_spec()) == spec_hash(tiny_spec())
        changed = tiny_spec().with_overrides({"duration_days": 2})
        assert spec_hash(changed) != spec_hash(tiny_spec())


class TestParseSweepOverride:
    def test_comma_separated_values(self):
        key, values = parse_sweep_override("routing.policy=round-robin,marginal-cci")
        assert key == "routing.policy"
        assert values == ["round-robin", "marginal-cci"]

    def test_numeric_values_decode(self):
        key, values = parse_sweep_override("demand.fraction_of_capacity=0.3,0.6")
        assert key == "demand.fraction_of_capacity"
        assert values == [0.3, 0.6]

    def test_single_value_is_one_element_axis(self):
        assert parse_sweep_override("duration_days=2") == ("duration_days", [2])

    def test_json_list_form(self):
        assert parse_sweep_override("duration_days=[1,2,3]") == (
            "duration_days",
            [1, 2, 3],
        )

    def test_quoted_string_keeps_its_commas(self):
        assert parse_sweep_override('sites.0.name="austin,tx"') == (
            "sites.0.name",
            ["austin,tx"],
        )

    def test_missing_equals_rejected(self):
        with pytest.raises(ScenarioValidationError, match="dotted.path"):
            parse_sweep_override("routing.policy")


def _count_group_stages(monkeypatch):
    """Count site builds, Pass A runs and latency probes in this process."""
    from repro.fleet.scheduler import FleetSimulation
    from repro.scenarios import runner

    counts = {"build_sites": 0, "pass_a": 0, "probe": 0}

    def counted(owner, attr, name):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counted(runner.ScenarioRunner, "build_sites", "build_sites")
    counted(FleetSimulation, "pass_a", "pass_a")
    counted(runner, "simulate_latency_aware", "probe")
    return counts


class TestPassAGroups:
    """Cells sharing a Pass A key build sites, run Pass A and probe once."""

    #: The perfbench-shaped grid: forecast noise varies inside a group,
    #: demand level splits the grid into two groups.
    GRID = {
        "forecast.noise_sigma": [0.1, 0.2, 0.3, 0.4],
        "demand.fraction_of_capacity": [0.3, 0.5],
    }

    @staticmethod
    def _forecast_spec(probe_s=0.0):
        from repro.scenarios import get_scenario

        return get_scenario("forecast-buffer").with_overrides(
            {
                "duration_days": 2,
                "sites.0.devices.count": 10,
                "sites.1.devices.count": 10,
                "routing.latency_probe_s": probe_s,
                "forecast.model": "noisy",
                "forecast.noise_sigma": 0.3,
            }
        )

    def _per_cell_runs(self, spec, axes):
        """Each cell run on its own, as a one-cell group, in grid order."""
        return [
            ScenarioRunner(spec.with_overrides(dict(zip(axes, combo)))).run()
            for combo in itertools.product(*axes.values())
        ]

    def test_grouped_cells_are_bitwise_identical_to_per_cell_runs(self):
        axes = {"forecast.noise_sigma": [0.3, 0.6]}
        spec = self._forecast_spec()
        shared = sweep_scenario(spec, axes)
        per_cell = self._per_cell_runs(spec, axes)
        assert len(shared.cells) == len(per_cell)
        for ours, theirs in zip(shared.cells, per_cell):
            assert ours.result.summary_dict() == theirs.summary_dict()
            assert (
                ours.result.report.hindsight_avoided_g
                == theirs.report.hindsight_avoided_g
            )
            assert np.array_equal(
                ours.result.report.battery_kwh, theirs.report.battery_kwh
            )

    def test_grid_runs_one_group_stage_per_pass_a_key(self, monkeypatch):
        """A 4 x 2 sigma x demand grid: 2 site builds, 2 Pass As, 2 probes."""
        counts = _count_group_stages(monkeypatch)
        sweep = sweep_scenario(self._forecast_spec(probe_s=0.2), self.GRID)
        assert len(sweep.cells) == 8
        assert counts == {"build_sites": 2, "pass_a": 2, "probe": 2}

    def test_parallel_grouped_sweep_equals_serial_and_per_cell(self):
        spec = self._forecast_spec(probe_s=0.2)
        serial = sweep_scenario(spec, self.GRID)
        parallel = sweep_scenario(spec, self.GRID, jobs=2)
        from repro.store.serialize import result_to_dict

        for ours, theirs, alone in zip(
            serial.cells,
            parallel.cells,
            self._per_cell_runs(spec, self.GRID),
        ):
            assert ours.overrides == theirs.overrides
            assert result_to_dict(ours.result) == result_to_dict(theirs.result)
            assert result_to_dict(ours.result) == result_to_dict(alone)

    def test_a_group_spans_forecast_models(self, monkeypatch):
        """Perfect and noisy cells share a group; the noisy cell's hindsight
        replay is bitwise the perfect cell's realised figure."""
        counts = _count_group_stages(monkeypatch)
        sweep = sweep_scenario(
            self._forecast_spec(),
            {"forecast.model": ["perfect", "noisy"]},
        )
        assert counts["build_sites"] == 1
        assert counts["pass_a"] == 1
        perfect, noisy = sweep.cells
        assert (
            noisy.result.report.hindsight_avoided_g
            == perfect.result.report.carbon_avoided_g()
        )

    def test_runner_rejects_a_group_of_another_key(self):
        from repro.scenarios import PassAGroup

        spec = self._forecast_spec()
        group = PassAGroup(spec)
        ScenarioRunner(spec.with_overrides({"forecast.noise_sigma": 0.9}), group=group)
        with pytest.raises(ValueError, match="Pass A key"):
            ScenarioRunner(spec.with_overrides({"seed": 5}), group=group)
