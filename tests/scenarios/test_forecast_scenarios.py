"""Forecast wiring through the scenario layer: spec, runner, regret."""

import numpy as np
import pytest

from repro.scenarios import (
    ForecastSpec,
    ScenarioRunner,
    ScenarioSpec,
    ScenarioValidationError,
    get_scenario,
)


def small_forecast_spec(**forecast_overrides) -> ScenarioSpec:
    overrides = {
        "duration_days": 4,
        "sites.0.devices.count": 15,
        "sites.1.devices.count": 15,
        "sites.0.trace.n_days": 4,
        "sites.1.trace.n_days": 4,
        "routing.latency_probe_s": 0,
    }
    overrides.update(forecast_overrides)
    return get_scenario("forecast-buffer").with_overrides(overrides)


class TestForecastSpec:
    def test_defaults_are_off(self):
        spec = ForecastSpec()
        assert spec.model == "none"
        assert spec.horizon_h == 24
        assert spec.refresh_h == 24

    def test_unknown_model_rejected(self):
        with pytest.raises(ScenarioValidationError, match="model"):
            ForecastSpec(model="clairvoyant")

    def test_bad_horizon_and_refresh_rejected(self):
        with pytest.raises(ScenarioValidationError, match="horizon_h"):
            ForecastSpec(model="perfect", horizon_h=0)
        with pytest.raises(ScenarioValidationError, match="refresh_h"):
            ForecastSpec(model="perfect", horizon_h=12, refresh_h=24)
        with pytest.raises(ScenarioValidationError, match="noise_sigma"):
            ForecastSpec(model="noisy", noise_sigma=-0.5)

    def test_forecast_requires_dispatch_coupling(self):
        base = get_scenario("forecast-buffer")
        with pytest.raises(ScenarioValidationError, match="coupling"):
            base.with_overrides({"charging.coupling": "none"})
        with pytest.raises(ScenarioValidationError, match="coupling"):
            base.with_overrides({"charging.coupling": "estimate"})

    def test_preset_round_trips(self):
        spec = get_scenario("forecast-buffer")
        assert spec.forecast.model == "perfect"
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_dotted_overrides_reach_the_forecast(self):
        spec = get_scenario("forecast-buffer").with_overrides(
            {"forecast.model": "noisy", "forecast.noise_sigma": 0.3,
             "forecast.horizon_h": 36, "forecast.refresh_h": 12}
        )
        assert spec.forecast == ForecastSpec(
            model="noisy", noise_sigma=0.3, horizon_h=36, refresh_h=12
        )


class TestForecastRunner:
    @pytest.fixture(scope="class")
    def results(self):
        return {
            "heuristic": ScenarioRunner(
                small_forecast_spec(**{"forecast.model": "none"})
            ).run(),
            "perfect": ScenarioRunner(small_forecast_spec()).run(),
            "persistence": ScenarioRunner(
                small_forecast_spec(**{"forecast.model": "persistence"})
            ).run(),
            "noisy": ScenarioRunner(
                small_forecast_spec(
                    **{"forecast.model": "noisy", "forecast.noise_sigma": 0.4}
                )
            ).run(),
        }

    def test_forecast_model_is_reported(self, results):
        assert results["heuristic"].forecast_model == "none"
        assert results["perfect"].forecast_model == "perfect"
        assert results["noisy"].forecast_model == "noisy"

    def test_perfect_beats_or_matches_the_heuristic(self, results):
        assert (
            results["perfect"].carbon_avoided_g
            >= results["heuristic"].carbon_avoided_g
        )

    def test_regret_is_zero_under_the_perfect_forecast(self, results):
        assert results["perfect"].regret_g == 0.0
        assert results["perfect"].hindsight_carbon_avoided_g == pytest.approx(
            results["perfect"].carbon_avoided_g
        )

    def test_regret_is_non_negative_everywhere(self, results):
        for result in results.values():
            assert result.regret_g >= 0.0

    def test_hindsight_matches_the_perfect_run(self, results):
        """The regret baseline is the perfect-forecast run of the same scenario."""
        assert results["noisy"].hindsight_carbon_avoided_g == pytest.approx(
            results["perfect"].carbon_avoided_g
        )
        assert results["persistence"].hindsight_carbon_avoided_g == pytest.approx(
            results["perfect"].carbon_avoided_g
        )

    def test_heuristic_run_has_no_regret_accounting(self, results):
        assert results["heuristic"].hindsight_carbon_avoided_g is None
        assert results["heuristic"].regret_g == 0.0

    def test_summary_includes_forecast_fields(self, results):
        summary = results["noisy"].summary_dict()
        assert summary["forecast_model"] == "noisy"
        assert summary["forecast_regret_kg"] >= 0.0
        assert "forecast_model" not in results["heuristic"].summary_dict()

    def test_runs_are_deterministic(self):
        spec = small_forecast_spec(
            **{"forecast.model": "noisy", "forecast.noise_sigma": 0.2}
        )
        first = ScenarioRunner(spec).run()
        second = ScenarioRunner(spec).run()
        assert np.array_equal(first.report.battery_kwh, second.report.battery_kwh)
        assert first.regret_g == second.regret_g


@pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("seed", [0, 3])
def test_property_regret_non_negative_under_noise(sigma, seed):
    """Property: whatever the noise draws, regret never goes negative."""
    result = ScenarioRunner(
        small_forecast_spec(
            **{"forecast.model": "noisy", "forecast.noise_sigma": sigma,
               "seed": seed}
        )
    ).run()
    assert result.regret_g >= 0.0
    assert result.hindsight_carbon_avoided_g is not None
