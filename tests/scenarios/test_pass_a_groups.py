"""The properties Pass A groups rest on: ``pass_b`` is pure, the key is exact.

A sweep runs ``build_sites``, ``FleetSimulation.pass_a`` and the latency
probe once per :meth:`ScenarioSpec.pass_a_key` and replays every cell of the
group through ``pass_b``.  That is bitwise-identical to running each cell
alone only if

* ``pass_b`` mutates neither the Pass A record nor any cohort's state, under
  every dispatch a cell can ask for, and the probe reads the same sites
  whether or not a ``pass_b`` ran before it; and
* every spec field the key leaves out (:data:`PASS_B_ONLY_FIELDS`) really is
  invisible to the group stage, while the fields Pass A reads move the key.

The field list is checked leaf by leaf against the spec's own schema, so a
new field under an excluded block fails here until it is shown to be
Pass-B-only.
"""

import hashlib

import numpy as np
import pytest

from repro.fleet.dispatch import CarbonBufferDispatch
from repro.fleet.scheduler import FleetSimulation
from repro.forecast.models import forecast_model_by_name
from repro.scenarios import PassAGroup, ScenarioRunner, get_scenario
from repro.scenarios.spec import PASS_B_ONLY_FIELDS


def _base_spec(sampler="device"):
    """A small noisy-forecast fleet whose churn moves within three days."""
    return get_scenario("forecast-buffer").with_overrides(
        {
            "duration_days": 3,
            "sites.0.devices.count": 12,
            "sites.1.devices.count": 12,
            "routing.latency_probe_s": 0.3,
            "forecast.model": "noisy",
            "forecast.noise_sigma": 0.3,
            "churn.annual_failure_rate": 20.0,
            "churn.sampler": sampler,
        }
    )


def _record_digest(record) -> str:
    """SHA-256 over every array (dtype, shape, bytes) of a Pass A record."""
    sha = hashlib.sha256(repr(record.n_days).encode())
    for name, value in sorted(vars(record).items()):
        if isinstance(value, np.ndarray):
            sha.update(f"{name}{value.dtype.str}{value.shape}".encode())
            sha.update(np.ascontiguousarray(value).tobytes())
    return sha.hexdigest()


def _cohorts_digest(sites) -> str:
    """SHA-256 over every cohort's live state rows, counters and RNG state."""
    sha = hashlib.sha256()
    for site in sites:
        for entry in site.cohorts:
            cohort = entry.cohort
            for name in cohort._COLUMNS:
                sha.update(np.ascontiguousarray(getattr(cohort, name)[: cohort._n]))
            sha.update(
                repr(
                    (
                        cohort.active_count,
                        cohort.day,
                        cohort.spares,
                        cohort.total_deployed,
                        cohort.total_failures,
                        cohort._rng.bit_generator.state,
                    )
                ).encode()
            )
    return sha.hexdigest()


def _group_stage(spec):
    """``(sites, record, latency)`` of the spec's group stage.

    Exactly the stages :class:`PassAGroup` runs for a sweep's first cell.
    """
    runner = ScenarioRunner(spec)
    group = PassAGroup(spec)
    sites = group.sites(runner)
    simulation = FleetSimulation(sites, group.policy, runner.build_demand())
    record = group.record(simulation, spec.duration_days)
    return sites, record, group.latency(runner, sites)


class TestPassBIsPure:
    @pytest.mark.parametrize("sampler", ["device", "bucket"])
    def test_pass_b_leaves_record_cohorts_and_probe_unchanged(self, sampler):
        spec = _base_spec(sampler)
        runner = ScenarioRunner(spec)
        group = PassAGroup(spec)
        sites = group.sites(runner)
        demand = runner.build_demand()
        record = group.record(
            FleetSimulation(sites, group.policy, demand), spec.duration_days
        )
        assert record.failures.sum() > 0, "churn must move for the test to bite"
        record_before = _record_digest(record)
        cohorts_before = _cohorts_digest(sites)

        noisy = runner._forecast_dispatch(
            forecast_model_by_name("noisy", noise_sigma=0.3, seed=spec.seed)
        )
        dispatches = {
            "none": None,
            "carbon-buffer": CarbonBufferDispatch(min_state_of_charge=0.25),
            "noisy-forecast": noisy,
        }
        for name, dispatch in dispatches.items():
            FleetSimulation(sites, group.policy, demand, dispatch=dispatch).pass_b(
                record
            )
            assert _record_digest(record) == record_before, name
            assert _cohorts_digest(sites) == cohorts_before, name

        # The probe after three pass_b replays equals one on untouched sites.
        after_pass_b = group.latency(runner, sites)
        _, _, fresh = _group_stage(spec)
        assert after_pass_b is not None
        assert after_pass_b == fresh


#: ``leaf -> overrides`` moving that leaf of an excluded block to another
#: valid value (companion fields keep the spec valid where they must).
PERTURBATIONS = {
    "forecast.model": {"forecast.model": "persistence"},
    "forecast.horizon_h": {"forecast.horizon_h": 36},
    "forecast.noise_sigma": {"forecast.noise_sigma": 0.7},
    "forecast.refresh_h": {"forecast.refresh_h": 12},
    "forecast.csv_path": {"forecast.csv_path": "caiso_dayahead_sample.csv"},
    "forecast.time_col": {"forecast.time_col": "hour"},
    "forecast.intensity_col": {"forecast.intensity_col": "g_per_kwh"},
    "charging.policy": {
        "charging.policy": "none",
        "charging.coupling": "none",
        "forecast.model": "none",
    },
    "charging.min_state_of_charge": {"charging.min_state_of_charge": 0.5},
    "charging.coupling": {"charging.coupling": "estimate", "forecast.model": "none"},
    "economics.enabled": {"economics.enabled": False},
    "economics.electricity_usd_per_kwh": {"economics.electricity_usd_per_kwh": 0.5},
    "economics.battery_replacement_usd": {"economics.battery_replacement_usd": 99.0},
    "economics.battery_swap_labor_min": {"economics.battery_swap_labor_min": 1.0},
    "economics.labor_usd_per_hour": {"economics.labor_usd_per_hour": 1.0},
    "economics.intake_acquisition_usd": {"economics.intake_acquisition_usd": 5.0},
    "execution.audit": {"execution.audit": True},
}


def _leaves(node, prefix=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{prefix}{key}.")
    else:
        yield prefix[:-1]


def _leaf(spec, dotted):
    node = spec.to_dict()
    for part in dotted.split("."):
        node = node[part]
    return node


class TestPassAKey:
    def test_perturbations_cover_every_excluded_leaf(self):
        data = _base_spec().to_dict()
        excluded = {
            leaf
            for block in PASS_B_ONLY_FIELDS
            for leaf in _leaves(data[block], f"{block}.")
        }
        assert excluded == set(PERTURBATIONS)

    def test_excluded_leaves_move_neither_record_nor_probe(self):
        base = _base_spec()
        sites, record, latency = _group_stage(base)
        reference = (_record_digest(record), _cohorts_digest(sites), latency)
        assert latency is not None
        for leaf, overrides in PERTURBATIONS.items():
            perturbed = base.with_overrides(overrides)
            assert _leaf(perturbed, leaf) != _leaf(base, leaf), leaf
            assert perturbed.pass_a_key() == base.pass_a_key(), leaf
            sites, record, latency = _group_stage(perturbed)
            observed = (_record_digest(record), _cohorts_digest(sites), latency)
            assert observed == reference, leaf

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": 5},
            {"duration_days": 4},
            {"demand.fraction_of_capacity": 0.6},
            {"routing.policy": "round-robin"},
            {"churn.annual_failure_rate": 10.0},
        ],
    )
    def test_pass_a_fields_move_the_key(self, overrides):
        base = _base_spec()
        assert base.with_overrides(overrides).pass_a_key() != base.pass_a_key()
