"""Energy-dispatch core: ledger physics, conservation, and determinism."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.fleet import (
    CarbonBufferDispatch,
    DiurnalDemand,
    EnergyLedger,
    FleetSimulation,
    GreedyLowestIntensityRouting,
    GridOnlyDispatch,
    RoundRobinRouting,
    two_site_asymmetric_fleet,
)
from repro.charging import threshold_from_intensities
from repro.fleet import dispatch as dispatch_module
from repro.fleet.dispatch import (
    DISPATCH_CHARGE,
    DISPATCH_DISCHARGE,
    DISPATCH_HOLD,
    LEDGER_CHUNK_ROWS,
)
from repro.fleet.sites import DEFAULT_REQUESTS_PER_DEVICE_S, mixed_phone_site

N_DEVICES = 20
N_DAYS = 7

DEMAND = DiurnalDemand(mean_rps=0.7 * N_DEVICES * DEFAULT_REQUESTS_PER_DEVICE_S)


def _run(dispatch, seed: int = 6, policy=None):
    sites = two_site_asymmetric_fleet(N_DEVICES, seed=seed, n_trace_days=7)
    policy = policy or GreedyLowestIntensityRouting()
    return FleetSimulation(sites, policy, DEMAND, dispatch=dispatch).run(N_DAYS)


@pytest.fixture(scope="module")
def reports():
    """The same fleet with and without the battery ledger in the loop."""
    return {
        "none": _run(None),
        "dispatch": _run(CarbonBufferDispatch()),
    }


# ---------------------------------------------------------------------------
# Energy conservation and SoC bounds (acceptance criteria)
# ---------------------------------------------------------------------------


class TestConservation:
    def test_served_energy_is_grid_plus_battery(self, reports):
        """Per site and hour: energy served == grid serving + battery discharge.

        The undispatched run integrates exactly the energy the sites need
        (same seeds => identical allocation and churn), so it is the
        independent ground truth for the dispatched run's split.
        """
        served_energy = reports["none"].energy_kwh
        dispatched = reports["dispatch"]
        assert np.allclose(
            served_energy, dispatched.grid_kwh + dispatched.battery_kwh
        )

    def test_wall_energy_is_grid_plus_charge(self, reports):
        report = reports["dispatch"]
        assert np.allclose(report.energy_kwh, report.grid_kwh + report.charge_kwh)

    def test_operational_carbon_follows_wall_energy(self, reports):
        report = reports["dispatch"]
        assert np.allclose(
            report.operational_g, report.energy_kwh * report.intensity_g_per_kwh
        )

    def test_soc_stays_within_floor_and_full(self, reports):
        soc = reports["dispatch"].soc
        assert np.all(soc >= CarbonBufferDispatch().min_state_of_charge - 1e-9)
        assert np.all(soc <= 1.0 + 1e-9)

    def test_charge_and_discharge_never_simultaneous(self, reports):
        report = reports["dispatch"]
        assert not np.any((report.battery_kwh > 0) & (report.charge_kwh > 0))

    def test_soc_change_matches_throughput(self, reports):
        """Integrated charge minus discharge equals the SoC trajectory."""
        report = reports["dispatch"]
        sites = two_site_asymmetric_fleet(N_DEVICES, seed=6, n_trace_days=7)
        # Device counts were stable in this short run (availability 1.0), so
        # a constant capacity reconstruction is exact.
        assert np.all(report.active_devices == N_DEVICES)
        for j, site in enumerate(sites):
            capacity_kwh = site.battery_capacity_j / 3.6e6
            delta = (
                report.charge_kwh[:, j] - report.battery_kwh[:, j]
            ).cumsum() / capacity_kwh
            assert np.allclose(report.soc[:, j], 1.0 + delta)


# ---------------------------------------------------------------------------
# Dispatch pays off and stays deterministic
# ---------------------------------------------------------------------------


class TestCarbonBuffer:
    def test_dispatch_cycles_the_batteries(self, reports):
        report = reports["dispatch"]
        assert report.total_battery_discharge_kwh > 0
        assert report.total_charge_kwh > 0

    def test_dispatch_never_increases_operational_carbon(self, reports):
        assert (
            reports["dispatch"].total_operational_carbon_g
            <= reports["none"].total_operational_carbon_g
        )

    def test_avoided_carbon_matches_the_ledgers(self, reports):
        avoided = reports["dispatch"].carbon_avoided_g()
        assert avoided > 0
        assert avoided == pytest.approx(
            reports["none"].total_operational_carbon_g
            - reports["dispatch"].total_operational_carbon_g
        )

    def test_realised_savings_per_site_are_positive(self, reports):
        savings = reports["dispatch"].realised_charging_savings()
        assert set(savings) == {"texas", "cascadia"}
        assert all(value > 0 for value in savings.values())

    def test_dispatch_is_deterministic(self):
        first = _run(CarbonBufferDispatch(), seed=9)
        second = _run(CarbonBufferDispatch(), seed=9)
        assert np.array_equal(first.battery_kwh, second.battery_kwh)
        assert np.array_equal(first.charge_kwh, second.charge_kwh)
        assert np.array_equal(first.soc, second.soc)
        assert first.fleet_cci_g_per_request() == second.fleet_cci_g_per_request()

    def test_first_day_is_hold(self, reports):
        """No previous-day trace => no thresholds => ledger untouched."""
        report = reports["dispatch"]
        assert np.all(report.battery_kwh[:24] == 0)
        assert np.all(report.charge_kwh[:24] == 0)
        assert np.all(report.soc[:24] == 1.0)

    def test_grid_only_dispatch_matches_no_dispatch(self, reports):
        grid_only = _run(GridOnlyDispatch())
        baseline = reports["none"]
        assert np.allclose(grid_only.operational_g, baseline.operational_g)
        assert np.all(grid_only.battery_kwh == 0)
        assert np.all(grid_only.soc == 1.0)

    def test_undispatched_report_has_degenerate_series(self, reports):
        report = reports["none"]
        assert np.allclose(report.grid_kwh, report.energy_kwh)
        assert np.all(report.battery_kwh == 0)
        assert np.all(report.charge_kwh == 0)
        assert np.all(report.soc == 1.0)
        assert report.realised_charging_savings() == {
            "texas": 0.0,
            "cascadia": 0.0,
        }


# ---------------------------------------------------------------------------
# Ledger unit physics
# ---------------------------------------------------------------------------


class TestEnergyLedger:
    @pytest.fixture()
    def site(self):
        return two_site_asymmetric_fleet(5, seed=1, n_trace_days=2)[0]

    def test_discharge_stops_at_the_floor(self, site):
        ledger = EnergyLedger([site], min_state_of_charge=0.25)
        capacity_j, rate_w = ledger.day_capabilities()
        huge = np.array([10.0 * capacity_j[0]])
        battery_j, charge_j = ledger.step(
            np.array([DISPATCH_DISCHARGE]), huge, 3600.0, capacity_j, rate_w,
            np.array([1.0]),
        )
        assert charge_j[0] == 0.0
        assert battery_j[0] == pytest.approx(0.75 * capacity_j[0])
        assert ledger.soc[0] == pytest.approx(0.25)

    def test_forced_charge_below_the_floor(self, site):
        ledger = EnergyLedger([site], min_state_of_charge=0.25, initial_soc=0.25)
        ledger.soc[:] = 0.10  # knocked below the floor (e.g. capacity shift)
        capacity_j, rate_w = ledger.day_capabilities()
        battery_j, charge_j = ledger.step(
            np.array([DISPATCH_DISCHARGE]), np.array([1.0]), 3600.0,
            capacity_j, rate_w, np.array([1.0]),
        )
        assert battery_j[0] == 0.0
        assert charge_j[0] > 0.0
        assert ledger.soc[0] > 0.10

    def test_charge_stops_at_full(self, site):
        ledger = EnergyLedger([site])
        capacity_j, rate_w = ledger.day_capabilities()
        battery_j, charge_j = ledger.step(
            np.array([DISPATCH_CHARGE]), np.array([0.0]), 3600.0,
            capacity_j, rate_w, np.array([1.0]),
        )
        assert charge_j[0] == 0.0
        assert ledger.soc[0] == 1.0

    def test_charge_is_limited_by_idle_headroom(self, site):
        # A step short enough that the (idle-scaled) charge rate binds
        # rather than the pack's remaining headroom.
        step_s = 600.0
        ledger = EnergyLedger([site], initial_soc=0.5)
        capacity_j, rate_w = ledger.day_capabilities()
        assert rate_w[0] * step_s < 0.5 * capacity_j[0]
        _, busy = ledger.step(
            np.array([DISPATCH_CHARGE]), np.array([0.0]), step_s,
            capacity_j, rate_w, np.array([0.25]),
        )
        ledger.soc[:] = 0.5
        _, idle = ledger.step(
            np.array([DISPATCH_CHARGE]), np.array([0.0]), step_s,
            capacity_j, rate_w, np.array([1.0]),
        )
        assert idle[0] == pytest.approx(rate_w[0] * step_s)
        assert busy[0] == pytest.approx(idle[0] * 0.25)

    def test_hold_leaves_the_ledger_untouched(self, site):
        ledger = EnergyLedger([site], initial_soc=0.6)
        capacity_j, rate_w = ledger.day_capabilities()
        battery_j, charge_j = ledger.step(
            np.array([DISPATCH_HOLD]), np.array([5.0]), 3600.0,
            capacity_j, rate_w, np.array([1.0]),
        )
        assert battery_j[0] == 0.0 and charge_j[0] == 0.0
        assert ledger.soc[0] == pytest.approx(0.6)

    def test_validation(self, site):
        with pytest.raises(ValueError):
            EnergyLedger([site], min_state_of_charge=1.5)
        with pytest.raises(ValueError):
            EnergyLedger([site], initial_soc=0.1, min_state_of_charge=0.25)
        with pytest.raises(ValueError):
            CarbonBufferDispatch(min_state_of_charge=-0.1)
        with pytest.raises(ValueError):
            CarbonBufferDispatch(percentile_margin=-1.0)
        with pytest.raises(ValueError):
            CarbonBufferDispatch(fixed_percentile=101.0)


# ---------------------------------------------------------------------------
# step_block == a fold of step (property)
# ---------------------------------------------------------------------------

#: Packs of the property-test ledger: two battery-backed device types and
#: one battery-less one.
N_PACKS = 3
STEP_S = 3600.0


@pytest.fixture(scope="module")
def mixed_site():
    from repro.devices.catalog import NEXUS_4, PIXEL_3A

    no_battery = dataclasses.replace(
        PIXEL_3A, name="Pixel 3a (no battery)", battery=None
    )
    return mixed_phone_site(
        "mixed",
        "caiso-like",
        [(PIXEL_3A, 4), (NEXUS_4, 3), (no_battery, 2)],
        n_trace_days=1,
    )


@st.composite
def ledger_blocks(draw):
    """One ``step_block`` input: per-row capabilities, modes, entry SoC, chunk.

    A *gentle* column moves at most a few joules per hour against a pack of
    at least 10 kJ from a mid-range SoC, so no bound binds.  Every other
    column draws energies up to thousands of times its capacity,
    zero-capacity rows and entry SoCs below the floor, so it clips.  The
    drawn chunk size is what ``step_block`` runs with: small chunks put
    chunk edges inside short blocks.
    """
    n_rows = draw(st.integers(min_value=1, max_value=48))
    chunk_rows = draw(st.sampled_from([1, 5, LEDGER_CHUNK_ROWS]))
    shape = (n_rows, N_PACKS)

    def unit(size=shape):
        return draw(arrays(np.float64, size, elements=st.floats(0.0, 1.0)))

    gentle = np.array(draw(st.lists(st.booleans(), min_size=N_PACKS, max_size=N_PACKS)))
    modes = draw(
        arrays(
            np.int8,
            shape,
            elements=st.sampled_from(
                [DISPATCH_CHARGE, DISPATCH_HOLD, DISPATCH_DISCHARGE]
            ),
        )
    )
    capacity_j = 1e4 + unit() * 1e7
    capacity_j[draw(arrays(np.bool_, shape)) & ~gentle] = 0.0
    charge_rate_w = np.where(gentle, 1e-3, 5e3) * unit()
    device_j = np.where(gentle, 1.0, 2e7) * unit()
    idle_fraction = -0.1 + 1.2 * unit()
    # Violent columns enter anywhere in [0, 1], often just under the floor.
    entry = np.array(
        draw(
            st.lists(
                st.floats(0.0, 1.0) | st.floats(0.2, 0.25, exclude_max=True),
                min_size=N_PACKS,
                max_size=N_PACKS,
            )
        )
    )
    soc = np.where(gentle, 0.4 + 0.2 * entry, entry)
    return modes, device_j, capacity_j, charge_rate_w, idle_fraction, soc, chunk_rows


def _chunk_edge_block():
    """A 1,100-row block (over two chunks) that clips around each chunk edge.

    Packs hold between edges.  On the rows around each edge the two
    battery-backed packs drain to the floor, refill to full, and overshoot
    both bounds; the Nexus pack also loses its capacity for two rows right
    at the edge.  The third pack has no battery.
    """
    n_rows = 1_100
    modes = np.full((n_rows, N_PACKS), DISPATCH_HOLD, dtype=np.int8)
    capacity_j = np.full((n_rows, N_PACKS), 1e5)
    for edge in (LEDGER_CHUNK_ROWS, 2 * LEDGER_CHUNK_ROWS):
        around = np.arange(edge - 4, edge + 4)
        modes[around] = np.where(
            (around % 2 == 0)[:, None], DISPATCH_DISCHARGE, DISPATCH_CHARGE
        )
        capacity_j[edge - 1 : edge + 1, 1] = 0.0
    return (
        modes,
        np.full((n_rows, N_PACKS), 1e9),
        capacity_j,
        np.full((n_rows, N_PACKS), 1e4),
        np.full((n_rows, N_PACKS), 1.1),
        np.array([0.24, 0.99, 0.5]),
        LEDGER_CHUNK_ROWS,
    )


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


class TestStepBlockMatchesStepFold:
    """``EnergyLedger.step_block`` is bitwise a left fold of ``step``."""

    @settings(max_examples=150, deadline=None)
    @given(ledger_blocks())
    @example(  # no bound binds on any column
        (
            np.full((24, N_PACKS), DISPATCH_DISCHARGE, dtype=np.int8),
            np.full((24, N_PACKS), 0.5),
            np.full((24, N_PACKS), 1e5),
            np.full((24, N_PACKS), 1e-3),
            np.full((24, N_PACKS), 0.5),
            np.full(N_PACKS, 0.5),
            LEDGER_CHUNK_ROWS,
        )
    )
    @example(  # every column clips: floor, full pack, forced recharge
        (
            np.array(
                [[DISPATCH_DISCHARGE] * N_PACKS, [DISPATCH_CHARGE] * N_PACKS] * 6,
                dtype=np.int8,
            ),
            np.full((12, N_PACKS), 1e9),
            np.full((12, N_PACKS), 1e5),
            np.full((12, N_PACKS), 1e4),
            np.full((12, N_PACKS), 1.1),
            np.array([0.24, 0.99, 0.5]),
            LEDGER_CHUNK_ROWS,
        )
    )
    @example(_chunk_edge_block())
    def test_step_block_equals_fold_of_step(self, mixed_site, block):
        (
            modes,
            device_j,
            capacity_j,
            charge_rate_w,
            idle_fraction,
            soc,
            chunk_rows,
        ) = block
        blocked = EnergyLedger([mixed_site], min_state_of_charge=0.25)
        folded = EnergyLedger([mixed_site], min_state_of_charge=0.25)
        blocked.soc = soc.copy()
        folded.soc = soc.copy()

        with mock.patch.object(dispatch_module, "LEDGER_CHUNK_ROWS", chunk_rows):
            battery_j, charge_j, soc_rows = blocked.step_block(
                modes, device_j, STEP_S, capacity_j, charge_rate_w, idle_fraction
            )
        for row in range(modes.shape[0]):
            row_battery, row_charge = folded.step(
                modes[row],
                device_j[row],
                STEP_S,
                capacity_j[row],
                charge_rate_w[row],
                idle_fraction[row],
            )
            assert _bits(battery_j[row]) == _bits(row_battery), f"battery row {row}"
            assert _bits(charge_j[row]) == _bits(row_charge), f"charge row {row}"
            assert _bits(soc_rows[row]) == _bits(folded.soc), f"soc row {row}"
        assert _bits(blocked.soc) == _bits(folded.soc)


# ---------------------------------------------------------------------------
# Whole-run thresholds == a per-day fold of threshold_from_intensities
# ---------------------------------------------------------------------------


class TestWholeRunThresholds:
    """``day_thresholds`` over stacked days equals one call per day and pack."""

    @staticmethod
    def _previous_days(n_days, seed=3):
        # Rounded intensities: ties in a day exercise the order statistics.
        rng = np.random.default_rng(seed)
        return np.round(rng.uniform(50.0, 600.0, size=(n_days, 24, N_PACKS)))

    @pytest.mark.parametrize(
        "policy",
        [
            CarbonBufferDispatch(),
            CarbonBufferDispatch(percentile_margin=0.0),
            CarbonBufferDispatch(fixed_percentile=30.0),
        ],
        ids=["default-margin", "zero-margin", "fixed-percentile"],
    )
    def test_equals_per_day_fold(self, mixed_site, policy):
        days = self._previous_days(40)
        whole = policy.day_thresholds(days, [mixed_site])
        assert whole.shape == (40, N_PACKS)
        for day in range(days.shape[0]):
            for j, entry in enumerate(mixed_site.cohorts):
                if entry.device.battery is None:
                    assert np.isnan(whole[day, j])
                    continue
                expected = threshold_from_intensities(
                    days[day, :, j],
                    entry.device.battery,
                    entry.device.average_power_w(entry.cohort.load_profile),
                    percentile_margin=policy.percentile_margin,
                    fixed_percentile=policy.fixed_percentile,
                )
                assert _bits(whole[day, j]) == _bits(expected), (day, j)

    def test_no_history_gives_no_rows(self, mixed_site):
        empty = CarbonBufferDispatch().day_thresholds(
            np.empty((0, 24, N_PACKS)), [mixed_site]
        )
        assert empty.shape == (0, N_PACKS)

    def test_one_day_run_holds_every_pack(self):
        sites = two_site_asymmetric_fleet(N_DEVICES, seed=6, n_trace_days=2)
        report = FleetSimulation(
            sites, GreedyLowestIntensityRouting(), DEMAND,
            dispatch=CarbonBufferDispatch(),
        ).run(1)
        assert not report.battery_kwh.any() and not report.charge_kwh.any()
        assert np.all(report.soc == 1.0)

    def test_non_finite_previous_day_raises(self, mixed_site):
        days = self._previous_days(3)
        days[1, 7, 0] = np.nan
        with pytest.raises(ValueError, match="intensities contains 1 non-finite"):
            CarbonBufferDispatch().day_thresholds(days, [mixed_site])

    def test_battery_less_pack_intensities_are_never_read(self, mixed_site):
        days = self._previous_days(3)
        days[:, :, 2] = np.inf
        thresholds = CarbonBufferDispatch().day_thresholds(days, [mixed_site])
        assert np.all(np.isnan(thresholds[:, 2]))
        assert np.all(np.isfinite(thresholds[:, :2]))


# ---------------------------------------------------------------------------
# Battery-aware load shedding (wear_derate)
# ---------------------------------------------------------------------------


class TestWearDerate:
    def test_zero_derate_is_identity(self):
        site = two_site_asymmetric_fleet(5, seed=1, n_trace_days=2)[0]
        assert site.effective_capacity_rps(0.0) == site.capacity_rps

    def test_derate_scales_with_mean_wear(self):
        site = two_site_asymmetric_fleet(5, seed=1, n_trace_days=2)[0]
        site.cohort._battery_cycles[: site.cohort._n] = (
            0.5 * site.cohort.device.battery.cycle_life
        )
        assert site.cohort.mean_battery_wear() == pytest.approx(0.5)
        assert site.effective_capacity_rps(1.0) == pytest.approx(
            0.5 * site.capacity_rps
        )
        assert site.effective_capacity_rps(0.5) == pytest.approx(
            0.75 * site.capacity_rps
        )

    def test_policy_carries_the_derate(self):
        from repro.fleet import policy_by_name

        policy = policy_by_name("greedy-lowest-intensity", wear_derate=0.3)
        assert policy.wear_derate == 0.3
        with pytest.raises(ValueError, match="wear derate"):
            RoundRobinRouting(wear_derate=1.5)

    def test_derated_simulation_still_serves_and_conserves(self):
        report = _run(None, policy=GreedyLowestIntensityRouting(wear_derate=0.5))
        assert report.total_served_requests > 0
        assert np.allclose(report.grid_kwh, report.energy_kwh)

    @staticmethod
    def _worn_sites():
        sites = two_site_asymmetric_fleet(N_DEVICES, seed=6, n_trace_days=7)
        for site in sites:
            site.cohort._battery_cycles[: site.cohort._n] = (
                0.5 * site.cohort.device.battery.cycle_life
            )
        return sites

    def test_derate_and_dispatch_compose(self):
        """Idle headroom is physical: shed-but-idle devices still charge."""
        policy = GreedyLowestIntensityRouting(wear_derate=0.8)
        base = FleetSimulation(self._worn_sites(), policy, DEMAND).run(N_DAYS)
        policy = GreedyLowestIntensityRouting(wear_derate=0.8)
        dispatched = FleetSimulation(
            self._worn_sites(), policy, DEMAND, dispatch=CarbonBufferDispatch()
        ).run(N_DAYS)
        assert np.allclose(
            base.energy_kwh, dispatched.grid_kwh + dispatched.battery_kwh
        )
        assert dispatched.total_charge_kwh > 0
        assert dispatched.carbon_avoided_g() > 0

    def test_des_path_honors_wear_derate(self):
        """The latency probe offers the same derated slots the hourly path does."""
        from repro.fleet import simulate_latency_aware

        def sites_with_worn_clean_site():
            sites = two_site_asymmetric_fleet(5, seed=4, n_trace_days=7)
            clean = sites[1]  # cascadia, the preferred site under greedy
            clean.cohort._battery_cycles[: clean.cohort._n] = (
                0.5 * clean.cohort.device.battery.cycle_life
            )
            return sites

        _, plain = simulate_latency_aware(
            sites_with_worn_clean_site(), GreedyLowestIntensityRouting(),
            demand_rps=300.0, duration_s=10.0, seed=9,
        )
        _, derated = simulate_latency_aware(
            sites_with_worn_clean_site(),
            GreedyLowestIntensityRouting(wear_derate=1.0),
            demand_rps=300.0, duration_s=10.0, seed=9,
        )
        # Half the clean site's slots are shed, so load spills to texas.
        assert derated["cascadia"] < plain["cascadia"]
        assert derated["texas"] > plain["texas"]
