"""Carbon-aware multi-site request routing and the fleet simulation loop.

Routing policies decide, hour by hour, how much of the fleet's request
demand each *cohort segment* serves.  A segment is one
:class:`~repro.fleet.sites.SiteCohort` of one site — sites mixing several
device types expose one segment per type, each with its own capacity and
marginal-CCI column, so carbon-aware routing can prefer the efficient
device type *inside* a site, not just between sites.  A fleet of
single-cohort sites has exactly one segment per site, reproducing the
historical per-site allocation bit for bit.  All three bundled policies are
*capacity-feasible* (they never route more than a segment can serve) and
fully vectorized — an allocation for a whole year of hourly timesteps
across all segments is a single NumPy pass:

* :class:`RoundRobinRouting` — demand split proportional to live capacity,
  the carbon-oblivious baseline (DNS round-robin across healthy devices);
* :class:`GreedyLowestIntensityRouting` — fill the site with the lowest
  instantaneous grid carbon intensity first, then the next, and so on;
* :class:`CapacityAwareMarginalCciRouting` — the same waterfill, but ranked
  by the *marginal CCI* of one extra request at each site: dynamic energy
  per request times local intensity plus amortised battery-wear carbon.
  This correctly prefers an efficient device on a middling grid over an
  inefficient one on a slightly cleaner grid.

Every policy accepts a ``wear_derate`` factor for battery-aware load
shedding: a site's effective capacity is scaled by
``1 - wear_derate * mean_battery_wear``, so cohorts with nearly-spent packs
shed load (and battery cycling) to healthier sites.

:class:`FleetSimulation` couples the hourly routing path with the daily
population dynamics of :mod:`repro.fleet.population`: capacity follows the
live device count, realised utilisation drives battery cycling, and churn
feeds replacement carbon into the fleet ledger.  With a
:class:`~repro.fleet.dispatch.DispatchPolicy` in the loop, each site also
carries a battery state-of-charge ledger: clean hours charge the packs from
idle headroom, dirty hours serve device load from the packs
(UPS-as-carbon-buffer), and the report gains grid/battery/charge/SoC
series.  For latency-aware questions, :func:`simulate_latency_aware` runs
the same sites and policy on the discrete-event engine of
:mod:`repro.simulation` instead.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.fleet.dispatch import DispatchPolicy, pack_capabilities, site_packs
from repro.fleet.execution import execute_dispatch
from repro.fleet.reporting import FleetReport
from repro.fleet.sites import FleetSite, SiteCohort
from repro.microservices.calibration import SERVICE_TIME_SIGMA
from repro.simulation.engine import Simulator, Timeout
from repro.simulation.metrics import LatencyRecorder, LatencySummary, summarize
from repro.simulation.random_streams import RandomStreams
from repro.telemetry import ensure_telemetry

#: Service-time distributions :func:`simulate_latency_aware` can draw from.
#: ``deterministic`` reproduces the historical fixed ``1/rate`` service time;
#: the stochastic shapes keep that mean, with the lognormal's log-sigma from
#: the microservice simulator's calibrated variability
#: (:data:`~repro.microservices.calibration.SERVICE_TIME_SIGMA`).
SERVICE_DISTRIBUTIONS = ("deterministic", "exponential", "lognormal")

#: Hours per scheduling timestep of the vectorized path.
HOURS_PER_STEP = 1.0
#: Scheduling timesteps per simulated day.
STEPS_PER_DAY = int(round(24.0 / HOURS_PER_STEP))
#: Seconds per scheduling timestep.
STEP_S = HOURS_PER_STEP * units.SECONDS_PER_HOUR

#: Absolute tolerance (requests/s) by which a policy's allocation may
#: undershoot zero or overshoot segment capacity and demand; the invariant
#: audit checks the same bound.
ALLOC_TOL_RPS = 1e-6
#: Shortfall (joules) above which a dispatch hour counts as a clipped
#: setpoint, here and in the invariant audit's recount.
CLIP_TOL_J = 1e-9


# ---------------------------------------------------------------------------
# Demand
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiurnalDemand:
    """A deterministic diurnal + weekly fleet demand model (requests/s).

    Demand follows a sinusoidal daily cycle peaking at ``peak_hour`` with
    relative amplitude ``daily_amplitude``, modulated by a weekly cycle that
    dips on the weekend.  Determinism matters: the scheduler's reproducibility
    guarantee (fixed seed => identical fleet CCI) must not depend on demand
    noise, so any stochastic demand belongs in a wrapping model.
    """

    mean_rps: float
    daily_amplitude: float = 0.35
    peak_hour: float = 20.0
    weekly_amplitude: float = 0.10

    def __post_init__(self) -> None:
        if self.mean_rps <= 0:
            raise ValueError("mean demand must be positive")
        if not 0.0 <= self.daily_amplitude < 1.0:
            raise ValueError("daily amplitude must be within [0, 1)")
        if not 0.0 <= self.weekly_amplitude < 1.0:
            raise ValueError("weekly amplitude must be within [0, 1)")

    def series(self, n_hours: int, start_hour: float = 0.0) -> np.ndarray:
        """Demand (requests/s) for ``n_hours`` hourly timesteps."""
        if n_hours <= 0:
            raise ValueError("n_hours must be positive")
        hours = start_hour + np.arange(n_hours, dtype=float)
        daily = 1.0 + self.daily_amplitude * np.cos(
            2.0 * np.pi * (hours - self.peak_hour) / 24.0
        )
        # Minimum at day 5.5 (the weekend midpoint), renormalised so the
        # weekly mean stays exactly mean_rps.
        weekly = 1.0 - self.weekly_amplitude * 0.5 * (
            1.0 + np.cos(2.0 * np.pi * (hours / 24.0 - 5.5) / 7.0)
        )
        weekly /= 1.0 - self.weekly_amplitude / 2.0
        return self.mean_rps * daily * weekly


# ---------------------------------------------------------------------------
# Routing policies (vectorized hourly path)
# ---------------------------------------------------------------------------


class RoutingPolicy(abc.ABC):
    """Allocates hourly fleet demand across cohort segments.

    ``wear_derate`` enables battery-aware load shedding: the capacity the
    policy sees for a segment is scaled by ``1 - wear_derate *
    mean_battery_wear`` of its cohort, so heavily-cycled cohorts are offered
    less load and wear out fewer replacement packs.  ``0`` (the default)
    reproduces the wear-oblivious behaviour exactly.
    """

    name: str = "policy"

    def __init__(self, wear_derate: float = 0.0) -> None:
        if not 0.0 <= wear_derate <= 1.0:
            raise ValueError(f"wear derate must be within [0, 1], got {wear_derate}")
        self.wear_derate = wear_derate

    def site_capacity_rps(self, site: FleetSite) -> float:
        """The capacity this policy offers to route toward one site."""
        return site.effective_capacity_rps(self.wear_derate)

    def cohort_capacity_rps(self, entry: SiteCohort) -> float:
        """The capacity this policy offers to route toward one cohort segment."""
        return entry.effective_capacity_rps(self.wear_derate)

    @abc.abstractmethod
    def allocate(
        self,
        demand_rps: np.ndarray,
        capacity_rps: np.ndarray,
        intensity: np.ndarray,
        marginal_g_per_request: np.ndarray,
    ) -> np.ndarray:
        """Return served requests/s per ``(timestep, segment)``.

        ``demand_rps`` has shape ``(T,)``; the three matrices have shape
        ``(T, C)`` for ``C`` cohort segments (``C == S`` when every site has
        one cohort).  Implementations must return a non-negative ``(T, C)``
        allocation with per-segment values bounded by ``capacity_rps`` and
        row sums bounded by ``demand_rps`` (unmet demand is dropped and
        reported by the simulation).
        """

    def request_key(self, site: FleetSite, now_s: float) -> Optional[float]:
        """Per-request ranking key for the DES path (lower is better).

        Keys are in *grams of CO2e per request* so the DES scheduler can add
        a gram-denominated backlog penalty without mixing units.  Returning
        ``None`` opts out of carbon ranking: the scheduler falls back to
        capacity-weighted rotation (true per-request round-robin).
        """
        return site.marginal_carbon_g_per_request(now_s)


def _waterfill(
    demand_rps: np.ndarray, capacity_rps: np.ndarray, key: np.ndarray
) -> np.ndarray:
    """Fill sites in ascending ``key`` order up to capacity, per timestep."""
    order = np.argsort(key, axis=1, kind="stable")
    cap_sorted = np.take_along_axis(capacity_rps, order, axis=1)
    cum_before = np.cumsum(cap_sorted, axis=1) - cap_sorted
    remaining = np.clip(demand_rps[:, None] - cum_before, 0.0, None)
    alloc_sorted = np.minimum(cap_sorted, remaining)
    alloc = np.empty_like(alloc_sorted)
    np.put_along_axis(alloc, order, alloc_sorted, axis=1)
    return alloc


class RoundRobinRouting(RoutingPolicy):
    """Carbon-oblivious baseline: split demand proportional to live capacity."""

    name = "round-robin"

    def allocate(
        self,
        demand_rps: np.ndarray,
        capacity_rps: np.ndarray,
        intensity: np.ndarray,
        marginal_g_per_request: np.ndarray,
    ) -> np.ndarray:
        total = capacity_rps.sum(axis=1)
        served_total = np.minimum(demand_rps, total)
        with np.errstate(invalid="ignore", divide="ignore"):
            share = np.where(total[:, None] > 0, capacity_rps / total[:, None], 0.0)
        return share * served_total[:, None]

    def request_key(self, site: FleetSite, now_s: float) -> Optional[float]:
        return None  # carbon-oblivious: rotate across sites instead


class GreedyLowestIntensityRouting(RoutingPolicy):
    """Waterfill sites from cleanest to dirtiest instantaneous grid."""

    name = "greedy-lowest-intensity"

    def allocate(
        self,
        demand_rps: np.ndarray,
        capacity_rps: np.ndarray,
        intensity: np.ndarray,
        marginal_g_per_request: np.ndarray,
    ) -> np.ndarray:
        return _waterfill(demand_rps, capacity_rps, intensity)

    def request_key(self, site: FleetSite, now_s: float) -> Optional[float]:
        # Intensity ranking expressed in grams: dynamic energy x intensity,
        # without the wear term the marginal-CCI policy adds.
        return site.marginal_carbon_g_for_intensity(
            site.intensity_at(now_s), include_wear=False
        )


class CapacityAwareMarginalCciRouting(RoutingPolicy):
    """Waterfill ranked by marginal carbon per request (energy x intensity + wear)."""

    name = "marginal-cci"

    def allocate(
        self,
        demand_rps: np.ndarray,
        capacity_rps: np.ndarray,
        intensity: np.ndarray,
        marginal_g_per_request: np.ndarray,
    ) -> np.ndarray:
        return _waterfill(demand_rps, capacity_rps, marginal_g_per_request)


#: Registry of the bundled policies, keyed by their public names.
POLICIES: Dict[str, type] = {
    RoundRobinRouting.name: RoundRobinRouting,
    GreedyLowestIntensityRouting.name: GreedyLowestIntensityRouting,
    CapacityAwareMarginalCciRouting.name: CapacityAwareMarginalCciRouting,
}


def policy_by_name(name: str, wear_derate: float = 0.0) -> RoutingPolicy:
    """Instantiate one of the bundled routing policies by name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise ValueError(f"unknown policy {name!r}; expected one of: {known}") from None
    return cls(wear_derate=wear_derate)


# ---------------------------------------------------------------------------
# Fleet simulation (vectorized hourly path + daily population dynamics)
# ---------------------------------------------------------------------------


#: The churn columns Pass A records per cohort-day, named as the
#: :class:`~repro.fleet.population.CohortStep` fields they copy.
_CHURN_FIELDS = (
    "active",
    "replacement_carbon_g",
    "battery_swaps",
    "failures",
    "deployed",
    "retirements",
)


class _PassA:
    """Everything Pass A records for Pass B, as whole-run matrices.

    ``demand`` is ``(n_steps,)``; the per-pack grid ``intensity``, the
    routed ``alloc`` and the physical ``utilization`` are ``(n_steps,
    n_cohorts)``.  ``counts_day`` — each cohort's device count at the start
    of each day, before churn moves it — and the :data:`_CHURN_FIELDS`
    columns are ``(n_days, n_cohorts)``.
    """

    def __init__(self, n_days: int, n_cohorts: int) -> None:
        n_steps = n_days * STEPS_PER_DAY
        self.n_days = n_days
        self.demand = np.empty(n_steps)
        self.intensity = np.empty((n_steps, n_cohorts))
        self.alloc = np.empty((n_steps, n_cohorts))
        self.utilization = np.empty((n_steps, n_cohorts))
        daily = (n_days, n_cohorts)
        self.counts_day = np.zeros(daily, dtype=np.int64)
        self.active = np.zeros(daily, dtype=np.int64)
        self.replacement_carbon_g = np.zeros(daily)
        self.battery_swaps = np.zeros(daily, dtype=np.int64)
        self.failures = np.zeros(daily, dtype=np.int64)
        self.deployed = np.zeros(daily, dtype=np.int64)
        self.retirements = np.zeros(daily, dtype=np.int64)


class FleetSimulation:
    """Couples hourly carbon-aware routing with daily device-churn dynamics.

    Each simulated day steps through four phases: (1) the routing policy
    allocates 24 hourly demand steps across the cohort segments' live
    (wear-derated) capacities, local grid intensities, and per-device-type
    marginal-CCI terms, (2) the dispatch policy — when one is coupled in —
    co-decides per hour whether each cohort's served device load draws from
    grid or from its own battery pack and whether its idle headroom charges
    the pack, (3) each site's operational carbon integrates the realised
    *wall* energy (grid serving + battery charging) against its trace, and
    (4) each cohort steps one day of aging, failures, battery wear, and
    spare deployment at the utilisation the routing actually produced on
    *that* device type, with its own independent RNG stream.

    Without a dispatch policy the batteries stay full (the decoupled
    baseline) and the grid/battery/charge series degenerate to
    ``grid == energy``, ``battery == charge == 0``, ``soc == 1``.

    :meth:`run` is two passes over one record of whole-run matrices.
    :meth:`pass_a` is the irreducibly serial day loop: capacity follows
    churn and churn follows realised utilisation, so allocation and
    population stepping must alternate day by day — but the purely
    time-indexed inputs (demand series, grid intensities, marginal CCI)
    are precomputed once for the whole run (bitwise-identical to per-day
    calls: they are elementwise functions of exactly representable hour
    indices).  :meth:`pass_b` then does the energy accounting, replays the
    entire dispatch timeline from what Pass A recorded through the ledger's
    :meth:`~repro.fleet.dispatch.EnergyLedger.step_block` (see
    :mod:`repro.fleet.execution`), and assembles the report.
    """

    def __init__(
        self,
        sites: Sequence[FleetSite],
        policy: RoutingPolicy,
        demand: DiurnalDemand,
        dispatch: Optional[DispatchPolicy] = None,
        telemetry=None,
        audit: bool = False,
    ) -> None:
        if not sites:
            raise ValueError("a fleet needs at least one site")
        #: Opt-in invariant audit: after Pass B, re-derive the conservation
        #: laws the report must obey (see
        #: :mod:`repro.telemetry.observatory.audit`).  The auditor only
        #: reads finished matrices — results are bitwise-identical either
        #: way, and a disabled audit never even imports the module.
        self.audit = bool(audit)
        self.audit_report = None
        names = [site.name for site in sites]
        if len(set(names)) != len(names):
            raise ValueError(f"site names must be unique, got {names}")
        self.sites = list(sites)
        self.policy = policy
        self.demand = demand
        self.dispatch = dispatch
        #: Instrumentation context; the no-op default costs nothing and
        #: telemetry never touches RNG or numeric state (locked by tests).
        self.telemetry = ensure_telemetry(telemetry)
        #: Cohort segments in site-major order — the allocation columns.
        self.segments = site_packs(self.sites)
        #: Site index of each segment, and each site's first segment index
        #: (the ``reduceat`` boundaries for per-site aggregation).
        self._segment_site = np.array(
            [
                site_index
                for site_index, site in enumerate(self.sites)
                for _ in site.cohorts
            ],
            dtype=np.int64,
        )
        starts = []
        cursor = 0
        for site in self.sites:
            starts.append(cursor)
            cursor += len(site.cohorts)
        self._site_starts = np.array(starts, dtype=np.int64)

    def _per_site(self, array: np.ndarray) -> np.ndarray:
        """Sum segment columns into site columns (identity for 1-cohort sites)."""
        return np.add.reduceat(array, self._site_starts, axis=-1)

    def run(self, n_days: int) -> FleetReport:
        """Simulate ``n_days`` of virtual time and return the fleet report."""
        if n_days <= 0:
            raise ValueError("n_days must be positive")
        return self.pass_b(self.pass_a(n_days))

    def pass_a(self, n_days: int) -> _PassA:
        """Pass A: the serial day loop, recording what Pass B consumes.

        Allocation and churn are irreducibly day-sequential (capacity for
        day d+1 depends on churn at day d, churn depends on realised
        utilisation), but the time-indexed inputs hoist: one precompute
        covers demand, intensity, and marginal CCI for the whole run.
        """
        tele = self.telemetry
        record = _PassA(n_days, len(self.segments))
        # calls=0: setup time folds into the phase without inflating its
        # invocation count.
        with tele.span("allocate_day", calls=0):
            marginal_all = self._precompute(record.demand, record.intensity)
        for day in range(n_days):
            rows = slice(day * STEPS_PER_DAY, (day + 1) * STEPS_PER_DAY)
            with tele.span("allocate_day"):
                alloc = self._allocate_day(
                    record.demand[rows], record.intensity[rows], marginal_all[rows]
                )
            record.alloc[rows] = alloc
            if tele.enabled:
                # "Segments touched": (hour, segment) cells the waterfill
                # actually routed load through this day.
                tele.count(
                    "routing.waterfill_segments_touched", int(np.count_nonzero(alloc))
                )
            # Day-start counts — what the legacy per-day loop's live capability
            # reads saw — recorded before churn moves them.
            record.counts_day[day] = [
                entry.cohort.active_count for _, entry in self.segments
            ]

            # Daily population step at the realised utilisation; the same
            # matrix feeds dispatch idle headroom in Pass B.
            with tele.span("step_population"):
                utilization = self._physical_utilization(alloc)
                self._step_population(utilization, record, day)
            record.utilization[rows] = utilization

        if tele.enabled:
            # Which churn engine stepped this run, and how many distinct
            # device-state buckets it peaked at (0 for the per-device
            # reference, which has no bucket structure to count).
            samplers = {entry.cohort.sampler_name for _, entry in self.segments}
            tele.gauge(
                "churn.sampler",
                samplers.pop() if len(samplers) == 1 else "mixed",
            )
            tele.gauge(
                "churn.buckets_peak",
                max(entry.cohort.buckets_peak for _, entry in self.segments),
            )
        return record

    def pass_b(self, record: _PassA) -> FleetReport:
        """Pass B: energy accounting, dispatch replay and the fleet report.

        Whole-run vectorized over the :meth:`pass_a` record.  Without a
        dispatch policy the packs neither charge nor discharge and stay
        full, so the site series go through the same aggregation as a
        dispatched run's.
        """
        tele = self.telemetry
        n_days = record.n_days
        count_rows = np.repeat(record.counts_day, STEPS_PER_DAY, axis=0)

        # Device energy each cohort needs per hour; site wall energy adds
        # the (never battery-backed) peripheral draw once per site.
        peripheral_kwh = np.array(
            [site.peripheral_power_w for site in self.sites]
        ) * (STEP_S / units.JOULES_PER_KWH)
        with tele.span("site_energy_kwh", calls=n_days):
            power_w = np.empty_like(record.alloc)
            for j, (_, entry) in enumerate(self.segments):
                power_w[:, j] = entry.device_power_w_at(
                    count_rows[:, j], record.alloc[:, j]
                )
            device_kwh = power_w * STEP_S / units.JOULES_PER_KWH

        capacity_day, charge_rate_day = pack_capabilities(
            self.segments, record.counts_day
        )
        clipped_setpoints = 0
        clipped_energy_kwh = 0.0
        shortfall_j = None
        if self.dispatch is None:
            battery_j = charge_j = np.zeros_like(device_kwh)
            pack_soc = np.ones_like(device_kwh)
        else:
            with tele.span("dispatch_day", calls=n_days):
                battery_j, charge_j, pack_soc, shortfall_j = execute_dispatch(
                    self.sites,
                    self.dispatch,
                    record.intensity,
                    device_kwh * units.JOULES_PER_KWH,
                    # Idle headroom is physical: a device the routing
                    # derate shed is sitting idle and can charge.
                    1.0 - record.utilization,
                    record.counts_day,
                    capacity_day,
                    charge_rate_day,
                    STEP_S,
                )
            clipped_setpoints, clipped_energy_kwh = self._clip_accounting(
                shortfall_j
            )
            if tele.enabled:
                tele.count("dispatch.clipped_setpoints", clipped_setpoints)
                tele.count("dispatch.clipped_kwh", clipped_energy_kwh)
                tele.count(
                    "dispatch.fallback_pack_days",
                    getattr(self.dispatch, "fallback_pack_days", 0),
                )

        cohort_battery_kwh = battery_j / units.JOULES_PER_KWH
        cohort_charge_kwh = charge_j / units.JOULES_PER_KWH
        total_kwh = self._per_site(device_kwh) + peripheral_kwh
        battery_kwh = self._per_site(cohort_battery_kwh)
        charge_kwh = self._per_site(cohort_charge_kwh)
        grid_kwh = total_kwh - battery_kwh
        # The meter sees grid serving plus grid charging; operational
        # carbon follows that wall energy.
        energy_kwh = grid_kwh + charge_kwh
        intensity = record.intensity[:, self._site_starts]
        cohort_target = np.array([entry.target_size for _, entry in self.segments])

        report = FleetReport(
            policy_name=self.policy.name,
            site_names=tuple(site.name for site in self.sites),
            hours=np.arange(len(record.demand), dtype=float) * HOURS_PER_STEP,
            served_rps=self._per_site(record.alloc),
            dropped_rps=record.demand - record.alloc.sum(axis=1),
            operational_g=energy_kwh * intensity,
            intensity_g_per_kwh=intensity,
            days=np.arange(1, n_days + 1, dtype=float),
            active_devices=self._per_site(record.active),
            target_devices=self._per_site(cohort_target),
            replacement_carbon_g=self._per_site(record.replacement_carbon_g),
            battery_swaps=self._per_site(record.battery_swaps),
            failures=self._per_site(record.failures),
            deployed=self._per_site(record.deployed),
            step_s=STEP_S,
            energy_kwh=energy_kwh,
            grid_kwh=grid_kwh,
            battery_kwh=battery_kwh,
            charge_kwh=charge_kwh,
            soc=self._site_soc(
                pack_soc, np.repeat(capacity_day, STEPS_PER_DAY, axis=0)
            ),
            cohort_labels=tuple(
                label for site in self.sites for label in site.cohort_labels()
            ),
            cohort_site_index=self._segment_site.copy(),
            cohort_target=cohort_target,
            cohort_served_rps=record.alloc,
            cohort_energy_kwh=device_kwh,
            cohort_grid_kwh=device_kwh - cohort_battery_kwh,
            cohort_battery_kwh=cohort_battery_kwh,
            cohort_charge_kwh=cohort_charge_kwh,
            cohort_soc=pack_soc,
            cohort_active=record.active,
            cohort_replacement_carbon_g=record.replacement_carbon_g,
            cohort_battery_swaps=record.battery_swaps,
            cohort_failures=record.failures,
            cohort_deployed=record.deployed,
            clipped_setpoints=clipped_setpoints,
            clipped_energy_kwh=clipped_energy_kwh,
        )
        if self.audit:
            self.audit_report = self._audit(record, report, total_kwh, shortfall_j)
        return report

    def _audit(
        self,
        record: _PassA,
        report: FleetReport,
        total_kwh: np.ndarray,
        shortfall_j: Optional[np.ndarray],
    ):
        """Run the invariant audit over one finished run's matrices.

        The capacity rows come from the recorded day-start counts — the
        same counts the allocation saw — so the feasibility check compares
        against the capacity that actually applied, not today's live
        population.
        """
        from repro.telemetry.observatory.audit import audit_fleet_run

        with self.telemetry.span("audit"):
            capacity_day = np.column_stack(
                [
                    entry.capacity_rps_at(record.counts_day[:, j])
                    for j, (_, entry) in enumerate(self.segments)
                ]
            )
            swap_embodied_g = np.array(
                [
                    units.kg_to_grams(entry.device.battery.embodied_carbon_kgco2e)
                    if entry.device.battery is not None
                    else 0.0
                    for _, entry in self.segments
                ]
            )
            return audit_fleet_run(
                alloc=record.alloc,
                demand=record.demand,
                capacity_rows=np.repeat(capacity_day, STEPS_PER_DAY, axis=0),
                energy_kwh=report.energy_kwh,
                grid_kwh=report.grid_kwh,
                battery_kwh=report.battery_kwh,
                charge_kwh=report.charge_kwh,
                total_kwh=total_kwh,
                cohort_energy_kwh=report.cohort_energy_kwh,
                cohort_grid_kwh=report.cohort_grid_kwh,
                cohort_battery_kwh=report.cohort_battery_kwh,
                cohort_charge_kwh=report.cohort_charge_kwh,
                cohort_soc=report.cohort_soc,
                min_soc=getattr(self.dispatch, "min_state_of_charge", None),
                shortfall_j=shortfall_j,
                clipped_setpoints=report.clipped_setpoints,
                clipped_energy_kwh=report.clipped_energy_kwh,
                cohort_counts_day=record.counts_day,
                cohort_active=record.active,
                cohort_failures=record.failures,
                cohort_retirements=record.retirements,
                cohort_swaps_day=record.battery_swaps,
                cohort_deployed=record.deployed,
                cohort_replacement_g=record.replacement_carbon_g,
                cohort_swap_embodied_g=swap_embodied_g,
                telemetry=self.telemetry if self.telemetry.enabled else None,
            )

    # -- per-day phases ----------------------------------------------------

    def _precompute(self, demand: np.ndarray, intensity: np.ndarray) -> np.ndarray:
        """Fill the whole run's demand and per-pack intensity; return marginal CCI.

        All three depend only on the hour index — never on live population
        state — so one call covers the run.  Hour timestamps are exactly
        representable integers and every series is elementwise in them, so
        this is bitwise-identical to per-day calls.
        """
        n_hours = demand.shape[0]
        times_s = np.arange(n_hours) * STEP_S
        demand[:] = self.demand.series(n_hours)
        marginal = np.empty_like(intensity)
        site_intensity: Dict[int, np.ndarray] = {}
        for j, (site, entry) in enumerate(self.segments):
            site_index = int(self._segment_site[j])
            if site_index not in site_intensity:
                site_intensity[site_index] = site.intensities_at(times_s)
            intensity[:, j] = site_intensity[site_index]
            marginal[:, j] = entry.marginal_carbon_g_for_intensity(intensity[:, j])
        return marginal

    def _allocate_day(
        self, demand_rps: np.ndarray, intensity: np.ndarray, marginal: np.ndarray
    ) -> np.ndarray:
        """Phase 1: route one day of hourly demand across the live segments.

        Only the capacity matrix is computed here — it reads the *live*
        (churn-following) cohort populations, which is exactly why this
        phase cannot hoist with the whole-run precompute that feeds it.
        """
        n_cohorts = len(self.segments)
        capacity = np.empty((STEPS_PER_DAY, n_cohorts))
        for j, (_, entry) in enumerate(self.segments):
            capacity[:, j] = self.policy.cohort_capacity_rps(entry)
        alloc = self.policy.allocate(demand_rps, capacity, intensity, marginal)
        self._validate_allocation(alloc, demand_rps, capacity)
        if self.telemetry.enabled and self.policy.wear_derate > 0:
            # Request capacity the wear derate withheld from routing today
            # (rps x seconds = requests) — the shedding that is otherwise
            # invisible in the report's served/dropped series.
            physical = sum(entry.capacity_rps for _, entry in self.segments)
            withheld_rps = max(0.0, physical - float(capacity[0].sum()))
            self.telemetry.count(
                "routing.wear_shed_requests", withheld_rps * STEPS_PER_DAY * STEP_S
            )
        return alloc

    def _clip_accounting(self, shortfall_j: np.ndarray) -> Tuple[int, float]:
        """Clipped-setpoint count and clipped energy (kWh) from the replay.

        *Clipped setpoints* are hours where the policy asked a pack to
        discharge but the ledger's physics (SoC floor, or the forced
        recharge below it) could not deliver the full device energy.  The
        planner gets no signal when its plan is infeasible — the clip count
        and energy are that signal, surfaced via
        :class:`~repro.fleet.reporting.FleetReport` and the telemetry
        counters.  Accumulation replicates the historical per-day loop
        exactly: masked joule sums per hot hour in hour order, one kWh
        conversion per day in day order.
        """
        infeasible = shortfall_j > CLIP_TOL_J
        hot_rows = np.nonzero(infeasible.any(axis=1))[0]
        n_days = shortfall_j.shape[0] // STEPS_PER_DAY
        day_counts = [0] * n_days
        day_joules = [0.0] * n_days
        for row in hot_rows:
            day = int(row) // STEPS_PER_DAY
            mask = infeasible[row]
            day_counts[day] += int(np.count_nonzero(mask))
            day_joules[day] += float(shortfall_j[row][mask].sum())
        clipped = 0
        clipped_kwh = 0.0
        for day in range(n_days):
            clipped += day_counts[day]
            clipped_kwh += day_joules[day] / units.JOULES_PER_KWH
        return clipped, clipped_kwh

    def _site_soc(
        self, pack_soc: np.ndarray, capacity_rows: np.ndarray
    ) -> np.ndarray:
        """Site-level SoC series: capacity-weighted mean over the site's packs.

        Single-pack sites pass their pack's fraction through untouched (the
        historical per-site series, bit for bit); mixed sites weight by the
        per-row pack capacities via segment-wise ``np.add.reduceat``,
        falling back to a plain mean on rows where no pack holds energy.
        ``capacity_rows`` is the ``(n_steps, n_packs)`` battery capacity
        matrix (:func:`~repro.fleet.dispatch.pack_capabilities`).
        """
        n_packs = pack_soc.shape[1]
        sizes = np.diff(np.append(self._site_starts, n_packs))
        weighted = np.add.reduceat(
            pack_soc * capacity_rows, self._site_starts, axis=-1
        )
        totals = np.add.reduceat(capacity_rows, self._site_starts, axis=-1)
        plain = np.add.reduceat(pack_soc, self._site_starts, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(
                totals > 0, weighted / totals, plain / sizes[None, :]
            )
        single = sizes == 1
        if np.any(single):
            out[:, single] = pack_soc[:, self._site_starts[single]]
        return out

    def _site_soc_loop(
        self, pack_soc: np.ndarray, capacity_rows: np.ndarray
    ) -> np.ndarray:
        """Reference per-site loop for :meth:`_site_soc` (kept for tests).

        Accumulates each site's weighted sum left to right — the same
        reduction order ``np.add.reduceat`` uses — so the vectorized path
        can be pinned bitwise against it on mixed and single-pack sites.
        """
        n_sites = len(self.sites)
        n_packs = pack_soc.shape[1]
        out = np.empty((pack_soc.shape[0], n_sites))
        for site_index in range(n_sites):
            start = int(self._site_starts[site_index])
            stop = (
                int(self._site_starts[site_index + 1])
                if site_index + 1 < n_sites
                else n_packs
            )
            if stop - start == 1:
                out[:, site_index] = pack_soc[:, start]
                continue
            weighted = pack_soc[:, start] * capacity_rows[:, start]
            total = capacity_rows[:, start].copy()
            plain = pack_soc[:, start].copy()
            for j in range(start + 1, stop):
                weighted = weighted + pack_soc[:, j] * capacity_rows[:, j]
                total = total + capacity_rows[:, j]
                plain = plain + pack_soc[:, j]
            with np.errstate(invalid="ignore", divide="ignore"):
                out[:, site_index] = np.where(
                    total > 0, weighted / total, plain / (stop - start)
                )
        return out

    def _physical_utilization(self, alloc: np.ndarray) -> np.ndarray:
        """Per-``(hour, segment)`` utilisation against *non-derated* capacity.

        Battery cycling and charge headroom both follow what the devices
        physically do, so utilisation is measured against each cohort's
        :attr:`~repro.fleet.sites.SiteCohort.capacity_rps` regardless of any
        routing-level wear derate.
        """
        physical = np.array([entry.capacity_rps for _, entry in self.segments])
        with np.errstate(invalid="ignore", divide="ignore"):
            util = np.where(physical > 0, alloc / physical, 0.0)
        return np.clip(util, 0.0, 1.0)

    def _step_population(
        self, utilization: np.ndarray, record: _PassA, day: int
    ) -> None:
        """Phase 4: one day of churn per cohort at its realised utilisation.

        Takes the day's ``(hours, segment)`` utilisation matrix directly so
        the caller can share one :meth:`_physical_utilization` pass between
        churn and the recorded dispatch idle headroom, and writes each
        cohort's :class:`~repro.fleet.population.CohortStep` into the
        record's ``day`` row.
        """
        for j, (_, entry) in enumerate(self.segments):
            mean_util = float(np.mean(utilization[:, j]))
            step = entry.cohort.step(1.0, utilization=mean_util)
            for name in _CHURN_FIELDS:
                getattr(record, name)[day, j] = getattr(step, name)

    @staticmethod
    def _validate_allocation(
        alloc: np.ndarray, demand: np.ndarray, capacity: np.ndarray
    ) -> None:
        tol = ALLOC_TOL_RPS
        if np.any(alloc < -tol):
            raise ValueError("policy produced a negative allocation")
        if np.any(alloc > capacity + tol):
            raise ValueError("policy allocated beyond segment capacity")
        if np.any(alloc.sum(axis=1) > demand * (1 + tol) + tol):
            raise ValueError("policy served more than the offered demand")


def run_policy_comparison(
    site_builder,
    policies: Sequence[RoutingPolicy],
    demand: DiurnalDemand,
    n_days: int,
) -> Dict[str, FleetReport]:
    """Run the same scenario under several policies with identical fleets.

    ``site_builder`` is a zero-argument callable returning a *fresh* list of
    sites — each policy must see an identical, independently-seeded fleet,
    otherwise population RNG state would leak across runs and the comparison
    would not be apples-to-apples.
    """
    reports: Dict[str, FleetReport] = {}
    for policy in policies:
        simulation = FleetSimulation(site_builder(), policy, demand)
        reports[policy.name] = simulation.run(n_days)
    return reports


# ---------------------------------------------------------------------------
# DES-backed latency-aware path
# ---------------------------------------------------------------------------


def _effective_device_slots(policy: RoutingPolicy, site: FleetSite) -> int:
    """Concurrent request slots the DES path offers for one site.

    The wear-derated capacity divided back into whole devices; rounded (not
    truncated) so the float division ``active * rate * 1.0 / rate`` cannot
    drop a device to representation error when the derate is off.  Mixed
    sites divide by the target-weighted mean per-device rate, so the slot
    count still approximates the live device count.
    """
    return max(
        1,
        int(
            round(
                policy.site_capacity_rps(site) / site.nominal_requests_per_device_s
            )
        ),
    )


def simulate_latency_aware(
    sites: Sequence[FleetSite],
    policy: RoutingPolicy,
    demand_rps: float,
    duration_s: float = 60.0,
    seed: int = 0,
    queue_penalty_g: float = 5e-6,
    service_distribution: str = "deterministic",
) -> Tuple[LatencySummary, Dict[str, int]]:
    """Serve a Poisson request stream through the sites on the DES engine.

    Where the vectorized path treats each hour as a fluid allocation, this
    path models individual requests: exponential inter-arrivals, per-site
    FIFO service at ``requests_per_device_s`` per device, and the site's
    network RTT added to every response.  Each arrival is routed by the
    policy's :meth:`~RoutingPolicy.request_key` (grams per request) plus
    ``queue_penalty_g`` grams per already-queued request, so carbon-greedy
    policies shed load to the next-cleanest site once the clean site backs
    up.  The default penalty is on the order of a phone-cloudlet marginal
    (a few 1e-6 g/request), so spill happens after a handful of queued
    requests rather than after a multi-second backlog.  Policies whose key
    is ``None`` (round-robin) rotate: each request goes to the site with
    the lowest served-count-to-capacity ratio.

    ``service_distribution`` selects how per-request service times are
    drawn (:data:`SERVICE_DISTRIBUTIONS`): the ``"deterministic"`` default
    keeps the fixed ``1/requests_per_device_s``; ``"exponential"`` and
    ``"lognormal"`` draw from a seeded stream with the same mean, the
    lognormal shaped by the microservice simulator's calibrated
    variability — so the probe's tail percentiles reflect per-request
    jitter, not just queueing.

    Returns the overall latency summary and the per-site served counts.
    """
    if demand_rps <= 0:
        raise ValueError("demand must be positive")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if queue_penalty_g < 0:
        raise ValueError("queue penalty must be non-negative")
    if service_distribution not in SERVICE_DISTRIBUTIONS:
        known = ", ".join(SERVICE_DISTRIBUTIONS)
        raise ValueError(
            f"unknown service distribution {service_distribution!r}; "
            f"expected one of: {known}"
        )
    simulator = Simulator()
    streams = RandomStreams(seed=seed)
    recorder = LatencyRecorder()
    served_by_site = {site.name: 0 for site in sites}
    routed_by_site = {site.name: 0 for site in sites}

    from repro.simulation.resources import Resource

    # The DES path sees the same (wear-derated) capacity the hourly path
    # routes against: a policy shedding load from a worn cohort also offers
    # fewer concurrent request slots here.
    effective_devices = {
        site.name: _effective_device_slots(policy, site) for site in sites
    }
    pools = {
        site.name: Resource(
            simulator, capacity=effective_devices[site.name], name=site.name
        )
        for site in sites
    }
    service_s = {
        site.name: 1.0 / site.nominal_requests_per_device_s for site in sites
    }

    # The lognormal factor stream has mean exp(sigma^2/2); the correction
    # keeps the drawn mean at 1/rate so distributions differ in shape only.
    lognormal_mean_correction = float(np.exp(-0.5 * SERVICE_TIME_SIGMA**2))

    def draw_service_s(site: FleetSite) -> float:
        mean = service_s[site.name]
        if service_distribution == "exponential":
            return streams.exponential(f"service@{site.name}", mean)
        if service_distribution == "lognormal":
            factor = streams.lognormal_factor(
                f"service@{site.name}", SERVICE_TIME_SIGMA
            )
            return mean * factor * lognormal_mean_correction
        return mean

    def route(now_s: float) -> FleetSite:
        keys = [policy.request_key(site, now_s) for site in sites]
        if any(key is None for key in keys):
            # Capacity-weighted rotation: send the request to the site that
            # has served the smallest share of its capacity so far.
            shares = [
                routed_by_site[site.name]
                / (
                    effective_devices[site.name]
                    * site.nominal_requests_per_device_s
                )
                for site in sites
            ]
            best = int(np.argmin(shares))
        else:
            penalized = [
                key + pools[site.name].queue_length * queue_penalty_g
                for key, site in zip(keys, sites)
            ]
            best = int(np.argmin(penalized))
        routed_by_site[sites[best].name] += 1
        return sites[best]

    def handle(site: FleetSite, start_s: float):
        pool = pools[site.name]
        yield pool.acquire()
        yield Timeout(draw_service_s(site))
        pool.release()
        yield Timeout(site.network_rtt_s)
        recorder.record("request", simulator.now - start_s)
        served_by_site[site.name] += 1

    spawned = {"count": 0}

    def arrivals():
        while simulator.now < duration_s:
            yield Timeout(streams.exponential("arrivals", 1.0 / demand_rps))
            if simulator.now >= duration_s:
                break
            site = route(simulator.now)
            spawned["count"] += 1
            simulator.spawn(handle(site, simulator.now), name=f"req@{site.name}")

    simulator.spawn(arrivals(), name="arrivals")
    simulator.run()
    summaries = summarize(recorder, offered={"request": spawned["count"]})
    if "request" not in summaries:
        raise RuntimeError("no requests completed; increase duration or demand")
    return summaries["request"], served_by_site
