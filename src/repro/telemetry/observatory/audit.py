"""Invariant audit mode: conservation checks over one finished fleet run.

Opt-in via ``ExecutionSpec.audit`` / the CLI ``--audit`` flag.  After the
simulation's vectorized Pass B has produced the whole-run matrices, the
auditor re-derives every conservation law the report's numbers must obey
and records violations as structured telemetry events:

* **meter balance** — wall energy each site pays == grid serving energy
  plus battery charging energy;
* **serving balance** — site energy demand == grid draw + battery
  discharge (energy in equals energy out, per site and per cohort);
* **SoC bounds** — every pack's state of charge stays inside
  ``[dispatch floor, 1]`` (``[0, 1]`` without dispatch);
* **allocation feasibility** — the routed load never exceeds the
  physical capacity of the live population nor the offered demand;
* **clip accounting** — the report's clipped-setpoint count and energy
  match a recount of the dispatch replay's shortfall matrix;
* **churn conservation** — per cohort-day, devices are conserved exactly
  (``deployed - failures - retirements == active - day_start_count``,
  an integer identity both churn engines must satisfy) and replacement
  carbon is exactly ``battery swaps x embodied battery carbon``.

The auditor only *reads* Pass A/B outputs — it runs after all numerics
are done, draws no random numbers, and mutates nothing, so an audit-on
run is bitwise-identical to a plain run (locked by
``tests/scenarios/test_observatory_scenarios.py``) and costs nothing
when disabled (the scheduler never imports this module then).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import units

#: SoC bound slack; the ledger guarantees the floor to ~1 ulp.
SOC_TOL = 1e-9

#: Relative/absolute tolerance for energy-conservation identities.  These
#: hold exactly up to reassociation of float sums, so the slack only needs
#: to absorb a few ulps.
ENERGY_RTOL = 1e-9
ENERGY_ATOL = 1e-12


@dataclass(frozen=True)
class AuditViolation:
    """One failed invariant: which check, how many cells, how badly."""

    check: str
    count: int
    max_error: float


@dataclass(frozen=True)
class AuditReport:
    """The outcome of one invariant audit pass."""

    checks: int
    violations: Tuple[AuditViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def total_violations(self) -> int:
        return sum(violation.count for violation in self.violations)

    def render(self) -> str:
        if self.ok:
            return (
                f"audit: all {self.checks} invariant checks passed "
                "(0 violations)"
            )
        lines = [
            f"audit: {len(self.violations)} of {self.checks} invariant "
            f"checks FAILED ({self.total_violations} violating cells)"
        ]
        for violation in self.violations:
            lines.append(
                f"  {violation.check}: {violation.count} cells, "
                f"max error {violation.max_error:.3e}"
            )
        return "\n".join(lines)


class _Auditor:
    """Accumulates check outcomes; one instance per audited run."""

    def __init__(self) -> None:
        self.checks = 0
        self.violations: List[AuditViolation] = []

    def check_mask(self, name: str, bad: np.ndarray, error: np.ndarray) -> None:
        """Record one elementwise check: ``bad`` marks violating cells."""
        self.checks += 1
        count = int(np.count_nonzero(bad))
        if count:
            self.violations.append(
                AuditViolation(
                    check=name,
                    count=count,
                    max_error=float(np.max(np.abs(error[bad]))),
                )
            )

    def check_close(self, name: str, actual: np.ndarray, expected: np.ndarray) -> None:
        """Conservation identity: ``actual == expected`` up to a few ulps."""
        diff = np.asarray(actual, dtype=float) - np.asarray(expected, dtype=float)
        scale = np.maximum(np.abs(actual), np.abs(expected))
        self.check_mask(
            name, np.abs(diff) > ENERGY_ATOL + ENERGY_RTOL * scale, diff
        )

    def check_scalar(self, name: str, actual: float, expected: float) -> None:
        self.checks += 1
        diff = float(actual) - float(expected)
        scale = max(abs(actual), abs(expected))
        if abs(diff) > ENERGY_ATOL + ENERGY_RTOL * scale:
            self.violations.append(
                AuditViolation(check=name, count=1, max_error=abs(diff))
            )


def audit_fleet_run(
    *,
    alloc: np.ndarray,
    demand: np.ndarray,
    capacity_rows: np.ndarray,
    energy_kwh: np.ndarray,
    grid_kwh: np.ndarray,
    battery_kwh: np.ndarray,
    charge_kwh: np.ndarray,
    total_kwh: np.ndarray,
    cohort_energy_kwh: np.ndarray,
    cohort_grid_kwh: np.ndarray,
    cohort_battery_kwh: np.ndarray,
    cohort_charge_kwh: np.ndarray,
    cohort_soc: np.ndarray,
    min_soc: Optional[float] = None,
    shortfall_j: Optional[np.ndarray] = None,
    clipped_setpoints: int = 0,
    clipped_energy_kwh: float = 0.0,
    cohort_counts_day: Optional[np.ndarray] = None,
    cohort_active: Optional[np.ndarray] = None,
    cohort_failures: Optional[np.ndarray] = None,
    cohort_retirements: Optional[np.ndarray] = None,
    cohort_swaps_day: Optional[np.ndarray] = None,
    cohort_deployed: Optional[np.ndarray] = None,
    cohort_replacement_g: Optional[np.ndarray] = None,
    cohort_swap_embodied_g: Optional[np.ndarray] = None,
    telemetry=None,
) -> AuditReport:
    """Run every invariant check over one finished run's matrices.

    ``capacity_rows`` is the per-``(hour, segment)`` *physical* capacity of
    the live population (requests/s); ``min_soc`` is the dispatch policy's
    SoC floor (``None`` without dispatch); ``shortfall_j`` is the dispatch
    replay's per-``(hour, pack)`` undelivered discharge energy.  Violations
    are recorded on ``telemetry`` as ``audit.violation`` events plus the
    ``audit.checks`` / ``audit.violations`` counters.

    The churn matrices (all ``(n_days, n_cohorts)``, plus the per-cohort
    ``cohort_swap_embodied_g`` vector of grams per battery swap) are
    optional as a group: when provided, the device-conservation and
    replacement-carbon identities are checked per cohort-day.  They hold
    *exactly* — integer counting for devices, one float product per day
    for carbon — for both the ``device`` and ``bucket`` churn engines.

    Allocation feasibility and clip recounts use the scheduler's own
    tolerances.  They are imported here, not at module level, so the
    observatory keeps no import-time dependency on the fleet layer (which
    itself imports :mod:`repro.telemetry`).
    """
    from repro.fleet.scheduler import ALLOC_TOL_RPS, CLIP_TOL_J

    auditor = _Auditor()

    # Allocation feasibility: never negative, never beyond the physical
    # capacity of the live population, never more than the offered demand.
    auditor.check_mask("allocation_nonnegative", alloc < -ALLOC_TOL_RPS, alloc)
    over = alloc - capacity_rows
    auditor.check_mask("allocation_within_capacity", over > ALLOC_TOL_RPS, over)
    row_over = alloc.sum(axis=1) - (demand * (1.0 + ALLOC_TOL_RPS) + ALLOC_TOL_RPS)
    auditor.check_mask("allocation_within_demand", row_over > 0, row_over)

    # Meter balance: the wall energy each site pays is exactly its grid
    # serving draw plus its battery charging draw.
    auditor.check_close("site_meter_balance", energy_kwh, grid_kwh + charge_kwh)
    # Serving balance: site energy demand == grid + battery out.
    auditor.check_close("site_serving_balance", total_kwh, grid_kwh + battery_kwh)
    auditor.check_close(
        "cohort_serving_balance",
        cohort_energy_kwh,
        cohort_grid_kwh + cohort_battery_kwh,
    )
    # Nothing flows backwards through the meter, and a pack cannot serve
    # more device energy than the devices drew.
    auditor.check_mask("grid_nonnegative", grid_kwh < -ENERGY_ATOL, grid_kwh)
    auditor.check_mask(
        "charge_nonnegative", cohort_charge_kwh < -ENERGY_ATOL, cohort_charge_kwh
    )
    over_served = cohort_battery_kwh - cohort_energy_kwh
    auditor.check_mask(
        "battery_within_device_load",
        over_served > ENERGY_ATOL + ENERGY_RTOL * np.abs(cohort_energy_kwh),
        over_served,
    )

    # SoC bounds: every pack stays inside [floor, ceiling].
    floor = 0.0 if min_soc is None else float(min_soc)
    auditor.check_mask(
        "soc_floor", cohort_soc < floor - SOC_TOL, cohort_soc - floor
    )
    auditor.check_mask(
        "soc_ceiling", cohort_soc > 1.0 + SOC_TOL, cohort_soc - 1.0
    )

    # Clip accounting: the report's clipped figures match a recount of the
    # replay's shortfall matrix.
    if shortfall_j is not None:
        infeasible = shortfall_j > CLIP_TOL_J
        auditor.check_scalar(
            "clip_count_consistent",
            float(clipped_setpoints),
            float(np.count_nonzero(infeasible)),
        )
        recounted_kwh = (
            float(shortfall_j[infeasible].sum()) / units.JOULES_PER_KWH
        )
        auditor.check_scalar(
            "clip_energy_consistent", clipped_energy_kwh, recounted_kwh
        )

    # Churn conservation: devices are counted, not summed — the identity
    # deployed - failures - retirements == active - day_start_count holds
    # exactly per cohort-day for every churn engine, as does replacement
    # carbon == swaps x embodied.
    if cohort_counts_day is not None:
        flow = cohort_deployed - cohort_failures - cohort_retirements
        drift = (cohort_active - cohort_counts_day) - flow
        auditor.check_mask("churn_count_conservation", drift != 0, drift)
        auditor.check_mask(
            "churn_counts_nonnegative", cohort_active < 0, cohort_active
        )
        auditor.check_close(
            "churn_carbon_conservation",
            cohort_replacement_g,
            cohort_swaps_day * cohort_swap_embodied_g[None, :],
        )

    report = AuditReport(
        checks=auditor.checks, violations=tuple(auditor.violations)
    )
    if telemetry is not None:
        telemetry.count("audit.checks", report.checks)
        telemetry.count("audit.violations", report.total_violations)
        for violation in report.violations:
            telemetry.event(
                "audit.violation",
                check=violation.check,
                count=violation.count,
                max_error=violation.max_error,
            )
    return report
