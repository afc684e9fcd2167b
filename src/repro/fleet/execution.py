"""Deferred dispatch replay: the whole run's battery ledger in one pass.

The fleet loop's dispatch phase is the one hot phase that is *not* coupled
to population churn: allocation and churn must advance day by day (capacity
feeds the waterfill, realised utilisation feeds the cohort RNG streams),
but the battery ledger consumes only what that serial pass recorded — the
allocation matrix, each day's per-pack grid intensity, idle headroom, and
the day-start device counts.  So :class:`~repro.fleet.scheduler.
FleetSimulation` records those inputs during its serial pass and replays
the whole dispatch timeline afterwards through
:meth:`~repro.fleet.dispatch.EnergyLedger.step_block` — one vectorized pass
per run for stateless policies, one per day for forecast policies that plan
against live SoC.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.fleet.dispatch import DISPATCH_DISCHARGE, DispatchPolicy
from repro.fleet.sites import FleetSite


def execute_dispatch(
    sites: Sequence[FleetSite],
    dispatch: DispatchPolicy,
    intensity: np.ndarray,
    device_j: np.ndarray,
    idle_fraction: np.ndarray,
    counts_day: np.ndarray,
    step_s: float,
):
    """Replay the full dispatch timeline for every pack of the fleet.

    All matrices are ``(n_steps, n_packs)``; ``counts_day`` is the
    ``(n_days, n_packs)`` day-start device counts the serial pass recorded
    (the ledger's capabilities are re-derived from them, bitwise-identical
    to the live reads a per-day loop would perform).  Returns
    ``(battery_j, charge_j, soc, shortfall_j)`` — ``shortfall_j`` is the
    per-``(hour, pack)`` discharge energy the ledger could not deliver
    against the *policy's* (pre-override) modes, ready for the caller's
    clip accounting.
    """
    n_steps, n_packs = intensity.shape
    n_days = counts_day.shape[0]
    hours_per_day = n_steps // n_days
    ledger = dispatch.make_ledger(sites)
    modes = np.empty((n_steps, n_packs), dtype=np.int8)
    battery_j = np.empty((n_steps, n_packs))
    charge_j = np.empty((n_steps, n_packs))
    soc = np.empty((n_steps, n_packs))
    previous_intensity: Optional[np.ndarray] = None
    if dispatch.stateless_day_modes:
        # Thresholds depend only on the previous day's intensity and modes
        # only on (intensity, thresholds): every day's modes are known up
        # front, so the whole run is one step_block over per-row (churn-
        # following) capabilities.
        capacity_rows = np.empty((n_steps, n_packs))
        charge_rate_rows = np.empty((n_steps, n_packs))
        for day in range(n_days):
            rows = slice(day * hours_per_day, (day + 1) * hours_per_day)
            thresholds = dispatch.day_thresholds(previous_intensity, sites)
            modes[rows] = dispatch.day_modes(intensity[rows], thresholds)
            day_capacity, day_rate = ledger.day_capabilities(counts_day[day])
            capacity_rows[rows] = day_capacity
            charge_rate_rows[rows] = day_rate
            previous_intensity = intensity[rows]
        battery_j, charge_j, soc = ledger.step_block(
            modes, device_j, step_s, capacity_rows, charge_rate_rows, idle_fraction
        )
    else:
        # Forecast-style policies read live SoC when planning a day, so
        # modes and ledger stepping interleave — but each day still
        # advances in one vectorized step_block instead of 24 step calls.
        for day in range(n_days):
            rows = slice(day * hours_per_day, (day + 1) * hours_per_day)
            thresholds = dispatch.day_thresholds(previous_intensity, sites)
            dispatch.set_pack_counts(counts_day[day])
            day_modes = dispatch.day_modes(intensity[rows], thresholds)
            modes[rows] = day_modes
            day_capacity, day_rate = ledger.day_capabilities(counts_day[day])
            battery_j[rows], charge_j[rows], soc[rows] = ledger.step_block(
                day_modes,
                device_j[rows],
                step_s,
                day_capacity,
                day_rate,
                idle_fraction[rows],
            )
            previous_intensity = intensity[rows]
        dispatch.set_pack_counts(None)
    shortfall_j = np.where(
        modes == DISPATCH_DISCHARGE,
        np.maximum(device_j - battery_j, 0.0),
        0.0,
    )
    return battery_j, charge_j, soc, shortfall_j
