"""Deferred dispatch replay: the whole run's battery ledger after Pass A.

The fleet loop's dispatch phase is the one hot phase that is *not* coupled
to population churn: allocation and churn must advance day by day (capacity
feeds the waterfill, realised utilisation feeds the cohort RNG streams),
but the battery ledger consumes only what that serial pass recorded — the
allocation matrix, each day's per-pack grid intensity, idle headroom, and
the day-start device counts.  So :class:`~repro.fleet.scheduler.
FleetSimulation` records those inputs during its serial pass and replays
the whole dispatch timeline afterwards: every day's thresholds in one call
(they read only the previous day's intensities), then the ledger through
:meth:`~repro.fleet.dispatch.EnergyLedger.step_block` — once for the whole
run for stateless policies, once per day for forecast policies that plan
against live SoC.
"""

from __future__ import annotations

from typing import Sequence

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
    capacity_day: np.ndarray,
    charge_rate_day: np.ndarray,
    step_s: float,
):
    """Replay the full dispatch timeline for every pack of the fleet.

    All matrices are ``(n_steps, n_packs)`` except the ``(n_days, n_packs)``
    day-start device counts the serial pass recorded and the pack
    capabilities derived from them
    (:func:`~repro.fleet.dispatch.pack_capabilities`, bitwise-identical to
    the live reads a per-day loop would perform).  Returns
    ``(battery_j, charge_j, soc, shortfall_j)`` — ``shortfall_j`` is the
    per-``(hour, pack)`` discharge energy the ledger could not deliver
    against the *policy's* (pre-override) modes, ready for the caller's
    clip accounting.
    """
    n_steps, n_packs = intensity.shape
    n_days = counts_day.shape[0]
    hours_per_day = n_steps // n_days
    ledger = dispatch.make_ledger(sites)
    days = intensity.reshape(n_days, hours_per_day, n_packs)
    # Day d's thresholds read day d-1's intensities; the first day has none.
    thresholds = np.full((n_days, n_packs), np.nan)
    thresholds[1:] = dispatch.day_thresholds(days[:-1], sites)
    modes = np.empty((n_steps, n_packs), dtype=np.int8)
    if dispatch.stateless_day_modes:
        # Modes depend only on (intensity, thresholds): every day's modes
        # are known up front, so the whole run is one step_block over
        # per-row (churn-following) capabilities.
        for day in range(n_days):
            rows = slice(day * hours_per_day, (day + 1) * hours_per_day)
            modes[rows] = dispatch.day_modes(intensity[rows], thresholds[day])
        battery_j, charge_j, soc = ledger.step_block(
            modes,
            device_j,
            step_s,
            np.repeat(capacity_day, hours_per_day, axis=0),
            np.repeat(charge_rate_day, hours_per_day, axis=0),
            idle_fraction,
        )
    else:
        # Forecast-style policies read live SoC when planning a day, so
        # modes and ledger stepping interleave one day at a time.
        battery_j = np.empty((n_steps, n_packs))
        charge_j = np.empty((n_steps, n_packs))
        soc = np.empty((n_steps, n_packs))
        for day in range(n_days):
            rows = slice(day * hours_per_day, (day + 1) * hours_per_day)
            dispatch.set_pack_counts(counts_day[day])
            day_modes = dispatch.day_modes(intensity[rows], thresholds[day])
            modes[rows] = day_modes
            battery_j[rows], charge_j[rows], soc[rows] = ledger.step_block(
                day_modes,
                device_j[rows],
                step_s,
                capacity_day[day],
                charge_rate_day[day],
                idle_fraction[rows],
            )
        dispatch.set_pack_counts(None)
    shortfall_j = np.where(
        modes == DISPATCH_DISCHARGE,
        np.maximum(device_j - battery_j, 0.0),
        0.0,
    )
    return battery_j, charge_j, soc, shortfall_j
