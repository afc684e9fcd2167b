"""Bucketed population churn: per-deploy-day cohort buckets, not per-device rows.

:class:`~repro.fleet.population.DeviceCohort` keeps one row per device ever
deployed and pays O(n_devices) per simulated day — a uniform draw per
device and several passes over every row.

This module exploits a structural fact of that reference engine: every
device deployed on the same day shares *identical* state forever after.
Ages advance uniformly, battery cycles accrue at the cohort's common
realised utilisation, and failures remove uniformly-random members — so the
survivors of a deploy-day group are indistinguishable.  One row of the
shared ``(_count, _age_days, _battery_cycles, _battery_swaps)`` state can
therefore hold a whole deploy-day bucket, and :class:`BucketedCohort` is
the same engine with one bucket per row:

* **hardware failures** become one seeded binomial draw per bucket —
  ``Binomial(count, p_fail(age))`` is exactly the distribution of the sum
  of ``count`` i.i.d. per-device Bernoulli draws at the same age, so the
  bucketed engine is *distributionally* equivalent to the reference while
  its RNG stream (and hence any single trajectory) differs bitwise;
* **battery wear-out** is the shared whole-row event: the bucket's common
  cycle counter crosses ``cycle_life`` for every member at once, swapping
  the whole bucket in place (``swap_count + 1``, cycles reset) or retiring
  it when the swap budget is spent;
* **intake / deploy / shortfall** arithmetic stays exact integer counting,
  so the conservation laws (``deployed - failures - retirements ==
  delta(active)`` and ``replacement carbon == swaps x embodied``) hold
  exactly, bucket for bucket — the invariant-audit mode checks them.

Only deployment creates buckets (at most one per step) and empty buckets
are compacted away, so a cohort carries at most ~``n_days`` live buckets
regardless of device count: churn cost is proportional to the number of
*distinct device states*, not the number of devices.

Selection is a spec-level choice — ``churn.sampler = "device" | "bucket"``
on :class:`~repro.scenarios.spec.ChurnSpec`, included in the spec hash
because the two engines produce different (equally valid) trajectories.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.fleet.population import DeviceCohort

#: Churn engine names a :class:`~repro.scenarios.spec.ChurnSpec` may select.
CHURN_SAMPLERS = ("device", "bucket")


def cohort_class_for_sampler(sampler: str) -> type:
    """Resolve a ``churn.sampler`` name to its cohort engine class."""
    if sampler == "device":
        return DeviceCohort
    if sampler == "bucket":
        return BucketedCohort
    known = ", ".join(CHURN_SAMPLERS)
    raise ValueError(f"unknown churn sampler {sampler!r}; expected one of: {known}")


class BucketedCohort(DeviceCohort):
    """A device population tracked as deploy-day buckets of identical state.

    The :class:`~repro.fleet.population.DeviceCohort` engine with one row
    per bucket instead of one per device: O(buckets) per step instead of
    O(devices).  Trajectories are distributionally equivalent to the
    per-device engine, not bitwise-identical (the RNG stream differs: one
    binomial per bucket instead of one uniform per device), which is why
    the choice lives on the spec and in its hash.
    """

    #: Engine name surfaced via the ``churn.sampler`` telemetry gauge.
    sampler_name = "bucket"

    @property
    def buckets_live(self) -> int:
        """Number of live buckets (distinct device states) right now."""
        return self._n

    def _initial_rows(self, capacity_hint: Optional[int]) -> int:
        # Buckets scale with simulated days, not devices, so the device
        # count hint does not size them.
        return 16

    def _open_rows(self, count: int) -> None:
        """Open one fresh bucket (age 0, pristine battery) of ``count`` devices."""
        self._append_rows(1, count)
        self.buckets_peak = max(self.buckets_peak, self._n)

    def _draw_failures(
        self, counts: np.ndarray, ages: np.ndarray, dt_days: float
    ) -> np.ndarray:
        """One binomial draw per bucket: its members share one age, so
        ``Binomial(count, p(age))`` is exactly the per-device Bernoulli sum."""
        p_fail = self.failure_model.failure_probability(ages, dt_days)
        return self._rng.binomial(counts, p_fail)

    def _mean(self, values: np.ndarray) -> float:
        """Count-weighted mean of ``values`` (0 when no device is live)."""
        counts = self._count[: self._n]
        total = int(counts.sum())
        if total == 0:
            return 0.0
        return float(np.sum(counts * values) / total)

    def _compact(self) -> None:
        """Drop emptied buckets, preserving the order of the survivors."""
        m = self._n
        live = self._count[:m] > 0
        keep = int(np.count_nonzero(live))
        if keep == m:
            return
        for name in self._COLUMNS:
            array = getattr(self, name)
            array[:keep] = array[:m][live]
            array[keep:m] = 0
        self._n = keep
