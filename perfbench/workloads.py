"""The benchmark's workloads: inputs, one closed-loop iteration, checks.

Each workload is built from the benchmark seed alone and drives the program
through its public API from one host process (``jobs=1``,
``execution.shards=1``).  An iteration is timed around :meth:`run_once`
only; :meth:`before`/:meth:`after` (fresh stores) and :meth:`check`
(correctness, digest) run outside the timed region.

The program modules are imported inside the constructors, so building a
workload is exactly the set-up cost ``setup_s`` measures: imports, spec and
app construction.  Module functions the tracer may wrap are always reached
through their module (``sweep.sweep_scenario``), never through a name bound
at import time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import struct
import tempfile
from typing import Dict, List

import numpy as np


def _feed(hasher, value) -> None:
    """Feed one value's canonical encoding into ``hasher``.

    Dataclasses go field by field, arrays by dtype, shape and raw bytes,
    floats by their exact bits and NumPy scalars as the Python scalars the
    store's ``to_dict`` encoding turns them into, so two values digest
    equal exactly when they are bitwise equal.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        hasher.update(b"D" + type(value).__name__.encode())
        for field in dataclasses.fields(value):
            hasher.update(b"F" + field.name.encode())
            _feed(hasher, getattr(value, field.name))
    elif isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        hasher.update(f"A{array.dtype.str}{array.shape}".encode())
        hasher.update(array.tobytes())
    elif isinstance(value, dict):
        hasher.update(b"M%d" % len(value))
        for key in sorted(value, key=repr):
            _feed(hasher, key)
            _feed(hasher, value[key])
    elif isinstance(value, (list, tuple)):
        hasher.update(b"L%d" % len(value))
        for item in value:
            _feed(hasher, item)
    elif isinstance(value, (float, np.floating)):
        hasher.update(b"f" + struct.pack("<d", float(value)))
    elif isinstance(value, (bool, np.bool_)):
        hasher.update(b"b%d" % bool(value))
    elif isinstance(value, (int, np.integer)):
        hasher.update(b"i%d" % int(value))
    else:
        hasher.update(b"s" + repr(value).encode())


def digest(value) -> str:
    """SHA-256 of ``value``'s canonical encoding."""
    hasher = hashlib.sha256()
    _feed(hasher, value)
    return hasher.hexdigest()


@dataclasses.dataclass(frozen=True)
class Check:
    """One iteration's verdict: operations attempted, failed, and the digest."""

    operations: int
    failed: int
    digest: str


class Workload:
    """Base: subclasses set ``name`` and implement run/check/work."""

    name = ""
    #: Operations one iteration attempts (for ``attempted``/``failed``).
    operations = 1

    def prepare(self) -> None:
        """Untimed work after set-up that the timed iterations rely on."""

    def before(self) -> None:
        """Untimed per-iteration preparation."""

    def after(self) -> None:
        """Untimed per-iteration cleanup."""

    def final_checks(self, reference: str) -> Check:
        """Checks run once, outside the timed iterations."""
        return Check(0, 0, reference)

    def close(self) -> None:
        """Release everything the workload created on disk."""


class FleetScale(Workload):
    """1M devices x 2 years of fleet accounting with the battery ledger."""

    name = "fleet-scale"

    def __init__(self, seed: int, scratch: str) -> None:
        from repro.scenarios import registry, runner
        from repro.telemetry.observatory import audit

        self.runner = runner
        #: The ledger guarantees its SoC bounds to about one ulp; the
        #: program's own audit allows this slack.
        self.soc_tol = audit.SOC_TOL
        self.spec = registry.get_scenario("carbon-buffer").with_overrides(
            {
                "sites.0.devices.count": 500_000,
                "sites.1.devices.count": 500_000,
                "churn.sampler": "bucket",
                "routing.latency_probe_s": 0.0,
                "duration_days": 732,
                "seed": seed,
            }
        )
        self.min_soc = self.spec.charging.min_state_of_charge
        self.report_digest = None

    def run_once(self):
        return self.runner.ScenarioRunner(self.spec).run()

    def work(self, result) -> float:
        return float(result.report.active_devices.sum())

    def _soc_in_bounds(self, report) -> bool:
        series = [s for s in (report.soc, report.cohort_soc) if s is not None]
        return bool(series) and all(
            s.min() >= self.min_soc - self.soc_tol and s.max() <= 1.0 + self.soc_tol
            for s in series
        )

    def check(self, result, reference) -> Check:
        result_digest = digest(result)
        if reference is None:
            self.report_digest = digest(result.report)
        ok = self._soc_in_bounds(result.report) and reference in (None, result_digest)
        return Check(1, 0 if ok else 1, result_digest)

    def final_checks(self, reference: str) -> Check:
        """An audited run: zero invariant violations and the same report.

        ``execution.audit`` is outside the spec hash, so the audited run
        must reproduce the timed runs' report bitwise.
        """
        audited_spec = self.spec.with_overrides({"execution.audit": True})
        audited = self.runner.ScenarioRunner(audited_spec)
        result = audited.run()
        ok = (
            audited_spec.sha256() == self.spec.sha256()
            and audited.last_audit is not None
            and audited.last_audit.ok
            and self._soc_in_bounds(result.report)
            and digest(result.report) == self.report_digest
        )
        return Check(1, 0 if ok else 1, reference)


class ServingDes(Workload):
    """The Figure 8 read and write phases on the Pixel 3A cloudlet."""

    name = "serving-des"
    operations = 2
    #: Offered load per phase, below the cloudlet's knee (~3,000 QPS write,
    #: ~3,500 QPS read in Figure 7).
    QPS = 1_200.0
    DURATION_S = 1.2
    WARMUP_S = 0.2

    def __init__(self, seed: int, scratch: str) -> None:
        from repro.microservices import apps, calibration, cluster

        self.app = apps.social_network()
        self.cluster = cluster.pixel_cloudlet()
        self.placement = self.cluster.default_placement(self.app)
        self.threshold = calibration.SATURATION_COMPLETION_THRESHOLD
        self.phases = (
            (apps.READ_USER_TIMELINE, seed),
            (apps.COMPOSE_POST, seed + 1),
        )

    def run_once(self):
        return [
            self.cluster.run(
                self.app,
                {request_type: 1.0},
                qps=self.QPS,
                duration_s=self.DURATION_S,
                warmup_s=self.WARMUP_S,
                seed=phase_seed,
                placement=self.placement,
            )
            for request_type, phase_seed in self.phases
        ]

    def work(self, results) -> float:
        return float(sum(result.completed_requests for result in results))

    def check(self, results, reference) -> Check:
        result_digest = digest(results)
        failed = sum(
            result.completion_ratio < self.threshold for result in results
        )
        if reference not in (None, result_digest):
            failed = len(results)
        return Check(len(results), failed, result_digest)


def counting_store(root: str):
    """An ``ExperimentStore`` at ``root`` that counts lookups, hits and puts."""
    from repro.store import core

    class CountingStore(core.ExperimentStore):
        lookups = hits = puts = 0

        def get_entry_or_none(self, key):
            entry = super().get_entry_or_none(key)
            self.lookups += 1
            self.hits += entry is not None
            return entry

        def put(self, result, manifest=None):
            self.puts += 1
            return super().put(result, manifest=manifest)

    return CountingStore(root)


class SweepStore(Workload):
    """A cold 4 x 2 noisy-forecast sweep into a fresh experiment store."""

    name = "sweep-store"
    AXES = {
        "forecast.noise_sigma": [0.1, 0.2, 0.3, 0.4],
        "demand.fraction_of_capacity": [0.3, 0.5],
    }
    operations = len(AXES["forecast.noise_sigma"]) * len(
        AXES["demand.fraction_of_capacity"]
    )

    def __init__(self, seed: int, scratch: str) -> None:
        from repro.scenarios import registry, sweep

        self.sweep = sweep
        self.scratch = scratch
        self.spec = registry.get_scenario("forecast-buffer").with_overrides(
            {"forecast.model": "noisy", "duration_days": 7, "seed": seed}
        )
        self.store = None

    def _sweep(self):
        return self.sweep.sweep_scenario(self.spec, self.AXES, jobs=1, store=self.store)

    def _fresh_store(self):
        return counting_store(tempfile.mkdtemp(dir=self.scratch))

    def _drop_store(self) -> None:
        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)
            self.store = None

    def before(self) -> None:
        self.store = self._fresh_store()

    def after(self) -> None:
        self._drop_store()

    def close(self) -> None:
        self._drop_store()

    def run_once(self):
        return self._sweep()

    def work(self, result) -> float:
        return float(len(result.cells))

    def _cell_digests(self, result) -> List[str]:
        return [digest(cell.result) for cell in result.cells]

    def check(self, result, reference) -> Check:
        cells = self._cell_digests(result)
        result_digest = digest(cells)
        failed = sum(cell.result.spec.sha256() not in self.store for cell in result.cells)
        if reference not in (None, result_digest):
            failed = len(cells)
        return Check(len(cells), failed, result_digest)


class SweepResume(SweepStore):
    """The same sweep resumed against a filled store: every cell hits."""

    name = "sweep-resume"

    def prepare(self) -> None:
        self.store = self._fresh_store()
        self.cold = self._cell_digests(self._sweep())

    def before(self) -> None:
        self.store.lookups = self.store.hits = self.store.puts = 0

    def after(self) -> None:
        pass

    def check(self, result, reference) -> Check:
        cells = self._cell_digests(result)
        failed = sum(warm != cold for warm, cold in zip(cells, self.cold))
        if self.store.hits != self.store.lookups or self.store.puts:
            failed = len(cells)  # a miss simulated again: not a resume
        return Check(len(cells), failed, digest(cells))


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (FleetScale, ServingDes, SweepStore, SweepResume)
}
