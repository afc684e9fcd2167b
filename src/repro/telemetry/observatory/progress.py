"""Live progress heartbeats for long runs and sweeps.

A :class:`ProgressReporter` accumulates completion ticks — simulated days
and finished sweep cells — and periodically emits one heartbeat: a human
line on a stream (stderr by default) or, given a path, one JSON record
per heartbeat (``--progress out.jsonl``).

The reporter is fed from *outside* the simulation: either by
:class:`ProgressTelemetry` (a :class:`~repro.telemetry.core.Telemetry`
subclass that converts already-recorded span completions into day ticks)
or by the sweep driver's per-cell callback.  Neither path touches RNG or
numeric state, so a progress-on run is bitwise-identical to a plain run
— the same hard rule the rest of the telemetry layer lives by — and a
run without a reporter pays nothing.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, Optional, TextIO

from repro.telemetry.core import Telemetry


class ProgressReporter:
    """Accumulates day/cell ticks and rate-limits heartbeat emission.

    ``interval_s`` throttles output (a million-device run ticks every
    simulated day; nobody wants 732 lines).  ``clock`` is injectable for
    tests.  With ``path`` set, heartbeats append JSON records to that
    file; otherwise human-readable lines go to ``stream`` (stderr).
    """

    def __init__(
        self,
        total_days: Optional[int] = None,
        total_cells: Optional[int] = None,
        stream: Optional[TextIO] = None,
        path: Optional[str] = None,
        interval_s: float = 1.0,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if interval_s < 0:
            raise ValueError(f"interval_s must be >= 0, got {interval_s}")
        self.total_days = total_days
        self.total_cells = total_cells
        self.days_done = 0
        self.cells_done = 0
        self.n_devices: Optional[float] = None
        self.interval_s = interval_s
        self.emitted = 0
        self._clock = clock
        self._start = clock()
        self._last_emit: Optional[float] = None
        self._path = path
        self._stream = stream
        self._handle: Optional[TextIO] = None

    # -- feeding -----------------------------------------------------------

    def set_fleet_size(self, n_devices: float) -> None:
        self.n_devices = n_devices

    def set_total_cells(self, total: int) -> None:
        self.total_cells = total

    def day_done(self, days: int = 1) -> None:
        self.days_done += days
        self.emit()

    def cell_done(self, cells: int = 1) -> None:
        self.cells_done += cells
        self.emit()

    # -- derived figures ---------------------------------------------------

    def elapsed_s(self) -> float:
        return self._clock() - self._start

    def snapshot(self) -> Dict[str, object]:
        """The current heartbeat record."""
        elapsed = self.elapsed_s()
        record: Dict[str, object] = {
            "kind": "progress",
            "wall_s": elapsed,
            "days_done": self.days_done,
            "total_days": self.total_days,
            "cells_done": self.cells_done,
            "total_cells": self.total_cells,
        }
        if self.n_devices and self.days_done and elapsed > 0:
            record["device_days_per_s"] = (
                self.n_devices * self.days_done / elapsed
            )
        fraction = self._fraction()
        if fraction is not None:
            record["fraction"] = fraction
            if fraction > 0:
                record["eta_s"] = elapsed * (1.0 - fraction) / fraction
        return record

    def _fraction(self) -> Optional[float]:
        if self.total_days:
            return min(self.days_done / self.total_days, 1.0)
        if self.total_cells:
            return min(self.cells_done / self.total_cells, 1.0)
        return None

    # -- emission ----------------------------------------------------------

    def emit(self, force: bool = False) -> bool:
        """Emit one heartbeat, unless one was emitted < ``interval_s`` ago."""
        now = self._clock()
        if (
            not force
            and self._last_emit is not None
            and now - self._last_emit < self.interval_s
        ):
            return False
        self._last_emit = now
        record = self.snapshot()
        if self._path is not None:
            if self._handle is None:
                self._handle = open(self._path, "w", encoding="utf-8")
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()
        else:
            stream = self._stream if self._stream is not None else sys.stderr
            stream.write(self._human_line(record) + "\n")
            stream.flush()
        self.emitted += 1
        return True

    def _human_line(self, record: Dict[str, object]) -> str:
        parts = []
        if self.total_days or self.days_done:
            total = f"/{self.total_days}" if self.total_days else ""
            parts.append(f"{self.days_done}{total} days")
        if self.total_cells or self.cells_done:
            total = f"/{self.total_cells}" if self.total_cells else ""
            parts.append(f"{self.cells_done}{total} cells")
        fraction = record.get("fraction")
        if fraction is not None:
            parts.append(f"{fraction:.1%}")
        throughput = record.get("device_days_per_s")
        if throughput is not None:
            parts.append(f"{throughput:,.0f} device-days/s")
        eta = record.get("eta_s")
        if eta is not None:
            parts.append(f"ETA {eta:.1f}s")
        parts.append(f"wall {record['wall_s']:.1f}s")
        return "progress: " + " | ".join(parts)

    def close(self) -> None:
        """Force a final heartbeat and release the output file, if any."""
        self.emit(force=True)
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class ProgressTelemetry(Telemetry):
    """A Telemetry that feeds a :class:`ProgressReporter` from completions.

    Every ``step_population`` span that completes is one simulated day
    (``calls`` days for batched spans), and the ``fleet.n_devices`` gauge
    carries the fleet size for the throughput figure.  The hooks run
    strictly *after* the parent class recorded the span/gauge, on data
    already collected — the simulation sees the exact
    same telemetry object surface, so results are bitwise-identical with
    or without the reporter (locked by
    ``tests/scenarios/test_observatory_scenarios.py``).
    """

    def __init__(self, reporter: ProgressReporter) -> None:
        super().__init__()
        self.reporter = reporter

    def _record(
        self, path: str, depth: int, start: float, duration: float, calls: int = 1
    ) -> None:
        super()._record(path, depth, start, duration, calls)
        if path.rsplit("/", 1)[-1] == "step_population" and (
            "hindsight" not in path
        ):
            self.reporter.day_done(max(int(calls), 1))

    def gauge(self, name: str, value: float) -> None:
        super().gauge(name, value)
        if name == "fleet.n_devices":
            self.reporter.set_fleet_size(value)
