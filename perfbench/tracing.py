"""Outside-in per-layer tracing: wraps the program's public entry points.

Nothing under ``src/`` is instrumented for the benchmark.  Instead,
:class:`Tracer` swaps a timing wrapper onto each layer's entry point (a
module function or a class method) for the duration of the traced
iterations and restores the originals afterwards.  Every wrapper keeps a
stack of child-time accumulators, so a span's *self* time is its duration
minus the time its wrapped children covered, and the self times of all
spans plus the time outside every span add up to the iteration wall clock.

Names one module imports from another are wrapped where they are called
(``execute_dispatch`` in ``repro.fleet.scheduler``,
``simulate_latency_aware`` in ``repro.scenarios.runner``, the serializers in
``repro.store.core``), because patching the defining module would not
reach the caller's already-bound name.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Counter the DES event wrapper increments; every span records its delta.
EVENTS = "des.events"


class Tracer:
    """Span and counter recorder over wrapped entry points."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Work counts the span hooks derive from arguments and results.
        self.counts: Counter = Counter()
        #: Call counts of the untimed counting wrappers, one cell per key:
        #: a list cell costs less per call than a dict update.
        self.cells: Dict[str, List[int]] = defaultdict(lambda: [0])
        #: DES events scheduled while each span was open (inclusive).
        self.span_events: Counter = Counter()
        #: Host time spent outside the program while spans were open.
        self.excluded_s = 0.0
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``after(tracer, args, kwargs, result)`` runs once the call returned,
        to derive work counts from the arguments or the result.
        """
        func = owner.__dict__[attr]
        tracer = self
        events = self.cells[EVENTS]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            events_before = events[0]
            excluded_before = tracer.excluded_s
            stack.append(0.0)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                tracer.self_s[name] += elapsed - child
                tracer.total_s[name] += elapsed - (tracer.excluded_s - excluded_before)
                tracer.calls[name] += 1
                tracer.span_events[name] += events[0] - events_before
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def counter(self, owner, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` under ``key`` without timing them."""
        func = owner.__dict__[attr]
        cell = self.cells[key]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return func(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def method_span(self, classes, attr: str, name: str, after=None) -> None:
        """Wrap ``attr`` once on every class of ``classes`` that defines it.

        A method shared through inheritance is wrapped once, on the class
        in the MRO that owns it, so it is never counted twice per call.
        """
        owners = []
        for cls in classes:
            owner = next(base for base in cls.__mro__ if attr in base.__dict__)
            if owner not in owners:
                owners.append(owner)
        for owner in owners:
            self.span(owner, attr, name, after)

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` spent outside the program out of the open span."""
        if self._stack:
            self._stack[-1] += seconds
            self.excluded_s += seconds

    def uninstall(self) -> None:
        """Restore every wrapped entry point, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _subclasses(base) -> List[type]:
    """``base`` and all its subclasses currently defined, depth first."""
    found = [base]
    for sub in base.__subclasses__():
        found.extend(cls for cls in _subclasses(sub) if cls not in found)
    return found


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# -- work-count hooks -------------------------------------------------------


def _pack_hours(tracer, args, kwargs, result) -> None:
    modes = _arg(args, kwargs, 1, "modes")
    tracer.counts["ledger.pack_hours"] += int(np.prod(np.shape(modes)))


def _churn_device_days(tracer, args, kwargs, result) -> None:
    dt_days = _arg(args, kwargs, 1, "dt_days", 1.0)
    tracer.counts["churn.device_days"] += result.active * dt_days


def _probe_requests(tracer, args, kwargs, result) -> None:
    _, served_by_site = result
    tracer.counts["probe.requests"] += sum(served_by_site.values())


def _serving_requests(tracer, args, kwargs, result) -> None:
    tracer.counts["serving.requests_completed"] += result.completed_requests


def _sweep_cells(tracer, args, kwargs, result) -> None:
    tracer.counts["sweep.cells"] += len(result.cells)


def _store_put(tracer, args, kwargs, result) -> None:
    store = args[0]
    tracer.counts["store.bytes_written"] += os.path.getsize(store.path_for(result))


def _store_get(tracer, args, kwargs, result) -> None:
    if result is None:
        return
    store, key = args[0], _arg(args, kwargs, 1, "key")
    tracer.counts["store.hits"] += 1
    tracer.counts["store.bytes_read"] += os.path.getsize(store.path_for(key))


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's entry points; returns ``tracer`` for chaining."""
    mod = importlib.import_module
    runner = mod("repro.scenarios.runner")
    sweep = mod("repro.scenarios.sweep")
    scheduler = mod("repro.fleet.scheduler")
    churn = mod("repro.fleet.churn")
    dispatch = mod("repro.fleet.dispatch")
    models = mod("repro.forecast.models")
    planner = mod("repro.forecast.planner")
    engine = mod("repro.simulation.engine")
    resources = mod("repro.simulation.resources")
    cluster = mod("repro.microservices.cluster")
    store_core = mod("repro.store.core")
    serialize = mod("repro.store.serialize")

    tracer.span(sweep, "sweep_scenario", "sweep", _sweep_cells)
    tracer.span(runner.ScenarioRunner, "run", "scenarios.run")
    tracer.span(runner.ScenarioRunner, "build_sites", "scenarios.build_sites")
    tracer.span(runner, "simulate_latency_aware", "probe", _probe_requests)
    tracer.span(scheduler.FleetSimulation, "run", "fleet.run")
    tracer.method_span(
        _subclasses(scheduler.RoutingPolicy)[1:], "allocate", "routing.allocate"
    )
    tracer.method_span(
        [churn.cohort_class_for_sampler(name) for name in churn.CHURN_SAMPLERS],
        "step",
        "churn.step",
        _churn_device_days,
    )
    tracer.span(scheduler, "execute_dispatch", "execution.dispatch")
    tracer.method_span(
        _subclasses(dispatch.DispatchPolicy)[1:], "day_modes", "dispatch.day_modes"
    )
    tracer.span(dispatch.EnergyLedger, "step_block", "ledger.step_block", _pack_hours)
    tracer.span(planner.LookaheadPlanner, "plan_window", "forecast.plan_window")
    tracer.method_span(
        _subclasses(models.ForecastModel)[1:], "window", "forecast.window"
    )
    tracer.span(engine.Simulator, "run", "des.run")
    tracer.span(engine.Simulator, "run_until", "des.run")
    tracer.counter(engine.Simulator, "schedule", EVENTS)
    tracer.counter(resources.Resource, "acquire", "resources.acquires")
    tracer.span(cluster.ServingCluster, "run", "serving.run", _serving_requests)
    tracer.span(store_core.ExperimentStore, "put", "store.put", _store_put)
    tracer.span(
        store_core.ExperimentStore, "get_entry_or_none", "store.get", _store_get
    )
    for module in (store_core, serialize):
        tracer.span(module, "result_to_dict", "serialize.encode")
        tracer.span(module, "result_from_dict", "serialize.decode")
    return tracer


#: Span name -> the per-layer metric reporting its self time.
SELF_TIME_METRICS = {
    "sweep": "sweep.self_s",
    "scenarios.run": "scenarios.run_self_s",
    "scenarios.build_sites": "scenarios.build_sites_s",
    "probe": "probe.run_s",
    "fleet.run": "fleet.run_self_s",
    "routing.allocate": "routing.allocate_s",
    "churn.step": "churn.step_s",
    "execution.dispatch": "execution.dispatch_self_s",
    "dispatch.day_modes": "dispatch.day_modes_s",
    "ledger.step_block": "ledger.step_block_s",
    "forecast.plan_window": "forecast.plan_window_s",
    "forecast.window": "forecast.window_s",
    "des.run": "des.run_s",
    "serving.run": "serving.run_self_s",
    "store.put": "store.put_s",
    "store.get": "store.get_s",
    "serialize.encode": "serialize.encode_s",
    "serialize.decode": "serialize.decode_s",
}


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(
    tracer: Tracer,
    iterations: int,
    traced_wall_s: float,
    overhead_frac: float,
    slowdown: float = 1.0,
) -> Dict[str, float]:
    """Per-iteration per-layer metrics from ``iterations`` traced iterations.

    Times and counts are means per iteration; rates divide a layer's work by
    its own self time.  ``unattributed_s`` is the part of the mean traced
    iteration wall clock (``traced_wall_s`` summed over the iterations) that
    no span covered, so every ``*_s`` row plus ``unattributed_s`` sums to
    ``trace.iteration_s``.  Every time is divided by ``slowdown`` (the
    host's measured slowness against the reference host), so rates are
    multiplied by it.
    """
    n = float(iterations)
    traced_wall_s /= slowdown
    selfs = defaultdict(
        float, {span: seconds / slowdown for span, seconds in tracer.self_s.items()}
    )
    calls, counts = tracer.calls, Counter(tracer.counts)
    counts.update({key: cell[0] for key, cell in tracer.cells.items()})
    metrics = {metric: selfs[span] / n for span, metric in SELF_TIME_METRICS.items()}
    requests = counts["serving.requests_completed"] + counts["probe.requests"]
    gets = calls["store.get"]
    metrics.update(
        {
            "ledger.pack_hours": counts["ledger.pack_hours"] / n,
            "ledger.pack_hours_per_s": _rate(
                counts["ledger.pack_hours"], selfs["ledger.step_block"]
            ),
            "churn.steps": calls["churn.step"] / n,
            "churn.device_days_per_s": _rate(
                counts["churn.device_days"], selfs["churn.step"]
            ),
            "routing.allocate_calls": calls["routing.allocate"] / n,
            "fleet.runs": calls["fleet.run"] / n,
            "scenarios.runs": calls["scenarios.run"] / n,
            "sweep.cells_per_fleet_run": _rate(
                counts["sweep.cells"], calls["fleet.run"]
            ),
            "des.events": counts[EVENTS] / n,
            "des.events_per_s": _rate(counts[EVENTS], selfs["des.run"]),
            "des.events_per_request": _rate(counts[EVENTS], requests),
            "resources.acquires": counts["resources.acquires"] / n,
            "probe.requests": counts["probe.requests"] / n,
            "probe.events_per_s": _rate(
                tracer.span_events["probe"], tracer.total_s["probe"] / slowdown
            ),
            "serving.requests_completed": counts["serving.requests_completed"] / n,
            "store.puts": calls["store.put"] / n,
            "store.bytes_written": counts["store.bytes_written"] / n,
            "store.put_entries_per_s": _rate(calls["store.put"], selfs["store.put"]),
            "store.gets": gets / n,
            "store.bytes_read": counts["store.bytes_read"] / n,
            "store.get_entries_per_s": _rate(gets, selfs["store.get"]),
            "store.hit_ratio": _rate(counts["store.hits"], gets),
            "trace.overhead_frac": overhead_frac,
            "trace.iteration_s": traced_wall_s / n,
        }
    )
    attributed = sum(selfs[span] for span in SELF_TIME_METRICS)
    metrics["unattributed_s"] = (traced_wall_s - attributed) / n
    return metrics
