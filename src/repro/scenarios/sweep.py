"""Cartesian scenario sweeps: one spec, a grid of overrides, one table.

A sweep takes a base :class:`~repro.scenarios.spec.ScenarioSpec` and a
mapping of dotted override paths to *lists* of values, runs the scenario at
every cell of the cartesian product (via
:meth:`~repro.scenarios.spec.ScenarioSpec.with_overrides`, so every cell is
itself a valid, serializable spec), and tabulates the headline metrics —
fleet CCI, dollars per request, operational carbon — per cell.  The CLI's
``python -m repro sweep scenario <name> --set routing.policy=a,b
--set demand.fraction_of_capacity=0.3,0.6`` feeds this directly.

``jobs=N`` fans the grid out over a process pool.  Cells are keyed by their
spec hash (the SHA-256 of the cell's canonical JSON): identical cells share
one simulation, worker results are reassembled by key into row-major grid
order, and — because every simulation is fully seeded — a parallel sweep is
bitwise-identical to the serial one regardless of completion order.

Hindsight-twin sharing: a forecast-dispatch cell's regret accounting needs a
perfect-forecast twin simulation, and that twin depends only on the
forecast-*stripped* spec (fleet, demand, routing, horizon — not the model or
its noise).  A sweep whose axes vary only forecast quality would therefore
re-simulate an identical twin per cell; instead the sweep groups cells by
the hash of their perfect-forecast twin spec, simulates one twin per group
(reusing a grid cell's own run when the twin *is* a grid cell), and injects
the shared ``hindsight_avoided_g`` into the rest — bitwise-identical to
per-cell twins because every simulation is fully seeded.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.fleet.scheduler import policy_by_name
from repro.scenarios.runner import ScenarioResult, ScenarioRunner, run_scenario
from repro.scenarios.spec import (
    ScenarioSpec,
    ScenarioValidationError,
    decode_override_value,
)
from repro.telemetry import Telemetry, build_manifest, ensure_telemetry


@dataclass(frozen=True)
class SweepCell:
    """One grid point: the overrides that produced it and its result."""

    overrides: Tuple[Tuple[str, Any], ...]
    result: ScenarioResult

    @property
    def cci_g_per_request(self) -> float:
        return self.result.cci_g_per_request

    @property
    def usd_per_request(self) -> float:
        return self.result.usd_per_request

    @property
    def operational_carbon_kg(self) -> float:
        return self.result.report.total_operational_carbon_g / 1_000.0


@dataclass(frozen=True)
class SweepResult:
    """Every cell of one cartesian sweep, in row-major axis order."""

    base: ScenarioSpec
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    cells: Tuple[SweepCell, ...]

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    def best_cell(self) -> SweepCell:
        """The cell with the lowest fleet CCI."""
        return min(self.cells, key=lambda cell: cell.cci_g_per_request)

    def table(self) -> Tuple[List[str], List[List[str]]]:
        """``(headers, rows)`` ready for text rendering: one row per cell."""
        headers = list(self.axis_names) + [
            "CCI (g/req)",
            "$/request",
            "Op. carbon (kg)",
        ]
        rows = []
        for cell in self.cells:
            values = dict(cell.overrides)
            rows.append(
                [str(values[name]) for name in self.axis_names]
                + [
                    f"{cell.cci_g_per_request:.3e}",
                    f"{cell.usd_per_request:.3e}",
                    f"{cell.operational_carbon_kg:.2f}",
                ]
            )
        return headers, rows


def spec_hash(spec: ScenarioSpec) -> str:
    """A stable content hash of one spec (SHA-256 of its canonical JSON).

    Delegates to :meth:`ScenarioSpec.sha256`: keys are sorted and numeric
    fields canonicalized by declared type, so two specs hash equal exactly
    when they are equal as *data* — regardless of dict key order, of
    defaults being omitted versus restated, or of ints standing in for
    floats.  This key dedupes identical sweep cells, reassembles worker
    results in deterministic grid order, and addresses entries in the
    durable :class:`~repro.store.ExperimentStore`.
    """
    return spec.sha256()


def _cell_manifest(
    telemetry: Telemetry, spec: ScenarioSpec, key: str
) -> Dict[str, Any]:
    """The per-cell manifest a sweep reassembles: timings + counters for one cell."""
    return build_manifest(
        telemetry,
        name=f"{spec.name}[{key[:12]}]",
        spec_sha256=key,
        seed=spec.seed,
        extra={"duration_days": spec.duration_days},
    )


def _run_spec_json(
    text: str,
    hindsight_avoided_g: Optional[float] = None,
    with_telemetry: bool = False,
) -> Tuple[ScenarioResult, Optional[Dict[str, Any]]]:
    """Process-pool entry point: rebuild the cell's spec and run it.

    Ships the spec as JSON rather than a pickled object so a worker always
    re-validates through the same :meth:`ScenarioSpec.from_json` path the
    CLI and registry use.  ``hindsight_avoided_g`` injects a shared
    hindsight-twin figure for the regret accounting.  With
    ``with_telemetry`` the worker instruments its run and ships the cell
    manifest back for the parent to reassemble (spans stay in the child
    manifest — a worker's clock is not comparable to the parent's).
    """
    spec = ScenarioSpec.from_json(text)
    telemetry = Telemetry() if with_telemetry else None
    result = ScenarioRunner(
        spec, hindsight_avoided_g=hindsight_avoided_g, telemetry=telemetry
    ).run()
    manifest = (
        _cell_manifest(telemetry, spec, spec_hash(spec)) if with_telemetry else None
    )
    return result, manifest


#: What a hindsight twin's ``carbon_avoided_g`` does *not* depend on: the
#: forecast model/noise it replaces, plus the side analyses (DES latency
#: probe, dollar pricing) whose results the twin run would discard.  The
#: same canonical form keys twin *reuse*, so a perfect grid cell covers any
#: twin that matches it after this normalisation.
_TWIN_CANONICAL_OVERRIDES = {
    "forecast.model": "perfect",
    "forecast.noise_sigma": 0.0,
    "routing.latency_probe_s": 0.0,
    "economics.enabled": False,
}


def _hindsight_twin(spec: ScenarioSpec) -> Optional[ScenarioSpec]:
    """The perfect-forecast twin whose run prices ``spec``'s regret.

    ``None`` when the cell needs no twin: no coupled dispatch, no forecast,
    or a perfect forecast (which is its own hindsight plan).  The twin
    strips exactly what the hindsight figure ignores — the forecast model
    and its noise, the latency probe, the economics — and keeps everything
    it *does* depend on (fleet, demand, routing, horizon, refresh, seed).
    """
    if spec.charging.coupling != "dispatch":
        return None
    if spec.forecast.model in ("none", "perfect"):
        return None
    return spec.with_overrides(_TWIN_CANONICAL_OVERRIDES)


def _run_unique(
    unique: Dict[str, ScenarioSpec],
    jobs: Optional[int],
    hindsight: Optional[Dict[str, float]] = None,
    with_telemetry: bool = False,
    persist: Optional[Any] = None,
    progress: Optional[Any] = None,
) -> Dict[str, Tuple[ScenarioResult, Optional[Dict[str, Any]]]]:
    """Run each unique spec once, serially or over a process pool.

    Returns ``key -> (result, manifest)`` where the manifest is ``None``
    unless ``with_telemetry``; the serial path builds the same per-cell
    child :class:`Telemetry` a pool worker would, so both paths produce
    identical manifests (modulo wall-clock timings).

    ``persist`` is an optional ``(key, result, manifest)`` callback invoked
    as each cell's result materialises in *this* process (per completed run
    serially; as futures are collected in key order under a pool), so a
    store-backed sweep checkpoints finished cells even when a later cell —
    or the process itself — dies.

    ``progress`` is an optional
    :class:`~repro.telemetry.observatory.progress.ProgressReporter`; its
    ``cell_done`` ticks as each result reaches this process.  Progress
    observes completions only — it never feeds anything back, so results
    are bitwise-identical with or without it.
    """
    hindsight = hindsight or {}
    if jobs is None or jobs == 1 or len(unique) <= 1:
        out: Dict[str, Tuple[ScenarioResult, Optional[Dict[str, Any]]]] = {}
        for key, cell_spec in unique.items():
            child = Telemetry() if with_telemetry else None
            result = ScenarioRunner(
                cell_spec, hindsight_avoided_g=hindsight.get(key), telemetry=child
            ).run()
            manifest = (
                _cell_manifest(child, cell_spec, key) if with_telemetry else None
            )
            if persist is not None:
                persist(key, result, manifest)
            if progress is not None:
                progress.cell_done()
            out[key] = (result, manifest)
        return out
    with ProcessPoolExecutor(max_workers=min(jobs, len(unique))) as pool:
        futures = {
            key: pool.submit(
                _run_spec_json,
                cell_spec.to_json(),
                hindsight.get(key),
                with_telemetry,
            )
            for key, cell_spec in unique.items()
        }
        out = {}
        for key, future in futures.items():
            result, manifest = future.result()
            if persist is not None:
                persist(key, result, manifest)
            if progress is not None:
                progress.cell_done()
            out[key] = (result, manifest)
        return out


def _fold_sweep_telemetry(
    telemetry: Telemetry,
    keys: Sequence[str],
    pairs: Mapping[str, Tuple[ScenarioResult, Optional[Dict[str, Any]]]],
    dedicated_twins: Sequence[str] = (),
) -> None:
    """Fold per-cell manifests into the sweep's telemetry, in grid order.

    Children (and therefore the folded counter sums) follow the grid's
    first-occurrence order — never worker completion order — then any
    dedicated hindsight-twin runs in group order, so a parallel sweep's
    merged telemetry is identical to the serial one's.
    """
    if not telemetry.enabled:
        return
    seen: set = set()
    for key in list(keys) + list(dedicated_twins):
        if key in seen:
            continue
        seen.add(key)
        manifest = pairs[key][1]
        if manifest is not None:
            telemetry.add_child(manifest)


def _run_cells(
    specs: Sequence[ScenarioSpec],
    jobs: Optional[int],
    telemetry: Optional[Telemetry] = None,
    store: Optional[Any] = None,
    progress: Optional[Any] = None,
) -> List[ScenarioResult]:
    """Run every cell spec, serially or over a process pool, in grid order.

    Cells are keyed by spec hash either way: cells that hash equal share one
    simulation, and results are reassembled in grid order, so the serial and
    parallel paths return identical tables.  Forecast cells that share a
    forecast-stripped twin run one hindsight simulation per group instead
    of one per cell — results are bitwise-identical to per-cell twins.

    With an enabled ``telemetry``, each unique simulation is instrumented
    (workers ship their manifests back), per-cell manifests become the
    sweep telemetry's children in deterministic grid order, and the
    dedup/twin-sharing bookkeeping is recorded as ``sweep.*`` counters.

    With a ``store`` (an :class:`~repro.store.ExperimentStore`), cells whose
    spec hash already has an entry are *loaded* instead of simulated, every
    freshly simulated cell (hindsight twins included) is persisted as soon
    as its result reaches this process, and the hit/miss/write bookkeeping
    lands in ``store.*`` counters — because every simulation is fully
    seeded, a cache-hit sweep is bitwise-identical to a from-scratch one,
    and a sweep killed mid-grid resumes from the completed cells.
    """
    telemetry = ensure_telemetry(telemetry)
    if jobs is not None and jobs < 1:
        raise ScenarioValidationError(f"jobs must be >= 1, got {jobs}")
    keys = [spec_hash(cell_spec) for cell_spec in specs]
    unique: Dict[str, ScenarioSpec] = {}
    for key, cell_spec in zip(keys, specs):
        unique.setdefault(key, cell_spec)
    if progress is not None:
        progress.set_total_cells(len(unique))

    twin_keys: Dict[str, str] = {}
    twins: Dict[str, ScenarioSpec] = {}
    for key, cell_spec in unique.items():
        twin = _hindsight_twin(cell_spec)
        if twin is None:
            continue
        twin_key = spec_hash(twin)
        twin_keys[key] = twin_key
        twins.setdefault(twin_key, twin)

    # Store lookup: every unique cell already persisted loads instead of
    # simulating.  ``pairs`` accumulates key -> (result, manifest) from
    # whatever source — store, phase A, or phase B.
    pairs: Dict[str, Tuple[ScenarioResult, Optional[Dict[str, Any]]]] = {}
    if store is not None:
        for key in unique:
            entry = store.get_entry_or_none(key)
            if entry is not None:
                pairs[key] = (entry.result, entry.manifest)
    if progress is not None and pairs:
        progress.cell_done(len(pairs))  # store hits complete instantly
    pending = {key: spec for key, spec in unique.items() if key not in pairs}

    writes = 0

    def persist(key: str, result: ScenarioResult, manifest) -> None:
        nonlocal writes
        if store is not None:
            store.put(result, manifest=manifest)
            writes += 1

    if telemetry.enabled:
        telemetry.count("sweep.cells", len(keys))
        telemetry.count("sweep.unique_cells", len(unique))
        telemetry.count("sweep.dedup_hits", len(keys) - len(unique))
        telemetry.count("sweep.twin_groups", len(twins))
        if store is not None:
            telemetry.count("store.hits", len(pairs))
            telemetry.count("store.misses", len(pending))

    # Forecast cells loaded from the store carry their hindsight figure
    # already, so only *pending* forecast cells still need a twin.
    needed_twin_cells = [key for key in pending if key in twin_keys]
    if not needed_twin_cells:
        pairs.update(
            _run_unique(
                pending,
                jobs,
                with_telemetry=telemetry.enabled,
                persist=persist,
                progress=progress,
            )
        )
        if telemetry.enabled and store is not None:
            telemetry.count("store.writes", writes)
        _fold_sweep_telemetry(telemetry, keys, pairs)
        return [pairs[key][0] for key in keys]

    # A perfect-forecast grid cell covers any twin that matches it after
    # canonical normalisation (sigma/probe/economics stripped — none affect
    # carbon_avoided_g): map the canonical hash to the cell's key so the
    # twin reuses its run instead of simulating again.  Cached grid cells
    # count — their loaded results price twins without any simulation.
    covered_by: Dict[str, str] = {}
    for key, cell_spec in unique.items():
        if key in twin_keys:
            continue
        if (
            cell_spec.charging.coupling == "dispatch"
            and cell_spec.forecast.model == "perfect"
        ):
            canonical = spec_hash(
                cell_spec.with_overrides(_TWIN_CANONICAL_OVERRIDES)
            )
            covered_by.setdefault(canonical, key)

    # Each needed twin resolves, in order of preference, to: a grid cell
    # covering it, a stored entry from an earlier sweep, or (last resort) a
    # dedicated phase-A simulation — which is then persisted like any cell.
    needed_twins = [
        twin_key
        for twin_key in twins
        if twin_key in {twin_keys[key] for key in needed_twin_cells}
    ]
    twin_store_hits = 0
    dedicated_twins = []
    for twin_key in needed_twins:
        if twin_key in covered_by:
            continue
        entry = store.get_entry_or_none(twin_key) if store is not None else None
        if entry is not None:
            pairs[twin_key] = (entry.result, entry.manifest)
            twin_store_hits += 1
        else:
            dedicated_twins.append(twin_key)

    # Phase A: the dedicated twins plus every pending cell that needs no
    # injection (a twin a grid cell already covers is simulated exactly
    # once, as that cell).
    phase_a = {twin_key: twins[twin_key] for twin_key in dedicated_twins}
    phase_a.update(
        {key: cell_spec for key, cell_spec in pending.items() if key not in twin_keys}
    )
    if progress is not None and dedicated_twins:
        progress.add_total_cells(len(dedicated_twins))
    pairs.update(
        _run_unique(
            phase_a,
            jobs,
            with_telemetry=telemetry.enabled,
            persist=persist,
            progress=progress,
        )
    )
    hindsight = {
        key: pairs[covered_by.get(twin_keys[key], twin_keys[key])][
            0
        ].report.carbon_avoided_g()
        for key in needed_twin_cells
    }

    # Phase B: the pending forecast cells, each pricing regret against its
    # group's shared hindsight figure instead of re-simulating the twin.
    phase_b = {key: pending[key] for key in needed_twin_cells}
    pairs.update(
        _run_unique(
            phase_b,
            jobs,
            hindsight=hindsight,
            with_telemetry=telemetry.enabled,
            persist=persist,
            progress=progress,
        )
    )
    if telemetry.enabled:
        # Twin needs met without a fresh dedicated twin simulation: group
        # sharing, perfect grid cells whose own runs double as twins, and
        # twins loaded back from the store.
        telemetry.count(
            "sweep.twin_cache_hits", len(needed_twin_cells) - len(dedicated_twins)
        )
        if store is not None:
            telemetry.count("store.twin_hits", twin_store_hits)
            telemetry.count("store.writes", writes)
    _fold_sweep_telemetry(
        telemetry,
        keys,
        pairs,
        dedicated_twins=[t for t in needed_twins if t in pairs and t not in keys],
    )
    return [pairs[key][0] for key in keys]


def sweep_scenario(
    spec: ScenarioSpec,
    axes: Mapping[str, Sequence[Any]],
    jobs: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    store: Optional[Any] = None,
    progress: Optional[Any] = None,
) -> SweepResult:
    """Run ``spec`` over the cartesian grid of ``axes`` overrides.

    ``axes`` maps dotted override paths (the same paths ``--set`` accepts)
    to the list of values to sweep; axis order follows the mapping's
    insertion order and cells are produced row-major (last axis fastest).
    Every cell's spec is built (and therefore validated) up front, so an
    invalid path or value anywhere in the grid fails before any simulation
    time is spent.

    ``jobs`` caps the number of worker processes running cells concurrently
    (``None`` or ``1`` runs serially in-process).  Cell order, and every
    number in every cell, is identical either way: simulations are fully
    seeded and results are reassembled by spec hash into grid order.

    Forecast-dispatch cells are grouped by their forecast-stripped twin
    spec and one hindsight twin is simulated per group (see the module
    docstring); the results are bitwise-identical to a twin per cell.

    ``telemetry`` (default: the no-op null) instruments the sweep: per-cell
    run manifests become its children in grid order and dedup/twin-sharing
    bookkeeping lands in ``sweep.*`` counters.  Telemetry never feeds back
    into the simulations, so an instrumented sweep's numbers are
    bitwise-identical to an uninstrumented one's.

    ``store`` (an :class:`~repro.store.ExperimentStore`) makes the sweep
    durable and resumable: cells whose spec hash is already stored load
    instead of simulating, freshly simulated cells persist the moment they
    complete, and hit/miss/write bookkeeping lands in ``store.*`` counters.
    Because every simulation is fully seeded, a store-backed sweep —
    cached, resumed, or from scratch — returns bitwise-identical results.

    ``progress`` (a
    :class:`~repro.telemetry.observatory.progress.ProgressReporter`) emits
    live heartbeats as cells complete — store hits tick immediately,
    dedicated hindsight twins extend the total when they are discovered.
    Progress observes; it never feeds back, so results are identical with
    or without it.
    """
    if not axes:
        raise ScenarioValidationError("a sweep needs at least one --set axis")
    names = list(axes)
    for name in names:
        if not isinstance(axes[name], (list, tuple)) or len(axes[name]) == 0:
            raise ScenarioValidationError(
                f"sweep axis {name!r} must list at least one value"
            )
    grid = [
        dict(zip(names, combo))
        for combo in itertools.product(*(axes[name] for name in names))
    ]
    specs = [spec.with_overrides(overrides) for overrides in grid]
    # Routing-policy names only resolve at run time; check them here so a
    # typo in the last axis value cannot waste the rest of the grid.
    for cell_spec in specs:
        try:
            policy_by_name(
                cell_spec.routing.policy, wear_derate=cell_spec.routing.wear_derate
            )
        except ValueError as error:
            raise ScenarioValidationError(f"routing.policy: {error}") from None
    tele = ensure_telemetry(telemetry)
    with tele.span("sweep"):
        results = _run_cells(
            specs,
            jobs,
            telemetry=tele,
            store=store,
            progress=progress,
        )
    cells = [
        SweepCell(overrides=tuple(overrides.items()), result=result)
        for overrides, result in zip(grid, results)
    ]
    return SweepResult(
        base=spec,
        axes=tuple((name, tuple(axes[name])) for name in names),
        cells=tuple(cells),
    )


def parse_sweep_override(text: str) -> Tuple[str, List[Any]]:
    """Parse one CLI ``dotted.path=v1,v2,...`` sweep axis.

    The value list is JSON-decoded when possible (``--set k=[1,2]`` or a
    single JSON scalar) and otherwise split on commas with each element
    JSON-decoded individually (``--set routing.policy=round-robin,marginal-cci``
    yields strings, ``--set demand.fraction_of_capacity=0.3,0.6`` floats).
    A single value is a one-element axis, so sweeps compose with plain
    pinned overrides.
    """
    key, separator, raw = text.partition("=")
    if not separator or not key:
        raise ScenarioValidationError(
            f"sweep override {text!r} is not of the form dotted.path=v1,v2"
        )
    try:
        whole = json.loads(raw)
    except json.JSONDecodeError:
        # Bare (non-JSON) text: commas separate axis values.
        return key, [decode_override_value(chunk) for chunk in raw.split(",")]
    # Valid JSON is taken whole, so a quoted string may contain commas.
    return key, list(whole) if isinstance(whole, list) else [whole]
