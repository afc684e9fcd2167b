"""Cartesian scenario sweeps: one spec, a grid of overrides, one table.

A sweep takes a base :class:`~repro.scenarios.spec.ScenarioSpec` and a
mapping of dotted override paths to *lists* of values, runs the scenario at
every cell of the cartesian product (via
:meth:`~repro.scenarios.spec.ScenarioSpec.with_overrides`, so every cell is
itself a valid, serializable spec), and tabulates the headline metrics —
fleet CCI, dollars per request, operational carbon — per cell.  The CLI's
``python -m repro sweep scenario <name> --set routing.policy=a,b
--set demand.fraction_of_capacity=0.3,0.6`` feeds this directly.

Pass A groups: the cells of a sweep that differ only in what Pass B reads
— forecast model and noise, charging coupling, economics, audit — build the
same sites, record the same routing and churn (Pass A) and probe the same
latency.  The sweep groups the cells it has to simulate by
:meth:`~repro.scenarios.spec.ScenarioSpec.pass_a_key`, runs the group stage
once per group and replays each cell, and the perfect-forecast hindsight
baseline a forecast cell's regret needs, through ``pass_b`` alone (see
:class:`~repro.scenarios.runner.PassAGroup`).  Results are
bitwise-identical to running every cell on its own.

``jobs=N`` fans the groups out over a process pool, one group per task.
Cells are keyed by their spec hash (the SHA-256 of the cell's canonical
JSON): identical cells share one simulation, results are reassembled by key
into row-major grid order, and — because every simulation is fully seeded —
a parallel sweep is bitwise-identical to the serial one regardless of
completion order.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.fleet.scheduler import policy_by_name
from repro.scenarios.runner import PassAGroup, ScenarioResult, ScenarioRunner
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


def _run_group(
    cells: Sequence[Tuple[str, ScenarioSpec]], with_telemetry: bool = False
) -> Iterator[Tuple[str, ScenarioResult, Optional[Dict[str, Any]]]]:
    """Run the cells of one Pass A group, yielding each as it finishes.

    Every cell's spec must share one :meth:`ScenarioSpec.pass_a_key`: one
    :class:`~repro.scenarios.runner.PassAGroup` builds the sites, runs
    Pass A and probes latency for the first cell, and every cell replays
    its own ``pass_b`` over them.  Yields ``(key, result, manifest)``; the
    manifest is ``None`` unless ``with_telemetry``, in which case each cell
    runs under its own child :class:`Telemetry`.
    """
    group = PassAGroup(cells[0][1])
    for key, cell_spec in cells:
        child = Telemetry() if with_telemetry else None
        result = ScenarioRunner(cell_spec, telemetry=child, group=group).run()
        manifest = _cell_manifest(child, cell_spec, key) if with_telemetry else None
        yield key, result, manifest


def _run_group_json(
    cells: Sequence[Tuple[str, str]], with_telemetry: bool = False
) -> List[Tuple[str, ScenarioResult, Optional[Dict[str, Any]]]]:
    """Process-pool entry point: rebuild one group's cell specs and run them.

    Ships specs as JSON rather than pickled objects so a worker always
    re-validates through the same :meth:`ScenarioSpec.from_json` path the
    CLI and registry use.  Spans stay in each cell's manifest — a worker's
    clock is not comparable to the parent's.
    """
    specs = [(key, ScenarioSpec.from_json(text)) for key, text in cells]
    return list(_run_group(specs, with_telemetry))


def _run_groups(
    groups: Sequence[Sequence[Tuple[str, ScenarioSpec]]],
    jobs: Optional[int],
    with_telemetry: bool = False,
) -> Iterator[Tuple[str, ScenarioResult, Optional[Dict[str, Any]]]]:
    """Run every Pass A group, serially or one group per pool task.

    Serially, one group's sites and record are held at a time and each
    cell is yielded the moment it finishes.  Under a pool, groups are
    collected in submission order and yield their cells together.
    """
    if jobs is None or jobs == 1 or len(groups) <= 1:
        for cells in groups:
            yield from _run_group(cells, with_telemetry)
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(groups))) as pool:
        futures = [
            pool.submit(
                _run_group_json,
                [(key, cell_spec.to_json()) for key, cell_spec in cells],
                with_telemetry,
            )
            for cells in groups
        ]
        for future in futures:
            yield from future.result()


def _run_cells(
    specs: Sequence[ScenarioSpec],
    jobs: Optional[int],
    telemetry: Optional[Telemetry] = None,
    store: Optional[Any] = None,
    progress: Optional[Any] = None,
) -> List[ScenarioResult]:
    """Run every cell spec, serially or over a process pool, in grid order.

    Cells are keyed by spec hash: cells that hash equal share one
    simulation, and results are reassembled in grid order, so the serial
    and parallel paths return identical tables.  The cells left to simulate
    are grouped by :meth:`ScenarioSpec.pass_a_key`, and each group builds
    its sites, runs Pass A and probes latency once (see
    :class:`~repro.scenarios.runner.PassAGroup`) — bitwise-identical to
    running every cell alone.

    With an enabled ``telemetry``, each cell runs under a child
    :class:`Telemetry` (workers ship their manifests back), per-cell
    manifests become the sweep telemetry's children in grid order, and the
    dedup and grouping bookkeeping is recorded as ``sweep.*`` counters.

    With a ``store`` (an :class:`~repro.store.ExperimentStore`), cells whose
    spec hash already has an entry are *loaded* instead of simulated, every
    freshly simulated cell is persisted as soon as its result reaches this
    process, and the hit/miss/write bookkeeping lands in ``store.*``
    counters — because every simulation is fully seeded, a cache-hit sweep
    is bitwise-identical to a from-scratch one, and a sweep killed mid-grid
    resumes from the completed cells.
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

    # ``pairs`` accumulates key -> (result, manifest) from the store or
    # from simulation.
    pairs: Dict[str, Tuple[ScenarioResult, Optional[Dict[str, Any]]]] = {}
    if store is not None:
        for key in unique:
            entry = store.get_entry_or_none(key)
            if entry is not None:
                pairs[key] = (entry.result, entry.manifest)
    if progress is not None and pairs:
        progress.cell_done(len(pairs))  # store hits complete instantly
    groups: Dict[str, List[Tuple[str, ScenarioSpec]]] = {}
    for key, cell_spec in unique.items():
        if key not in pairs:
            groups.setdefault(cell_spec.pass_a_key(), []).append((key, cell_spec))

    if telemetry.enabled:
        telemetry.count("sweep.cells", len(keys))
        telemetry.count("sweep.unique_cells", len(unique))
        telemetry.count("sweep.dedup_hits", len(keys) - len(unique))
        telemetry.count("sweep.pass_a_groups", len(groups))
        if store is not None:
            telemetry.count("store.hits", len(pairs))
            telemetry.count("store.misses", len(unique) - len(pairs))

    writes = 0
    for key, result, manifest in _run_groups(
        list(groups.values()), jobs, with_telemetry=telemetry.enabled
    ):
        if store is not None:
            store.put(result, manifest=manifest)
            writes += 1
        if progress is not None:
            progress.cell_done()
        pairs[key] = (result, manifest)
    if telemetry.enabled:
        if store is not None:
            telemetry.count("store.writes", writes)
        # Children fold in grid order, never completion order, so a
        # parallel sweep's merged counters equal the serial sweep's.
        for key in unique:
            manifest = pairs[key][1]
            if manifest is not None:
                telemetry.add_child(manifest)
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

    Cells that share a Pass A key build sites, run Pass A and probe
    latency once per group (see the module docstring); the results are
    bitwise-identical to running each cell alone.

    ``telemetry`` (default: the no-op null) instruments the sweep: per-cell
    run manifests become its children in grid order and dedup and grouping
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
    live heartbeats as cells complete — store hits tick immediately.
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
