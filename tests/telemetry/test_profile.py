"""Edge cases for :func:`repro.telemetry.render_profile`.

The profile renderer consumes manifests from many sources — live runs,
stored entries, sweep-cell children shipped home from worker processes — so it
must degrade gracefully when optional pieces are missing: zero-duration
spans (no division), no spans at all, no RSS figure (platforms without
``resource``), no ``fleet.n_devices`` gauge (non-fleet runs), and children
with or without their own RSS.
"""

from repro.telemetry import Telemetry, build_manifest, render_profile


def _manifest(**overrides):
    base = {
        "schema": "repro-telemetry/1",
        "kind": "manifest",
        "name": "edge-case",
        "repro_version": "0.0-test",
        "spec_sha256": None,
        "seed": 3,
        "wall_s": 0.5,
        "peak_rss_bytes": 64 * 2**20,
        "phases": [
            {"path": "scenario", "calls": 1, "total_s": 0.4, "fraction": 1.0},
            {
                "path": "scenario/main_run",
                "calls": 1,
                "total_s": 0.3,
                "fraction": 0.75,
            },
        ],
        "counters": {},
        "gauges": {"fleet.n_devices": 100},
        "children": [],
    }
    base.update(overrides)
    return base


def test_zero_duration_span_renders_without_throughput():
    manifest = _manifest(
        phases=[
            {"path": "scenario", "calls": 1, "total_s": 0.0, "fraction": 1.0},
        ]
    )
    text = render_profile(manifest)
    # No ZeroDivisionError, and the device-days/s cell degrades to a dash.
    lines = [line for line in text.splitlines() if "scenario" in line]
    assert any(line.rstrip().endswith("-") for line in lines)


def test_no_phases_renders_placeholder():
    text = render_profile(_manifest(phases=[]))
    assert "(no spans recorded)" in text
    assert "device-days/s" not in text


def test_missing_peak_rss_omits_the_line():
    text = render_profile(_manifest(peak_rss_bytes=None))
    assert "peak RSS" not in text


def test_absent_fleet_gauge_blanks_throughput_column():
    text = render_profile(_manifest(gauges={}))
    assert "device-days/s" in text  # column header still present
    for line in text.splitlines():
        if "main_run" in line:
            assert line.rstrip().endswith("-")


def test_max_shard_rss_is_surfaced_across_children():
    children = [
        _manifest(name="cell-0", peak_rss_bytes=100 * 2**20),
        _manifest(name="cell-1", peak_rss_bytes=160 * 2**20),
    ]
    text = render_profile(_manifest(children=children))
    assert "peak RSS (max child): 160.0 MiB" in text
    assert "cell-1: 0.500 s, 2 phases, peak RSS 160.0 MiB" in text


def test_children_without_rss_skip_the_shard_line():
    children = [_manifest(name="cell-0", peak_rss_bytes=None)]
    text = render_profile(_manifest(children=children))
    assert "peak RSS (max child)" not in text
    assert "cell-0: 0.500 s, 2 phases" in text
    assert "cell-0: 0.500 s, 2 phases, peak RSS" not in text


def test_live_manifest_includes_shard_rss(tmp_path):
    """An end-to-end manifest with a child carries both RSS figures."""
    parent = Telemetry()
    child = Telemetry()
    with child.span("cell"):
        pass
    child_manifest = build_manifest(child, name="cell-0")
    with parent.span("scenario"):
        pass
    parent.add_child(child_manifest)
    manifest = build_manifest(parent, name="sweep-run")
    if manifest["peak_rss_bytes"] is None:
        return  # platform without resource module: nothing to assert
    assert child_manifest["peak_rss_bytes"] is not None
    text = render_profile(manifest)
    assert "peak RSS:" in text
    assert "peak RSS (max child):" in text
