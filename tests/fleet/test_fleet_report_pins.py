"""Pinned digests of whole fleet runs: every ``FleetReport`` field, the audit.

Each case runs one scenario for four days with the latency probe off, the
invariant audit on and telemetry on, and hashes two things separately:

* the **result digest** — every :class:`~repro.fleet.reporting.FleetReport`
  field (array dtype, shape and bytes; exact ``repr`` of everything else)
  plus the :class:`~repro.telemetry.observatory.audit.AuditReport`;
* the **telemetry digest** — the counters, the gauges and the sorted
  ``(span path, calls)`` list, with no timings.

The matrix covers every preset on both churn samplers plus the replay
shapes a single preset does not reach: the per-day forecast replay with
its hindsight replay, mixed-pack sites under dispatch (capacity-weighted
SoC), wear-derated routing under dispatch, the two non-dispatch couplings,
and a raised failure rate so that churn moves device counts within four
days.  A change that claims bitwise-identical fleet results must keep
every result digest; one that only renames spans or counters updates the
telemetry digests alone.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.scenarios import ScenarioRunner, get_scenario, scenario_names
from repro.telemetry import Telemetry

#: Overrides every case shares.
BASE = {
    "duration_days": 4,
    "routing.latency_probe_s": 0.0,
    "execution.audit": True,
}

#: ``case id -> (preset, overrides)``.
CASES = {
    **{
        f"{name}-{sampler}": (name, {"churn.sampler": sampler})
        for name in scenario_names()
        for sampler in ("device", "bucket")
    },
    "forecast-buffer-noisy": (
        "forecast-buffer",
        {"forecast.model": "noisy", "forecast.noise_sigma": 0.3},
    ),
    **{
        f"heterogeneous-cohorts-dispatch-{sampler}": (
            "heterogeneous-cohorts",
            {"charging.coupling": "dispatch", "churn.sampler": sampler},
        )
        for sampler in ("device", "bucket")
    },
    # Four days of the preset failure rates churn nothing; a raised rate
    # makes the churn columns (and a mixed site's per-site sums) non-zero.
    **{
        f"heterogeneous-cohorts-churn-{sampler}": (
            "heterogeneous-cohorts",
            {
                "charging.coupling": "dispatch",
                "churn.sampler": sampler,
                "churn.annual_failure_rate": 20.0,
            },
        )
        for sampler in ("device", "bucket")
    },
    "two-site-asymmetric-derate-dispatch": (
        "two-site-asymmetric",
        {"routing.wear_derate": 0.3, "charging.coupling": "dispatch"},
    ),
    **{
        f"carbon-buffer-coupling-{coupling}": (
            "carbon-buffer",
            {"charging.coupling": coupling},
        )
        for coupling in ("none", "estimate")
    },
}

#: ``case id -> (result digest, telemetry digest)``, recorded on the fleet
#: engine before ``FleetSimulation.run`` was split into two passes.
PINNED = {
    "caiso-csv-sample-bucket": (
        "241f672c2a93a193a72b7da3375631941bacb5f8c2615ff3f465051910112940",
        "3dc3aa72b4e52573466403af44220d1bf42e4d6568644469ca2b25e3049be572",
    ),
    "caiso-csv-sample-device": (
        "241f672c2a93a193a72b7da3375631941bacb5f8c2615ff3f465051910112940",
        "d3df4c6e0c742049b78178d0d8281de01fcb3ba9fa328a5874ac63ffa3825857",
    ),
    "carbon-buffer-bucket": (
        "7ff477c827f90c324e941022934a9e17da7c3840f10416b8d1d4861d70d0a083",
        "97c43b6587b794f1780b14b3baeeaac7c22bc5dd639a723ad4d4b10aca997dd8",
    ),
    "carbon-buffer-coupling-estimate": (
        "d0071d3e1ee754fcae112b4002ab1e2f867394919917b046c1695e68c10b3311",
        "5b951bdfbb06dc2c4083d4782d0bd10aedb7a74eed8f05a1802ec3af5b0fee3c",
    ),
    "carbon-buffer-coupling-none": (
        "d0071d3e1ee754fcae112b4002ab1e2f867394919917b046c1695e68c10b3311",
        "5b951bdfbb06dc2c4083d4782d0bd10aedb7a74eed8f05a1802ec3af5b0fee3c",
    ),
    "carbon-buffer-device": (
        "7ff477c827f90c324e941022934a9e17da7c3840f10416b8d1d4861d70d0a083",
        "ce7382dc8003e893bce639013a74a56235d5cf7e1f1275129ec061a3170b9726",
    ),
    "forecast-buffer-bucket": (
        "0c7438afc9de9acd19d162003910f08ba53b4dc14e253bb17eea0d14e2fe428b",
        "261f8e0aaee1003a99f8be28e2227ae7fe9db1ef3a4864e61811d29200d9afca",
    ),
    "forecast-buffer-device": (
        "0c7438afc9de9acd19d162003910f08ba53b4dc14e253bb17eea0d14e2fe428b",
        "78e85ac05d7f0607154d581eaae8a9969dbbe5a34fbeedba2a3fb1222d8057e6",
    ),
    "forecast-buffer-noisy": (
        "1fb8dd30deca82d7208d5148dcd6378bfedbc7ba7151a96138f11a340fea3f01",
        "3036eb7f00d41fedbe1d96af50cfa8a4e945198e49bb1d2690166cb915126fed",
    ),
    "heterogeneous-cohorts-bucket": (
        "354bc86260d6fec646f5f846dd6b92896c9650fb378033907accbd04c6cdb5fa",
        "b7d40b911e2700e8f12af8cf2a8bb2b4a76a0aca9fe45962e4ebfe8acf860590",
    ),
    "heterogeneous-cohorts-churn-bucket": (
        "48100158a8e867dd4fe373b0f7f4a007c21deeda9167f256871f905b0c94043b",
        "d394f17cafe077927375ef3ae79c4a0905c839fd43a1a27d9e7501933581a14a",
    ),
    "heterogeneous-cohorts-churn-device": (
        "86aac9f948baa7b0562618fe6c69d3460b94e1f9643e3122ed45cf4a26dcf11c",
        "2127086625a417701e740e2d1ba619da48350dc4d9eda5224d795abbc438b5eb",
    ),
    "heterogeneous-cohorts-device": (
        "354bc86260d6fec646f5f846dd6b92896c9650fb378033907accbd04c6cdb5fa",
        "9cb99795da8a81071abd36fd5839f0c7f171eedd79e716077758f0af2fd2eb7e",
    ),
    "heterogeneous-cohorts-dispatch-bucket": (
        "70863045c17f2aa3e2304b5d1b46bdc462977d2bffa24534fe11b4040becc849",
        "a133a3e971b715aacc8e555ca031445824656ec21716c82d08b77826996de12e",
    ),
    "heterogeneous-cohorts-dispatch-device": (
        "70863045c17f2aa3e2304b5d1b46bdc462977d2bffa24534fe11b4040becc849",
        "2127086625a417701e740e2d1ba619da48350dc4d9eda5224d795abbc438b5eb",
    ),
    "hydro-vs-ercot-bucket": (
        "9e506de4a5a34e28a61238351bd26698753a4135520f9a16c06ce45a4f57d74e",
        "6d7032813d68ad1e28e460658caa68f339ebe1358ac4a9bf06ef0bdb96be1bdf",
    ),
    "hydro-vs-ercot-device": (
        "9e506de4a5a34e28a61238351bd26698753a4135520f9a16c06ce45a4f57d74e",
        "3e11a8401544c2f4906d7c4a64fc7dde3d8abe9291656712ef84ba5b3b0c32fe",
    ),
    "paper-baseline-bucket": (
        "9a5501f62ad4663ed0081c49e6eff7c0f0d31a9b27d8414a55cac6611f65236d",
        "b0d42b251a41efc180abc0f3c71c3970679dca63c4d41494608dc41fae6c4c9a",
    ),
    "paper-baseline-device": (
        "9a5501f62ad4663ed0081c49e6eff7c0f0d31a9b27d8414a55cac6611f65236d",
        "8f97077e29b1577ad5581d8ef35f7108bab9e6e945530b17e9df1c95974900e2",
    ),
    "two-site-asymmetric-bucket": (
        "bae5b76a34d60dbe6885e73184472dc9e54e9101821a119fde1fb1e34ca8bd44",
        "a32e8de7788f9207fc4df01c30c803fc50540233bfaabf32f24f35704e76fa53",
    ),
    "two-site-asymmetric-derate-dispatch": (
        "623b7bee6a21b609b6f688b7f7a48a9e3fc328148b3c6dd3d27839c935b7e20f",
        "24a4e27a5fcca7e648787e09c930ae5cffa11fa919c083424d448692dc646848",
    ),
    "two-site-asymmetric-device": (
        "bae5b76a34d60dbe6885e73184472dc9e54e9101821a119fde1fb1e34ca8bd44",
        "40a6aae44fb7a7868c6abbb777e296ebee4e675aa2d9e6c69122e8d22fef19e2",
    ),
}


def _hash_value(sha, value) -> None:
    if isinstance(value, np.ndarray):
        sha.update(f"{value.dtype.str}{value.shape}".encode())
        sha.update(np.ascontiguousarray(value).tobytes())
    else:
        sha.update(repr(value).encode())


def case_digests(name, overrides):
    """``(result digest, telemetry digest, audit)`` of one instrumented run."""
    spec = get_scenario(name).with_overrides({**BASE, **overrides})
    telemetry = Telemetry()
    runner = ScenarioRunner(spec, telemetry=telemetry)
    report = runner.run().report

    result = hashlib.sha256()
    for field in dataclasses.fields(report):
        result.update(field.name.encode())
        _hash_value(result, getattr(report, field.name))
    result.update(repr(runner.last_audit).encode())

    spans = sorted((span.path, span.calls) for span in telemetry.spans)
    observed = hashlib.sha256()
    observed.update(repr(sorted(telemetry.counters.items())).encode())
    observed.update(repr(sorted(telemetry.gauges.items())).encode())
    observed.update(repr(spans).encode())
    return result.hexdigest(), observed.hexdigest(), runner.last_audit


@pytest.mark.parametrize("case", sorted(CASES))
def test_fleet_run_matches_pinned_digests(case):
    result, observed, audit = case_digests(*CASES[case])
    assert audit.ok, audit.render()
    pinned_result, pinned_telemetry = PINNED[case]
    assert result == pinned_result, "a FleetReport field or the audit moved"
    assert observed == pinned_telemetry, "a counter, gauge or span moved"

