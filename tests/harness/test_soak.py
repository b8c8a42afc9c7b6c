"""The shared soak driver: BENCH gating, the SLO gate, pinned outputs.

The per-soak invariants live in ``test_{serve,chaos,adversarial}_soak.py``,
``test_update_storm.py`` and ``test_perf_report.py``; here every spec is
checked for what :func:`~repro.harness.soak.run_soak` does for all of
them.  The SHA-256 digests pin the quick serve-soak (plain and
``syn-flood``), adversarial-soak and perf-report results, and the
perf-report artifact bytes, as the five separate drivers produced them
before they became specs of one driver.  The fabric soaks are pinned by
their two-runs-identical tests instead: their anti-entropy repairs wait
on real-time pipe bounds, so a starved host can shift one.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.harness import soak
from repro.harness.soak import (
    ADVERSARIAL_SOAK,
    PERF_REPORT,
    SERVE_SOAK,
    SPECS,
    run_soak,
)
from repro.obs.slo import SLO

SERVE_DIGEST = (
    "cff03d1c25132739469ae56205e22015cf93fcd847f366be140b7936bcd9bbcd")
SERVE_SYN_FLOOD_DIGEST = (
    "bc5caa439049f14c01bb3d53a5f07d5e99808b604eea86364d80e04fa73298cd")
ADVERSARIAL_DIGEST = (
    "4668f5b272320b9573eb134d20e00569c4fa96807cdd15bae8a5cd7c9d03e44d")
#: perf-report's result without the ``artifacts`` paths, which name the
#: output directory.
PERF_DATA_DIGEST = (
    "ef64f6da578c30da89a2aead02bd91e2ff8ae8e1ae67c8dd32f52580a6410e41")
PERF_ARTIFACT_DIGESTS = {
    "perf_report_FW01.json":
        "1cc790532141a496968add6a4fc9f6e20499707e2031f6702f046c21457f133a",
    "perf_report_FW01.prom":
        "1a011c39bdbe5d1340c1cd29200f697c5fd9074158315ad5826cec33d280a84e",
}


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _quick_spec(name, tmp_path):
    """The named spec, with any artifacts sent to ``tmp_path``."""
    spec = SPECS[name]
    if spec.out_dir is not None:
        spec = replace(spec, out_dir=str(tmp_path))
    return spec


@pytest.mark.parametrize("name", sorted(SPECS))
def test_quick_mode_writes_no_bench_record(name, monkeypatch, tmp_path,
                                           request):
    if name == "update-storm":
        # The shared run from ``conftest.py`` recorded through this patch.
        _, calls = request.getfixturevalue("quick_update_storm")
    else:
        calls = []
        monkeypatch.setattr(soak, "write_bench_record",
                            lambda *a, **k: calls.append((a, k)))
        run_soak(_quick_spec(name, tmp_path), quick=True)
    assert calls == []


def test_full_run_writes_its_bench_record(monkeypatch):
    """The positive control for the test above: the patched function is
    the one a full, scenario-free run writes its record through."""
    calls = []
    monkeypatch.setattr(soak, "write_bench_record",
                        lambda *a, **k: calls.append((a, k)))
    run_soak(SERVE_SOAK, quick=False)
    assert [a[0] for a, _ in calls] == ["serve_soak"]


def test_unmeetable_slo_floor_raises(tmp_path):
    """``run_soak`` gates every spec on its SLOs, perf-report included."""
    impossible = (SLO("goodput-floor", "goodput_kpps", 1e9, kind="floor"),)
    spec = replace(PERF_REPORT, out_dir=str(tmp_path), slos=impossible)
    with pytest.raises(AssertionError, match="SLO burn-rate check failed"):
        run_soak(spec, quick=True)


class TestPinnedOutputs:
    def test_serve_soak(self):
        assert _digest(run_soak(SERVE_SOAK, quick=True).data) == SERVE_DIGEST

    def test_serve_soak_syn_flood(self):
        result = run_soak(SERVE_SOAK, quick=True, scenario="syn-flood")
        assert _digest(result.data) == SERVE_SYN_FLOOD_DIGEST

    def test_adversarial_soak(self):
        result = run_soak(ADVERSARIAL_SOAK, quick=True)
        assert _digest(result.data) == ADVERSARIAL_DIGEST

    def test_perf_report(self, tmp_path):
        result = run_soak(replace(PERF_REPORT, out_dir=str(tmp_path)),
                          quick=True)
        data = {k: v for k, v in result.data.items() if k != "artifacts"}
        assert _digest(data) == PERF_DATA_DIGEST
        for name, digest in PERF_ARTIFACT_DIGESTS.items():
            assert hashlib.sha256(
                (tmp_path / name).read_bytes()).hexdigest() == digest, name
