"""The shared soak driver: BENCH gating, the SLO gate, pinned outputs.

The per-soak invariants live in ``test_{serve,chaos,adversarial}_soak.py``
and ``test_update_storm.py``; here every spec is checked for what
:func:`~repro.harness.soak.run_soak` does for all of them.  The SHA-256
digests pin the quick serve-soak (plain and ``syn-flood``) and
adversarial-soak results, and the bytes of serve-soak's exported
artifacts, as the five separate drivers produced them before they
became specs of one driver.  A last digest pins the quick profile
report of the four structures whose decision trace comes from their
costed walk.  The fabric soaks are pinned by their
two-runs-identical tests instead: their anti-entropy repairs wait on
real-time pipe bounds, so a starved host can shift one.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.harness import soak
from repro.harness.profile import run_profile
from repro.harness.soak import (
    ADVERSARIAL_SOAK,
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
#: serve-soak's exported artifacts.  These bytes were first written by
#: the perf-report spec, a replay of serve-soak's traffic without its
#: churn hook, which exported the same counters.  The ``.json`` digest is
#: that spec's output with its one ``"experiment": "perf-report"`` line
#: changed to ``"serve-soak"``; the ``.prom`` digest is unchanged.
ARTIFACT_DIGESTS = {
    "perf_report_FW01.json":
        "5d3117d49db6a9eb058a764cd57bb0ec6616f97ac36059b88dab94f5052dca99",
    "perf_report_FW01.prom":
        "1a011c39bdbe5d1340c1cd29200f697c5fd9074158315ad5826cec33d280a84e",
}

#: ``profile_CR01.json`` of the quick profile of expcuts, hicuts,
#: hypercuts and linear, computed by running the commit before each of
#: those structures' traced and costed walks were merged into one.
PROFILE_DIGEST = (
    "cf36604d80d645b498b1ba7682e0c2d5e9b129f82ae44cf95ef81aeca2640e7a")


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _tmp_spec(name, tmp_path):
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
        run_soak(_tmp_spec(name, tmp_path), quick=True)
    assert calls == []


def test_full_run_writes_its_bench_record(monkeypatch, tmp_path):
    """The positive control for the test above: the patched function is
    the one a full, scenario-free run writes its record through."""
    calls = []
    monkeypatch.setattr(soak, "write_bench_record",
                        lambda *a, **k: calls.append((a, k)))
    run_soak(_tmp_spec("serve-soak", tmp_path), quick=False)
    assert [a[0] for a, _ in calls] == ["serve_soak"]


def test_unmeetable_slo_floor_raises(tmp_path):
    """``run_soak`` gates every spec on its SLOs."""
    impossible = (SLO("goodput-floor", "goodput_kpps", 1e9, kind="floor"),)
    spec = replace(SERVE_SOAK, out_dir=str(tmp_path), slos=impossible)
    with pytest.raises(AssertionError, match="SLO burn-rate check failed"):
        run_soak(spec, quick=True)


@pytest.fixture(scope="class")
def quick_serve_soak(tmp_path_factory):
    """One quick serve-soak run and the directory it exported to."""
    out = tmp_path_factory.mktemp("serve_soak")
    return run_soak(_tmp_spec("serve-soak", out), quick=True), out


class TestPinnedOutputs:
    def test_serve_soak(self, quick_serve_soak):
        result, _ = quick_serve_soak
        assert _digest(result.data) == SERVE_DIGEST

    def test_perf_report(self, quick_serve_soak):
        _, out = quick_serve_soak
        for name, digest in ARTIFACT_DIGESTS.items():
            assert hashlib.sha256(
                (out / name).read_bytes()).hexdigest() == digest, name

    def test_serve_soak_syn_flood(self, tmp_path):
        result = run_soak(_tmp_spec("serve-soak", tmp_path), quick=True,
                          scenario="syn-flood")
        assert _digest(result.data) == SERVE_SYN_FLOOD_DIGEST

    def test_adversarial_soak(self):
        result = run_soak(ADVERSARIAL_SOAK, quick=True)
        assert _digest(result.data) == ADVERSARIAL_DIGEST

    def test_profile(self, tmp_path):
        run_profile(quick=True, out_dir=tmp_path,
                    algorithms=("expcuts", "hicuts", "hypercuts", "linear"))
        assert hashlib.sha256(
            (tmp_path / "profile_CR01.json").read_bytes()
        ).hexdigest() == PROFILE_DIGEST
