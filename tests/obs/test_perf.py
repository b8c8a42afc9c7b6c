"""BENCH_*.json perf records and the regression checker's comparison."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import extract_throughput, read_bench_record, write_bench_record

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression",
        REPO_ROOT / "scripts" / "check_bench_regression.py",
    )
    module = importlib.util.module_from_spec(spec)
    # Importing a script by path must not drop scripts/__pycache__ into
    # the tree — CI fails on stray build artifacts.
    was = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = was
    return module


class TestExtractThroughput:
    def test_flat_and_nested(self):
        data = {
            "gbps": 7.1,
            "nested": {"analytic_gbps": 8.0, "threads": 71},
            "label": "ignored",
        }
        assert extract_throughput(data) == {
            "gbps": 7.1, "nested.analytic_gbps": 8.0,
        }

    def test_lists_of_points(self):
        data = {"forced": [{"rules": 1, "mbps": 5400.0},
                           {"rules": 8, "mbps": 2600.0}]}
        assert extract_throughput(data) == {
            "forced.0.mbps": 5400.0, "forced.1.mbps": 2600.0,
        }

    def test_bools_and_scalars_ignored(self):
        assert extract_throughput({"gbps_ok": True, "x": 3}) == {}
        assert extract_throughput(7.0) == {}

    def test_serving_layer_units_matched(self):
        """Regression: the serving soaks report kpps/goodput figures,
        which the link-rate-only unit list used to drop silently."""
        data = {
            "goodput_kpps": 5.2,
            "serving": {"kpps": 4.4, "goodput": 0.91},
            "latency_us_p99": 90.0,
        }
        assert extract_throughput(data) == {
            "goodput_kpps": 5.2,
            "serving.kpps": 4.4,
            "serving.goodput": 0.91,
        }


class TestBenchRecords:
    def test_roundtrip(self, tmp_path):
        path = write_bench_record("fig9", {"cr04.gbps": 6.9}, 12.5,
                                  root=tmp_path)
        assert path == tmp_path / "BENCH_fig9.json"
        record = read_bench_record(path)
        assert record["benchmark"] == "fig9"
        assert record["metrics"] == {"cr04.gbps": 6.9}
        assert record["wall_time_s"] == 12.5
        assert record["date"]  # ISO stamp present

    def test_record_is_stable_json(self, tmp_path):
        path = write_bench_record("x", {"b.gbps": 1.0, "a.gbps": 2.0}, 0.1,
                                  root=tmp_path)
        text = path.read_text()
        # Sorted metric keys keep committed diffs minimal.
        assert text.index('"a.gbps"') < text.index('"b.gbps"')
        json.loads(text)

    def test_extra_section_recorded_but_optional(self, tmp_path):
        bare = read_bench_record(
            write_bench_record("bare", {"gbps": 1.0}, 0.1, root=tmp_path))
        assert "extra" not in bare
        rich = read_bench_record(write_bench_record(
            "rich", {"gbps": 1.0}, 0.1, root=tmp_path,
            extra={"p99_us": 90.0, "shed_rate": 0.3}))
        assert rich["extra"] == {"p99_us": 90.0, "shed_rate": 0.3}

    def test_interrupt_mid_write_preserves_old_record(self, tmp_path,
                                                      monkeypatch):
        """Ctrl-C during a bench-record publish must leave the previous
        committed record intact and drop no temp debris."""
        import os as _os

        path = write_bench_record("soak", {"gbps": 5.0}, 1.0, root=tmp_path)
        real_replace = _os.replace

        def boom(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(_os, "replace", boom)
        try:
            with pytest.raises(KeyboardInterrupt):
                write_bench_record("soak", {"gbps": 9.0}, 1.0, root=tmp_path)
        finally:
            monkeypatch.setattr(_os, "replace", real_replace)

        assert read_bench_record(path)["metrics"] == {"gbps": 5.0}
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["BENCH_soak.json"]

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_uncommitted_changes_flagged_dirty(self, tmp_path):
        """``git_sha`` is HEAD at write time; a record written before its
        commit measures HEAD plus the work tree, and says so."""
        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=bench", "-c",
                 "user.email=bench@example.invalid", *args],
                cwd=tmp_path, check=True, capture_output=True,
                text=True).stdout.strip()

        git("init", "-q")
        (tmp_path / ".gitignore").write_text("BENCH_*.json\n")
        (tmp_path / "code.py").write_text("x = 1\n")
        git("add", "-A")
        git("commit", "-q", "-m", "one")
        head = git("rev-parse", "HEAD")
        clean = read_bench_record(
            write_bench_record("clean", {"gbps": 1.0}, 0.1, root=tmp_path))
        assert clean["git_sha"] == head
        assert "git_dirty" not in clean
        (tmp_path / "code.py").write_text("x = 2\n")
        dirty = read_bench_record(
            write_bench_record("dirty", {"gbps": 1.0}, 0.1, root=tmp_path))
        assert dirty["git_sha"] == head
        assert dirty["git_dirty"] is True

    def test_outside_a_work_tree_no_dirty_flag(self, tmp_path):
        record = read_bench_record(
            write_bench_record("x", {"gbps": 1.0}, 0.1, root=tmp_path))
        assert record["git_sha"] is None
        assert "git_dirty" not in record


class TestSchemaVersion:
    def test_written_records_carry_current_version(self, tmp_path):
        from repro.obs import SCHEMA_VERSION

        record = read_bench_record(
            write_bench_record("v", {"gbps": 1.0}, 0.1, root=tmp_path))
        assert record["schema_version"] == SCHEMA_VERSION

    def test_absent_version_is_implicit_v1(self):
        checker = _load_checker()
        record = {"benchmark": "x", "wall_time_s": 1.0, "date": "d",
                  "metrics": {"gbps": 1.0}}
        assert checker.validate(record) == []

    def test_known_versions_pass(self):
        checker = _load_checker()
        for version in checker.KNOWN_SCHEMA_VERSIONS:
            record = {"benchmark": "x", "schema_version": version,
                      "wall_time_s": 1.0, "date": "d",
                      "metrics": {"gbps": 1.0}}
            assert checker.validate(record) == []

    def test_unknown_version_flagged(self):
        checker = _load_checker()
        record = {"benchmark": "x", "schema_version": 99,
                  "wall_time_s": 1.0, "date": "d",
                  "metrics": {"gbps": 1.0}}
        assert any("schema_version" in p for p in checker.validate(record))

    def test_non_integer_version_flagged(self):
        checker = _load_checker()
        for bad in ("2", 2.5, True, None):
            record = {"benchmark": "x", "schema_version": bad,
                      "wall_time_s": 1.0, "date": "d",
                      "metrics": {"gbps": 1.0}}
            assert any("schema_version" in p
                       for p in checker.validate(record)), bad

    def test_cli_exits_2_on_unknown_version(self, tmp_path):
        import subprocess

        subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
        (tmp_path / "BENCH_future.json").write_text(json.dumps({
            "benchmark": "future", "schema_version": 99,
            "metrics": {"gbps": 1.0}, "wall_time_s": 1.0,
            "date": "2026-01-01T00:00:00+00:00",
        }))
        out = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts"
                                 / "check_bench_regression.py")],
            cwd=tmp_path, capture_output=True, text=True,
        )
        assert out.returncode == 2
        assert "schema_version" in out.stdout


class TestRegressionCompare:
    def test_within_tolerance_passes(self):
        checker = _load_checker()
        fresh = {"metrics": {"gbps": 6.0}}
        base = {"metrics": {"gbps": 6.5}}
        assert checker.compare(fresh, base, threshold=0.15) == []

    def test_large_drop_fails(self):
        checker = _load_checker()
        fresh = {"metrics": {"gbps": 4.0}}
        base = {"metrics": {"gbps": 6.5}}
        problems = checker.compare(fresh, base, threshold=0.15)
        assert len(problems) == 1 and "gbps" in problems[0]

    def test_improvements_and_new_metrics_pass(self):
        checker = _load_checker()
        fresh = {"metrics": {"gbps": 9.0, "new.mpps": 1.0}}
        base = {"metrics": {"gbps": 6.0}}
        assert checker.compare(fresh, base, threshold=0.15) == []

    def test_zero_baseline_ignored(self):
        checker = _load_checker()
        fresh = {"metrics": {"gbps": 0.0}}
        base = {"metrics": {"gbps": 0.0}}
        assert checker.compare(fresh, base, threshold=0.15) == []

    def test_no_bytecode_dropped_next_to_the_script(self):
        _load_checker()
        assert not (REPO_ROOT / "scripts" / "__pycache__").exists()


class TestRecordValidation:
    def test_well_formed_record_passes(self, tmp_path):
        checker = _load_checker()
        path = write_bench_record("ok", {"gbps": 1.0}, 0.2, root=tmp_path,
                                  extra={"p99_us": 12.0})
        assert checker.validate(read_bench_record(path)) == []

    def test_missing_fields_flagged(self):
        checker = _load_checker()
        problems = checker.validate({})
        joined = "\n".join(problems)
        for name in ("benchmark", "metrics", "wall_time_s", "date"):
            assert name in joined

    def test_non_object_record_flagged(self):
        checker = _load_checker()
        assert checker.validate([1, 2]) != []
        assert checker.validate("nope") != []

    def test_non_numeric_metric_flagged(self):
        checker = _load_checker()
        record = {"benchmark": "x", "wall_time_s": 1.0, "date": "d",
                  "metrics": {"gbps": "fast", "flag": True}}
        problems = checker.validate(record)
        assert any("'gbps'" in p for p in problems)
        assert any("'flag'" in p for p in problems)

    def test_extra_must_be_object(self):
        checker = _load_checker()
        record = {"benchmark": "x", "wall_time_s": 1.0, "date": "d",
                  "metrics": {}, "extra": [1]}
        assert any("extra" in p for p in checker.validate(record))

    def test_required_metric_leaves_enforced_per_benchmark(self):
        """A benchmark listed in REQUIRED_METRICS must carry every one
        of its required leaves — an update-storm record without its
        staleness/goodput readings has lost the signal its CI gate
        tracks."""
        checker = _load_checker()
        record = {"benchmark": "update_storm", "wall_time_s": 1.0,
                  "date": "d", "metrics": {"goodput_kpps": 4.0}}
        problems = checker.validate(record)
        assert any("updates_per_s" in p for p in problems)
        assert any("staleness_headroom_epochs" in p for p in problems)
        record["metrics"].update(updates_per_s=1500.0,
                                 staleness_headroom_epochs=8.0)
        assert checker.validate(record) == []
        # Benchmarks without an entry are unaffected.
        other = {"benchmark": "fig9_full", "wall_time_s": 1.0, "date": "d",
                 "metrics": {"gbps": 7.0}}
        assert checker.validate(other) == []

    def test_empty_metrics_flagged(self):
        """A record that measures *nothing* must fail validation — an
        empty metrics dict passes every future comparison vacuously."""
        checker = _load_checker()
        record = {"benchmark": "x", "wall_time_s": 1.0, "date": "d",
                  "metrics": {}}
        problems = checker.validate(record)
        assert any("empty" in p for p in problems)

    def test_cli_exits_2_on_empty_metrics(self, tmp_path):
        import subprocess

        subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
        (tmp_path / "BENCH_hollow.json").write_text(json.dumps({
            "benchmark": "hollow", "metrics": {}, "wall_time_s": 1.0,
            "date": "2026-01-01T00:00:00+00:00",
        }))
        out = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts"
                                 / "check_bench_regression.py")],
            cwd=tmp_path, capture_output=True, text=True,
        )
        assert out.returncode == 2
        assert "MALFORMED" in out.stdout

    def test_cli_exits_2_on_malformed_record(self, tmp_path):
        import subprocess

        subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
        (tmp_path / "BENCH_broken.json").write_text('{"metrics": "nope"}')
        out = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts"
                                 / "check_bench_regression.py")],
            cwd=tmp_path, capture_output=True, text=True,
        )
        assert out.returncode == 2
        assert "MALFORMED" in out.stdout

    def test_cli_exits_2_on_invalid_json(self, tmp_path):
        import subprocess

        subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
        (tmp_path / "BENCH_broken.json").write_text("{not json")
        out = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts"
                                 / "check_bench_regression.py")],
            cwd=tmp_path, capture_output=True, text=True,
        )
        assert out.returncode == 2
        assert "MALFORMED" in out.stdout
