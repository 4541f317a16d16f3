"""Tests for the git provenance stamped on benchmark records."""

import pytest

from repro.obs import bench


def _porcelain(monkeypatch, stdout, returncode=0):
    """Make ``git status --porcelain`` report ``stdout``."""

    def fake_run(*args, **kwargs):
        class Out:
            pass

        Out.returncode = returncode
        Out.stdout = stdout
        return Out()

    monkeypatch.setattr(bench.subprocess, "run", fake_run)


class TestDirtyProvenance:
    """A dirty working tree must be visible in every stamped SHA."""

    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_GIT_SHA", raising=False)

    def test_git_sha_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafe1234")
        assert bench.git_sha() == "cafe1234"

    def test_dirty_tree_gets_dirty_suffix(self, monkeypatch):
        monkeypatch.setattr(bench, "git_sha", lambda cwd=None: "abc123")
        monkeypatch.setattr(bench, "git_dirty", lambda cwd=None: True)
        assert bench.provenance_sha() == "abc123-dirty"

    def test_clean_tree_stamps_bare_sha(self, monkeypatch):
        monkeypatch.setattr(bench, "git_sha", lambda cwd=None: "abc123")
        monkeypatch.setattr(bench, "git_dirty", lambda cwd=None: False)
        assert bench.provenance_sha() == "abc123"

    def test_env_override_is_taken_verbatim(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafe1234")
        monkeypatch.setattr(bench, "git_dirty", lambda cwd=None: True)
        assert bench.provenance_sha() == "cafe1234"

    def test_unknown_sha_gets_no_suffix(self, monkeypatch):
        monkeypatch.setattr(bench, "git_sha", lambda cwd=None: "unknown")
        monkeypatch.setattr(bench, "git_dirty", lambda cwd=None: True)
        assert bench.provenance_sha() == "unknown"

    def test_modified_bench_file_counts_as_dirty(self, monkeypatch):
        _porcelain(monkeypatch, " M BENCH_anything.json\n")
        assert bench.git_dirty() is True

    def test_modified_source_beside_artifacts_is_dirty(self, monkeypatch):
        _porcelain(monkeypatch, " M BENCH_kernel.json\n M src/repro/cli.py\n")
        assert bench.git_dirty() is True

    def test_clean_status_is_not_dirty(self, monkeypatch):
        _porcelain(monkeypatch, "")
        assert bench.git_dirty() is False

    def test_failed_probe_is_unknown(self, monkeypatch):
        _porcelain(monkeypatch, "", returncode=128)
        assert bench.git_dirty() is None
