"""Fuzz driver argument checks; no test here starts a process."""

import importlib

import pytest

from wsrpt.fuzz import fuzz

# The package re-exports the function fuzz under the submodule's name.
fuzz_module = importlib.import_module("wsrpt.fuzz")


class _RecordingPool:
    """Stands in for ProcessPoolExecutor and evaluates in this process."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.fixture
def pool(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(fuzz_module, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(fuzz_module.os, "cpu_count", lambda: 3)
    return _RecordingPool


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -4])
    def test_rejects_below_one(self, pool, workers):
        with pytest.raises(ValueError, match="workers"):
            fuzz(3, seed=1, workers=workers)
        assert pool.created == []

    def test_caps_at_cpu_count(self, pool):
        report = fuzz(6, n_max=4, seed=1, workers=10_000)
        assert pool.created == [3]
        assert report.trials == 6

    def test_within_cpu_count_unchanged(self, pool):
        fuzz(6, n_max=4, seed=1, workers=2)
        assert pool.created == [2]

    @pytest.mark.parametrize("workers", [None, 1])
    def test_serial_starts_no_pool(self, pool, workers):
        fuzz(6, n_max=4, seed=1, workers=workers)
        assert pool.created == []


class TestOutDir:
    def test_environment_variable_is_not_read(self, tmp_path, monkeypatch):
        # Only the CLI resolves WSRPT_OUT_DIR; the library writes nothing
        # unless it is given out_dir.
        monkeypatch.setenv("WSRPT_OUT_DIR", str(tmp_path))
        assert fuzz(5, seed=1).certificate_path is None
        assert list(tmp_path.iterdir()) == []


class TestNMax:
    @pytest.mark.parametrize("n_max", [1, 0, -3])
    def test_rejects_below_two(self, n_max):
        with pytest.raises(ValueError, match="n_max must be at least 2"):
            fuzz(1, n_max=n_max)

    def test_two_is_accepted(self):
        assert fuzz(3, n_max=2, seed=0).trials == 3
