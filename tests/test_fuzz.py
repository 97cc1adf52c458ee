"""Fuzz driver argument checks."""

import pytest

from wsrpt.fuzz import fuzz


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
