"""Tests for repro.utils.stats."""

import pytest

from repro.utils.stats import summarize


class TestSummarize:
    def test_single_value(self):
        s = summarize([4.0])
        assert s.count == 1
        assert s.mean == 4.0
        assert s.std == 0.0
        assert s.minimum == s.maximum == 4.0

    def test_known_values(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.mean == 2.5
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.std == pytest.approx(1.118, abs=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_str_contains_fields(self):
        text = str(summarize([1.0, 2.0]))
        assert "mean=1.500" in text
        assert "n=2" in text

