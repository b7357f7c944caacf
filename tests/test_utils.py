"""Unit tests for repro.utils (rng, timing, validation)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.utils import (
    Timer,
    as_rng,
    check_node_index,
    check_positive,
    check_positive_int,
    check_probability,
    timed,
)
from repro.utils.timing import time_call


class TestRng:
    def test_as_rng_from_int_is_deterministic(self):
        a = as_rng(42).integers(0, 1000, size=5)
        b = as_rng(42).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_as_rng_passes_through_generator(self):
        generator = np.random.default_rng(0)
        assert as_rng(generator) is generator

    def test_as_rng_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)


class TestTimer:
    def test_timer_accumulates(self):
        timer = Timer()
        with timer:
            time.sleep(0.01)
        first = timer.elapsed
        with timer:
            time.sleep(0.01)
        assert timer.elapsed > first

    def test_timer_double_start_raises(self):
        timer = Timer().start()
        with pytest.raises(RuntimeError):
            timer.start()

    def test_timer_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_timer_reset(self):
        timer = Timer()
        with timer:
            pass
        timer.reset()
        assert timer.elapsed == 0.0

    def test_timed_context(self):
        with timed() as timer:
            time.sleep(0.005)
        assert timer.elapsed >= 0.004

    def test_time_call_returns_result_and_duration(self):
        result, seconds = time_call(lambda: 21 * 2)
        assert result == 42
        assert seconds >= 0.0


class TestValidation:
    def test_check_positive_accepts_positive(self):
        assert check_positive(0.5, "x") == 0.5

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_check_positive_rejects(self, value):
        with pytest.raises(ValueError):
            check_positive(value, "x")

    def test_check_positive_int_accepts(self):
        assert check_positive_int(3, "n") == 3

    @pytest.mark.parametrize("value", [0, -2])
    def test_check_positive_int_rejects_small(self, value):
        with pytest.raises(ValueError):
            check_positive_int(value, "n")

    @pytest.mark.parametrize("value", [1.5, "3", True])
    def test_check_positive_int_rejects_wrong_type(self, value):
        with pytest.raises(TypeError):
            check_positive_int(value, "n")

    def test_check_probability_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ValueError):
            check_probability(1.5, "p")
        with pytest.raises(ValueError):
            check_probability(-0.1, "p")

    def test_check_node_index(self):
        assert check_node_index(3, 5) == 3
        with pytest.raises(ValueError):
            check_node_index(5, 5)
        with pytest.raises(TypeError):
            check_node_index(1.5, 5)
