"""Scaling of measured times by the speed reference."""

import pytest

import speed


def test_steady_machine_keeps_times_in_reference_units():
    ops = [0.1, 0.2, 0.3, 0.2, 0.1]
    refs = [speed.REFERENCE_S] * 5
    assert speed.scaled(ops, refs, speed.REFERENCE_S) == pytest.approx(ops)


def test_slow_phase_is_scaled_back():
    # The machine runs at half speed for the second half of the run: ops and
    # reference both take twice as long there.
    refs = [0.01] * 20 + [0.02] * 20
    ops = [0.1] * 20 + [0.2] * 20
    out = speed.scaled(ops, refs, 0.01)
    assert out[:13] == pytest.approx([0.1] * 13)
    assert out[27:] == pytest.approx([0.1] * 13)


def test_window_is_clipped_at_the_ends():
    refs = [0.02, 0.01, 0.01, 0.01]
    assert speed.scales(refs, 0.01, half_window=1) == pytest.approx(
        [0.01 / 0.015, 1.0, 1.0, 1.0])


def test_nominal_sets_the_unit():
    assert speed.scaled([0.3], [0.024], 0.012) == pytest.approx([0.15])


def test_references_take_time():
    assert speed.reference() > 0.0
    assert speed.process_reference() > 0.0
