"""Rescaling to nominal host speed, and the paced launcher."""

import json
import subprocess
import sys

import pytest

import pace


def scaler(durations, step=0.1):
    return pace.Scaler([i * step for i in range(len(durations))], durations)


def test_a_steady_slowdown_divides_the_interval_less_its_probes():
    s = scaler([2 * pace.NOMINAL_S] * 30)
    assert s.slowdown(0.0, 3.0) == pytest.approx(2.0)
    # ten probes start in [0, 1)
    assert s.probe_time(0.0, 1.0) == pytest.approx(10 * 2 * pace.NOMINAL_S)
    assert s.scale(0.0, 1.0) == pytest.approx((1.0 - 20 * pace.NOMINAL_S) / 2)


def test_each_piece_takes_the_slowdown_around_it():
    # nominal speed for 2 s, then twice as slow for 2 s
    s = scaler([pace.NOMINAL_S] * 20 + [2 * pace.NOMINAL_S] * 20)
    early = s.scale(0.0, 1.0) + s.probe_time(0.0, 1.0)
    late = s.scale(3.0, 4.0) + s.probe_time(3.0, 4.0) / 2
    assert early == pytest.approx(1.0)
    assert late == pytest.approx(0.5)
    assert s.scale(0.0, 4.0) == pytest.approx(s.scale(0.0, 2.0) + s.scale(2.0, 4.0))


def test_an_interval_without_probes_near_it_takes_the_overall_slowdown():
    s = scaler([pace.NOMINAL_S, 3 * pace.NOMINAL_S], step=0.01)
    assert s.scale(100.0, 100.2) == pytest.approx(0.2 / 2)


def test_the_launcher_keeps_output_and_exit_code(tmp_path):
    samples = tmp_path / "samples.json"
    code = "import sys; print('out'); sys.exit(3)"
    proc = subprocess.run([sys.executable, pace.__file__, str(samples), "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (3, "out\n")
    data = json.loads(samples.read_text())
    assert len(data["starts"]) == len(data["durations"]) >= 2
