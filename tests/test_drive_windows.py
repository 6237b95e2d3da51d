import numpy as np
import pytest

from hrl_lab.drive import (
    SignLabel,
    TelemetrySeries,
    TelemetryWindow,
    load_telemetry,
    sign_label,
    window_telemetry,
)


def series_of_length(t):
    ticks = np.arange(t, dtype=float)
    return TelemetrySeries(angle=ticks, brake=10 * ticks, throttle=100 * ticks)


def test_series_validates_lengths():
    with pytest.raises(ValueError):
        TelemetrySeries(angle=np.zeros(3), brake=np.zeros(2), throttle=np.zeros(3))


def test_series_rejects_nan():
    with pytest.raises(ValueError, match="brake"):
        TelemetrySeries(angle=np.zeros(2), brake=np.array([0.0, np.nan]), throttle=np.zeros(2))


def test_window_count_drops_remainder():
    windows = window_telemetry(series_of_length(35), m=10)
    assert [w.tau for w in windows] == [0, 1, 2]
    assert all(len(w.vector) == 30 for w in windows)


def test_windowing_partitions_covered_prefix():
    t, m = 35, 10
    windows = window_telemetry(series_of_length(t), m=m)
    seen = np.concatenate([w.vector[:m] for w in windows])
    assert np.array_equal(np.sort(seen), np.arange((t // m) * m, dtype=float))


def test_window_vector_concatenation_order():
    s = TelemetrySeries(
        angle=np.arange(1, 5, dtype=float),
        brake=np.full(4, 0.5),
        throttle=np.zeros(4),
    )
    (w,) = window_telemetry(s, m=4)
    assert np.array_equal(w.vector, [1, 2, 3, 4, 0.5, 0.5, 0.5, 0.5, 0, 0, 0, 0])


def test_window_slices_are_contiguous():
    windows = window_telemetry(series_of_length(9), m=3)
    assert np.array_equal(windows[1].vector[:3], [3.0, 4.0, 5.0])
    assert np.array_equal(windows[1].vector[3:6], [30.0, 40.0, 50.0])


def test_short_series_yields_no_windows():
    assert window_telemetry(series_of_length(4), m=10) == []


def test_window_length_must_be_positive():
    with pytest.raises(ValueError):
        window_telemetry(series_of_length(10), m=0)


def write_csv(path, rows):
    path.write_text("timestamp,angle,brake,throttle\n" + "".join(r + "\n" for r in rows))
    return path


def test_load_telemetry_roundtrip(tmp_path):
    p = write_csv(tmp_path / "t.csv", ["0.0,0.1,0.0,0.9", "0.1,-0.2,1.0,0.0"])
    s = load_telemetry(p)
    assert np.array_equal(s.angle, [0.1, -0.2])
    assert np.array_equal(s.brake, [0.0, 1.0])
    assert np.array_equal(s.throttle, [0.9, 0.0])


def test_load_telemetry_rejects_wrong_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("time,angle,brake,throttle\n0,0,0,0\n")
    with pytest.raises(ValueError, match="header"):
        load_telemetry(p)


def test_load_telemetry_lists_misaligned_timestamps(tmp_path):
    p = write_csv(tmp_path / "t.csv", ["0.0,0,0,0", "0.2,0,0,0", "0.1,0,0,0", "0.1,0,0,0"])
    with pytest.raises(ValueError) as exc:
        load_telemetry(p)
    assert "0.1" in str(exc.value)


def test_load_telemetry_rejects_duplicates(tmp_path):
    p = write_csv(tmp_path / "t.csv", ["5,0,0,0", "5,0,0,0"])
    with pytest.raises(ValueError, match="misaligned"):
        load_telemetry(p)


def window_with_angles(angles):
    angles = np.asarray(angles, dtype=float)
    pad = np.zeros_like(angles)
    return TelemetryWindow(tau=0, vector=np.concatenate([angles, pad, pad]))


def test_sign_label_positive():
    assert sign_label(window_with_angles([0.5, 0.5, 0.5])) is SignLabel.POSITIVE


def test_sign_label_near_zero_on_zeros():
    assert sign_label(window_with_angles([0.0, 0.0])) is SignLabel.NEAR_ZERO


def test_sign_label_negative():
    assert sign_label(window_with_angles([-0.2, -0.2]), eps=0.05) is SignLabel.NEGATIVE


def test_sign_label_band_is_closed():
    assert sign_label(window_with_angles([0.05, 0.05])) is SignLabel.NEAR_ZERO
    assert sign_label(window_with_angles([-0.05, -0.05])) is SignLabel.NEAR_ZERO


def test_sign_label_uses_only_angle_block():
    w = TelemetryWindow(tau=0, vector=np.array([0.0, 0.0, 9.0, 9.0, 9.0, 9.0]))
    assert sign_label(w) is SignLabel.NEAR_ZERO


def test_sign_label_all_positive_property():
    rng = np.random.default_rng(7)
    for _ in range(20):
        angles = rng.uniform(0.1, 1.0, size=8)
        assert sign_label(window_with_angles(angles), eps=0.05) is SignLabel.POSITIVE
