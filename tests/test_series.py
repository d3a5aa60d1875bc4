import numpy as np
import pytest

from dampedwave.series import COLUMNS, TimeSeries


def _samples(k, rng):
    data = rng.standard_normal((k, len(COLUMNS))) * 10.0 ** rng.integers(-300, 300, (k, 1))
    data[0, 1:4] = (-0.0, 5e-324, 1.7976931348623157e308)
    return data


def test_append_past_capacity_keeps_every_row(rng):
    data = _samples(37, rng)
    series = TimeSeries()
    for row in data:
        series.append(*row)
    assert len(series) == 37
    for j, name in enumerate(COLUMNS):
        assert series.col(name).tobytes() == data[:, j].tobytes()


def test_append_needs_one_value_per_column():
    with pytest.raises(ValueError):
        TimeSeries().append(1.0)


def test_col_returns_a_copy(rng):
    series = TimeSeries.from_arrays(t=np.arange(5.0), E=rng.standard_normal(5))
    before = series.col("E")
    series.col("E")[:] = 99.0
    series.col("t").fill(-1.0)
    assert series.col("E").tobytes() == before.tobytes()
    assert series.col("t").tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_from_arrays_and_csv_round_trip_bitwise(tmp_path, rng):
    data = _samples(25, rng)
    series = TimeSeries.from_arrays(**{name: data[:, j] for j, name in enumerate(COLUMNS)})
    path = tmp_path / "series.csv"
    series.to_csv(path)
    assert path.read_text().splitlines()[0] == ",".join(COLUMNS)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert len(series) == len(back) == 25
    for j, name in enumerate(COLUMNS):
        assert series.col(name).tobytes() == data[:, j].tobytes()
        assert back[:, j].tobytes() == data[:, j].tobytes()


def test_from_arrays_defaults_missing_columns_to_zero():
    series = TimeSeries.from_arrays(t=[0.0, 1.0])
    assert series.col("E").tolist() == [0.0, 0.0]


def test_to_csv_bytes_match_hand_formatting(tmp_path, rng):
    data = _samples(6, rng)
    series = TimeSeries()
    for row in data:
        series.append(*row)
    path = tmp_path / "series.csv"
    series.to_csv(path)
    lines = [",".join(COLUMNS)]
    lines += [",".join(f"{float(x):.17g}" for x in row) for row in data]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

