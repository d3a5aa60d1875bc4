"""Time series of scalar diagnostics along a trajectory, with a CSV writer.

`to_csv` is lossless (%.17g): `np.loadtxt(path, delimiter=",", skiprows=1)`
reads its floats back bit for bit.
"""

from __future__ import annotations

from array import array

import numpy as np

COLUMNS = ("t", "E", "I", "J", "L", "kinetic", "grad_sq", "lp_p", "l2_v", "grad_v_sq")
_INDEX = {name: i for i, name in enumerate(COLUMNS)}
_ROW_FORMAT = ",".join(["%.17g"] * len(COLUMNS)) + "\n"
CSV_CHUNK_ROWS = 256  # rows formatted per write


class TimeSeries:
    """Samples of (t, E, I, J, L, kinetic, grad_sq, lp_p, l2_v, grad_v_sq).

    The samples live in one flat float64 `array`, sample after sample with
    one value per name, which grows as samples are appended.
    """

    def __init__(self):
        self._buf = array("d")

    def append(self, *values: float) -> None:
        """Add one sample, its values given in `COLUMNS` order."""
        if len(values) != len(COLUMNS):
            raise ValueError(f"need {len(COLUMNS)} values, got {len(values)}")
        self._buf.extend(values)

    def col(self, name: str) -> np.ndarray:
        return np.frombuffer(self._buf)[_INDEX[name]::len(COLUMNS)].copy()

    def __len__(self) -> int:
        return len(self._buf) // len(COLUMNS)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(COLUMNS) + "\n")
            # a chunk of rows per write: one tuple of Python floats for the
            # whole buffer would cost several times the buffer's own memory
            step = CSV_CHUNK_ROWS * len(COLUMNS)
            for start in range(0, len(self._buf), step):
                chunk = self._buf[start:start + step]
                fh.write((_ROW_FORMAT * (len(chunk) // len(COLUMNS))) % tuple(chunk))

    @classmethod
    def from_arrays(cls, **cols) -> "TimeSeries":
        """Build a series from named arrays; missing columns default to 0."""
        zeros = np.zeros(len(next(iter(cols.values()))))
        series = cls()
        series._buf.frombytes(np.column_stack(
            [np.asarray(cols.get(name, zeros), dtype=float) for name in COLUMNS]).tobytes())
        return series
