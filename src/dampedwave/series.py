"""Time series of scalar diagnostics along a trajectory, with a CSV writer.

`to_csv` is lossless (%.17g): `np.loadtxt(path, delimiter=",", skiprows=1)`
reads its floats back bit for bit.
"""

from __future__ import annotations

import numpy as np

COLUMNS = ("t", "E", "I", "J", "L", "kinetic", "grad_sq", "lp_p", "l2_v", "grad_v_sq")
_INDEX = {name: i for i, name in enumerate(COLUMNS)}
_ROW_FORMAT = ",".join(["%.17g"] * len(COLUMNS)) + "\n"


class TimeSeries:
    """Samples of (t, E, I, J, L, kinetic, grad_sq, lp_p, l2_v, grad_v_sq).

    The samples live in one float64 buffer of one column per name, which
    starts empty and doubles when an append finds it full.
    """

    def __init__(self):
        self._buf = np.empty((0, len(COLUMNS)))
        self._n = 0

    def append(self, *values: float) -> None:
        """Add one sample, its values given in `COLUMNS` order."""
        if len(values) != len(COLUMNS):
            raise ValueError(f"need {len(COLUMNS)} values, got {len(values)}")
        if self._n == len(self._buf):
            grown = np.empty((max(16, 2 * self._n), len(COLUMNS)))
            grown[:self._n] = self._buf
            self._buf = grown
        self._buf[self._n] = values
        self._n += 1

    def col(self, name: str) -> np.ndarray:
        return self._buf[:self._n, _INDEX[name]].copy()

    def __len__(self) -> int:
        return self._n

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(COLUMNS) + "\n")
            # row by row: one list of Python floats for the whole buffer
            # would cost several times the buffer's own memory
            for row in self._buf[:self._n]:
                fh.write(_ROW_FORMAT % tuple(row.tolist()))

    @classmethod
    def from_arrays(cls, **cols) -> "TimeSeries":
        """Build a series from named arrays; missing columns default to 0."""
        k = len(next(iter(cols.values())))
        zeros = np.zeros(k)
        series = cls()
        series._buf = np.column_stack([np.asarray(cols.get(name, zeros), dtype=float)
                                       for name in COLUMNS])
        series._n = k
        return series
