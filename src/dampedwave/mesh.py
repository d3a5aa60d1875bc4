"""Discrete intervals and rectangles with homogeneous Dirichlet boundaries.

Fields live on interior nodes only; boundary values are identically zero and
never stored.  The gradient seminorm is defined through the stiffness
quadratic form (weighted by the cell volume), so discrete integration by
parts is exact by construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

_KIND_DIMS = {"interval": 1, "rectangle": 2}

FIELD_HEADER_PREFIX = "# dampedwave-field v1 "


class DomainMismatchError(ValueError):
    """A field was combined with an operator from a different domain."""


class CorruptFieldError(ValueError):
    """A field contains NaN or Inf entries."""


@dataclass(frozen=True)
class Domain:
    """A discretized interval or rectangle with interior nodes only."""

    kind: str
    extents: tuple[float, ...]
    n: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in _KIND_DIMS:
            raise ValueError(f"unknown domain kind: {self.kind!r}")
        dim = _KIND_DIMS[self.kind]
        extents = tuple(float(e) for e in self.extents)
        counts = tuple(int(m) for m in self.n)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "n", counts)
        if len(extents) != dim or len(counts) != dim:
            raise ValueError(f"{self.kind} needs {dim} extent(s) and node count(s)")
        if any(e <= 0.0 for e in extents):
            raise ValueError("extents must be positive")
        if any(m < 2 for m in counts):
            raise ValueError("need at least 2 interior nodes per axis")

    @property
    def dim(self) -> int:
        return _KIND_DIMS[self.kind]

    @property
    def h(self) -> tuple[float, ...]:
        return tuple(e / (m + 1) for e, m in zip(self.extents, self.n))

    @property
    def size(self) -> int:
        return math.prod(self.n)

    @property
    def weight(self) -> float:
        """Quadrature weight of one interior node (cell volume)."""
        return math.prod(self.h)

    def axis_coords(self, axis: int) -> np.ndarray:
        """Interior node coordinates along one axis."""
        ha = self.h[axis]
        return ha * np.arange(1, self.n[axis] + 1)

    def fingerprint(self) -> str:
        ext = ",".join(repr(e) for e in self.extents)
        cnt = ",".join(str(m) for m in self.n)
        return f"{self.kind}:{ext}:{cnt}"

    @classmethod
    def from_fingerprint(cls, text: str) -> "Domain":
        kind, ext, cnt = text.strip().split(":")
        return cls(kind, tuple(float(e) for e in ext.split(",")),
                   tuple(int(m) for m in cnt.split(",")))


def interval(extent: float, n: int) -> Domain:
    return Domain("interval", (extent,), (n,))


def rectangle(extents: tuple[float, float], n: tuple[int, int]) -> Domain:
    return Domain("rectangle", extents, n)


@dataclass(frozen=True, eq=False)
class GridField:
    """Real values on the interior nodes of a domain."""

    domain: Domain
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if vals.size != self.domain.size:
            raise ValueError(
                f"field has {vals.size} values, domain has {self.domain.size} nodes")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, domain: Domain) -> "GridField":
        return cls(domain, np.zeros(domain.size))

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))

    def is_zero(self) -> bool:
        return not np.any(self.values)


def _check_finite(u: GridField) -> None:
    if not u.is_finite():
        raise CorruptFieldError("field contains NaN or Inf")


def _check_domain(u: GridField, domain: Domain) -> None:
    if u.domain != domain:
        raise DomainMismatchError(
            f"field on {u.domain.fingerprint()} vs operator on {domain.fingerprint()}")


@functools.lru_cache(maxsize=None)
def stiffness_matrix(domain: Domain) -> sp.csr_matrix:
    """Positive-definite stiffness operator A (discrete -Laplacian, Dirichlet)."""
    per_axis = []
    for m, ha in zip(domain.n, domain.h):
        main = np.full(m, 2.0 / ha**2)
        off = np.full(m - 1, -1.0 / ha**2)
        per_axis.append(sp.diags([off, main, off], [-1, 0, 1], format="csr"))
    if domain.dim == 1:
        return per_axis[0]
    ax, ay = per_axis
    ix = sp.identity(domain.n[0], format="csr")
    iy = sp.identity(domain.n[1], format="csr")
    return (sp.kron(ax, iy) + sp.kron(ix, ay)).tocsr()


def grad_norm_sq(u: GridField) -> float:
    """Discrete ||grad u||_2^2 as the weighted stiffness quadratic form."""
    _check_finite(u)
    a = stiffness_matrix(u.domain)
    q = u.domain.weight * float(u.values @ (a @ u.values))
    return max(q, 0.0)


def l2_norm_sq(u: GridField) -> float:
    return u.domain.weight * float(np.sum(u.values**2))


def lp_norm_p(u: GridField, p: float) -> float:
    """Quadrature value of ||u||_p^p; requires p > 2 (use l2_norm_sq for p = 2)."""
    if p <= 2.0:
        raise ValueError(f"lp_norm_p requires p > 2, got {p}")
    return u.domain.weight * float(np.sum(np.abs(u.values) ** p))


def inner(u: GridField, v: GridField) -> float:
    """Weighted L2 inner product of two fields."""
    _check_domain(v, u.domain)
    return u.domain.weight * float(u.values @ v.values)


def eigenmode(domain: Domain, modes: tuple[int, ...] | None = None) -> GridField:
    """Product-of-sines eigenvector of the stiffness operator, amplitude 1."""
    if modes is None:
        modes = (1,) * domain.dim
    g = np.ones(domain.n)
    for axis, k in enumerate(modes):
        x = domain.axis_coords(axis)
        shape = [1] * domain.dim
        shape[axis] = -1
        g = g * np.sin(k * math.pi * x / domain.extents[axis]).reshape(shape)
    return GridField(domain, g.reshape(-1))


def eigenvalue(domain: Domain, modes: tuple[int, ...] | None = None) -> float:
    """Exact stiffness eigenvalue for the product-of-sines mode."""
    if modes is None:
        modes = (1,) * domain.dim
    lam = 0.0
    for k, ha, ext in zip(modes, domain.h, domain.extents):
        lam += (2.0 / ha**2) * (1.0 - math.cos(k * math.pi * ha / ext))
    return lam


@functools.lru_cache(maxsize=None)
def _sine_basis(m: int, ha: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DST-I matrix (its own inverse) and the 1D stiffness eigenvalues."""
    k = np.arange(1, m + 1)
    # reduce j*k modulo the period 2(m+1) so the sine arguments stay small
    phase = np.outer(k, k) % (2 * (m + 1))
    s = math.sqrt(2.0 / (m + 1)) * np.sin(phase * (math.pi / (m + 1)))
    lam = (2.0 / ha**2) * (1.0 - np.cos(k * (math.pi / (m + 1))))
    return s, lam


def shifted_solver(domain: Domain, c0: float, c1: float):
    """Exact solver b -> (c0 I + c1 A)^(-1) b in the sine eigenbasis of A.

    A is the Kronecker sum of per-axis tridiagonal matrices, all diagonalized
    by DST-I, so the solve is two transforms around a diagonal scaling.
    """
    bases = [_sine_basis(m, ha) for m, ha in zip(domain.n, domain.h)]
    if domain.dim == 1:
        ((s, lam),) = bases
        inv = 1.0 / (c0 + c1 * lam)
        return lambda b: s @ (inv * (s @ b))
    (sx, lx), (sy, ly) = bases
    inv = 1.0 / (c0 + c1 * (lx[:, None] + ly[None, :]))
    shape = domain.n
    return lambda b: (sx @ (inv * (sx @ b.reshape(shape) @ sy)) @ sy).reshape(-1)


def write_field(path, u: GridField) -> None:
    """Text format: fingerprint header, then one value per line (17 digits)."""
    lines = [FIELD_HEADER_PREFIX + u.domain.fingerprint()]
    lines.extend(f"{x:.17g}" for x in u.values)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_field(path) -> GridField:
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith(FIELD_HEADER_PREFIX):
            raise ValueError(f"{path}: not a dampedwave field file")
        domain = Domain.from_fingerprint(header[len(FIELD_HEADER_PREFIX):])
        values = np.array([float(line) for line in fh if line.strip()])
    return GridField(domain, values)
