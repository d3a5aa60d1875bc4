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

_KIND_DIMS = {"interval": 1, "rectangle": 2}

FIELD_HEADER_PREFIX = "# dampedwave-field v1 "
MAX_AXIS_NODES = 4095  # per axis; the axis's dense DST-I matrix takes 128 MiB
# 1D steps and solves by dense matrices up to this many nodes (two of 32 KiB
# a shift): one row steps 1.15x as fast as by the sine transforms, a stack of
# 8 distinct shifts as fast, one of 32 or 64 1.25x as slow (README)
DENSE_MAX_NODES = 63


class DomainMismatchError(ValueError):
    """A field was combined with an operator from a different domain."""


class CorruptFieldError(ValueError):
    """A GridField was built from values that hold NaN or Inf."""


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
        if not all(0.0 < e < math.inf for e in extents):
            raise ValueError("extents must be positive and finite")
        if not all(2 <= m <= MAX_AXIS_NODES for m in counts):
            raise ValueError(f"need 2 to {MAX_AXIS_NODES} interior nodes per axis, "
                             f"got {counts}")
        if not all(0.0 < h * h and 0.0 < 1.0 / (h * h) < math.inf for h in self.h):
            raise ValueError("extents give a grid spacing h with 1/h^2 outside "
                             "the float range")

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
    """Finite real values on the interior nodes of a domain."""

    domain: Domain
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if vals.size != self.domain.size:
            raise ValueError(
                f"field has {vals.size} values, domain has {self.domain.size} nodes")
        if not np.isfinite(vals).all():
            raise CorruptFieldError("field contains NaN or Inf")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, domain: Domain) -> "GridField":
        return cls(domain, np.zeros(domain.size))

    def is_zero(self) -> bool:
        return not np.any(self.values)


def _check_domain(u: GridField, domain: Domain) -> None:
    if u.domain != domain:
        raise DomainMismatchError(
            f"field on {u.domain.fingerprint()} vs operator on {domain.fingerprint()}")


@functools.lru_cache(maxsize=None)
def stiffness(domain: Domain):
    """x -> A x for the positive-definite stiffness operator A.

    A is the discrete -Laplacian with Dirichlet boundaries: the 3-point
    stencil (-1, 2, -1)/h^2 in 1D and the 5-point stencil in 2D, where node
    (i, j) sits at flat index i*ny + j.  Each row is summed from +0 in the
    column order of the assembled sparse matrix (west, south, centre, north,
    east), with the centre coefficient 2/hx^2 + 2/hy^2 rounded once, so the
    result equals a CSR matrix-vector product bit for bit.  A (K, size)
    stack is mapped row by row.
    """
    if domain.dim == 1:
        (h,) = domain.h
        c, o = 2.0 / h**2, -1.0 / h**2

        def apply(x: np.ndarray) -> np.ndarray:
            xo = o * x
            y = np.zeros(x.shape)
            y[..., 1:] += xo[..., :-1]
            y += c * x
            y[..., :-1] += xo[..., 1:]
            return y
        return apply

    (nx, ny), (hx, hy) = domain.n, domain.h
    c = 2.0 / hx**2 + 2.0 / hy**2
    ox, oy = -1.0 / hx**2, -1.0 / hy**2

    def apply(x: np.ndarray) -> np.ndarray:
        xx = ox * x
        # flat shifts by one wrap between grid lines: blank the wrapped terms
        north = oy * x
        south = north.copy()
        south[..., ny - 1::ny] = 0.0  # j = ny - 1
        north[..., ::ny] = 0.0  # j = 0
        y = np.zeros(x.shape)
        y[..., ny:] += xx[..., :-ny]
        y[..., 1:] += south[..., :-1]
        y += c * x
        y[..., :-1] += north[..., 1:]
        y[..., :-ny] += xx[..., ny:]
        return y
    return apply


def grad_norm_sq(u: GridField) -> float:
    """Discrete ||grad u||_2^2 as the weighted stiffness quadratic form."""
    q = u.domain.weight * float(u.values @ stiffness(u.domain)(u.values))
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


@functools.lru_cache(maxsize=64)
def _dense_inverse(m: int, ha: float, c0: float, c1: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Dense (c0 I + c1 A)^(-1) = (s inv) @ s and its product with A,
    (s (lam inv)) @ s, of one axis, read-only."""
    s, lam = _sine_basis(m, ha)
    inv = 1.0 / (c0 + c1 * lam)
    mats = (s * inv) @ s, (s * (lam * inv)) @ s
    for d in mats:
        d.flags.writeable = False
    return mats


def dense_inverses(domain: Domain, c0, c1
                   ) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """Per shift (c0[k], c1[k]), the cached dense (c0 I + c1 A)^(-1) and its
    product with A; None unless the domain is an interval of up to
    DENSE_MAX_NODES nodes."""
    if domain.dim != 1 or domain.size > DENSE_MAX_NODES:
        return None
    return [_dense_inverse(*domain.n, *domain.h, s0, s1) for s0, s1 in zip(c0, c1)]


def row_products(mats: list[np.ndarray]):
    """b -> the stack whose row k is mats[k] @ b[k], for a (K, n) stack b.

    Each row gets a product of its own, np.dot for one row and a stacked
    matmul otherwise, never one product over the stack, so it rounds
    exactly as that row alone.
    """
    if len(mats) == 1:  # one field: the faster call
        (d,) = mats
        return lambda b: np.dot(d, b[0])[None]
    d = mats[0] if all(m is mats[0] for m in mats) else np.stack(mats)
    return lambda b: np.matmul(d, b[..., None])[..., 0]


def shifted_solver(domain: Domain, c0, c1):
    """Exact solver b -> (c0 I + c1 A)^(-1) b in the sine eigenbasis of A.

    A is the Kronecker sum of per-axis tridiagonal matrices, all diagonalized
    by DST-I, so the solve is two transforms around a diagonal scaling, in 1D
    and 2D alike.  On intervals of up to DENSE_MAX_NODES nodes it is instead
    one product with the shift's dense inverse (`dense_inverses`); the
    domain alone chooses the method, never the stack.  There the midpoint
    step uses the inverses itself, with A folded in, and takes no A u.
    Given sequences of K shifts c0, c1, the solver takes a (K, size) stack
    whose row k it solves with (c0[k], c1[k]); each row gets matrix
    products of its own, never one product over the stack, so it rounds
    exactly as a solve of that row alone.
    """
    dense = dense_inverses(domain, c0, c1)
    if dense is not None:
        return row_products([inv for inv, _ in dense])
    c0, c1 = np.asarray(c0), np.asarray(c1)
    one_row = len(c0) == 1
    if one_row:  # the products of one field are the faster calls
        c0, c1 = c0[0], c1[0]
    bases = [_sine_basis(m, ha) for m, ha in zip(domain.n, domain.h)]
    if domain.dim == 1:
        ((s, lam),) = bases
        inv = 1.0 / (c0[..., None] + c1[..., None] * lam)
        if one_row:
            return lambda b: np.dot(s, inv * np.dot(s, b[0]))[None]
        col = inv[..., None]  # rows as columns: one matrix-vector product each
        return lambda b: (s @ (col * (s @ b[..., None])))[..., 0]
    (sx, lx), (sy, ly) = bases
    inv = 1.0 / (c0[..., None, None]
                 + c1[..., None, None] * (lx[:, None] + ly[None, :]))
    return lambda b: (sx @ (inv * (sx @ b.reshape(inv.shape) @ sy)) @ sy
                      ).reshape(b.shape)


def row_dots(x: np.ndarray, y: np.ndarray) -> list[float]:
    """x[k] @ y[k] for each row of two (K, n) stacks, as Python floats.

    Each row is one dot product of its own, a (1, n) @ (n, 1) matmul, so it
    rounds exactly as the dot of that row alone, at K = 1 too.
    """
    return np.matmul(x[:, None, :], y[:, :, None]).ravel().tolist()


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
