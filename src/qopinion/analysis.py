"""The fallacy raster and the uncertainty grid: the array half of the analysis.

:func:`sweep_blocks` runs the point-wise arithmetic of :mod:`fallacy` on
blocks of theta rows, so each cell equals :func:`fallacy.fallacy_report`
for its point bit for bit; :func:`sweep_fallacy_map` is its one block.
This module, :mod:`heatmap`, :mod:`population` and :mod:`kernels` are the
package's numpy users; the scalar tasks never import them.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dsl import GridRange
from .errors import ValidationError
from .fallacy import (
    FallacyReport,
    RegimeClass,
    _fallacy,
    _relation_terms,
    classify_regime,
)
from .observables import (
    BasisRelation, Question, _rotation_terms, eigenvectors_in_reference, relative_relation
)
from .states import pure_from_angles


@dataclass(frozen=True, eq=False)
class SweepResult(FallacyReport):
    """Fallacy raster over (theta, theta_a): a :class:`FallacyReport` of arrays.

    Each report field is an array of shape ``(len(theta), len(theta_a))``,
    and cell (i, k) equals the report for ``theta[i]`` and ``theta_a[k]``:
    row i holds ``theta[i]``, so flattening is row-major in theta.
    ``regime`` holds one class per theta row.
    """

    theta: np.ndarray
    theta_a: np.ndarray
    phi: float
    regime: tuple[RegimeClass, ...]

    def __len__(self) -> int:
        """Number of cells."""
        return self.p_a1.size


class ComplexArray:
    """A batch of complex numbers held as real and imaginary float arrays.

    The operators repeat CPython's ``complex`` formulas step by step (a real
    operand is promoted to ``complex(x, 0.0)``, as up to Python 3.13;
    division is Smith's method) and ``abs`` is libm's hypot, as for
    ``complex``.  numpy's own complex ufuncs may fuse or reorder these
    steps and then differ from Python in the last bit; with this type a
    batch gives bit for bit what the scalar path gives for each of its
    elements, signed zeros included.
    """

    __array_ufunc__ = None  # numpy operands defer to the methods below

    def __init__(self, real, imag):
        self.real = real
        self.imag = imag

    @staticmethod
    def _parts(z):
        if isinstance(z, (ComplexArray, complex)):
            return z.real, z.imag
        return z, 0.0

    def conjugate(self) -> "ComplexArray":
        return ComplexArray(self.real, -self.imag)

    def __abs__(self):
        return np.hypot(self.real, self.imag)

    def abs2(self):
        """``abs(self) ** 2`` through libm pow, as Python's ``**`` squares a
        float; ``np.square`` and ``np.power`` round differently on some inputs."""
        return np.float_power(abs(self), 2.0)

    def __add__(self, other) -> "ComplexArray":
        re, im = self._parts(other)
        return ComplexArray(self.real + re, self.imag + im)

    def __sub__(self, other) -> "ComplexArray":
        re, im = self._parts(other)
        return ComplexArray(self.real - re, self.imag - im)

    def __mul__(self, other) -> "ComplexArray":
        re, im = self._parts(other)
        return ComplexArray(
            self.real * re - self.imag * im, self.real * im + self.imag * re
        )

    def __truediv__(self, other) -> "ComplexArray":
        br, bi = map(np.asarray, self._parts(other))
        ar, ai = self.real, self.imag
        with np.errstate(divide="ignore", invalid="ignore"):
            wide = np.abs(br) >= np.abs(bi)
            ratio = np.where(wide, bi / br, br / bi)
            denom = np.where(wide, br + bi * ratio, br * ratio + bi)
            real = np.where(wide, ar + ai * ratio, ar * ratio + ai) / denom
            imag = np.where(wide, ai - ar * ratio, ai * ratio - ar) / denom
        return ComplexArray(real, imag)


def _batch(values, shape):
    """Values from the scalar path stacked into an array of ``shape``;
    complex values become a :class:`ComplexArray`."""
    z = np.array(values).reshape(shape)
    return ComplexArray(z.real, z.imag) if np.iscomplexobj(z) else z


def _reserve_raster(rows: int, cols: int) -> None:
    """Allocate one (rows, cols) float array, never touched, so a raster too
    large for memory fails at once with MemoryError, before any work."""
    try:
        np.empty((rows, cols))
    except ValueError as exc:  # numpy: a dimension or the byte count overflows
        raise MemoryError(exc) from None


def sweep_fallacy_map(
    theta_grid: GridRange, theta_a_grid: GridRange, phi: float
) -> SweepResult:
    """Rasterize fallacy structure over (theta, theta_a), row-major in theta:
    the one block of :func:`sweep_blocks` that holds every theta row."""
    rows = theta_grid.steps
    return next(sweep_blocks(theta_grid, theta_a_grid, phi, 0, rows, rows))


def sweep_blocks(
    theta_grid: GridRange, theta_a_grid: GridRange, phi: float, lo: int, hi: int, rows: int
) -> Iterator[SweepResult]:
    """Theta rows ``lo`` to ``hi - 1`` of the fallacy raster, in order, as
    :class:`SweepResult` blocks of at most ``rows`` rows, each computed when
    it is taken.  The whole raster is reserved when this is called.

    Cell (i, k) prepares the real state with angle theta_a[k] and relates
    question b to the reference by (theta[i], phi); each theta row also gets
    its correlation regime.  The per-axis terms come from the scalar code,
    once per axis value; each block's cells are then one batch through the
    arithmetic of :func:`fallacy.fallacy_report`, so every cell equals the
    report for its point.
    """
    _reserve_raster(theta_grid.steps, theta_a_grid.steps)
    reference = Question("a")
    thetas, theta_as = theta_grid.values()[lo:hi], theta_a_grid.values()
    states = [pure_from_angles(theta_a, 0.0) for theta_a in theta_as]
    amp0 = _batch([s.amp0 for s in states], (1, -1))
    amp1 = _batch([s.amp1 for s in states], (1, -1))
    rotate_a = _rotation_terms(reference.relation_to_reference)

    def per_row(terms):  # one (n, 1) batch per term
        return [_batch(column, (-1, 1)) for column in zip(*terms)]

    def block(values: list[float]) -> SweepResult:  # the given theta rows
        bs = [Question("b", BasisRelation(theta, phi)) for theta in values]
        cells = _fallacy(
            amp0, amp1, rotate_a,
            per_row([_rotation_terms(b.relation_to_reference) for b in bs]),
            per_row([_relation_terms(relative_relation(reference, b)) for b in bs]),
            per_row([_relation_terms(relative_relation(b, reference)) for b in bs]),
        )
        regime = tuple(classify_regime(theta) for theta in values)
        return SweepResult(
            theta=np.array(values), theta_a=np.array(theta_as), phi=phi, regime=regime, **cells
        )

    return map(block, (thetas[start:start + rows] for start in range(0, len(thetas), rows)))


def uncertainty_sum_minimum(
    a: Question, b: Question, grid_steps: int
) -> tuple[float, tuple[float, float]]:
    """Grid-search minimum of variance(a) + variance(b) over pure states.

    Scans state angles theta_s in [0, pi) and phi_s in [0, 2*pi) on a
    grid_steps x grid_steps lattice.  The value is an upper bound on the
    true variance-sum floor and converges to it as the grid refines.
    """
    if grid_steps < 8:
        raise ValidationError(f"grid_steps must be >= 8, got {grid_steps}")
    _reserve_raster(grid_steps, grid_steps)
    va = eigenvectors_in_reference(a)[1]
    vb = eigenvectors_in_reference(b)[1]
    theta_s = np.linspace(0.0, math.pi, grid_steps, endpoint=False)
    phi_s = np.linspace(0.0, 2.0 * math.pi, grid_steps, endpoint=False)
    amp0 = np.cos(theta_s)[:, None]  # the same for every phi_s
    amp1 = np.sin(theta_s)[:, None] * np.exp(1j * phi_s)[None, :]

    def p1(v):
        ov = np.conj(v.amp0) * amp0 + np.conj(v.amp1) * amp1
        return np.abs(ov) ** 2

    pa, pb = p1(va), p1(vb)
    var_sum = pa * (1.0 - pa) + pb * (1.0 - pb)
    idx = np.unravel_index(np.argmin(var_sum), var_sum.shape)
    # Rounding can leave a zero variance sum a few ulps below 0; the argmin
    # is taken before the clamp, so the reported state does not move.
    minimum = max(float(var_sum[idx]), 0.0)
    return minimum, (float(theta_s[idx[0]]), float(phi_s[idx[1]]))
