"""The fallacy raster and the uncertainty grid: the array half of the analysis.

:func:`sweep_blocks` runs the point-wise arithmetic of :mod:`fallacy` on
blocks of theta rows.  That arithmetic is real, on Bloch vectors, and
float64 arrays round its ``+``, ``-``, ``*`` and ``/`` as Python floats do,
so each cell equals :func:`fallacy.fallacy_report` for its point bit for
bit with no complex batch type; :func:`sweep_fallacy_map` is its one block.
:func:`csv_rows` writes a block's CSV lines, a byte matrix at a time.
This module, :mod:`heatmap`, :mod:`population` and :mod:`kernels` are the
package's numpy users; the scalar tasks never import them, and nor does a
``run`` sweep of at most ``cli._POINTWISE_CELLS`` cells, which is computed
point by point.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
import numpy as np

from .dsl import GridRange
from .errors import ValidationError
from .fallacy import FallacyReport, _axis, _bloch, _fallacy, _pair, classify_regime
from .observables import (
    BasisRelation, Question, eigenvectors_in_reference
)
from .states import pure_from_angles


class SweepResult(FallacyReport):
    """Fallacy raster over (theta, theta_a): a :class:`FallacyReport` of arrays,
    then the arrays ``theta`` and ``theta_a``, the float ``phi`` and ``regime``.

    Each report field is an array of shape ``(len(theta), len(theta_a))``,
    and cell (i, k) equals the report for ``theta[i]`` and ``theta_a[k]``:
    row i holds ``theta[i]``, so flattening is row-major in theta.
    ``regime`` holds one :class:`fallacy.RegimeClass` per theta row.
    """

    __slots__ = ("theta", "theta_a", "phi", "regime")

    def __len__(self) -> int:
        """Number of cells."""
        return self.p_a1.size


def _stack(vectors, shape) -> tuple:
    """Vectors from the scalar path stacked component by component into
    arrays of ``shape``."""
    return tuple(np.array(c).reshape(shape) for c in zip(*vectors))


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
    its correlation regime.  The Bloch vectors and cos^2 t come from the
    scalar code, once per axis value, stacked into float arrays; each
    block's cells are then one batch through the arithmetic of
    :func:`fallacy.fallacy_report`, so every cell equals the report for its
    point.
    """
    _reserve_raster(theta_grid.steps, theta_a_grid.steps)
    reference = Question("a")
    thetas, theta_as = theta_grid.values()[lo:hi], theta_a_grid.values()
    r = _stack([_bloch(pure_from_angles(theta_a, 0.0)) for theta_a in theta_as], (1, -1))
    m_a = _axis(reference)

    def block(values: list[float]) -> SweepResult:  # the given theta rows
        bs = (Question("b", BasisRelation(theta, phi)) for theta in values)
        _, m_b, cond = zip(*[_pair(reference, b) for b in bs])
        cells = _fallacy(r, m_a, _stack(m_b, (-1, 1)), np.array(cond)[:, None])
        regime = tuple(classify_regime(theta) for theta in values)
        return SweepResult(*cells, np.array(values), np.array(theta_as), phi, regime)

    return map(block, (thetas[start:start + rows] for start in range(0, len(thetas), rows)))


# A float's `.17g` text is built right-aligned in 24 bytes, NUL where it has no
# character (the longest text, "-1.7976931348623157e+308", has 24).  Where
# 1e-4 <= |x| < 1, with decimal exponent E = e - 4, it is "0.", 3 - e zeros
# and q = round-half-even(|x| * 10**(16 - E)), 17 digits without trailing
# zeros: six 4-byte words of _WORDS, NUL sign "0." | zeros and q's first digit
# | q's four 4-digit groups, the last nonzero one and all after it stripped.
_DIGITS = np.arange(10000, dtype=np.uint16)[:, None] // np.uint16([1000, 100, 10, 1]) % 10 + 48
_STRIPPED = 10000  # _WORDS[_STRIPPED + g]: group g, NUL for its trailing zeros
_LEAD = 20000  # _WORDS[_LEAD + 10 * e + d]: 3 - e zeros, then the digit d
_SIGN = 20040  # _WORDS[_SIGN + s]: the first word, s = 1 for a minus sign
_WORDS = np.concatenate([
    _DIGITS,
    _DIGITS * np.logical_or.accumulate(_DIGITS[:, ::-1] != 48, axis=1)[:, ::-1],
    np.where(np.arange(4) < np.arange(40)[:, None] // 10, 0, 48)
    + np.arange(40)[:, None] % 10 * [0, 0, 0, 1],
    [list(b"\0\0" b"0."), list(b"\0-0.")],
]).astype(np.uint8).view(np.uint32).ravel()
_SCALE = np.array([1e20, 1e19, 1e18, 1e17])  # 10**(16 - E), exact in binary64
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_SCALE_HI = _SPLIT * _SCALE - (_SPLIT * _SCALE - _SCALE)


def _scalar_slots(values: np.ndarray) -> np.ndarray:
    """The 24-byte slots of ``values`` from ``format``, in one batch."""
    text = "".join(format(v, "\0>24.17g") for v in values.tolist())
    return np.frombuffer(text.encode(), np.uint8).reshape(-1, 24)


def _g17(x: np.ndarray) -> np.ndarray:
    """``format(v, ".17g")`` of each float, as 24-byte slots: x.shape + (24,).

    Where 1e-4 <= |v| < 1, p + err = |v| * 10**(16 - E) exactly (Dekker's
    two-product) and p >= 10**16 > 2**53 is even, so q = p + rint(err) is
    rounded half to even.  Every other value goes to :func:`_scalar_slots`,
    as would any q outside [10**16, 10**17)."""
    flat = x.ravel()
    a = np.abs(flat)
    fast = (a >= 1e-4) & (a < 1.0)
    a = np.where(fast, a, 0.5)  # off the path: any value that keeps the casts finite
    e = np.searchsorted([1e-3, 1e-2, 1e-1], a, side="right")  # E + 4
    scale, hi = _SCALE[e], _SCALE_HI[e]
    lo = scale - hi  # exact
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * scale
    err = ((a_hi * hi - p) + a_hi * lo + a_lo * hi) + a_lo * lo
    q = p.astype(np.int64) + np.rint(err).astype(np.int64)
    fast &= (q >= 10**16) & (q < 10**17)
    words = np.empty((flat.size, 6), np.intp)
    words[:, 0] = _SIGN + np.signbit(flat)
    first = q // 10**16
    words[:, 1] = _LEAD + 10 * e + first
    rest = q - first * 10**16
    for k in range(4):  # q's 4-digit groups, stripped where all after are zero
        below = 10 ** (12 - 4 * k)
        group = rest // below
        rest -= group * below
        words[:, 2 + k] = group + _STRIPPED * (rest == 0)
    chars = _WORDS[words].view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        chars[slow] = _scalar_slots(flat[slow])
    return chars.reshape(*x.shape, 24)


def _field_bytes(column) -> np.ndarray:
    """A column's text per cell, as bytes padded with NUL: shape + (width,)."""
    column = np.asarray(column)
    if column.dtype == bool:
        return (column.view(np.uint8) + 48)[..., None]
    if column.dtype == np.float64:
        return _g17(column)
    return column.astype(bytes)[..., None].view(np.uint8)


def csv_rows(*columns) -> str:
    """The CSV lines of a grid of cells in row-major order, newline-separated.

    The columns broadcast to the grid's shape, and each cell is written as
    ``cli._cell`` writes a value: a bool as 0 or 1, a float as ``format(v,
    ".17g")``, anything else (ASCII text) as ``str``.  The lines are one byte
    matrix of fixed-width fields, NUL where a field is shorter, without the NULs.
    """
    fields = [_field_bytes(column) for column in columns]
    shape = np.broadcast_shapes(*(f.shape[:-1] for f in fields))
    out = np.empty((*shape, sum(f.shape[-1] + 1 for f in fields)), np.uint8)
    end = 0
    for f in fields:
        out[..., end:end + f.shape[-1]] = f
        end += f.shape[-1] + 1
        out[..., end - 1] = ord(",")
    del fields  # before the compaction, whose buffers are as large as out
    out[..., -1] = ord("\n")
    out.reshape(-1)[-1] = 0  # no newline after the last line
    return str(out[out != 0], "ascii")


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
