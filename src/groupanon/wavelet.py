"""Periodized one-dimensional filter-bank wavelet machinery.

A signal of even length n is split into n/2 approximation and n/2 detail
coefficients by circular convolution with a low-pass / high-pass analysis
pair followed by dyadic downsampling.  Iterating on the approximation branch
gives the usual multilevel cascade.  Synthesis is the adjoint operation
(zero-insertion upsampling followed by circular convolution with the
time-reversed filter), so for an orthonormal pair analysis-then-synthesis
is the identity to machine precision.

Boundary handling is periodization throughout: lengths halve exactly at
every level, which is what forces a length-16 signal down to exactly four
level-2 coefficients.

Alignment convention
--------------------
After circular convolution the output is sampled at indices
``(2*i + downsample_offset(len(filter))) mod n``.  The offset is half the
filter length; it was fixed once by matching the bundled reference vectors
(see :mod:`groupanon.reference`) and the synthesis side applies the mirror
phase.  Changing it breaks perfect reconstruction against those fixtures.

The high-pass filter is the quadrature mirror of the low-pass,
``h[k] = (-1)**(k+1) * l[L-1-k]``, again the sign convention validated by
the reference vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import coo_array, csr_array

from .errors import WaveletError

__all__ = [
    "FilterPair",
    "WaveletDecomposition",
    "FILTERS",
    "get_filter",
    "check_level",
    "downsample_offset",
    "conv_down",
    "up_conv",
    "decompose",
    "approximation_component",
    "detail_component",
    "reconstruct",
    "reconstruction_matrix",
]

_ATOL = 1e-12


def downsample_offset(filter_length: int) -> int:
    """Phase of the kept samples after circular convolution.

    Half the filter length; documented here as the single alignment
    constant of the module (2 for the four-tap filter the reference
    vectors validate).
    """
    return filter_length // 2


@dataclass(frozen=True)
class FilterPair:
    """An orthonormal low-pass / high-pass analysis pair.

    Invariants checked on construction: equal even lengths, low-pass taps
    summing to sqrt(2) with unit energy, high-pass taps summing to zero.
    """

    name: str
    lowpass: np.ndarray
    highpass: np.ndarray

    def __post_init__(self):
        low = np.asarray(self.lowpass, dtype=float)
        high = np.asarray(self.highpass, dtype=float)
        object.__setattr__(self, "lowpass", low)
        object.__setattr__(self, "highpass", high)
        if low.ndim != 1 or high.ndim != 1 or low.size != high.size:
            raise WaveletError("filter pair must be two equal-length vectors")
        if low.size < 2 or low.size % 2:
            raise WaveletError("filter length must be even and at least 2")
        if abs(low.sum() - np.sqrt(2.0)) > _ATOL:
            raise WaveletError(f"low-pass taps of {self.name!r} must sum to sqrt(2)")
        if abs((low * low).sum() - 1.0) > _ATOL:
            raise WaveletError(f"low-pass taps of {self.name!r} must have unit energy")
        if abs(high.sum()) > _ATOL:
            raise WaveletError(f"high-pass taps of {self.name!r} must sum to 0")
        low.setflags(write=False)
        high.setflags(write=False)

    @classmethod
    def from_lowpass(cls, name: str, lowpass) -> "FilterPair":
        """Build the pair from low-pass taps via the quadrature mirror."""
        low = np.asarray(lowpass, dtype=float)
        k = np.arange(low.size)
        high = (-1.0) ** (k + 1) * low[::-1]
        return cls(name, low, high)

    def __len__(self) -> int:
        return int(self.lowpass.size)


def _daubechies2() -> FilterPair:
    s3 = np.sqrt(3.0)
    low = np.array([1.0 - s3, 3.0 - s3, 3.0 + s3, 1.0 + s3]) / (4.0 * np.sqrt(2.0))
    return FilterPair.from_lowpass("db2", low)


def _daubechies4() -> FilterPair:
    low = np.array(
        [
            -0.010597401784997278,
            0.032883011666982945,
            0.030841381835986965,
            -0.18703481171888114,
            -0.02798376941698385,
            0.6308807679295904,
            0.7148465705525415,
            0.23037781330885523,
        ]
    )
    return FilterPair.from_lowpass("db4", low)


def _haar() -> FilterPair:
    low = np.array([1.0, 1.0]) / np.sqrt(2.0)
    return FilterPair.from_lowpass("haar", low)


FILTERS: dict[str, FilterPair] = {
    "db2": _daubechies2(),
    "db4": _daubechies4(),
    "haar": _haar(),
}


def get_filter(name: str) -> FilterPair:
    try:
        return FILTERS[name]
    except KeyError:
        known = ", ".join(sorted(FILTERS))
        raise WaveletError(f"unknown wavelet family {name!r} (available: {known})") from None


def _circular_convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Full linear convolution folded back onto length len(x).

    Needs len(taps) <= len(x), which every caller guarantees, so the full
    convolution is shorter than 2*len(x) and only its tail wraps.  Output k
    is ``0 + full[k] + full[k + n]`` in that order, the same additions as
    an index-ordered scatter-add.
    """
    n = x.size
    full = np.convolve(x, taps)
    out = np.zeros(n)
    out += full[:n]
    out[: full.size - n] += full[n:]
    return out


def conv_down(x, taps) -> np.ndarray:
    """Circular convolution with ``taps`` followed by dyadic downsampling.

    Output has length len(x)/2; samples are taken at the module alignment
    phase (see :func:`downsample_offset`).
    """
    x = np.asarray(x, dtype=float)
    taps = np.asarray(taps, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise WaveletError("input signal must be a non-empty vector")
    if x.size % 2:
        raise WaveletError(f"signal length {x.size} is odd; need an even length")
    if x.size < taps.size:
        raise WaveletError(
            f"signal length {x.size} is shorter than the filter ({taps.size} taps)"
        )
    y = _circular_convolve(x, taps)
    idx = (2 * np.arange(x.size // 2) + downsample_offset(taps.size)) % x.size
    return y[idx]


def up_conv(x, taps) -> np.ndarray:
    """Dyadic upsampling followed by circular convolution (synthesis).

    Adjoint of :func:`conv_down` for the same taps: zeros are inserted
    between samples and the result is circularly convolved with the
    time-reversed filter at the matching phase.  Output length is
    n = 2*len(x).

    With ``up`` the zero-inserted input and ``phase`` the module alignment
    constant, output i is ``0.0 + sum_k taps[k] * up[(i - phase + k) mod n]``,
    added for k ascending.  That order is fixed here rather than left to a
    BLAS dot product.  The sum runs polyphase: tap k only meets the samples
    of one output parity, so the zero products of the upsampling are
    skipped.  Adding a zero product leaves a finite sum unchanged, so the
    result is bitwise that of the full sum, in O(n * taps).
    """
    x = np.asarray(x, dtype=float)
    taps = np.asarray(taps, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise WaveletError("input coefficient vector must be non-empty")
    out = np.zeros(2 * x.size)
    phase = downsample_offset(taps.size)
    for k, tap in enumerate(taps):
        # outputs of parity p meet tap k at even samples, up[2j] = x[j]
        p = (phase - k) % 2
        out[p::2] += tap * np.roll(x, (phase - k - p) // 2)
    return out


@dataclass(frozen=True)
class WaveletDecomposition:
    """Multilevel decomposition: one approximation plus per-level details.

    ``details[j]`` holds the level-j detail coefficients (length m/2**j),
    for j = level down to 1.  ``reconstruct`` reassembles the original
    signal to machine precision.

    ``reconstruction_csr`` is the decomposition's reconstruction matrix R
    (see :func:`reconstruction_matrix`) in compressed sparse rows, built on
    first read and then kept read-only, straight from the synthesized
    column 0 without a dense R.  A row of R has at most filter-length
    nonzeros, so constraint rows, objective rows and reassembly read O(m)
    entries, where the dense matrix holds m**2 / 2**level.
    """

    level: int
    approx: np.ndarray
    details: dict[int, np.ndarray]
    signal_length: int
    filter: FilterPair = field(repr=False)

    def detail_levels(self) -> list[int]:
        return sorted(self.details, reverse=True)

    @cached_property
    def reconstruction_csr(self) -> csr_array:
        """Read-only CSR form of R: its nonzeros, column-sorted per row.

        Column j of R is column 0 rolled by j * 2**level (see
        :func:`reconstruction_matrix`), so its nonzeros sit at rows
        ``(nz + j * 2**level) mod length`` and hold ``col0[nz]``, where
        ``nz`` are the nonzero rows of column 0.  The entries are R's own,
        so the result equals ``csr_array(reconstruction_matrix(...))`` for
        the same filter, level and length, bit for bit.
        """
        length, level = self.signal_length, self.level
        col0 = _column0(self.filter, level, length)
        nz = np.flatnonzero(col0)
        ncoef = length >> level
        # the index width csr_array picks for a matrix of this size
        index = np.int32 if max(length, ncoef * nz.size) <= np.iinfo(np.int32).max else np.int64
        shift = np.arange(ncoef) << level
        rows = ((nz[None, :] + shift[:, None]) % length).astype(index)
        cols = np.repeat(np.arange(ncoef, dtype=index), nz.size)
        matrix = coo_array((np.tile(col0[nz], ncoef), (rows.reshape(-1), cols)),
                           shape=(length, ncoef)).tocsr()
        matrix.sort_indices()
        for part in (matrix.data, matrix.indices, matrix.indptr):
            part.setflags(write=False)
        return matrix


def decompose(values, filter_pair: FilterPair, level: int) -> WaveletDecomposition:
    """Run the analysis cascade for ``level`` steps (see :func:`check_level`)."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise WaveletError("signal must be one-dimensional")
    m = x.size
    check_level(m, filter_pair, level)
    details: dict[int, np.ndarray] = {}
    approx = x
    for j in range(1, level + 1):
        details[j] = conv_down(approx, filter_pair.highpass)
        approx = conv_down(approx, filter_pair.lowpass)
    return WaveletDecomposition(level, approx, details, m, filter_pair)


def check_level(length: int, filter_pair: FilterPair, level: int) -> None:
    """Raise unless a length-``length`` signal decomposes ``level`` times with this filter.

    Every step halves an even length that still covers the filter.
    """
    feasible = _max_level(length, len(filter_pair))
    if not 1 <= level <= feasible:
        raise WaveletError(f"cannot decompose length {length} to level {level}; "
                           f"maximal feasible level is {feasible}")


def _max_level(m: int, filter_length: int) -> int:
    level = 0
    while m % 2 == 0 and m >= filter_length:
        level += 1
        m //= 2
    return level


def approximation_component(dec: WaveletDecomposition) -> np.ndarray:
    """Low-frequency component: the approximation synthesized back to full length."""
    return _synthesize_approx(dec.approx, dec.level, dec.filter)


def _synthesize_approx(coeffs: np.ndarray, level: int, fp: FilterPair) -> np.ndarray:
    out = np.asarray(coeffs, dtype=float)
    for _ in range(level):
        out = up_conv(out, fp.lowpass)
    return out


def detail_component(dec: WaveletDecomposition) -> np.ndarray:
    """Sum of all detail components synthesized back to full length."""
    total = np.zeros(dec.signal_length)
    for j, d in dec.details.items():
        comp = up_conv(d, dec.filter.highpass)
        for _ in range(j - 1):
            comp = up_conv(comp, dec.filter.lowpass)
        total += comp
    return total


def reconstruct(dec: WaveletDecomposition) -> np.ndarray:
    """Approximation plus details; inverse of :func:`decompose`."""
    return approximation_component(dec) + detail_component(dec)


def reconstruction_matrix(filter_pair: FilterPair, level: int, length: int) -> np.ndarray:
    """Matrix R mapping approximation coefficients to the full-length component.

    R @ a equals the approximation component for any coefficient vector a;
    column j is the synthesis cascade of the j-th unit vector.  Shape is
    (length, length / 2**level).

    The periodized synthesis cascade is shift-equivariant by 2**level:
    moving a coefficient one place moves its output 2**level places,
    circularly.  So only column 0 is synthesized, and column j is column 0
    rolled by j * 2**level, ``R[i, j] = col0[(i - j * 2**level) mod length]``.
    One cascade replaces length / 2**level of them; entries agree with the
    per-column cascades to rounding.

    The result is the transpose of a C-ordered (columns, length) array, so
    R is column-major.  It holds length**2 / 2**level entries, nearly all
    zero, and serves demos and tests: no run path builds it.  Constraints
    and reassembly read the same entries from
    :attr:`WaveletDecomposition.reconstruction_csr`.
    """
    col0 = _column0(filter_pair, level, length)
    ncoef = length >> level
    # window s of [col0, col0] is col0 rolled by length - s
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([col0, col0]), length)
    columns = windows[length - (np.arange(ncoef) << level)]
    return columns.T


def _column0(filter_pair: FilterPair, level: int, length: int) -> np.ndarray:
    """Column 0 of the reconstruction matrix: the synthesis cascade of the first unit vector."""
    if level < 1 or length % (1 << level):
        raise WaveletError(f"length {length} is not divisible by 2**{level}")
    unit = np.zeros(length >> level)
    unit[0] = 1.0
    return _synthesize_approx(unit, level, filter_pair)
