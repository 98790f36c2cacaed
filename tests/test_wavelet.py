import math

import numpy as np
import pytest
from scipy.sparse import csr_array

from groupanon import reference as ref
from groupanon.errors import WaveletError
from groupanon.redistribute import reassemble
from groupanon.wavelet import (
    FILTERS,
    FilterPair,
    _circular_convolve,
    approximation_component,
    conv_down,
    decompose,
    detail_component,
    downsample_offset,
    get_filter,
    reconstruct,
    reconstruction_matrix,
    up_conv,
)

DB2 = FILTERS["db2"]


def circular_convolve_oracle(x, taps):
    """Direct double-loop circular convolution, independent of the module."""
    n = len(x)
    out = [0.0] * n
    for i, value in enumerate(x):
        for k, tap in enumerate(taps):
            out[(i + k) % n] += value * tap
    return np.array(out)


def conv_down_oracle(x, taps):
    full = circular_convolve_oracle(x, taps)
    offset = len(taps) // 2
    return np.array([full[(2 * i + offset) % len(x)] for i in range(len(x) // 2)])


def scatter_add_convolve(x, taps):
    """The full convolution folded by an index-ordered scatter-add."""
    full = np.convolve(x, taps)
    out = np.zeros(x.size)
    np.add.at(out, np.arange(full.size) % x.size, full)
    return out


def convolve_up_conv(x, taps):
    """The obvious O(n**2) synthesis: a length-n circular convolution.

    Zeros are inserted between samples and the result is circularly
    convolved with the time-reversed filter scattered into a length-n
    vector, summed in the BLAS dot-product order.
    """
    x = np.asarray(x, dtype=float)
    n = 2 * x.size
    up = np.zeros(n)
    up[::2] = x
    synth = np.zeros(n)
    phase = downsample_offset(taps.size)
    np.add.at(synth, (phase - np.arange(taps.size)) % n, taps)
    return _circular_convolve(up, synth)


def up_conv_loop(x, taps):
    """The defined synthesis sum: ``0.0 + sum_k taps[k] * up[(i - phase + k) mod n]``, k ascending.

    Every product is added, the zero samples of the upsampling included.
    """
    n = 2 * len(x)
    up = [0.0] * n
    up[::2] = [float(v) for v in x]
    phase = downsample_offset(len(taps))
    out = []
    for i in range(n):
        total = 0.0
        for k, tap in enumerate(taps):
            total += float(tap) * up[(i - phase + k) % n]
        out.append(total)
    return np.array(out)


def unit_cascade_matrix(fp, level, length):
    """Reconstruction matrix by one synthesis cascade per unit vector."""
    ncoef = length >> level
    columns = np.empty((ncoef, length))
    for j in range(ncoef):
        col = np.zeros(ncoef)
        col[j] = 1.0
        for _ in range(level):
            col = up_conv(col, fp.lowpass)
        columns[j] = col
    return columns.T


class TestFilterPair:
    @pytest.mark.parametrize("name", ["db2", "db4", "haar"])
    def test_registered_filters_hold_invariants(self, name):
        fp = get_filter(name)
        assert abs(fp.lowpass.sum() - np.sqrt(2)) < 1e-12
        assert abs((fp.lowpass**2).sum() - 1.0) < 1e-12
        assert abs(fp.highpass.sum()) < 1e-12
        assert fp.lowpass.size == fp.highpass.size

    def test_unknown_family(self):
        with pytest.raises(WaveletError, match="db17"):
            get_filter("db17")

    def test_bad_lowpass_rejected(self):
        with pytest.raises(WaveletError, match="sqrt"):
            FilterPair.from_lowpass("bad", [0.5, 0.5, 0.5, 0.5])

    def test_quadrature_mirror_construction(self):
        low = DB2.lowpass
        expected = np.array([-low[3], low[2], -low[1], low[0]])
        assert np.allclose(DB2.highpass, expected)


class TestCircularConvolve:
    def test_bitwise_equal_to_scatter_add(self):
        rng = np.random.default_rng(29)
        for n in (2, 4, 8, 16, 1000):
            for k in (1, 2, 4, 8, n):
                if k > n:
                    continue
                x, taps = rng.normal(size=n), rng.normal(size=k)
                got = _circular_convolve(x, taps)
                assert got.tobytes() == scatter_add_convolve(x, taps).tobytes()


class TestConvDown:
    def test_impulse_places_taps_circularly(self):
        impulse = np.zeros(8)
        impulse[0] = 1.0
        got = conv_down(impulse, DB2.lowpass)
        oracle = conv_down_oracle(impulse, DB2.lowpass)
        assert np.allclose(got, oracle, atol=1e-15)
        low = DB2.lowpass
        assert np.allclose(got, [low[2], 0.0, 0.0, low[0]], atol=1e-15)

    def test_matches_oracle_on_random_signals(self):
        rng = np.random.default_rng(7)
        for n in (8, 16, 32):
            x = rng.normal(size=n)
            for taps in (DB2.lowpass, DB2.highpass):
                assert np.allclose(conv_down(x, taps), conv_down_oracle(x, taps), atol=1e-12)

    def test_constant_signal_scales_by_sqrt2(self):
        x = np.full(12, 3.5)
        assert np.allclose(conv_down(x, DB2.lowpass), 3.5 * np.sqrt(2))

    def test_reference_two_level_cascade(self):
        a1 = conv_down(ref.QUANTITY, DB2.lowpass)
        a2 = conv_down(a1, DB2.lowpass)
        assert np.max(np.abs(a2 - ref.QUANTITY_APPROX_2)) < 1e-3

    def test_odd_length_rejected(self):
        with pytest.raises(WaveletError, match="odd"):
            conv_down(np.ones(7), DB2.lowpass)

    def test_signal_shorter_than_filter_rejected(self):
        with pytest.raises(WaveletError, match="shorter"):
            conv_down(np.ones(2), DB2.lowpass)

    def test_offset_is_half_filter_length(self):
        assert downsample_offset(4) == 2
        assert downsample_offset(2) == 1


class TestUpConv:
    def test_perfect_reconstruction_identity(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=16)
        rebuilt = up_conv(conv_down(x, DB2.lowpass), DB2.lowpass) + up_conv(
            conv_down(x, DB2.highpass), DB2.highpass
        )
        assert np.max(np.abs(rebuilt - x)) < 1e-9

    def test_reference_approximation_component(self):
        a2 = conv_down(conv_down(ref.QUANTITY, DB2.lowpass), DB2.lowpass)
        out = up_conv(up_conv(a2, DB2.lowpass), DB2.lowpass)
        assert np.max(np.abs(out - ref.QUANTITY_APPROX_COMPONENT)) < 1e-3

    def test_zero_input_gives_doubled_zeros(self):
        out = up_conv(np.zeros(4), DB2.lowpass)
        assert out.shape == (8,)
        assert not out.any()

    def test_empty_input_rejected(self):
        with pytest.raises(WaveletError, match="non-empty"):
            up_conv(np.array([]), DB2.lowpass)

    @pytest.mark.parametrize("name", ["db2", "db4", "haar"])
    def test_matches_length_n_convolution(self, name):
        fp = get_filter(name)
        rng = np.random.default_rng(43)
        for length in (2, 4, 6, 8, 16, 30, 64, 256, 1024, 4096):
            for taps in (fp.lowpass, fp.highpass):
                x = rng.normal(scale=100.0, size=length // 2)
                got, expected = up_conv(x, taps), convolve_up_conv(x, taps)
                assert got.shape == expected.shape == (length,)
                # a different summation order of at most len(taps) terms
                assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("name", ["db2", "db4", "haar"])
    def test_bitwise_equal_to_defined_sum(self, name):
        fp = get_filter(name)
        rng = np.random.default_rng(47)
        for length in (2, 4, 6, 8, 16, 30, 64, 256, 4096):
            for taps in (fp.lowpass, fp.highpass):
                x = rng.normal(scale=100.0, size=length // 2)
                assert up_conv(x, taps).tobytes() == up_conv_loop(x, taps).tobytes()


class TestDecompose:
    def test_reference_quantity_detail(self):
        dec = decompose(ref.QUANTITY, DB2, 2)
        assert np.max(np.abs(dec.details[2] - ref.QUANTITY_DETAIL_2)) < 1e-3

    def test_reference_concentration_approx(self):
        dec = decompose(ref.CONCENTRATION, DB2, 2)
        assert np.max(np.abs(dec.approx - ref.CONCENTRATION_APPROX_2)) < 1e-3

    def test_constant_signal_has_flat_approx_and_zero_details(self):
        dec = decompose(np.full(16, 5.0), DB2, 2)
        assert np.allclose(dec.approx, dec.approx[0])
        for d in dec.details.values():
            assert np.max(np.abs(d)) < 1e-9

    def test_indivisible_length_suggests_feasible_level(self):
        with pytest.raises(WaveletError, match="maximal feasible level is 2"):
            decompose(np.ones(12), DB2, 3)  # 12 % 8 != 0

    def test_lengths_halve_per_level(self):
        dec = decompose(np.arange(32, dtype=float), DB2, 3)
        assert dec.approx.size == 4
        assert {j: d.size for j, d in dec.details.items()} == {1: 16, 2: 8, 3: 4}


class TestComponents:
    def test_reference_detail_component(self):
        dec = decompose(ref.QUANTITY, DB2, 2)
        assert np.max(np.abs(detail_component(dec) - ref.QUANTITY_DETAIL_COMPONENT)) < 1e-3

    def test_constant_signal_detail_component_vanishes(self):
        dec = decompose(np.full(16, 2.0), DB2, 2)
        assert np.max(np.abs(detail_component(dec))) < 1e-9

    def test_components_add_up_to_signal(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=32)
        dec = decompose(x, DB2, 2)
        assert np.max(np.abs(x - approximation_component(dec) - detail_component(dec))) < 1e-9
        assert np.max(np.abs(reconstruct(dec) - x)) < 1e-9


class TestReconstructionMatrix:
    def test_printed_coefficients(self):
        matrix = reconstruction_matrix(DB2, 2, 16)
        assert abs(matrix[0, 0] - 0.637) < 1e-3
        assert abs(matrix[0, 3] - (-0.137)) < 1e-3
        assert abs(matrix[1, 0] - 0.296) < 1e-3
        assert abs(matrix[1, 1] - 0.233) < 1e-3
        assert abs(matrix[1, 3] - (-0.029)) < 1e-3

    def test_reproduces_approximation_component(self):
        dec = decompose(ref.QUANTITY, DB2, 2)
        matrix = reconstruction_matrix(DB2, 2, 16)
        assert np.max(np.abs(matrix @ dec.approx - ref.QUANTITY_APPROX_COMPONENT)) < 1e-3
        assert np.max(np.abs(matrix @ dec.approx - approximation_component(dec))) < 1e-9

    @pytest.mark.parametrize("length", [16, 64, 1024])
    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("name", ["db2", "db4", "haar"])
    def test_columns_are_unit_cascades(self, name, level, length):
        # db4 / level 2 / length 16 wraps every column around the axis
        fp = get_filter(name)
        matrix = reconstruction_matrix(fp, level, length)
        expected = unit_cascade_matrix(fp, level, length)
        assert matrix.shape == expected.shape
        assert matrix.flags.f_contiguous
        if (name, level) == ("db2", 2):
            assert matrix.tobytes(order="A") == expected.tobytes(order="A")
        else:
            assert np.max(np.abs(matrix - expected)) <= 1e-15

    @pytest.mark.parametrize("name", ["db2", "db4", "haar"])
    def test_reassemble_sums_csr_rows_left_to_right(self, name):
        fp = get_filter(name)
        rng = np.random.default_rng(31)
        dec = decompose(rng.normal(size=1024) * 100, fp, 2)
        coeffs = rng.normal(size=dec.approx.size) * 100
        sparse = dec.reconstruction_csr
        data, indices, indptr = sparse.data.tolist(), sparse.indices.tolist(), sparse.indptr.tolist()
        loop, exact, scale = [], [], []
        for i in range(dec.signal_length):
            terms = [data[j] * float(coeffs[indices[j]]) for j in range(indptr[i], indptr[i + 1])]
            total = 0.0
            for term in terms:
                total += term
            loop.append(total)
            exact.append(math.fsum(terms))
            scale.append(math.fsum(abs(term) for term in terms))
        got = reassemble(dec, coeffs)
        assert got.tobytes() == (np.array(loop) + detail_component(dec)).tobytes()
        # within 4 ulps of the correctly rounded row sum, counted at the size
        # of the row's terms: a row that cancels has a far smaller result
        assert np.all(np.abs(np.array(loop) - exact) <= 4 * np.spacing(np.array(scale)))

    def test_decomposition_caches_one_read_only_matrix(self):
        dec = decompose(ref.QUANTITY, DB2, 2)
        sparse = dec.reconstruction_csr
        assert sparse is dec.reconstruction_csr
        assert np.array_equal(sparse.toarray(), reconstruction_matrix(DB2, 2, 16))
        for part in (sparse.data, sparse.indices, sparse.indptr):
            with pytest.raises(ValueError):
                part[0] = 1
        assert not hasattr(dec, "reconstruction")

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("name", ["db2", "db4", "haar"])
    def test_csr_view_holds_exactly_the_nonzeros(self, name, level):
        fp = get_filter(name)
        for length in (64, 1024, 4096):
            dec = decompose(np.random.default_rng(level).normal(size=length), fp, level)
            matrix, sparse = reconstruction_matrix(fp, level, length), dec.reconstruction_csr
            assert sparse is dec.reconstruction_csr
            # built from column 0 alone, yet the same arrays as compressing dense R
            dense = csr_array(matrix)
            assert sparse.indptr.dtype == dense.indptr.dtype
            assert np.array_equal(sparse.indptr, dense.indptr)
            assert np.array_equal(sparse.indices, dense.indices)
            assert sparse.data.tobytes() == dense.data.tobytes()
            assert sparse.nnz == np.count_nonzero(matrix) and np.all(sparse.data != 0)
            assert sparse.toarray().tobytes() == np.ascontiguousarray(matrix).tobytes()
            # no negative zeros in R: negating and scattering rows recovers them exactly
            assert not np.signbit(matrix[matrix == 0]).any()
            assert np.count_nonzero(matrix, axis=1).max() <= len(fp)
            with pytest.raises(ValueError):
                sparse.data[0] = 1.0

    def test_linearity(self):
        rng = np.random.default_rng(5)
        matrix = reconstruction_matrix(DB2, 2, 16)
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert np.allclose(matrix @ (2.5 * a - 1.5 * b), 2.5 * (matrix @ a) - 1.5 * (matrix @ b),
                           atol=1e-9)

    def test_indivisible_length_rejected(self):
        with pytest.raises(WaveletError, match="divisible"):
            reconstruction_matrix(DB2, 2, 18)


class TestProperties:
    @pytest.mark.parametrize("name", ["db2", "db4", "haar"])
    def test_perfect_reconstruction_all_families(self, name):
        fp = get_filter(name)
        rng = np.random.default_rng(17)
        for n in (16, 32, 64):
            x = rng.normal(size=n)
            dec = decompose(x, fp, 2)
            assert np.max(np.abs(reconstruct(dec) - x)) < 1e-9

    def test_one_level_energy_preservation(self):
        rng = np.random.default_rng(23)
        for n in (8, 16, 32, 64):
            x = rng.normal(size=n)
            low = conv_down(x, DB2.lowpass)
            high = conv_down(x, DB2.highpass)
            assert abs((x**2).sum() - (low**2).sum() - (high**2).sum()) < 1e-9
