"""Tests for conv/pool/upsample functional ops."""

import sys
import threading

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor


def rand_tensor(shape, rng, requires_grad=False, scale=1.0):
    return Tensor((rng.normal(size=shape) * scale).astype(np.float32), requires_grad=requires_grad)


class TestIm2Col:
    def test_shape(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols = F.im2col(x, (3, 3), (1, 1), (0, 0))
        assert cols.shape == (2 * 6 * 6, 3 * 9)

    def test_identity_kernel_content(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        cols = F.im2col(x, (1, 1), (1, 1), (0, 0))
        np.testing.assert_allclose(cols.reshape(4, 4), x[0, 0])

    def test_col2im_is_adjoint_of_im2col(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint identity."""
        x = rng.normal(size=(2, 3, 6, 6))
        kernel, stride, padding = (3, 3), (2, 2), (1, 1)
        cols = F.im2col(x, kernel, stride, padding)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * F.col2im(y, x.shape, kernel, stride, padding)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_output_size_formula(self):
        assert F.conv_output_size(32, 5, 1, 2) == 32
        assert F.conv_output_size(32, 2, 2, 0) == 16
        assert F.conv_output_size(7, 3, 2, 0) == 3


class TestConv2D:
    def test_matches_direct_convolution(self, rng):
        """im2col conv equals a naive nested-loop cross-correlation."""
        x = rand_tensor((1, 2, 5, 5), rng)
        w = rand_tensor((3, 2, 3, 3), rng)
        out = F.conv2d(x, w).data
        expected = np.zeros((1, 3, 3, 3), dtype=np.float64)
        for co in range(3):
            for i in range(3):
                for j in range(3):
                    expected[0, co, i, j] = (
                        x.data[0, :, i:i + 3, j:j + 3] * w.data[co]
                    ).sum()
        np.testing.assert_allclose(out, expected, rtol=1e-4)

    def test_bias_adds_per_channel(self, rng):
        x = rand_tensor((1, 1, 3, 3), rng)
        w = Tensor(np.zeros((2, 1, 3, 3), dtype=np.float32))
        b = Tensor(np.array([1.0, -2.0], dtype=np.float32))
        out = F.conv2d(x, w, b).data
        np.testing.assert_allclose(out[0, 0], 1.0)
        np.testing.assert_allclose(out[0, 1], -2.0)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(rand_tensor((1, 3, 4, 4), rng), rand_tensor((2, 4, 3, 3), rng))

    def test_stride_and_padding_shapes(self, rng):
        x = rand_tensor((2, 1, 9, 9), rng)
        w = rand_tensor((4, 1, 3, 3), rng)
        assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 4, 5, 5)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (1, 2)])
    def test_gradients_match_numeric(self, rng, numgrad, stride, padding):
        x_data = rng.normal(size=(2, 2, 5, 5)).astype(np.float32)
        w_data = (rng.normal(size=(3, 2, 3, 3)) * 0.2).astype(np.float32)
        b_data = (rng.normal(size=(3,)) * 0.2).astype(np.float32)

        def value():
            out = F.conv2d(Tensor(x_data), Tensor(w_data), Tensor(b_data), stride, padding)
            return float((out.data.astype(np.float64) ** 2).sum())

        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        out = F.conv2d(x, w, b, stride, padding)
        (out * out).sum().backward()
        for tensor, data in [(x, x_data), (w, w_data), (b, b_data)]:
            numeric = numgrad(value, data)
            scale = np.abs(numeric).max() + 1e-8
            assert np.abs(numeric - tensor.grad).max() / scale < 5e-3


class TestConvTranspose2D:
    def test_output_shape(self, rng):
        x = rand_tensor((1, 4, 3, 3), rng)
        w = rand_tensor((4, 2, 3, 3), rng)
        assert F.conv_transpose2d(x, w, stride=2, padding=1).shape == (1, 2, 5, 5)

    def test_adjoint_of_conv(self, rng):
        """conv_transpose with the same geometry is conv's adjoint.

        Uses a 5x5 input so the strided geometry round-trips exactly
        ((5+2-3)/2+1 = 3 and (3-1)*2-2+3 = 5).
        """
        x = rand_tensor((1, 2, 5, 5), rng)
        w = rand_tensor((3, 2, 3, 3), rng)  # conv weight (out, in, kh, kw)
        y = F.conv2d(x, w, stride=2, padding=1)
        cotangent = rand_tensor(y.shape, rng)
        # <conv(x), u> == <x, convT(u)> with the same weight viewed
        # transposed: convT weight layout is (in=3, out=2, kh, kw).
        w_t = Tensor(w.data)
        back = F.conv_transpose2d(cotangent, w_t, stride=2, padding=1)
        lhs = float((y.data * cotangent.data).sum())
        rhs = float((x.data * back.data).sum())
        assert lhs == pytest.approx(rhs, rel=1e-4)

    def test_gradients_match_numeric(self, rng, numgrad):
        x_data = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
        w_data = (rng.normal(size=(3, 2, 3, 3)) * 0.2).astype(np.float32)

        def value():
            out = F.conv_transpose2d(Tensor(x_data), Tensor(w_data), stride=2)
            return float((out.data.astype(np.float64) ** 2).sum())

        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        out = F.conv_transpose2d(x, w, stride=2)
        (out * out).sum().backward()
        for tensor, data in [(x, x_data), (w, w_data)]:
            numeric = numgrad(value, data)
            scale = np.abs(numeric).max() + 1e-8
            assert np.abs(numeric - tensor.grad).max() / scale < 5e-3


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_truncates_odd_sizes(self, rng):
        x = rand_tensor((1, 1, 5, 5), rng)
        assert F.max_pool2d(x, 2).shape == (1, 1, 2, 2)

    def test_max_pool_gradient_goes_to_max(self):
        x = Tensor(
            np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32), requires_grad=True
        )
        F.max_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad[0, 0], [[0, 0], [0, 1]])


class TestUpsample:
    def test_nearest_values(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
        out = F.upsample2d(x, 2)
        np.testing.assert_allclose(
            out.data[0, 0],
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]],
        )

    def test_gradient_sums_window(self, rng):
        x = rand_tensor((1, 1, 2, 2), rng, requires_grad=True)
        F.upsample2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 2, 2), 4.0))

    def test_scale_one_is_identity(self, rng):
        x = rand_tensor((1, 2, 3, 3), rng)
        np.testing.assert_array_equal(F.upsample2d(x, 1).data, x.data)

    def test_invalid_scale_raises(self, rng):
        with pytest.raises(ValueError):
            F.upsample2d(rand_tensor((1, 1, 2, 2), rng), 0)

    def test_pool_then_upsample_preserves_shape(self, rng):
        x = rand_tensor((2, 3, 8, 8), rng)
        out = F.upsample2d(F.max_pool2d(x, 2), 2)
        assert out.shape == x.shape


class TestIndexCacheBudget:
    """LRU bounding of the im2col gather-map cache.

    Each test patches :data:`F._INDEX_CACHE_BUDGET`; an insert evicts
    down to the budget in force at that insert.
    """

    # Distinct cache keys whose gather maps all have the same 8x8x9
    # output geometry (input size shrinks as padding grows), so every
    # entry costs the same bytes and the eviction arithmetic is exact.
    GEOMETRIES = [(10, 0), (8, 1), (6, 2), (4, 3)]

    @pytest.fixture(autouse=True)
    def _empty_cache(self):
        F.clear_index_cache()
        yield
        F.clear_index_cache()

    def _fill(self, geometries):
        """Populate the cache with one equal-sized map per geometry."""
        for h, pad in geometries:
            F._im2col_index(1, h, h, (3, 3), (1, 1), (pad, pad))

    @staticmethod
    def _cached_sizes():
        return {key[1] for key in F._INDEX_CACHE}

    def test_eviction_keeps_recently_used_under_budget(self, monkeypatch):
        self._fill(self.GEOMETRIES[:1])
        per_entry = F.index_cache_nbytes()
        F.clear_index_cache()
        # Budget fits exactly two of the maps.
        monkeypatch.setattr(F, "_INDEX_CACHE_BUDGET", 2 * per_entry)
        self._fill(self.GEOMETRIES[:3])
        assert F.index_cache_nbytes() == 2 * per_entry
        # The oldest geometry was evicted; newer ones survive.
        assert self._cached_sizes() == {8, 6}
        # Touching a survivor refreshes it: after inserting a new
        # geometry, the untouched one is the eviction victim.
        F._im2col_index(1, 8, 8, (3, 3), (1, 1), (1, 1))
        self._fill(self.GEOMETRIES[3:])
        assert self._cached_sizes() == {8, 4}

    def test_newest_entry_survives_even_over_budget(self, monkeypatch):
        monkeypatch.setattr(F, "_INDEX_CACHE_BUDGET", 1)  # nothing fits
        self._fill(self.GEOMETRIES[:2])
        assert self._cached_sizes() == {8}  # caller's map is kept
        index = F._im2col_index(1, 8, 8, (3, 3), (1, 1), (1, 1))
        again = F._im2col_index(1, 8, 8, (3, 3), (1, 1), (1, 1))
        assert again is index  # and it is a genuine cache hit

    def test_concurrent_lookups_and_byte_reads(self, monkeypatch):
        """Two conv threads hitting, inserting and evicting maps while a
        third reads the byte total (a serve lane's memory gauge beside a
        training thread) must neither raise nor let the total drift."""
        geometries = [(h, pad) for h in range(6, 12) for pad in range(3)]
        for h, pad in geometries:
            F._im2col_index(2, h, h, (3, 3), (1, 1), (pad, pad))
        # Room for about half of the maps: lookups keep evicting.
        monkeypatch.setattr(F, "_INDEX_CACHE_BUDGET", F.index_cache_nbytes() // 2)
        F.clear_index_cache()
        switch = sys.getswitchinterval()
        errors = []
        done = threading.Event()

        def convs(order):
            try:
                for _ in range(150):
                    for h, pad in order:
                        F._im2col_index(2, h, h, (3, 3), (1, 1), (pad, pad))
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        def gauge():
            try:
                while not done.is_set():
                    F.index_cache_nbytes()
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [
            threading.Thread(target=convs, args=(geometries,)),
            threading.Thread(target=convs, args=(geometries[::-1],)),
        ]
        reader = threading.Thread(target=gauge, daemon=True)
        sys.setswitchinterval(1e-6)
        try:
            reader.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            done.set()
            sys.setswitchinterval(switch)
        reader.join()
        assert errors == []
        assert len(F._INDEX_CACHE) < len(geometries)
        assert F.index_cache_nbytes() == sum(
            index.nbytes for index in F._INDEX_CACHE.values()
        )
        F.clear_index_cache()
        assert F.index_cache_nbytes() == 0
