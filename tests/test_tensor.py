import math

import numpy as np
import pytest

import mmtseg.tensor
from mmtseg.tensor import (
    ShapeError,
    Tensor,
    add,
    concat_channels,
    conv3d,
    global_avg_pool,
    grad_check,
    max_pool3d,
    mul_broadcast,
    nearest_upsample,
    no_grad,
    relu,
    replayer,
    sigmoid,
    slice_channels,
    softmax_channels,
    tensor_sum,
)

from oracles import oracle_conv3d, oracle_max_pool3d, oracle_upsample_grad

FD_TOL = 1e-3


def rand_tensor(rng, shape, requires_grad=True):
    return Tensor(rng.uniform(-1, 1, shape).astype(np.float32), requires_grad=requires_grad)


def bits(a):
    """The float32 bit patterns of `a`, so +0 and −0 compare unequal."""
    return np.asarray(a, dtype=np.float32).view(np.int32)


# ±0, ±subnormals, ±1, past exp's float32 overflow, saturating and near float32 max
EDGE_VALUES = np.array([0.0, 1e-45, 1e-40, 1.0, 88.8, 1e4, 3.4e38], dtype=np.float32)
EDGE_VALUES = np.concatenate([EDGE_VALUES, -EDGE_VALUES])


def edge_and_random_values():
    rng = np.random.default_rng(2024)
    magnitudes = 10.0 ** rng.uniform(-45, 38, 10**4)
    random = (magnitudes * rng.choice([-1.0, 1.0], 10**4)).astype(np.float32)
    return np.concatenate([EDGE_VALUES, random])


def weighted_sum(t, rng):
    """Scalar probe with O(1) per-coordinate gradients."""
    w = Tensor(rng.choice([-1.0, 1.0], size=t.data.shape).astype(np.float32))
    return tensor_sum(mul_broadcast(t, w))


class TestConv3d:
    def test_identity_kernel(self, rng):
        x = Tensor(np.ones((1, 2, 2, 2), dtype=np.float32))
        k = Tensor(np.full((1, 1, 1, 1, 1), 2.0, dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        out = conv3d(x, k, b)
        assert out.data.shape == (1, 2, 2, 2)
        assert np.all(out.data == 2.0)

    def test_identity_kernel_bitwise(self, rng):
        x = rand_tensor(rng, (3, 4, 4, 4), requires_grad=False)
        k = np.zeros((3, 3, 1, 1, 1), dtype=np.float32)
        for c in range(3):
            k[c, c, 0, 0, 0] = 1.0
        out = conv3d(x, Tensor(k), Tensor(np.zeros(3, dtype=np.float32)))
        assert np.array_equal(out.data, x.data)

    def test_averaging_constant_interior(self):
        c = 0.75
        x = Tensor(np.full((1, 5, 5, 5), c, dtype=np.float32))
        k = Tensor(np.full((1, 1, 3, 3, 3), 1.0 / 27.0, dtype=np.float32))
        out = conv3d(x, k, Tensor(np.zeros(1, dtype=np.float32)))
        assert out.data.shape == (1, 5, 5, 5)
        interior = out.data[0, 1:-1, 1:-1, 1:-1]
        assert np.allclose(interior, c, atol=1e-6)

    def test_channel_mismatch_raises(self, rng):
        x = rand_tensor(rng, (2, 4, 4, 4))
        k = rand_tensor(rng, (3, 4, 3, 3, 3))
        with pytest.raises(ShapeError, match="channel"):
            conv3d(x, k, Tensor(np.zeros(3, dtype=np.float32)))

    def test_even_kernel_raises(self, rng):
        x = rand_tensor(rng, (1, 4, 4, 4))
        for kshape in [(2, 2, 2), (3, 3, 2), (1, 4, 1)]:
            k = rand_tensor(rng, (1, 1, *kshape))
            with pytest.raises(ShapeError, match="odd kernel"):
                conv3d(x, k, Tensor(np.zeros(1, dtype=np.float32)))

    def test_grad_input(self, rng):
        x = rand_tensor(rng, (2, 3, 3, 3))
        k = rand_tensor(rng, (3, 2, 3, 3, 3), requires_grad=False)
        b = rand_tensor(rng, (3,), requires_grad=False)
        err = grad_check(lambda t: weighted_sum(conv3d(t, k, b), np.random.default_rng(0)), x)
        assert err < FD_TOL

    def test_grad_kernel_and_bias(self, rng):
        x = rand_tensor(rng, (2, 3, 3, 3), requires_grad=False)
        k = rand_tensor(rng, (2, 2, 3, 3, 3))
        b = rand_tensor(rng, (2,))
        err_k = grad_check(lambda t: weighted_sum(conv3d(x, t, b), np.random.default_rng(1)), k)
        err_b = grad_check(lambda t: weighted_sum(conv3d(x, k, t), np.random.default_rng(2)), b)
        assert err_k < FD_TOL
        assert err_b < FD_TOL

    # id: (input, kernel), padded by each kernel extent's half-width. At the
    # default constants the 1-channel 24³ conv runs several im2col tiles and the
    # 20-channel one the tap loop. The ids are the ones these cases had when
    # they also listed stride and padding, so each case keeps its name in test
    # reports.
    ORACLE_CASES = {
        "xshape0-kshape0-1-1": ((2, 3, 3, 3), (2, 2, 3, 3, 3)),
        "xshape2-kshape2-1-0": ((3, 5, 7, 6), (4, 3, 1, 1, 1)),
        "xshape5-kshape5-1-1": ((2, 16, 16, 20), (1, 2, 3, 3, 3)),
        "xshape6-kshape6-1-1": ((1, 24, 24, 24), (2, 1, 3, 3, 3)),
        "xshape7-kshape7-1-1": ((20, 4, 5, 3), (20, 20, 3, 3, 3)),
        "xshape10-kshape10-1-1": ((1, 1, 1, 6), (2, 1, 3, 3, 3)),
        "xshape11-kshape11-1-1": ((2, 6, 1, 1), (3, 2, 3, 3, 3)),
        # kernels whose half-widths reach into the row and plane gutters
        "xshape3-kshape3-stride3-padding3": ((3, 5, 7, 6), (2, 3, 3, 1, 5)),
        "xshape8-kshape8-1-2": ((2, 4, 5, 3), (3, 2, 5, 5, 5)),
        "xshape9-kshape9-1-2": ((2, 4, 5, 6), (2, 2, 5, 5, 5)),
        "xshape12-kshape12-1-padding12": ((2, 5, 4, 6), (2, 2, 5, 3, 1)),
    }

    # (channels per tap, tile bytes, whether the forward pass and the input
    # gradient copy tiles): the defaults, every contraction a tap loop, every
    # one tiled in several tiles, every one a single tile. Tiles also need the
    # channels per tap to be at most twice the output rows, which holds for
    # every case in both contractions. The kernel gradient is one GEMM per tap
    # under all four.
    CONTRACTIONS = [
        (mmtseg.tensor._TILE_CHANNELS, mmtseg.tensor._TILE_BYTES, None),
        (0, mmtseg.tensor._TILE_BYTES, False),
        (1 << 30, 4096, True),
        (1 << 30, 1 << 62, True),
    ]

    @pytest.mark.parametrize("xshape,kshape", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
    def test_matches_loop_oracle_under_both_contractions(self, rng, monkeypatch, xshape, kshape):
        x = rng.uniform(-1, 1, xshape).astype(np.float32)
        k = rng.uniform(-1, 1, kshape).astype(np.float32)
        b = rng.uniform(-1, 1, kshape[0]).astype(np.float32)
        tiles, copied = [], []
        tile, correlate = mmtseg.tensor._tile, mmtseg.tensor._correlate

        def tile_spy(shape):
            tiles.append(shape)
            return tile(shape)

        def correlate_spy(*args):
            before = len(tiles)
            out = correlate(*args)
            copied.append(len(tiles) > before)
            return out

        monkeypatch.setattr(mmtseg.tensor, "_tile", tile_spy)
        monkeypatch.setattr(mmtseg.tensor, "_correlate", correlate_spy)
        g = ref = None
        for channels, tile_bytes, tiled in self.CONTRACTIONS:
            monkeypatch.setattr(mmtseg.tensor, "_TILE_CHANNELS", channels)
            monkeypatch.setattr(mmtseg.tensor, "_TILE_BYTES", tile_bytes)
            xt, kt, bt = (Tensor(a, requires_grad=True) for a in (x, k, b))
            copied.clear()
            out = conv3d(xt, kt, bt)
            if ref is None:
                g = rng.uniform(-1, 1, out.data.shape).astype(np.float32)
                ref = oracle_conv3d(x, k, b, g, (1, 1, 1), tuple(n // 2 for n in kshape[2:]))
            tensor_sum(mul_broadcast(out, Tensor(g))).backward()
            if tiled is not None:  # the forward pass, then the input gradient
                assert copied == [tiled, tiled]
            # float64 sums cast once to float32: within one float32 ulp
            for got, want in zip((out.data, xt.grad, kt.grad, bt.grad), ref):
                np.testing.assert_allclose(got, np.asarray(want), rtol=2.0**-23, atol=1e-12)

    def test_kernel_lanes_do_not_choose_the_contraction(self, rng, monkeypatch):
        # 6 channels per tap into 2 output rows is a tap loop; 16 kernel lanes
        # are 32 rows of one contraction, which must loop all the same, so that
        # each lane keeps the summation order of its own forward pass
        tiles = []
        tile = mmtseg.tensor._tile

        def spy(shape):
            tiles.append(shape)
            return tile(shape)

        monkeypatch.setattr(mmtseg.tensor, "_tile", spy)
        x = rng.uniform(-1, 1, (6, 4, 4, 4)).astype(np.float32)
        k = rng.uniform(-1, 1, (16, 2, 6, 3, 3, 3)).astype(np.float32)
        b = rng.uniform(-1, 1, (2,)).astype(np.float32)
        mmtseg.tensor._conv3d(x, k, b)
        assert tiles == []

    def test_workspace_never_leaks_into_results(self, rng, monkeypatch):
        def run(xshape, kshape):
            x, k = rand_tensor(rng, xshape), rand_tensor(rng, kshape)
            b = rand_tensor(rng, (kshape[0],))
            out = conv3d(x, k, b)
            weighted_sum(out, np.random.default_rng(0)).backward()
            return out.data, x.grad, k.grad, b.grad

        results = run((3, 6, 5, 4), (2, 3, 3, 3, 3))
        kept = [r.copy() for r in results]
        run((4, 4, 4, 4), (5, 4, 3, 1, 3))  # other tile rows and columns
        for r, want in zip(results, kept):
            assert np.array_equal(r, want)
        # one tile for the whole span grows the workspace
        monkeypatch.setattr(mmtseg.tensor, "_TILE_BYTES", 1 << 30)
        run((2, 7, 6, 5), (3, 2, 3, 3, 3))
        for r, want in zip(results, kept):
            assert np.array_equal(r, want)
            assert not np.shares_memory(r, mmtseg.tensor._workspace)

    def test_input_gradient_skipped_without_requires_grad(self, rng):
        x = rand_tensor(rng, (2, 4, 4, 4), requires_grad=False)
        k = rand_tensor(rng, (3, 2, 3, 3, 3))
        out = conv3d(x, k, rand_tensor(rng, (3,)))
        gx, gk, gb = out._backward(np.ones(out.data.shape, dtype=np.float32))
        assert gx is None
        assert gk.shape == k.data.shape and gb.shape == (3,)


class TestPointwise:
    def test_relu_values(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_all_negative_grad_zero(self):
        x = Tensor(-np.ones(5, dtype=np.float32), requires_grad=True)
        tensor_sum(relu(x)).backward()
        assert np.all(x.grad == 0.0)

    def test_relu_grad(self, rng):
        # keep coordinates away from the kink at 0
        data = rng.uniform(0.2, 1.0, (2, 3, 3, 3)) * rng.choice([-1, 1], (2, 3, 3, 3))
        x = Tensor(data.astype(np.float32), requires_grad=True)
        err = grad_check(lambda t: weighted_sum(relu(t), np.random.default_rng(4)), x)
        assert err < FD_TOL

    def test_relu_bits_equal_select_of_positive_part(self):
        x = edge_and_random_values()
        assert np.array_equal(bits(relu(Tensor(x)).data), bits(np.where(x > 0, x, np.float32(0))))

    def test_relu_propagates_nan(self, monkeypatch):
        monkeypatch.setattr(mmtseg.tensor, "_debug_checks", False)
        out = relu(Tensor([np.nan, -1.0, 1.0]))
        assert np.isnan(out.data[0]) and np.array_equal(out.data[1:], [0.0, 1.0])

    def test_sigmoid_bits_equal_two_branch_formula(self):
        x = edge_and_random_values()
        want = np.empty_like(x)
        pos = x >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ez = np.exp(x[~pos])
        want[~pos] = ez / (1.0 + ez)
        np.clip(want, mmtseg.tensor._SIGMOID_LO, mmtseg.tensor._SIGMOID_HI, out=want)
        assert np.array_equal(bits(sigmoid(Tensor(x)).data), bits(want))

    def test_sigmoid_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)

    def test_sigmoid_extreme_stable(self):
        out = sigmoid(Tensor([-1e4, 1e4]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(0.0, abs=1e-6)
        assert out.data[1] == pytest.approx(1.0, abs=1e-6)

    def test_sigmoid_grad(self, rng):
        x = rand_tensor(rng, (2, 3, 3, 3))
        err = grad_check(lambda t: weighted_sum(sigmoid(t), np.random.default_rng(5)), x)
        assert err < FD_TOL

    def test_add_identities(self, rng):
        a = rand_tensor(rng, (2, 2, 2, 2), requires_grad=False)
        zero = Tensor(np.zeros_like(a.data))
        assert np.array_equal(add(a, zero).data, a.data)
        assert np.allclose(add(a, a).data, 2 * a.data)

    def test_add_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            add(rand_tensor(rng, (2, 2, 2, 2)), rand_tensor(rng, (2, 2, 2, 1)))

    def test_add_grad(self, rng):
        a = rand_tensor(rng, (2, 3, 3, 3))
        b = rand_tensor(rng, (2, 3, 3, 3), requires_grad=False)
        err = grad_check(lambda t: weighted_sum(add(t, b), np.random.default_rng(6)), a)
        assert err < FD_TOL


class TestMulBroadcast:
    def test_ones_identity(self, rng):
        a = rand_tensor(rng, (3, 2, 2, 2), requires_grad=False)
        out = mul_broadcast(a, Tensor(np.ones_like(a.data)))
        assert np.array_equal(out.data, a.data)

    def test_channel_weight_halves(self, rng):
        a = rand_tensor(rng, (3, 2, 2, 2), requires_grad=False)
        w = np.ones((3, 1, 1, 1), dtype=np.float32)
        w[1] = 0.5
        out = mul_broadcast(a, Tensor(w))
        assert np.array_equal(out.data[0], a.data[0])
        assert np.array_equal(out.data[1], a.data[1] * np.float32(0.5))

    def test_spatial_weight(self, rng):
        a = rand_tensor(rng, (3, 2, 2, 2), requires_grad=False)
        w = rand_tensor(rng, (1, 2, 2, 2), requires_grad=False)
        out = mul_broadcast(a, w)
        assert np.allclose(out.data, a.data * w.data)

    def test_rejects_other_broadcasts(self, rng):
        a = rand_tensor(rng, (3, 2, 2, 2))
        with pytest.raises(ShapeError):
            mul_broadcast(a, rand_tensor(rng, (3, 1, 2, 2)))
        with pytest.raises(ShapeError):
            mul_broadcast(a, rand_tensor(rng, (2, 2, 2)))
        with pytest.raises(ShapeError):  # the weight goes second
            mul_broadcast(rand_tensor(rng, (3, 1, 1, 1)), a)

    def test_grad_both_operands(self, rng):
        a = rand_tensor(rng, (3, 3, 3, 3))
        wc = rand_tensor(rng, (3, 1, 1, 1))
        ws = rand_tensor(rng, (1, 3, 3, 3))
        err_a = grad_check(
            lambda t: weighted_sum(mul_broadcast(t, wc), np.random.default_rng(8)), a
        )
        err_c = grad_check(
            lambda t: weighted_sum(mul_broadcast(a, t), np.random.default_rng(9)), wc
        )
        err_s = grad_check(
            lambda t: weighted_sum(mul_broadcast(a, t), np.random.default_rng(10)), ws
        )
        assert max(err_a, err_c, err_s) < FD_TOL


class TestPoolingAndShape:
    def test_global_avg_pool_constant(self):
        x = Tensor(np.full((2, 2, 2, 2), 3.25, dtype=np.float32))
        out = global_avg_pool(x)
        assert out.data.shape == (2, 1, 1, 1)
        assert np.allclose(out.data, 3.25)

    def test_global_avg_pool_mean(self):
        vals = np.arange(1, 9, dtype=np.float32).reshape(1, 2, 2, 2)
        assert global_avg_pool(Tensor(vals)).data.reshape(()) == pytest.approx(4.5)

    def test_global_avg_pool_grad_analytic(self, rng):
        x = rand_tensor(rng, (2, 2, 2, 2))
        tensor_sum(global_avg_pool(x)).backward()
        assert np.allclose(x.grad, 1.0 / 8.0)

    def test_max_pool_constant(self):
        x = Tensor(np.full((1, 4, 4, 4), 2.5, dtype=np.float32))
        assert np.all(max_pool3d(x).data == 2.5)

    # the oracle takes any factor; the op pools by 2
    @pytest.mark.parametrize("factor", [2])
    @pytest.mark.parametrize("g_dtype", [np.float32, np.float64])
    def test_max_pool_tie_rule_equals_oracle(self, rng, factor, g_dtype):
        # integer values and signed zeros, with 1 in about half the blocks: most
        # blocks tie for their maximum, at 1 or at ±0
        values = np.array([-2.0, -1.0, -0.0, 0.0, 1.0], dtype=np.float32)
        p_one = 1 - 0.5 ** (1 / factor**3)
        x = Tensor(rng.choice(values, (2, 2 * factor, 3 * factor, 9 * factor),
                              p=[(1 - p_one) / 4] * 4 + [p_one]), requires_grad=True)
        out = max_pool3d(x)
        g = rng.uniform(-1, 1, out.data.shape).astype(g_dtype)
        (gx,) = out._backward(g)
        want_out, want_gx = oracle_max_pool3d(x.data, g, factor)
        assert np.array_equal(bits(out.data), bits(want_out))
        assert gx.dtype == np.float32
        assert np.array_equal(gx, np.asarray(want_gx, dtype=np.float32))

    def test_max_pool_indivisible_raises(self, rng):
        with pytest.raises(ShapeError):
            max_pool3d(rand_tensor(rng, (1, 3, 4, 4)))

    def test_max_pool_grad(self, rng):
        x = rand_tensor(rng, (2, 4, 4, 4))
        err = grad_check(lambda t: weighted_sum(max_pool3d(t), np.random.default_rng(11)), x)
        assert err < FD_TOL

    def test_upsample_shape_and_values(self, rng):
        x = rand_tensor(rng, (2, 2, 2, 2), requires_grad=False)
        out = nearest_upsample(x)
        assert out.data.shape == (2, 4, 4, 4)
        assert np.array_equal(out.data[:, ::2, ::2, ::2], x.data)
        assert np.array_equal(out.data[:, 1::2, 1::2, 1::2], x.data)

    def test_upsample_grad(self, rng):
        x = rand_tensor(rng, (2, 2, 2, 2))
        err = grad_check(
            lambda t: weighted_sum(nearest_upsample(t), np.random.default_rng(12)), x
        )
        assert err < FD_TOL

    # the oracle takes any factor; the op upsamples by 2
    @pytest.mark.parametrize("factor", [2])
    def test_upsample_grad_equals_oracle_exactly(self, rng, factor):
        out = nearest_upsample(rand_tensor(rng, (2, 3, 2, 4)))
        g = rng.uniform(-1, 1, out.data.shape).astype(np.float32)
        (gx,) = out._backward(g)
        assert gx.shape == (2, 3, 2, 4)
        assert np.array_equal(gx, np.asarray(oracle_upsample_grad(g, factor)))

    def test_pool_of_upsample_is_identity(self, rng):
        x = rand_tensor(rng, (2, 2, 2, 2), requires_grad=False)
        assert np.array_equal(max_pool3d(nearest_upsample(x)).data, x.data)


class TestConcat:
    def test_channel_counts_sum(self, rng):
        parts = [rand_tensor(rng, (c, 2, 2, 2)) for c in (1, 1, 1, 2)]
        assert concat_channels(parts).data.shape == (5, 2, 2, 2)

    def test_concat_slice_roundtrip(self, rng):
        parts = [rand_tensor(rng, (c, 3, 3, 3), requires_grad=False) for c in (2, 3)]
        out = concat_channels(parts).data
        assert np.array_equal(out[:2], parts[0].data)
        assert np.array_equal(out[2:], parts[1].data)

    def test_spatial_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            concat_channels([rand_tensor(rng, (1, 2, 2, 2)), rand_tensor(rng, (1, 2, 2, 3))])

    def test_grad_routes_to_sources(self, rng):
        a = rand_tensor(rng, (2, 2, 2, 2))
        b = rand_tensor(rng, (1, 2, 2, 2))
        err_a = grad_check(
            lambda t: weighted_sum(concat_channels([t, b]), np.random.default_rng(13)), a
        )
        err_b = grad_check(
            lambda t: weighted_sum(concat_channels([a, t]), np.random.default_rng(14)), b
        )
        assert max(err_a, err_b) < FD_TOL


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        x = Tensor(np.full((4, 2, 2, 2), 0.7, dtype=np.float32))
        assert np.allclose(softmax_channels(x).data, 0.25, atol=1e-7)

    def test_shift_invariance(self, rng):
        x = rand_tensor(rng, (4, 2, 2, 2), requires_grad=False)
        shifted = Tensor(x.data + np.float32(3.0))
        a = softmax_channels(x).data
        b = softmax_channels(shifted).data
        assert np.allclose(a, b, atol=1e-6)

    def test_channel_sums_one(self, rng):
        x = rand_tensor(rng, (4, 3, 3, 3), requires_grad=False)
        sums = softmax_channels(x).data.sum(axis=0)
        assert np.all(np.abs(sums - 1.0) < 1e-6)

    def test_grad(self, rng):
        x = rand_tensor(rng, (4, 2, 2, 2))
        err = grad_check(
            lambda t: weighted_sum(softmax_channels(t), np.random.default_rng(15)), x
        )
        assert err < FD_TOL

    def test_needs_two_channels(self, rng):
        with pytest.raises(ShapeError):
            softmax_channels(rand_tensor(rng, (1, 2, 2, 2)))


class TestBackward:
    def test_sum_gives_ones(self, rng):
        w = rand_tensor(rng, (2, 3, 3, 3))
        tensor_sum(w).backward()
        assert np.all(w.grad == 1.0)

    def test_zero_times_w_gives_zeros(self, rng):
        w = rand_tensor(rng, (2, 3, 3, 3))
        tensor_sum(mul_broadcast(w, 0.0)).backward()
        assert np.all(w.grad == 0.0)

    def test_non_scalar_raises(self, rng):
        with pytest.raises(ShapeError):
            rand_tensor(rng, (2, 2, 2, 2)).backward()

    def test_repeated_backward_accumulates(self, rng):
        w = rand_tensor(rng, (3,))
        loss = tensor_sum(w)
        loss.backward()
        loss.backward()
        assert np.all(w.grad == 2.0)

    def test_two_layer_toy_net(self, rng):
        x = rand_tensor(rng, (1, 4, 4, 4), requires_grad=False)
        k1 = rand_tensor(rng, (2, 1, 3, 3, 3))
        b1 = rand_tensor(rng, (2,))
        k2 = rand_tensor(rng, (1, 2, 1, 1, 1))
        b2 = rand_tensor(rng, (1,))

        def net(kern):
            h = relu(conv3d(x, kern, b1))
            out = conv3d(h, k2, b2)
            return weighted_sum(out, np.random.default_rng(16))

        assert grad_check(net, k1) < FD_TOL

    def test_diamond_graph_accumulates_once(self, rng):
        # w feeds two branches that rejoin; gradient must be the sum of both paths
        w = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        y = add(mul_broadcast(w, 3.0), mul_broadcast(w, 5.0))
        tensor_sum(y).backward()
        assert w.grad[0] == pytest.approx(8.0)


class TestNoGrad:
    def test_ops_record_no_graph_and_give_equal_values(self, rng):
        x = rand_tensor(rng, (2, 4, 4, 4))
        k = rand_tensor(rng, (3, 2, 3, 3, 3))
        b = rand_tensor(rng, (3,))

        def net():
            h = relu(conv3d(x, k, b))
            return softmax_channels(concat_channels([h, mul_broadcast(h, 2.0)]))

        with no_grad():
            inside = net()
        outside = net()
        assert inside._parents == () and inside._backward is None
        assert not inside.requires_grad
        assert outside.requires_grad and outside._backward is not None
        assert np.array_equal(inside.data, outside.data)
        assert x.requires_grad and k.requires_grad and b.requires_grad

    def test_restores_recording_after_an_exception(self, rng):
        x = rand_tensor(rng, (2, 2, 2, 2))
        with pytest.raises(ShapeError):
            with no_grad():
                add(x, rand_tensor(rng, (2, 2, 2, 3)))
        assert relu(x)._backward is not None


class TestReplayer:
    @staticmethod
    def count_calls(monkeypatch, names):
        """Route the array kernels of the named ops through a spy that logs
        each call by op name; ops recorded after this replay through the spy
        too."""
        calls = []
        for name in names:
            def spy(*args, _kernel=getattr(mmtseg.tensor, "_" + name), _name=name):
                calls.append(_name)
                return _kernel(*args)
            monkeypatch.setattr(mmtseg.tensor, "_" + name, spy)
        return calls

    @staticmethod
    def one_lane(value, leaf):
        """The replayed root for the current data of `leaf`, as one lane."""
        return value(leaf.data[np.newaxis])[0]

    def assert_replays_forward(self, f, x, root, value):
        """The replayed root equals `f()` bitwise, with `x` as recorded and
        with its last entry moved up and down."""
        assert np.array_equal(self.one_lane(value, x), root.data)
        flat = x.data.reshape(-1)
        orig = flat[-1]
        for entry in (orig + 0.25, orig - 0.25):
            flat[-1] = entry
            try:
                with no_grad():
                    full = f().data
                replayed = self.one_lane(value, x)
            finally:
                flat[-1] = orig
            assert np.array_equal(replayed, full)
            assert not np.array_equal(replayed, root.data)

    def test_diamond_replays_each_op_once(self, rng, monkeypatch):
        calls = self.count_calls(monkeypatch, ["relu", "mul_broadcast", "add", "tensor_sum"])
        x = rand_tensor(rng, (2, 2, 2, 2))
        z = rand_tensor(rng, (2, 2, 2, 2))

        def f():
            return tensor_sum(add(relu(x), mul_broadcast(x, z)))

        root = f()
        value = replayer(root, x)
        calls.clear()
        self.one_lane(value, x)
        assert sorted(calls) == ["add", "mul_broadcast", "relu", "tensor_sum"]
        self.assert_replays_forward(f, x, root, value)

    def test_concat_replays_with_its_list_of_parts(self, rng):
        x = rand_tensor(rng, (2, 2, 2, 2))
        z = rand_tensor(rng, (1, 2, 2, 2))

        def f():
            return softmax_channels(concat_channels([sigmoid(x), z, x]))

        root = f()
        self.assert_replays_forward(f, x, root, replayer(root, x))

    def test_scalar_arguments_are_replayed(self, rng):
        x = rand_tensor(rng, (3, 2, 2, 2))

        def f():
            return slice_channels(mul_broadcast(add(x, 0.5), -3.0), 1, 3)

        root = f()
        self.assert_replays_forward(f, x, root, replayer(root, x))

    def test_unreached_leaf_replays_nothing(self, rng, monkeypatch):
        calls = self.count_calls(monkeypatch, ["relu", "tensor_sum"])
        x = rand_tensor(rng, (2, 2, 2, 2))
        unused = rand_tensor(rng, (2, 2, 2, 2))
        root = tensor_sum(relu(x))
        value = replayer(root, unused)
        calls.clear()
        unused.data += 1.0
        lanes = np.repeat(unused.data[np.newaxis], 3, 0)
        assert np.array_equal(value(lanes), np.repeat(root.data, 3))
        assert calls == []

    # every op in `__all__` but these, plus `div`, which `Tensor.__truediv__` calls
    NOT_OPS = {"Tensor", "ShapeError", "set_debug_checks", "no_grad", "replayer", "grad_check",
               "max_rel_err"}

    @staticmethod
    def every_op_kind(rng):
        """Leaves x, k, b, w and a scalar objective `f` of them that runs every op."""
        x = rand_tensor(rng, (2, 4, 4, 4))
        k = rand_tensor(rng, (3, 2, 3, 3, 3))
        b = rand_tensor(rng, (3,))
        w = rand_tensor(rng, (5, 4, 4, 4))

        def f():
            h = relu(conv3d(x, k, b))
            u = nearest_upsample(sigmoid(max_pool3d(h)))
            # per-channel, then per-voxel attention weights
            gated = mul_broadcast(mul_broadcast(u, global_avg_pool(u)), slice_channels(h, 1, 2))
            s = tensor_sum(mul_broadcast(softmax_channels(concat_channels([gated, x])), w))
            return add(mul_broadcast(s, 3.0), 0.5) / add(tensor_sum(h), 1.0) / 4.0

        return (x, k, b, w), f

    @staticmethod
    def assert_lanes_replay_forward(f, leaf, value, entries):
        """`value` of lanes that move each of `entries` of `leaf` up, then
        down, by 0.25 equals, lane by lane, `f()` with `leaf` so moved."""
        lanes = np.repeat(leaf.data[np.newaxis], 2 * len(entries), 0)
        for n, (i, delta) in enumerate((i, d) for i in entries for d in (0.25, -0.25)):
            lanes[n].flat[i] += np.float32(delta)
        replayed = value(lanes)
        kept = leaf.data.copy()
        for lane, got in zip(lanes, replayed):
            leaf.data[...] = lane
            try:
                with no_grad():
                    full = f().data
            finally:
                leaf.data[...] = kept
            assert np.array_equal(bits(got), bits(full))

    def test_every_op_kind_replays_bitwise_without_making_tensors(self, rng, monkeypatch):
        (x, k, b, w), f = self.every_op_kind(rng)
        root = f()
        ops = set(mmtseg.tensor.__all__) - self.NOT_OPS | {"div"}
        kernels = {getattr(mmtseg.tensor, "_" + name): name for name in ops}
        graph = mmtseg.tensor._topo_order(root)
        assert {kernels[node._call[0]] for node in graph if node._call is not None} == ops

        made = []
        make = mmtseg.tensor._make

        def spy(*args):
            made.append(None)
            return make(*args)

        monkeypatch.setattr(mmtseg.tensor, "_make", spy)
        for leaf in (x, k, b, w):
            value = replayer(root, leaf)
            flat = leaf.data.reshape(-1)
            orig = flat[0]
            for entry in (orig + 0.25, orig - 0.25):
                flat[0] = entry
                try:
                    with no_grad():
                        full = f().data
                    made.clear()
                    replayed = self.one_lane(value, leaf)
                finally:
                    flat[0] = orig
                assert made == []
                assert np.array_equal(bits(replayed), bits(full))

    def test_every_op_kind_replays_lanes_bitwise(self, rng):
        leaves, f = self.every_op_kind(rng)
        root = f()
        for leaf in leaves:
            value = replayer(root, leaf)
            entries = [0, leaf.data.size // 2, leaf.data.size - 1]
            self.assert_lanes_replay_forward(f, leaf, value, entries)

    def test_lanes_of_a_divisor(self, rng):
        x = rand_tensor(rng, (2, 2, 2, 2))
        y = rand_tensor(rng, (2, 2, 2, 2))

        def f():  # the dividend does not depend on x
            return add(tensor_sum(y), 2.0) / add(tensor_sum(relu(x)), 1.0)

        root = f()
        self.assert_lanes_replay_forward(f, x, replayer(root, x), [0, 5])

        def g():  # a recorded map over a divisor with lanes
            return mul_broadcast(y, 1.0) / add(tensor_sum(relu(x)), 1.0)

        root = g()
        # 4 lanes, then 2, the map's leading extent
        for entries in ([0, 5], [3]):
            self.assert_lanes_replay_forward(g, x, replayer(root, x), entries)

    def test_kernel_that_drops_the_lanes_fails_the_replay(self, rng, monkeypatch):
        x = rand_tensor(rng, (2, 2, 2, 2))
        r = relu(x)
        root = tensor_sum(mul_broadcast(r, 2.0))
        kernel, extra = r._call

        def first_lane_only(a, *rest):
            return kernel(a, *rest)[0]

        monkeypatch.setattr(r, "_call", (first_lane_only, extra))
        value = replayer(root, x)
        with pytest.raises(ShapeError, match="first_lane_only cannot replay lanes"):
            value(np.stack([x.data, x.data]))

    def test_debug_checks_flag_a_replayed_overflow(self, rng):
        x = rand_tensor(rng, (2, 2, 2, 2))
        root = tensor_sum(mul_broadcast(x, 4.0))
        value = replayer(root, x)
        x.data[0, 0, 0, 0] = 3e38  # ×4 overflows float32
        mmtseg.tensor.set_debug_checks(True)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            self.one_lane(value, x)


class TestDeterminismAndChecks:
    def test_forward_bitwise_deterministic(self, rng):
        x = rand_tensor(rng, (2, 4, 4, 4), requires_grad=False)
        k = rand_tensor(rng, (3, 2, 3, 3, 3), requires_grad=False)
        b = rand_tensor(rng, (3,), requires_grad=False)
        a = conv3d(x, k, b).data
        bta = conv3d(x, k, b).data
        assert np.array_equal(a, bta)

    def test_debug_check_flags_overflow(self):
        big = Tensor(np.array([3e38], dtype=np.float32), requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            add(big, big)  # overflows float32 to inf

    def test_grad_check_linear_near_exact(self, rng):
        x = rand_tensor(rng, (3, 2, 2, 2))
        err = grad_check(lambda t: weighted_sum(t, np.random.default_rng(17)), x)
        assert err < 1e-4

    def test_grad_check_composite(self, rng):
        x = rand_tensor(rng, (2, 4, 4, 4))
        k = rand_tensor(rng, (2, 2, 3, 3, 3), requires_grad=False)
        b = rand_tensor(rng, (2,), requires_grad=False)

        def composite(t):
            h = max_pool3d(relu(conv3d(t, k, b)))
            return weighted_sum(h, np.random.default_rng(18))

        assert grad_check(composite, x) < FD_TOL

    def test_grad_check_of_a_recorded_map_over_a_checked_divisor(self, rng):
        x = rand_tensor(rng, (2, 2, 2, 2))
        y = rand_tensor(rng, (2, 2, 2, 2))
        err = grad_check(lambda t: tensor_sum(mul_broadcast(y, 1.0) / tensor_sum(t)), x)
        assert err < FD_TOL

    def test_grad_check_sigmoid_extremes_loose(self):
        # saturated sigmoid has ~zero true gradient; FD noise dominates, so
        # only a loose bound is meaningful here
        x = Tensor(np.array([-8.0, 8.0, 0.5], dtype=np.float32), requires_grad=True)
        err = grad_check(lambda t: tensor_sum(sigmoid(t)), x)
        assert err < 1e-2

    def test_grad_check_restores_input_when_the_guard_evaluation_raises(self, rng):
        # the replay never writes into x; the second call of f, which sees every
        # entry of x moved up by the step, does
        x = rand_tensor(rng, (2, 2, 2, 2), requires_grad=False)
        kept = x.data.tobytes()
        calls = []

        def f(t):
            calls.append(t.data.tobytes())
            if len(calls) == 2:
                raise RuntimeError("objective failed")
            return weighted_sum(relu(t), np.random.default_rng(19))

        with pytest.raises(RuntimeError):
            grad_check(f, x)
        assert calls[0] == kept and calls[1] != kept
        assert x.data.tobytes() == kept
        assert x.requires_grad is False

    def test_grad_check_objective_off_the_graph_fails(self, rng):
        # the objective reads x's values outside the ops, so x gets no gradient
        # and the replay does not reach it; the guard evaluation sees x moved
        x = rand_tensor(rng, (2, 2, 2, 2))
        assert grad_check(lambda t: tensor_sum(Tensor(t.data * 2)), x) == math.inf

    def test_grad_check_fails_objectives_whose_recording_drops_an_edge(self, rng, monkeypatch):
        # each recording leaves out a path from the checked tensor to the objective
        # that the objective's value does take, so the recorded graph alone gives
        # a zero gradient and zero differences along it
        x = rand_tensor(rng, (1, 3, 3, 3))
        k = rand_tensor(rng, (2, 1, 3, 3, 3))
        b = rand_tensor(rng, (2,))
        # an operand made outside the ops from the checked tensor's array
        assert not grad_check(lambda t: tensor_sum(add(t, Tensor(t.data))), x) < FD_TOL
        # the objective evaluated with no graph recorded
        with no_grad():
            assert not grad_check(lambda t: tensor_sum(relu(t)), x) < FD_TOL
        # conv3d recorded without its bias parent
        make = mmtseg.tensor._make

        def spy(data, parents, *call):
            return make(data, [p for p in parents if p is not b], *call)

        monkeypatch.setattr(mmtseg.tensor, "_make", spy)
        assert not grad_check(lambda t: tensor_sum(conv3d(x, k, t)), b) < FD_TOL

    def test_grad_check_objective_ignoring_input_passes(self, rng):
        x = rand_tensor(rng, (2, 2, 2, 2))
        other = rand_tensor(rng, (2, 2, 2, 2))
        assert grad_check(lambda t: tensor_sum(other), x) == 0.0

    def test_grad_check_restores_requires_grad_when_f_raises(self, rng):
        x = rand_tensor(rng, (2, 2, 2, 2), requires_grad=False)
        kept = x.data.tobytes()

        def f(t):
            raise RuntimeError("objective failed")

        with pytest.raises(RuntimeError):
            grad_check(f, x)
        assert x.requires_grad is False
        assert x.data.tobytes() == kept
