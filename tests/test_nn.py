import numpy as np
import pytest

from stagemask import nn

from reference import (
    finite_diff_check, ref_batch_norm_backward, ref_gln_backward, zero_grads,
)


def _functional(rng, shape):
    """Fixed random linear functional; sums would hide errors by symmetry."""
    return rng.standard_normal(shape)


SEEDS = [0, 1, 2, 3, 4]

# three packed items of unequal length, the middle one shorter than a
# dilation-2 tap's reach
BOUNDS = (0, 7, 9, 16)


def _items(x, bounds=BOUNDS):
    return [x[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _one(x):
    """Bounds of a batch of one."""
    return (0, x.shape[1])


class TestPointwiseConv:
    def test_identity_weight(self):
        x = np.random.default_rng(0).standard_normal((3, 5))
        y = nn.pointwise_conv(x, np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(y, x)

    def test_ones(self):
        x = np.ones((2, 3))
        y = nn.pointwise_conv(x, np.ones((1, 2)), np.array([1.0]))
        np.testing.assert_array_equal(y, [[3.0, 3.0, 3.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nn.pointwise_conv(np.ones((3, 5)), np.ones((2, 4)), np.zeros(2))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_grad_x(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        c = _functional(rng, (3, 7))

        def fn(x):
            y = nn.pointwise_conv(x, w, b)
            dx, _, _ = nn.pointwise_conv_backward(c, x, w)
            return float((c * y).sum()), dx

        assert finite_diff_check(fn, rng.standard_normal((4, 7))) < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_grad_weight_and_bias(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 7))
        b = rng.standard_normal(3)
        c = _functional(rng, (3, 7))

        def fn_w(w):
            y = nn.pointwise_conv(x, w, b)
            _, dw, _ = nn.pointwise_conv_backward(c, x, w)
            return float((c * y).sum()), dw

        w0 = rng.standard_normal((3, 4))
        assert finite_diff_check(fn_w, w0) < 1e-4

        def fn_b(bias):
            y = nn.pointwise_conv(x, w0, bias)
            _, _, db = nn.pointwise_conv_backward(c, x, w0)
            return float((c * y).sum()), db

        assert finite_diff_check(fn_b, b) < 1e-4


class TestDepthwiseDconv:
    @pytest.mark.parametrize("dilation", [1, 2, 4, 8])
    def test_identity_kernel(self, dilation):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 16))
        kernel = np.zeros((3, 3))
        kernel[:, 1] = 1.0
        y = nn.depthwise_dconv(x, kernel, np.zeros(3), dilation, _one(x))
        np.testing.assert_array_equal(y, x)

    def test_zero_padding_at_edges(self):
        x = np.ones((1, 9))
        kernel = np.ones((1, 3))
        y = nn.depthwise_dconv(x, kernel, np.zeros(1), 2, _one(x))
        np.testing.assert_array_equal(y[0, 2:7], np.full(5, 3.0))
        assert y[0, 0] == 2.0

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            nn.depthwise_dconv(np.ones((2, 8)), np.ones((2, 4)), np.zeros(2), 1, (0, 8))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_grad(self, seed):
        rng = np.random.default_rng(seed)
        kernel = rng.standard_normal((3, 3))
        bias = rng.standard_normal(3)
        c = _functional(rng, (3, 16))

        def fn_x(x):
            y = nn.depthwise_dconv(x, kernel, bias, 4, _one(x))
            dx, _, _ = nn.depthwise_dconv_backward(c, x, kernel, 4, _one(x))
            return float((c * y).sum()), dx

        x0 = rng.standard_normal((3, 16))
        assert finite_diff_check(fn_x, x0) < 1e-4

        def fn_k(k):
            y = nn.depthwise_dconv(x0, k, bias, 4, _one(x0))
            _, dk, _ = nn.depthwise_dconv_backward(c, x0, k, 4, _one(x0))
            return float((c * y).sum()), dk

        assert finite_diff_check(fn_k, kernel) < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_packed_equals_items(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 16))
        kernel = rng.standard_normal((3, 3))
        bias = rng.standard_normal(3)
        dy = rng.standard_normal((3, 16))
        packed = nn.depthwise_dconv(x, kernel, bias, 2, BOUNDS)
        singles = [nn.depthwise_dconv(xi, kernel, bias, 2, _one(xi)) for xi in _items(x)]
        np.testing.assert_array_equal(packed, np.concatenate(singles, axis=1))
        dx, dk, db = nn.depthwise_dconv_backward(dy, x, kernel, 2, BOUNDS)
        per_item = [
            nn.depthwise_dconv_backward(dyi, xi, kernel, 2, _one(xi))
            for dyi, xi in zip(_items(dy), _items(x))
        ]
        np.testing.assert_array_equal(dx, np.concatenate([r[0] for r in per_item], axis=1))
        np.testing.assert_allclose(dk, sum(r[1] for r in per_item), rtol=1e-12)
        np.testing.assert_allclose(db, sum(r[2] for r in per_item), rtol=1e-12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_grad_across_item_bounds(self, seed):
        rng = np.random.default_rng(seed)
        kernel = rng.standard_normal((3, 3))
        bias = rng.standard_normal(3)
        c = _functional(rng, (3, 16))

        def fn_x(x):
            y = nn.depthwise_dconv(x, kernel, bias, 2, BOUNDS)
            dx, _, _ = nn.depthwise_dconv_backward(c, x, kernel, 2, BOUNDS)
            return float((c * y).sum()), dx

        x0 = rng.standard_normal((3, 16))
        assert finite_diff_check(fn_x, x0) < 1e-4

        def fn_k(k):
            y = nn.depthwise_dconv(x0, k, bias, 2, BOUNDS)
            _, dk, _ = nn.depthwise_dconv_backward(c, x0, k, 2, BOUNDS)
            return float((c * y).sum()), dk

        assert finite_diff_check(fn_k, kernel) < 1e-4

    def test_bounds_must_span_input(self):
        with pytest.raises(ValueError):
            nn.depthwise_dconv(np.ones((2, 8)), np.ones((2, 3)), np.zeros(2), 1, (0, 3, 7))


class TestPrelu:
    def test_positive_passthrough(self):
        x = np.abs(np.random.default_rng(0).standard_normal((2, 6)))
        np.testing.assert_array_equal(nn.prelu(x, np.full(2, 0.25)), x)

    def test_negative_scaled(self):
        y = nn.prelu(np.array([[-2.0]]), np.array([0.25]))
        assert y[0, 0] == -0.5

    @pytest.mark.parametrize("seed", SEEDS)
    def test_grad(self, seed):
        rng = np.random.default_rng(seed)
        slope = rng.uniform(0.1, 0.5, size=3)
        c = _functional(rng, (3, 8))
        x0 = rng.standard_normal((3, 8))
        x0[np.abs(x0) < 1e-3] = 0.1  # stay away from the kink

        def fn(x):
            y = nn.prelu(x, slope)
            dx, _ = nn.prelu_backward(c, x, slope)
            return float((c * y).sum()), dx

        assert finite_diff_check(fn, x0) < 1e-4

        def fn_slope(s):
            y = nn.prelu(x0, s)
            _, ds = nn.prelu_backward(c, x0, s)
            return float((c * y).sum()), ds

        assert finite_diff_check(fn_slope, slope) < 1e-4


class TestBatchNorm:
    def _state(self, channels):
        return nn.BatchNormState(np.zeros(channels), np.ones(channels))

    def test_train_normalizes(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 200)) * 3 + 1
        y, _, _ = nn.batch_norm(x, np.ones(4), np.zeros(4), self._state(4), train=True)
        assert np.all(np.abs(y.mean(axis=1)) < 1e-6)
        assert np.all(np.abs(y.var(axis=1) - 1) < 1e-4)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 10))
        beta = np.array([1.0, -2.0, 0.5])
        y, _, _ = nn.batch_norm(x, np.zeros(3), beta, self._state(3), train=True)
        np.testing.assert_allclose(y, np.tile(beta[:, None], (1, 10)))

    def test_eval_uses_running_stats(self):
        x = np.full((1, 4), 2.0)
        state = nn.BatchNormState(np.array([1.0]), np.array([4.0]))
        y, _, _ = nn.batch_norm(x, np.ones(1), np.zeros(1), state, train=False)
        np.testing.assert_allclose(y, (2.0 - 1.0) / np.sqrt(4.0 + nn.BN_EPS))

    def test_train_is_keyword_only(self):
        # a leftover mode string must not be read as a truthy flag
        with pytest.raises(TypeError):
            nn.batch_norm(np.ones((1, 4)), np.ones(1), np.zeros(1), self._state(1), "eval")

    def test_running_stats_update(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 50))
        state = self._state(2)
        nn.batch_norm(x, np.ones(2), np.zeros(2), state, train=True)
        expected = 0.1 * x.mean(axis=1)
        np.testing.assert_allclose(state.running_mean, expected, atol=1e-7)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_grad_train(self, seed):
        rng = np.random.default_rng(seed)
        gamma = rng.uniform(0.5, 1.5, size=3)
        beta = rng.standard_normal(3)
        c = _functional(rng, (3, 9))

        def fn(x):
            state = self._state(3)
            y, xhat, inv_std = nn.batch_norm(x, gamma, beta, state, train=True)
            dx, _, _ = nn.batch_norm_backward(c, xhat, inv_std, gamma)
            return float((c * y).sum()), dx

        assert finite_diff_check(fn, rng.standard_normal((3, 9))) < 1e-3

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_grad_gamma_beta(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 9))
        beta = rng.standard_normal(3)
        c = _functional(rng, (3, 9))

        def fn_gamma(g):
            y, xhat, inv_std = nn.batch_norm(x, g, beta, self._state(3), train=True)
            _, dg, _ = nn.batch_norm_backward(c, xhat, inv_std, g)
            return float((c * y).sum()), dg

        assert finite_diff_check(fn_gamma, rng.uniform(0.5, 1.5, size=3)) < 1e-3

    @pytest.mark.parametrize("seed", SEEDS)
    def test_backward_matches_recompute_reference(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 16)) * 2 + 1  # the three items of BOUNDS
        gamma = rng.uniform(0.5, 1.5, size=4)
        dy = rng.standard_normal((4, 16))
        _, xhat, inv_std = nn.batch_norm(
            x, gamma, np.zeros(4), self._state(4), train=True
        )
        got = nn.batch_norm_backward(dy, xhat, inv_std, gamma)
        for g, want in zip(got, ref_batch_norm_backward(dy, x, gamma)):
            np.testing.assert_allclose(g, want, rtol=1e-12)


class TestGlobalLayerNorm:
    def test_normalizes_globally(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 50)) * 2 + 3
        y, _, _ = nn.global_layer_norm(x, np.ones((8, 1)), np.zeros((8, 1)), _one(x))
        assert abs(y.mean()) < 1e-7
        assert abs(y.var() - 1) < 1e-5

    def test_constant_input_zeroed(self):
        # 3.5 over a power-of-two count keeps the mean exact, so the
        # numerator is exactly zero
        x = np.full((4, 8), 3.5)
        y, _, _ = nn.global_layer_norm(x, np.ones((4, 1)), np.zeros((4, 1)), _one(x))
        np.testing.assert_array_equal(y, np.zeros((4, 8)))
        x = np.full((4, 6), 3.7)
        y, _, _ = nn.global_layer_norm(x, np.ones((4, 1)), np.zeros((4, 1)), _one(x))
        np.testing.assert_allclose(y, np.zeros((4, 6)), atol=1e-10)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_grad(self, seed):
        rng = np.random.default_rng(seed)
        gamma = rng.uniform(0.5, 1.5, size=(8, 1))
        c = _functional(rng, (8, 5))

        def fn(x):
            y, xhat, inv_std = nn.global_layer_norm(x, gamma, np.zeros((8, 1)), _one(x))
            dx, _, _ = nn.global_layer_norm_backward(c, xhat, inv_std, gamma, _one(c))
            return float((c * y).sum()), dx

        assert finite_diff_check(fn, rng.standard_normal((8, 5))) < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_packed_equals_items(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 16)) * 2 + 1
        gamma = rng.uniform(0.5, 1.5, size=(4, 1))
        beta = rng.standard_normal((4, 1))
        dy = rng.standard_normal((4, 16))
        packed, xhat, inv_std = nn.global_layer_norm(x, gamma, beta, bounds=BOUNDS)
        singles = [
            nn.global_layer_norm(xi.copy(), gamma, beta, _one(xi)) for xi in _items(x)
        ]
        np.testing.assert_allclose(
            packed, np.concatenate([y for y, _, _ in singles], axis=1), atol=1e-12
        )
        dx, dgamma, dbeta = nn.global_layer_norm_backward(
            dy, xhat, inv_std, gamma, bounds=BOUNDS
        )
        per_item = [
            nn.global_layer_norm_backward(dyi, xhi, si, gamma, _one(dyi))
            for dyi, (_, xhi, si) in zip(_items(dy), singles)
        ]
        np.testing.assert_allclose(
            dx, np.concatenate([r[0] for r in per_item], axis=1), atol=1e-12
        )
        np.testing.assert_allclose(dgamma, sum(r[1] for r in per_item), atol=1e-12)
        np.testing.assert_allclose(dbeta, sum(r[2] for r in per_item), atol=1e-12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_grad_segmented(self, seed):
        rng = np.random.default_rng(seed)
        gamma = rng.uniform(0.5, 1.5, size=(4, 1))
        c = _functional(rng, (4, 16))

        def fn(x):
            y, xhat, inv_std = nn.global_layer_norm(
                x, gamma, np.zeros((4, 1)), bounds=BOUNDS
            )
            dx, _, _ = nn.global_layer_norm_backward(
                c, xhat, inv_std, gamma, bounds=BOUNDS
            )
            return float((c * y).sum()), dx

        assert finite_diff_check(fn, rng.standard_normal((4, 16))) < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_backward_matches_recompute_reference(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 16)) * 2 + 1
        gamma = rng.uniform(0.5, 1.5, size=(4, 1))
        dy = rng.standard_normal((4, 16))
        _, xhat, inv_std = nn.global_layer_norm(x, gamma, np.zeros((4, 1)), BOUNDS)
        got = nn.global_layer_norm_backward(dy, xhat, inv_std, gamma, BOUNDS)
        for g, want in zip(got, ref_gln_backward(dy, x, gamma, BOUNDS)):
            np.testing.assert_allclose(g, want, rtol=1e-12)


class TestSoftmaxColumns:
    @pytest.mark.parametrize("scale", [1.0, 1e4])
    def test_columns_sum_to_one(self, scale):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((7, 9)) * scale
        y = nn.softmax_columns(w)
        assert np.all(y >= 0)
        np.testing.assert_allclose(y.sum(axis=0), np.ones(9), atol=1e-9)

    def test_uniform_for_zero_input(self):
        y = nn.softmax_columns(np.zeros((4, 3)))
        np.testing.assert_array_equal(y, np.full((4, 3), 0.25))

    def test_column_shift_invariance(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((5, 4))
        shift = rng.standard_normal((1, 4))
        np.testing.assert_allclose(
            nn.softmax_columns(w + shift), nn.softmax_columns(w), atol=1e-12
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_grad(self, seed):
        rng = np.random.default_rng(seed)
        c = _functional(rng, (5, 4))

        def fn(w):
            y = nn.softmax_columns(w)
            dw = nn.softmax_columns_backward(c, y)
            return float((c * y).sum()), dw

        assert finite_diff_check(fn, rng.standard_normal((5, 4))) < 1e-4


def _two_branch_sigmoid(x):
    """The former gather/scatter formulation, kept as the bit-level reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_zero(self):
        assert nn.sigmoid(np.array([0.0]))[0] == 0.5

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical_to_two_branch_form(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((65, 62)) * [0.1, 1.0, 10.0, 100.0, 1000.0][seed]
        x.reshape(-1)[:10] = [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300,
                              np.inf, -np.inf, 5e-324, -5e-324]
        new, old = nn.sigmoid(x), _two_branch_sigmoid(x)
        np.testing.assert_array_equal(new, old)
        np.testing.assert_array_equal(np.signbit(new), np.signbit(old))

    def test_saturation_no_overflow(self):
        y = nn.sigmoid(np.array([40.0, -40.0]))
        assert abs(y[0] - 1.0) < 1e-12
        assert y[1] < 1e-12

    @pytest.mark.parametrize("seed", SEEDS)
    def test_grad(self, seed):
        rng = np.random.default_rng(seed)
        c = _functional(rng, (4, 6))

        def fn(x):
            y = nn.sigmoid(x)
            dx = nn.sigmoid_backward(c, y)
            return float((c * y).sum()), dx

        assert finite_diff_check(fn, rng.standard_normal((4, 6))) < 1e-5


class TestMatmul:
    def test_identity(self):
        a = np.random.default_rng(0).standard_normal((3, 3))
        np.testing.assert_allclose(nn.matmul(a, np.eye(3)), a)

    def test_small_product(self):
        y = nn.matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0], [1.0]]))
        np.testing.assert_array_equal(y, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nn.matmul(np.ones((2, 3)), np.ones((4, 2)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_grad(self, seed):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((4, 6))
        c = _functional(rng, (5, 6))

        def fn(a):
            y = nn.matmul(a, b)
            da, _ = nn.matmul_backward(c, a, b)
            return float((c * y).sum()), da

        assert finite_diff_check(fn, rng.standard_normal((5, 4))) < 1e-5


class TestMeanAbsLoss:
    def test_zero_for_equal(self):
        a = np.random.default_rng(0).standard_normal((3, 4))
        assert nn.mean_abs_loss(a, a.copy()) == 0.0

    def test_small_example(self):
        assert nn.mean_abs_loss(np.array([[1.0, 3.0]]), np.array([[0.0, 1.0]])) == 1.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nn.mean_abs_loss(np.ones((2, 3)), np.ones((3, 2)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_grad(self, seed):
        rng = np.random.default_rng(seed)
        bt = rng.standard_normal((4, 5))

        def fn(a):
            return nn.mean_abs_loss(a, bt), nn.mean_abs_loss_backward(a, bt, a.size)

        # keep the evaluation point away from ties, where |.| is not smooth
        a0 = bt + np.sign(rng.standard_normal((4, 5))) * rng.uniform(0.5, 1.0, (4, 5))
        assert finite_diff_check(fn, a0) < 1e-4


class TestFiniteDiffCheck:
    def test_exact_for_linear(self):
        c = np.arange(6.0).reshape(2, 3) + 1

        def fn(x):
            return float((c * x).sum()), c.copy()

        x0 = np.random.default_rng(1).standard_normal((2, 3))
        assert finite_diff_check(fn, x0) < 1e-10


class TestDeterminism:
    def test_forward_bit_identical(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 11))
        w = rng.standard_normal((5, 6))
        b = rng.standard_normal(5)
        y1 = nn.pointwise_conv(x, w, b)
        y2 = nn.pointwise_conv(x.copy(), w.copy(), b.copy())
        assert np.array_equal(y1, y2)
        s1 = nn.softmax_columns(y1)
        s2 = nn.softmax_columns(y2)
        assert np.array_equal(s1, s2)


class TestParamStore:
    def test_duplicate_rejected(self):
        store = nn.ParamStore(6)
        store.constant("a.weight", (3,), 0.0)
        with pytest.raises(ValueError):
            store.constant("a.weight", (3,), 0.0)

    def test_order_and_count(self):
        store = nn.ParamStore(10)
        store.constant("b", (2, 3), 0.0)
        store.uniform("a", (4,), 4)
        assert [name for name, _ in store.params()] == ["b", "a"]
        assert store.count() == store.values.size == 10

    def test_zero_grads(self):
        store = nn.ParamStore(3)
        p = store.constant("w", (3,), 1.0)
        p.grad[...] += 5.0
        zero_grads(store)
        assert np.all(p.grad == 0.0)

    def test_flat_views_share_storage(self):
        store = nn.ParamStore(8)
        a = store.constant("a", (2, 3), 1.0)
        b = store.constant("b", (2,), 0.5)
        a.grad[...] += 2.0
        values, grads = store.values, store.grads
        np.testing.assert_array_equal(values, [1, 1, 1, 1, 1, 1, 0.5, 0.5])
        np.testing.assert_array_equal(grads, [2, 2, 2, 2, 2, 2, 0, 0])
        b.value[...] = [3.0, 4.0]
        a.value.reshape(-1)[0] = 7.0
        np.testing.assert_array_equal(values[[0, 6, 7]], [7.0, 3.0, 4.0])
        grads[7] = 9.0
        assert b.grad[1] == 9.0
        assert [name for name, _ in store.views(values)] == ["a", "b"]

    def test_value_cannot_be_rebound(self):
        store = nn.ParamStore(3)
        p = store.constant("w", (3,), 0.0)
        with pytest.raises(AttributeError):
            p.value = np.ones(3)
        assert np.all(store.values == 0.0)

    def test_register_past_the_end_rejected(self):
        store = nn.ParamStore(4)
        store.constant("w", (3,), 0.0)
        with pytest.raises(ValueError, match="late"):
            store.uniform("late", (2,), 2)
        assert [name for name, _ in store.params()] == ["w"]

    def test_draw_fills_uniform_parameters_in_registration_order(self):
        store = nn.ParamStore(13)
        a = store.uniform("a", (2, 3), 3)
        b = store.constant("b", (3,), 0.25)
        c = store.uniform("c", (4,), 4)
        assert np.all(a.value == 0.0) and np.all(c.value == 0.0)
        store.draw(np.random.default_rng(5))
        rng = np.random.default_rng(5)
        want_a = rng.uniform(-(1 / 3) ** 0.5, (1 / 3) ** 0.5, size=(2, 3))
        want_c = rng.uniform(-0.5, 0.5, size=4)
        np.testing.assert_array_equal(a.value, want_a.astype(np.float32))
        np.testing.assert_array_equal(c.value, want_c.astype(np.float32))
        assert np.all(b.value == 0.25)

    def test_values_float32_clean(self):
        store = nn.ParamStore(9)
        p = store.constant("w", (3,), 0.1)
        q = store.uniform("u", (6,), 6)
        store.draw(np.random.default_rng(0))
        for v in (p.value, q.value):
            assert np.array_equal(v, v.astype(np.float32).astype(np.float64))
