import functools
import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from xferad import tensor as T
from xferad.errors import ContractError, ShapeError

import ref_kernels
from fdcheck import TOL_DEFAULT, TOL_POOLING, assert_grads_close, numeric_grad
from test_nn import HELPER_BOUND


def leaf(arr):
    return T.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = T.Tensor(np.eye(2))
    b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.matmul(a, b).data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_hand_case():
    out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
    assert out.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))


def test_matmul_gradcheck():
    rng = np.random.default_rng(0)
    a = leaf(rng.standard_normal((4, 5)))
    b = leaf(rng.standard_normal((5, 3)))
    coeff = rng.standard_normal((4, 3))  # random scalarizer

    def scalar():
        return float(((a.data @ b.data) * coeff).sum())

    tape = T.Tape()
    out = T.matmul(a, b, tape)
    T.backward(T.sum_all(T.mul(out, T.Tensor(coeff), tape), tape), tape)
    assert_grads_close(a.grad, numeric_grad(scalar, a.data), TOL_DEFAULT)
    assert_grads_close(b.grad, numeric_grad(scalar, b.data), TOL_DEFAULT)


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_all_ones_sums_window():
    x = T.Tensor(np.ones((1, 1, 3, 3)))
    w = T.Tensor(np.ones((1, 1, 3, 3)))
    b = T.Tensor(np.zeros(1))
    out = T.conv2d(x, w, b, stride=1, padding=0)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 9.0


def test_conv2d_padding_shape_and_center():
    x = T.Tensor(np.ones((1, 1, 3, 3)))
    w = T.Tensor(np.ones((1, 1, 3, 3)))
    b = T.Tensor(np.zeros(1))
    out = T.conv2d(x, w, b, stride=1, padding=1)
    assert out.shape == (1, 1, 3, 3)
    assert out.data[0, 0, 1, 1] == 9.0


def test_conv2d_kernel_larger_than_padded_input():
    x = T.Tensor(np.ones((1, 1, 2, 2)))
    w = T.Tensor(np.ones((1, 1, 5, 5)))
    b = T.Tensor(np.zeros(1))
    with pytest.raises(ShapeError, match="larger than padded input"):
        T.conv2d(x, w, b)
    # a zero kernel or filter extent is rejected, not turned into an output map
    x = T.Tensor(np.ones((1, 1, 4, 4)))
    for w_shape in [(1, 1, 0, 3), (1, 1, 3, 0), (0, 1, 3, 3)]:
        with pytest.raises(ShapeError, match="zero extent"):
            T.conv2d(x, T.Tensor(np.ones(w_shape)), T.Tensor(np.zeros(w_shape[0])), 1, 1)


def test_conv2d_output_shape_formula_grid():
    rng = np.random.default_rng(1)
    for H, W, k, s, p in [(8, 8, 3, 1, 0), (8, 10, 3, 2, 1), (7, 7, 5, 1, 2),
                          (9, 6, 2, 3, 0), (6, 6, 4, 2, 2), (5, 5, 1, 1, 0)]:
        x = T.Tensor(rng.standard_normal((2, 3, H, W)))
        w = T.Tensor(rng.standard_normal((4, 3, k, k)))
        b = T.Tensor(np.zeros(4))
        out = T.conv2d(x, w, b, stride=s, padding=p)
        assert out.shape == (2, 4, (H + 2 * p - k) // s + 1, (W + 2 * p - k) // s + 1)


def test_conv2d_gradcheck_all_inputs():
    rng = np.random.default_rng(2)
    x = leaf(rng.standard_normal((2, 3, 8, 8)))
    w = leaf(rng.standard_normal((4, 3, 3, 3)))
    b = leaf(rng.standard_normal(4))
    coeff = rng.standard_normal((2, 4, 4, 4))  # stride 2, padding 1 output shape

    def scalar():
        return float((T.conv2d(x, w, b, 2, 1).data * coeff).sum())

    tape = T.Tape()
    out = T.conv2d(x, w, b, 2, 1, tape)
    loss = T.sum_all(T.mul(out, T.Tensor(coeff), tape), tape)
    T.backward(loss, tape)
    assert_grads_close(w.grad, numeric_grad(scalar, w.data), TOL_DEFAULT)
    assert_grads_close(b.grad, numeric_grad(scalar, b.data), TOL_DEFAULT)
    assert_grads_close(x.grad, numeric_grad(scalar, x.data), TOL_DEFAULT)


# ---------------------------------------------------------------------------
# maxpool2d


def test_maxpool_basic():
    x = T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
    out = T.maxpool2d(x, 2, 2)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 4.0


def test_maxpool_constant_input_ties_route_to_first():
    x = leaf(np.ones((1, 1, 4, 4)))
    tape = T.Tape()
    out = T.maxpool2d(x, 2, 2, tape)
    assert np.array_equal(out.data, np.ones((1, 1, 2, 2)))
    T.backward(T.sum_all(out, tape), tape)
    expected = np.zeros((1, 1, 4, 4))
    expected[0, 0, ::2, ::2] = 1.0  # first (row-major) element of each window
    assert np.array_equal(x.grad, expected)


def test_maxpool_window_exceeds_extent():
    with pytest.raises(ShapeError, match="exceeds spatial extent"):
        T.maxpool2d(T.Tensor(np.zeros((1, 1, 3, 3))), 4, 1)
    # so is a window or stride below 1
    for window, stride in [(2, -1), (2, 0), (0, 2), (-1, 1)]:
        with pytest.raises(ShapeError, match="must be positive"):
            T.maxpool2d(T.Tensor(np.zeros((1, 1, 3, 3))), window, stride)


def test_maxpool_gradcheck():
    rng = np.random.default_rng(3)
    x = leaf(rng.standard_normal((1, 2, 6, 6)))
    coeff = rng.standard_normal((1, 2, 3, 3))

    def scalar():
        return float((T.maxpool2d(x, 2, 2).data * coeff).sum())

    tape = T.Tape()
    out = T.maxpool2d(x, 2, 2, tape)
    T.backward(T.sum_all(T.mul(out, T.Tensor(coeff), tape), tape), tape)
    assert_grads_close(x.grad, numeric_grad(scalar, x.data), TOL_POOLING)


# ---------------------------------------------------------------------------
# byte-exactness against the bincount kernels (tests/ref_kernels.py)

VALUE_KINDS = ("normal", "integer", "signed_zeros")

# the small convnet's layers at its set-up, training and scoring batches, plus one odd
# size: conv (in channels, filters, H, W) with 3x3 kernels and padding 1; pool [C,H,W], 2x2
NETWORK_BATCHES = (4, 16, 64)
NETWORK_CONVS = ((3, 16, 32, 32), (16, 16, 16, 16), (16, 32, 8, 8), (16, 16, 9, 7))
NETWORK_POOL_INPUTS = ((16, 32, 32), (16, 16, 16), (32, 8, 8), (16, 9, 7))

# conv2d's dw path at its edges, as ((N, C, H, W), (F, C, kh, kw), padding, takes NT): at
# 16x16 outputs of 3x3 kernels F*C*kh*kw*N*Ho*Wo is 2304*F*C*N, so F*C*N = 434 lies just
# below 100**3 and 435 just above; Ho*Wo = 255 misses the plane cut; F = 1 and C*kh*kw = 1
# are vector extents
DW_EDGE_CONVS = [
    ((2, 7, 16, 16), (31, 7, 3, 3), 1, False),
    ((3, 5, 16, 16), (29, 5, 3, 3), 1, True),
    ((8, 16, 15, 17), (16, 16, 3, 3), 1, False),
    ((64, 16, 16, 16), (1, 16, 3, 3), 1, False),
    ((64, 1, 32, 32), (16, 1, 1, 1), 0, False),
]


def _values(rng, shape, dtype, kind):
    if kind == "integer":  # many ties
        return rng.integers(-2, 3, size=shape).astype(dtype)
    if kind == "infinite":
        return rng.choice(np.array([np.inf, -np.inf, 1.0, -2.0]), size=shape).astype(dtype)
    if kind == "signed_zeros":
        return rng.choice(np.array([0.0, -0.0, 1.0, -1.0]), size=shape).astype(dtype)
    return rng.standard_normal(shape).astype(dtype)


def _rng(dtype, kind):
    return np.random.default_rng([np.dtype(dtype).itemsize, VALUE_KINDS.index(kind)])


def assert_same_bytes(new, ref):
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert new.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind", VALUE_KINDS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_matches_oracle_bytes(dtype, kind):
    rng = _rng(dtype, kind)
    grid = [((2, 3, H, W), window, stride) for window, stride, (H, W)
            in itertools.product((1, 2, 3), (1, 2, 3), ((7, 9), (6, 6)))]
    grid += [((n, *chw), 2, 2) for n in NETWORK_BATCHES for chw in NETWORK_POOL_INPUTS]
    for shape, window, stride in grid:
        xd = _values(rng, shape, dtype, kind)
        if stride < window:  # overlapping windows are rejected
            with pytest.raises(ShapeError, match="windows would overlap"):
                T.maxpool2d(T.Tensor(xd), window, stride)
            continue
        ref_out, ref_bwd = ref_kernels.maxpool2d(xd, window, stride)
        tape = T.Tape()
        out = T.maxpool2d(T.Tensor(xd, requires_grad=True), window, stride, tape)
        assert_same_bytes(out.data, ref_out)
        for g_kind in VALUE_KINDS + ("infinite",):
            g = _values(rng, ref_out.shape, dtype, g_kind)
            (dx,) = tape.nodes[-1].backward_fn(g)
            assert_same_bytes(dx, ref_bwd(g))


@pytest.mark.parametrize("kind", VALUE_KINDS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv2d_matches_oracle_bytes(dtype, kind):
    rng = _rng(dtype, kind)
    # kernels of 5 give a tap 2 wrapped columns; 1-wide and 1-tall inputs wrap every tap off j = p
    grid = [((2, 3, H, W), (4, 3, kh, kw), stride, padding) for kh, kw, stride, padding, (H, W)
            in itertools.product((1, 2, 3, 5), (1, 2, 3, 5), (1, 2), (0, 1, 2),
                                 ((5, 7), (6, 6), (1, 4), (4, 1)))
            if kh <= H + 2 * padding and kw <= W + 2 * padding]
    grid += [((n, C, H, W), (F, C, 3, 3), 1, 1)
             for n in NETWORK_BATCHES for C, F, H, W in NETWORK_CONVS]
    grid += [(x_shape, w_shape, 1, padding) for x_shape, w_shape, padding, _ in DW_EDGE_CONVS]
    for x_shape, w_shape, stride, padding in grid:
        xd = _values(rng, x_shape, dtype, kind)
        wd = _values(rng, w_shape, dtype, kind)
        bd = _values(rng, w_shape[:1], dtype, kind)
        ref_out, ref_bwd = ref_kernels.conv2d(xd, wd, bd, stride, padding)
        tape = T.Tape()
        leaves = [T.Tensor(a, requires_grad=True) for a in (xd, wd, bd)]
        out = T.conv2d(*leaves, stride, padding, tape)
        assert_same_bytes(out.data, ref_out)
        for g_kind in VALUE_KINDS:
            g = _values(rng, ref_out.shape, dtype, g_kind)
            for new, ref in zip(tape.nodes[-1].backward_fn(g), ref_bwd(g)):
                assert_same_bytes(new, ref)


def test_network_convs_take_the_whole_plane_geometry():
    for _, _, H, W in NETWORK_CONVS:
        in_plane, out_plane, taps = T._conv_taps(H, W, 3, 3, 1, 1, H, W)
        assert in_plane == out_plane == (H * W,) and len(taps) == 9


def test_conv2d_dw_paths(monkeypatch):
    """conv1 and conv2 compute dw as an NT GEMM at every batch the network
    runs; conv3's 8x8 planes keep tensordot, and so does each edge shape
    but the one just above 100**3. test_conv2d_matches_oracle_bytes pins
    both paths' bytes to tensordot's at these shapes."""
    taken = []
    predicate = T._dw_takes_nt

    def spy(*extents):
        taken.append(predicate(*extents))
        return taken[-1]

    monkeypatch.setattr(T, "_dw_takes_nt", spy)
    convs = [((n, C, H, W), (F, C, 3, 3), 1, nt) for n in NETWORK_BATCHES
             for (C, F, H, W), nt in zip(NETWORK_CONVS, (True, True, False, False))]
    convs += DW_EDGE_CONVS
    for x_shape, w_shape, padding, _ in convs:
        tape = T.Tape()
        out = T.conv2d(T.Tensor(np.ones(x_shape, np.float32)),
                       T.Tensor(np.ones(w_shape, np.float32), requires_grad=True),
                       T.Tensor(np.zeros(w_shape[0], np.float32)), 1, padding, tape)
        tape.nodes[-1].backward_fn(np.ones(out.shape, np.float32))
    assert taken == [nt for *_, nt in convs]


@pytest.mark.parametrize("window,stride", [(2, 2)])
def test_maxpool_negative_zero_gradient_lands_as_positive_zero(window, stride):
    # bincount adds into +0.0, so -0.0 arrives as +0.0; assigning the hit
    # gradient keeps -0.0, and assigning g * mask leaves -0.0 wherever g < 0
    xd = np.arange(36, dtype=np.float32).reshape(1, 1, 6, 6)[:, :, ::-1]
    ref_out, ref_bwd = ref_kernels.maxpool2d(np.ascontiguousarray(xd), window, stride)
    g = np.where(np.arange(ref_out.size) % 2, -1.0, -0.0).astype(np.float32).reshape(ref_out.shape)
    tape = T.Tape()
    T.maxpool2d(T.Tensor(xd, requires_grad=True), window, stride, tape)
    (dx,) = tape.nodes[-1].backward_fn(g)
    assert_same_bytes(dx, ref_bwd(g))
    assert not np.signbit(dx[dx == 0]).any()


# ---------------------------------------------------------------------------
# elementwise / shape ops


def test_relu_values():
    out = T.relu(T.Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_reshape_row_major_order():
    x = T.Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    out = T.reshape(x, (3, 2))
    assert np.array_equal(out.data.ravel(), np.arange(6))


def test_reshape_roundtrip_is_identity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 4, 5))
    back = T.reshape(T.reshape(T.Tensor(x), (12, 5)), (3, 4, 5))
    assert np.array_equal(back.data, x)


def test_reshape_count_mismatch():
    with pytest.raises(ShapeError, match="reshape"):
        T.reshape(T.Tensor(np.zeros((2, 3))), (4, 2))


def test_composite_relu_add_gradcheck():
    rng = np.random.default_rng(5)
    a = leaf(rng.standard_normal((3, 4)) + 0.05)  # keep clear of the relu kink
    b = leaf(rng.standard_normal((3, 4)))
    coeff = rng.standard_normal((3, 4))

    def scalar():
        return float((np.maximum(a.data + b.data, 0) * coeff).sum())

    tape = T.Tape()
    out = T.relu(T.add(a, b, tape), tape)
    T.backward(T.sum_all(T.mul(out, T.Tensor(coeff), tape), tape), tape)
    assert_grads_close(a.grad, numeric_grad(scalar, a.data), TOL_DEFAULT)
    assert_grads_close(b.grad, numeric_grad(scalar, b.data), TOL_DEFAULT)


def test_scale_and_global_avg_pool_gradcheck():
    rng = np.random.default_rng(6)
    x = leaf(rng.standard_normal((2, 3, 4, 4)))
    coeff = rng.standard_normal((2, 3))

    def scalar():
        return float((x.data.mean(axis=(2, 3)) * 2.5 * coeff).sum())

    tape = T.Tape()
    out = T.scale(T.global_avg_pool(x, tape), 2.5, tape)
    T.backward(T.sum_all(T.mul(out, T.Tensor(coeff), tape), tape), tape)
    assert_grads_close(x.grad, numeric_grad(scalar, x.data), TOL_DEFAULT)


def test_add_broadcast_bias_gradcheck():
    rng = np.random.default_rng(7)
    x = leaf(rng.standard_normal((4, 3)))
    b = leaf(rng.standard_normal(3))
    coeff = rng.standard_normal((4, 3))

    def scalar():
        return float(((x.data + b.data) * coeff).sum())

    tape = T.Tape()
    out = T.add(x, b, tape)
    T.backward(T.sum_all(T.mul(out, T.Tensor(coeff), tape), tape), tape)
    assert_grads_close(x.grad, numeric_grad(scalar, x.data), TOL_DEFAULT)
    assert_grads_close(b.grad, numeric_grad(scalar, b.data), TOL_DEFAULT)


# ---------------------------------------------------------------------------
# softmax cross-entropy


def test_cross_entropy_uniform_logits_is_ln2():
    loss = T.softmax_cross_entropy(T.Tensor([[0.0, 0.0]]), [0])
    assert abs(float(loss.data) - np.log(2.0)) < 1e-12


def test_cross_entropy_saturated_logits_no_overflow():
    loss = T.softmax_cross_entropy(T.Tensor([[100.0, 0.0]]), [0])
    assert np.isfinite(loss.data)
    assert float(loss.data) < 1e-6


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError, match="out of range"):
        T.softmax_cross_entropy(T.Tensor(np.zeros((2, 3))), [0, 3])


def test_cross_entropy_gradcheck():
    rng = np.random.default_rng(8)
    logits = leaf(rng.standard_normal((8, 2)))
    targets = rng.integers(0, 2, size=8)

    def scalar():
        z = logits.data
        m = z.max(axis=1, keepdims=True)
        lp = (z - m) - np.log(np.exp(z - m).sum(axis=1, keepdims=True))
        return float(-lp[np.arange(8), targets].mean())

    tape = T.Tape()
    loss = T.softmax_cross_entropy(logits, targets, tape)
    T.backward(loss, tape)
    assert_grads_close(logits.grad, numeric_grad(scalar, logits.data), TOL_DEFAULT)


def test_softmax_rows_sum_to_one_even_for_extreme_logits():
    rng = np.random.default_rng(9)
    z = np.concatenate([
        rng.standard_normal((5, 4)),
        np.array([[1e30, -1e30, 0.0, 5.0]]),
        np.full((1, 4), -3e38),
    ])
    p = T.softmax(z.astype(np.float64))
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_sum_gives_ones():
    w = leaf([3.0, -1.0, 4.0])
    tape = T.Tape()
    T.backward(T.sum_all(w, tape), tape)
    assert np.array_equal(w.grad, [1.0, 1.0, 1.0])


def test_backward_sum_of_squares():
    w = leaf([1.0, 2.0])
    tape = T.Tape()
    T.backward(T.sum_all(T.mul(w, w, tape), tape), tape)
    assert np.array_equal(w.grad, [2.0, 4.0])


def test_backward_accumulates_across_calls():
    w = leaf([1.0, 2.0])
    tape = T.Tape()
    loss = T.sum_all(w, tape)
    T.backward(loss, tape)
    T.backward(loss, tape)
    assert np.array_equal(w.grad, [2.0, 2.0])


def test_backward_rejects_nonscalar_loss():
    w = leaf([1.0, 2.0])
    tape = T.Tape()
    out = T.mul(w, w, tape)
    with pytest.raises(ContractError, match="scalar"):
        T.backward(out, tape)


def test_backward_rejects_foreign_loss():
    w = leaf([1.0])
    tape = T.Tape()
    T.sum_all(w, tape)
    other = T.sum_all(w)  # not recorded anywhere
    with pytest.raises(ContractError, match="not produced under this tape"):
        T.backward(other, tape)


def test_fanout_sums_both_contributions():
    # w feeds two consumers; total grad must be the sum, matching FD
    rng = np.random.default_rng(10)
    w = leaf(rng.standard_normal(4))

    def scalar():
        return float((w.data * w.data).sum() + 3.0 * w.data.sum())

    tape = T.Tape()
    loss = T.add(T.sum_all(T.mul(w, w, tape), tape), T.scale(T.sum_all(w, tape), 3.0, tape), tape)
    T.backward(loss, tape)
    assert_grads_close(w.grad, numeric_grad(scalar, w.data), TOL_DEFAULT)


def test_forward_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(11)
    x = T.Tensor(rng.standard_normal((2, 3, 8, 8)) * 100.0)
    w = T.Tensor(rng.standard_normal((4, 3, 3, 3)) * 100.0)
    b = T.Tensor(rng.standard_normal(4))
    out = T.relu(T.conv2d(x, w, b, 1, 1))
    pooled = T.maxpool2d(out, 2, 2)
    assert np.all(np.isfinite(pooled.data))


# ---------------------------------------------------------------------------
# run_all: the one helper pool


def test_run_all_returns_results_in_task_order(monkeypatch):
    monkeypatch.setattr(T, "_usable_cpus", lambda: 4)
    assert T.run_all([]) == []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = T.run_all([lambda i=i: i * i for i in range(200)])
    finally:
        sys.setswitchinterval(interval)
    assert got == [i * i for i in range(200)]


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_run_all_raises_the_earliest_error_and_starts_nothing_after_it(monkeypatch, cpus):
    """Task 1 fails only after task 3 has failed, yet task 1's error, the
    serial loop's, is raised; with one CPU task 3 never starts. While task 1
    waits, the other threads start no task past those they took before
    task 3's error was recorded."""
    monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
    started, task3_failed = [], threading.Event()

    def task(i):
        started.append(i)
        if i == 1:
            if cpus > 1:
                task3_failed.wait(10)
                time.sleep(0.05)  # time for the other threads to take tasks, were they allowed
            raise ValueError("task 1")
        if i == 3:
            task3_failed.set()
            raise KeyError("task 3")
        return i

    with pytest.raises(ValueError, match="task 1"):
        T.run_all([functools.partial(task, i) for i in range(12)])
    time.sleep(0.05)
    threads = min(cpus, HELPER_BOUND + 1)
    assert task3_failed.is_set() == (threads > 1)
    if threads == 1:
        assert started == [0, 1]
    else:
        assert set(started) >= {0, 1, 2, 3}
        assert len(started) == len(set(started)) <= 4 + threads - 2


def test_run_all_pool_works_after_an_error(monkeypatch):
    """After a task's error on a helper thread, the next run_all still
    shares its tasks with a helper."""
    monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
    barrier = threading.Barrier(2, timeout=10)

    def fail_on_helper():
        barrier.wait()  # one task per thread
        if threading.current_thread().name.startswith("xferad-helper"):
            raise RuntimeError("helper task failed")

    with pytest.raises(RuntimeError, match="helper task failed"):
        T.run_all([fail_on_helper, fail_on_helper])

    def name():
        barrier.wait()
        return threading.current_thread().name

    names = T.run_all([name, name])
    assert len(set(names)) == 2
    assert any(n.startswith("xferad-helper") for n in names)


def test_run_all_inside_a_task_while_every_helper_is_busy(monkeypatch):
    """A task that calls run_all on the pool's only helper, which it keeps
    busy, gets every result: the queued helper loop is cancelled, not
    waited on."""
    monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
    pool = ThreadPoolExecutor(1, thread_name_prefix="xferad-helper-probe")
    monkeypatch.setattr(T, "_HELPERS", pool)
    barrier = threading.Barrier(2, timeout=10)

    def task():
        barrier.wait()  # one task per thread
        if threading.current_thread().name.startswith("xferad-helper-probe"):
            return T.run_all([lambda: 1, lambda: 2])
        return None

    outer = []
    caller = threading.Thread(target=lambda: outer.extend(T.run_all([task, task])), daemon=True)
    caller.start()
    caller.join(30)
    pool.shutdown(wait=False)
    assert not caller.is_alive(), "run_all waited on a helper loop that could not start"
    assert sorted(outer, key=str) == [None, [1, 2]]
