import copy
import operator
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capfuse import autodiff as ad
from capfuse.autodiff import (
    Adam,
    Parameter,
    Tensor,
    affine,
    concat,
    dropout,
    gather_rows,
    glu,
    log_softmax,
    lstm_seq,
    relu,
    softmax_xent,
)
from capfuse.errors import ConfigError, InputError, NumericError, ShapeError, StateError

from oracles import add, gather_rows_grad_full, grad_check, matmul, tanh, total


def t(values, rg=True):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=rg)


def rand(rng, *shape):
    return Tensor(rng.uniform(-2.0, 2.0, shape), requires_grad=True)


class TestMatmul:
    """The oracle's matrix product, which the step-major LSTM composite and
    the affine checks build on."""

    def test_identity(self):
        a = t(np.eye(2))
        b = t([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_projection(self):
        a = t([[1.0, 0.0], [0.0, 0.0]])
        b = t([[5.0], [7.0]])
        assert np.array_equal(matmul(a, b).data, [[5.0], [0.0]])

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        err = grad_check(lambda x, y: total(matmul(x, y)), [a, b])
        assert err <= 1e-6


class TestAffine:
    def test_zero_weights(self):
        x = t([[1.0, 1.0]])
        w = t(np.zeros((2, 2)))
        b = t([3.0, 3.0])
        assert np.array_equal(affine(x, w, b).data, [[3.0, 3.0]])

    def test_hand_computation(self):
        x = t([[2.0]])
        w = t([[1.0, -1.0]])
        b = t([0.0, 0.0])
        assert np.array_equal(affine(x, w, b).data, [[2.0, -2.0]])

    def test_bias_broadcast_rows(self):
        x = t(np.ones((3, 2)))
        w = t(np.eye(2))
        b = t([1.0, -1.0])
        out = affine(x, w, b)
        assert np.array_equal(out.data, np.tile([2.0, 0.0], (3, 1)))

    def test_gradient(self):
        rng = np.random.default_rng(2)
        x, w, b = rand(rng, 3, 4), rand(rng, 4, 2), rand(rng, 2)
        err = grad_check(lambda *a: total(affine(*a)), [x, w, b])
        assert err <= 1e-6

    @pytest.mark.parametrize("shapes", [((3, 4), (4, 2), (2,)), ((1, 4), (4, 3), (3,))])
    def test_without_a_graph_equals_matmul_plus_add(self, shapes):
        rng = np.random.default_rng(len(shapes[0]) + shapes[1][1])
        x, w, b = (Tensor(rng.normal(size=s)) for s in shapes)
        out = affine(x, w, b)
        assert out._parents == () and not out.requires_grad
        assert out.data.tobytes() == add(matmul(x, w), b).data.tobytes()
        recorded = [Tensor(a.data, requires_grad=True) for a in (x, w, b)]
        assert affine(*recorded).data.tobytes() == out.data.tobytes()

    @pytest.mark.parametrize("bias", [(1, 5), (2, 5), (5, 1), ()], ids=str)
    def test_a_bias_that_is_not_1d_raises_shape_error(self, bias):
        x, w = Tensor(np.ones((2, 4)), requires_grad=True), Tensor(np.ones((4, 5)))
        with pytest.raises(ShapeError, match=r"affine bias .* is not the 1-D bias \(5,\)"):
            affine(x, w, Tensor(np.ones(bias)))

    @pytest.mark.parametrize("shapes", [((3, 4), (5, 2), (2,)), ((3, 4), (4, 2), (3,)),
                                        ((2, 3, 4), (4, 2), (2,)), ((3, 4), (4, 2, 2), (2,))])
    def test_without_a_graph_raises_the_shape_errors_of_the_graph_path(self, shapes):
        messages = []
        for rg in (True, False):
            with pytest.raises(ShapeError) as err:
                affine(*(Tensor(np.ones(s), requires_grad=rg) for s in shapes))
            messages.append(str(err.value))
        with pytest.raises(ShapeError) as err:
            affine(np.ones(shapes[0]), *(Tensor(np.ones(s), requires_grad=True)
                                         for s in shapes[1:]))
        assert messages[0] == messages[1] == str(err.value)


def concat_rows(a, b):
    return concat(a, b, axis=0)


# (axis, shape of a, shape of b): the operands differ only along the axis
CONCAT_AXES = [(-1, (2, 3), (2, 2)), (0, (3, 2), (2, 2)), (1, (2, 3, 2), (2, 1, 2))]


class TestConcat:
    def test_basic(self):
        out = concat(t([1.0, 2.0]), t([3.0]))
        assert np.array_equal(out.data, [1.0, 2.0, 3.0])
        rows = concat_rows(t([[1.0, 2.0]]), t([[3.0, 4.0], [5.0, 6.0]]))
        assert np.array_equal(rows.data, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    @pytest.mark.parametrize("axis, empty", [(-1, (1, 0)), (0, (0, 1))])
    def test_rejects_an_empty_axis(self, axis, empty):
        with pytest.raises(ShapeError, match="zero-sized"):
            concat(t(np.ones(empty)), t([[1.0]]), axis=axis)
        with pytest.raises(ShapeError, match="zero-sized"):
            concat(t([[1.0]]), t(np.ones(empty)), axis=axis)

    @pytest.mark.parametrize("axis", [2, -3])
    def test_rejects_an_axis_outside_the_operands(self, axis):
        for wrap in (np.ones, lambda s: t(np.ones(s))):
            with pytest.raises(ShapeError, match=f"axis {axis}"):
                concat(wrap((2, 3)), wrap((2, 3)), axis=axis)

    @pytest.mark.parametrize("axis, sa, sb", CONCAT_AXES)
    def test_gradient_splits(self, axis, sa, sb):
        rng = np.random.default_rng(3)
        a, b = rand(rng, *sa), rand(rng, *sb)
        err = grad_check(
            lambda x, y: total(concat(x, y, axis) * concat(x, y, axis)), [a, b]
        )
        assert err <= 1e-6

    @pytest.mark.parametrize("axis, sa, sb", CONCAT_AXES)
    def test_split_recovers_inputs(self, axis, sa, sb):
        rng = np.random.default_rng(4)
        a, b = rand(rng, *sa), rand(rng, *sb)
        cat = concat(a, b, axis).data
        head, tail = np.split(cat, [sa[axis]], axis=axis)
        assert np.array_equal(head, a.data)
        assert np.array_equal(tail, b.data)


class TestHadamard:
    """The elementwise product `a * b` of two tensors."""

    def test_annihilator(self):
        assert np.array_equal((t([1.0, 2.0]) * t([0.0, 0.0])).data, [0.0, 0.0])

    def test_values(self):
        assert np.array_equal((t([2.0, 3.0]) * t([4.0, 5.0])).data, [8.0, 15.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            t([1.0, 2.0]) * t([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("scalar", [2.0, 2, np.float64(2.0)], ids=repr)
    def test_a_scalar_factor_raises_type_error(self, scalar):
        with pytest.raises(TypeError):
            t([1.0, 2.0]) * scalar
        with pytest.raises(TypeError):
            scalar * t([1.0, 2.0])

    def test_gradient(self):
        rng = np.random.default_rng(5)
        a, b = rand(rng, 3, 3), rand(rng, 3, 3)
        assert grad_check(lambda x, y: total(x * y), [a, b]) <= 1e-6


class TestActivations:
    def test_relu_values(self):
        assert np.array_equal(relu(t([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_extreme_inputs_finite(self):
        assert np.array_equal(ad.sigmoid(np.array([-1000.0, 1000.0])), [0.0, 1.0])

    def test_relu_gradient_away_from_kink(self):
        x = t([-1.5, -0.2, 0.4, 1.9])
        assert grad_check(lambda a: total(relu(a) * relu(a)), [x]) <= 1e-6

    def test_relu_derivative_at_zero_is_zero(self):
        x = t([0.0])
        y = total(relu(x))
        y.backward()
        assert x.grad[0] == 0.0

    @pytest.mark.parametrize("rg", [True, False])
    def test_relu_propagates_nan(self, rg):
        out = relu(t([np.nan, -1.0, 2.0], rg=rg))
        assert np.isnan(out.data[0]) and np.array_equal(out.data[1:], [0.0, 2.0])

    def test_relu_values_and_gradients_keep_their_bits(self):
        rng = np.random.default_rng(8)
        data = np.concatenate([rng.normal(size=60), [0.0, -0.0, 1e-300, -1e-300, 5e-324]])
        g = rng.normal(size=data.shape)
        x = t(data)
        y = relu(x)
        total(y * Tensor(g)).backward()
        # the masked-select relu: np.where(x > 0, x, 0), gradient g * (x > 0)
        assert y.data.tobytes() == np.where(data > 0.0, data, 0.0).tobytes()
        assert x.grad.tobytes() == (np.zeros_like(data) + g * (data > 0.0)).tobytes()
        assert relu(data).tobytes() == y.data.tobytes()


class TestGlu:
    def test_zero_gate_half(self):
        out = glu(t([2.0, 4.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1.0, 2.0])

    def test_zero_value_half(self):
        out = glu(t([0.0, 0.0, 9.0, 9.0]))
        assert np.array_equal(out.data, [0.0, 0.0])

    def test_odd_dimension_rejected(self):
        with pytest.raises(ShapeError):
            glu(t([1.0, 2.0, 3.0]))

    def test_halves_dimension(self):
        assert glu(t(np.ones((3, 8)))).shape == (3, 4)

    def test_gradient(self):
        rng = np.random.default_rng(7)
        x = rand(rng, 2, 6)
        assert grad_check(lambda a: total(glu(a)), [x]) <= 1e-6


def xent_to_class_1(logits):
    return softmax_xent(logits, np.ones(logits.shape[0], dtype=np.int64))


def lstm_seq_batch_2(x, wx, wh, b):
    return lstm_seq(x, 2, wx, wh, b, np.full(2, x.shape[0] // 2 - 1))  # every step


def gather_with_an_empty_row(table):
    return gather_rows(table, np.array([2, -1, 0, 2]))


# (op, activation shapes, weight shapes): ops whose activations may be Tensors
# or plain arrays
ARRAY_OP_VALUES = [
    (affine, [(3, 4)], [(4, 2), (2,)]), (affine, [(1, 4)], [(4, 3), (3,)]),
    (concat, [(2, 3), (2, 2)], []), (concat, [(3,), (1,)], []),
    (concat, [(2, 1, 3), (2, 1, 4)], []),
    (concat_rows, [(2, 3), (1, 3)], []), (concat_rows, [(3,), (1,)], []),
    (concat_rows, [(2, 1, 3), (1, 1, 3)], []),
    (glu, [(4,)], []), (glu, [(3, 8)], []), (glu, [(2, 1, 6)], []),
    (relu, [(70,)], []), (relu, [(4, 5)], []),
    (xent_to_class_1, [(1, 3)], []), (xent_to_class_1, [(4, 6)], []),
    (gather_with_an_empty_row, [(3, 5)], []),
    (lstm_seq_batch_2, [(6, 3)], [(3, 8), (2, 8), (8,)]),
    (lstm_seq_batch_2, [(2, 5)], [(5, 4), (1, 4), (4,)]),
]
ARRAY_OP_SHAPE_ERRORS = [
    (affine, [(3, 4)], [(5, 2), (2,)]), (affine, [(3, 4)], [(4, 2), (3,)]),
    (affine, [(2, 3, 4)], [(4, 2), (2,)]), (affine, [(3, 4)], [(4, 2, 2), (2,)]),
    (affine, [(4,)], [(4, 3), (3,)]), (affine, [(2, 4)], [(4, 3), (2, 3)]),
    (concat, [(), (2,)], []), (concat, [(2, 3), (3, 3)], []),
    (concat, [(2, 3), (2, 1, 3)], []), (concat, [(2, 3), (2, 0)], []),
    (concat_rows, [(), (2,)], []), (concat_rows, [(2, 3), (2, 4)], []),
    (concat_rows, [(2, 3), (2, 1, 3)], []), (concat_rows, [(2, 3), (0, 3)], []),
    (glu, [(3,)], []), (glu, [(2, 5)], []),
    (xent_to_class_1, [(4,)], []), (xent_to_class_1, [(2, 3, 4)], []),
    (lstm_seq_batch_2, [(5, 3)], [(3, 8), (2, 8), (8,)]),
    (lstm_seq_batch_2, [(6, 4)], [(3, 8), (2, 8), (8,)]),
    (lstm_seq_batch_2, [(2, 3, 3)], [(3, 8), (2, 8), (8,)]),
]


def _case_id(case):
    op, acts, weights = case
    return f"{op.__name__}-{'-'.join(map(str, acts + weights))}"


class TestArrayActivations:
    """An op given plain-array activations returns the plain array that the
    graph path computes, bit for bit, and raises its ShapeError messages."""

    @pytest.mark.parametrize("case", ARRAY_OP_VALUES, ids=_case_id)
    def test_values_equal_the_graph_path(self, case):
        op, act_shapes, weight_shapes = case
        rng = np.random.default_rng(len(_case_id(case)))
        acts = [rng.normal(size=s) for s in act_shapes]
        acts[0].flat[:4] = [0.0, -0.0, np.nan, 5e-324]
        weights = [Parameter(f"w{i}", rng.normal(size=s)) for i, s in enumerate(weight_shapes)]
        got = op(*acts, *weights)
        want = op(*(Tensor(a, requires_grad=True) for a in acts), *weights)
        assert type(got) is np.ndarray and want._parents
        assert got.shape == want.shape and got.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("case", ARRAY_OP_SHAPE_ERRORS, ids=_case_id)
    def test_shape_errors_equal_the_graph_path(self, case):
        op, act_shapes, weight_shapes = case
        weights = [Parameter(f"w{i}", np.ones(s)) for i, s in enumerate(weight_shapes)]
        messages = []
        for wrap in (np.asarray, lambda a: Tensor(a, requires_grad=True)):
            with pytest.raises(ShapeError) as err:
                op(*(wrap(np.ones(s)) for s in act_shapes), *weights)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_dropout_draws_the_mask_of_the_graph_path(self):
        x = np.random.default_rng(9).normal(size=(3, 4))
        got = dropout(x, 0.5, np.random.default_rng(10))
        want = dropout(Tensor(x, requires_grad=True), 0.5, np.random.default_rng(10))
        assert type(got) is np.ndarray and want._parents
        assert got.tobytes() == want.data.tobytes() and (got == 0.0).any()

    @pytest.mark.parametrize("op", [operator.add, operator.mul, concat, concat_rows])
    def test_a_tensor_and_an_array_raise_type_error_in_either_order(self, op):
        array = np.ones((2, 3))
        tensor = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(TypeError):
            op(array, tensor)
        with pytest.raises(TypeError):
            op(tensor, array)


class TestLstmSeq:
    """One LSTM layer over a time-major [T*B x E] input, projected by Wx."""

    @staticmethod
    def case(seed, steps, batch, hidden=3, width=4):
        rng = np.random.default_rng(seed)
        x = rand(rng, steps * batch, width)
        wx = Parameter("wx", rng.uniform(-1.0, 1.0, (width, 4 * hidden)))
        wh = Parameter("wh", rng.uniform(-1.0, 1.0, (hidden, 4 * hidden)))
        b = Parameter("b", rng.uniform(-1.0, 1.0, 4 * hidden))
        return x, wx, wh, b

    @pytest.mark.parametrize("steps, batch", [(1, 1), (3, 2), (4, 3)])
    def test_each_step_is_the_lstm_step_kernel_bit_for_bit(self, steps, batch):
        # a step of one row projects with the one-row BLAS kernel, whose last
        # bits differ from a row of a larger product (TestBlasRowBits), so
        # batch 1 takes one step
        x, wx, wh, b = self.case(steps, steps, batch)
        h = c = np.zeros((batch, 3))
        want = []
        for lo in range(0, steps * batch, batch):
            h, c = ad.lstm_step(x.data[lo:lo + batch], h, c, wx.data, wh.data, b.data)
            want.append(h)
        every = np.full(batch, steps - 1)
        got = lstm_seq(x.data, batch, wx, wh, b, every)
        graph = lstm_seq(x, batch, wx, wh, b, every)
        assert type(got) is np.ndarray and graph._parents
        assert got.tobytes() == np.concatenate(want).tobytes() == graph.data.tobytes()

    @pytest.mark.parametrize("lengths", [[2], [5], [3, 3], [2, 5, 3], [4, 1, 4, 2]],
                             ids=lambda n: "-".join(map(str, n)))
    def test_gradient_vs_finite_differences(self, lengths):
        # sequences padded to one batch, ragged (packed) or all of one length
        # (the all-steps unroll); each reads its state after its first and
        # after its last token (a mask at position 1 and at the last token),
        # plus one empty context (id -1); the input and all three weights
        # are checked
        batch, steps = len(lengths), max(lengths)
        x, wx, wh, b = self.case(10 + batch, steps, batch)
        rows = np.arange(batch)
        last = np.array(lengths) - 1
        ids = np.concatenate([rows, last * batch + rows, [-1]])
        weights = Tensor(np.random.default_rng(batch).normal(size=(len(ids), 3)))

        def f(inp, w_x, w_h, bias):
            return total(gather_rows(lstm_seq(inp, batch, w_x, w_h, bias, last), ids) * weights)

        assert grad_check(f, [x, wx, wh, b]) <= 1e-6
        # a padded step's state is read by no one, so its gradient is zero
        padded = [t * batch + r for r, n in enumerate(lengths) for t in range(n, steps)]
        assert (x.grad[padded] == 0.0).all()
        assert all(np.abs(p.grad).sum() > 0 for p in (x, wx, wh, b))

    def test_frozen_weights_get_no_gradient_and_the_input_gets_one(self):
        x, wx, wh, b = self.case(3, 3, 2)
        for p in (wx, wh, b):
            p.freeze()
        total(lstm_seq(x, 2, wx, wh, b, np.array([2, 2]))).backward()
        assert wx.grad is None and wh.grad is None and b.grad is None
        assert np.abs(x.grad).sum() > 0

    @pytest.mark.parametrize("width", [3, 5])
    def test_an_input_whose_width_is_not_wx_rows_raises_shape_error(self, width):
        _, wx, wh, b = self.case(4, 3, 2)
        for x in (np.ones((6, width)), Tensor(np.ones((6, width)), requires_grad=True)):
            with pytest.raises(ShapeError, match=r"lstm_seq input \(6, \d\) is not \[T\*2 x 4\]"):
                lstm_seq(x, 2, wx, wh, b, np.array([2, 2]))


def stepped_rows(last, steps):
    """The rows lstm_seq steps at each step: those that read step t or a
    later one, and at least the first min(2, batch) rows of the stable
    descending order of last while any row is stepped."""
    order = sorted(range(len(last)), key=lambda r: -last[r])
    counts = [sum(n >= t for n in last) for t in range(steps)]
    return [order[:max(n, min(2, len(last)))] if n else [] for n in counts]


# (last, steps): -1 entries, ties, one surviving row, batch 1, every row to T-1
PACKED = [([3, -1, 1, 3, 0, -1], 4), ([2, 0, 2, 1], 4), ([-1, 3, -1], 4), ([1], 3),
          ([-1], 2), ([-1, -1], 2), ([2, 2, 2], 3)]


def packed_id(value):
    return "_".join(map(str, value)) if isinstance(value, list) else f"T{value}"


class TestPackedLstmSeq:
    """lstm_seq steps each row up to its last read step only; every stepped
    row is the all-steps unroll's, bit for bit, and the rest is zero."""

    @staticmethod
    def unrolls(last, steps, hidden=3, seed=0):
        batch = len(last)
        x, wx, wh, b = TestLstmSeq.case(seed, steps, batch, hidden)
        every = Tensor(x.data.copy(), requires_grad=True)
        return ((x, lstm_seq(x, batch, wx, wh, b, np.array(last))),
                (every, lstm_seq(every, batch, wx, wh, b, np.full(batch, steps - 1))),
                (wx, wh, b))

    @pytest.mark.parametrize("hidden", [3, 128])
    @pytest.mark.parametrize("last, steps", PACKED, ids=packed_id)
    def test_stepped_rows_are_the_all_steps_rows_and_the_rest_is_zero(self, last, steps,
                                                                       hidden):
        (x, packed), (_, every), weights = self.unrolls(last, steps, hidden)
        batch, mask = len(last), np.zeros(steps * len(last), dtype=bool)
        for t, rows in enumerate(stepped_rows(last, steps)):
            mask[[t * batch + r for r in rows]] = True
        read = [t * batch + r for r, n in enumerate(last) for t in range(n + 1)]
        assert mask[read].all()
        assert packed.data[mask].tobytes() == every.data[mask].tobytes()
        assert (packed.data[~mask] == 0.0).all()
        plain = lstm_seq(x.data, batch, *weights, last)
        assert type(plain) is np.ndarray and plain.tobytes() == packed.data.tobytes()

    @pytest.mark.parametrize("last, steps", PACKED, ids=packed_id)
    def test_gradients_are_the_all_steps_gradients(self, last, steps):
        (x, packed), (every_x, every), weights = self.unrolls(last, steps, seed=1)
        batch = len(last)
        scale = np.zeros((steps * batch, 3))
        read = [t * batch + r for r, n in enumerate(last) for t in range(n + 1)]
        scale[read] = np.random.default_rng(2).normal(size=(len(read), 3))
        grads = []
        for inp, hs in ((x, packed), (every_x, every)):
            for w in weights:
                w.grad = None
            total(hs * Tensor(scale)).backward()
            grads.append([inp.grad] + [w.grad for w in weights])
        for got, want in zip(*grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        stepped = {t * batch + r for t, rows in enumerate(stepped_rows(last, steps))
                   for r in rows}
        assert (x.grad[sorted(set(range(steps * batch)) - stepped)] == 0.0).all()

        for rows in (np.array(last), np.full(batch, steps - 1)):  # packed, then all steps
            def f(inp, w_x, w_h, bias, last=rows):
                return total(lstm_seq(inp, batch, w_x, w_h, bias, last) * Tensor(scale))

            assert grad_check(f, [x, *weights]) <= 1e-6

    def test_last_must_name_one_step_per_row(self):
        x, wx, wh, b = TestLstmSeq.case(0, 3, 2)
        for bad in ([2], [2, 3], [-2, 0], [[2, 2]]):
            with pytest.raises(ShapeError, match="lstm_seq last"):
                lstm_seq(x, 2, wx, wh, b, np.array(bad))


class TestBlasRowBits:
    """lstm_seq's packing rests on this: a product of M rows gives the rows
    of the 64-row product bit for bit, for M = 2..64, at the cell's shapes
    (embedding 64 or hidden 128 into 4 x 128 gates). One row takes another
    BLAS kernel with other last bits, hence lstm_seq's two-row floor; so does
    the backward's [M x 512] @ [512 x 128] for M up to 9 on OpenBLAS 0.3.31
    (Haswell kernels), so a packed backward may move gradients by ulps."""

    @pytest.mark.parametrize("inner", [64, 128])
    def test_rows_do_not_depend_on_the_row_count(self, inner):
        rng = np.random.default_rng(inner)
        a, w = rng.normal(size=(64, inner)), rng.normal(size=(inner, 512))
        full = a @ w
        assert [m for m in range(2, 65) if (a[:m] @ w).tobytes() != full[:m].tobytes()] == []


class TestSoftmaxXent:
    """softmax_xent: the mean over rows of each row's cross-entropy, one node."""

    def test_uniform_logits(self):
        loss = softmax_xent(t(np.zeros((1, 4))), np.array([2]))
        assert loss.shape == () and loss.item() == pytest.approx(np.log(4.0), abs=1e-12)

    def test_saturated(self):
        logits = np.zeros((1, 5))
        logits[0, 3] = 1e3
        assert softmax_xent(t(logits), np.array([3])).item() == pytest.approx(0.0, abs=1e-9)

    def test_target_out_of_range(self):
        for bad in (4, -1):
            with pytest.raises(InputError, match="out of range"):
                softmax_xent(t(np.zeros((2, 4))), np.array([0, bad]))

    def test_empty_batch_rejected(self):
        for logits in (np.zeros((0, 4)), t(np.zeros((0, 4)))):
            with pytest.raises(ShapeError, match="with rows"):
                softmax_xent(logits, np.array([], dtype=int))

    def test_gradient_is_softmax_minus_onehot_over_the_rows(self):
        rng = np.random.default_rng(8)
        x = rand(rng, 2, 6)
        targets = np.array([1, 4])
        softmax_xent(x, targets).backward()
        expect = np.exp(log_softmax(x.data))
        expect[[0, 1], targets] -= 1.0
        assert np.allclose(x.grad, expect / 2.0, atol=1e-12)

    def test_value_is_the_mean_of_the_single_rows(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(3, 5))
        targets = np.array([0, 4, 2])
        singles = []
        for i in range(3):
            single = softmax_xent(t(logits[i:i + 1]), targets[i:i + 1]).item()
            naive = -np.log(np.exp(logits[i]) / np.exp(logits[i]).sum())[targets[i]]
            assert single == pytest.approx(naive, abs=1e-12)
            singles.append(single)
        assert softmax_xent(t(logits), targets).item() == pytest.approx(np.mean(singles),
                                                                        abs=1e-12)

    @pytest.mark.parametrize("n", [1, 5])
    def test_gradient_vs_finite_differences(self, n):
        rng = np.random.default_rng(10 + n)
        x = rand(rng, n, 5)
        targets = rng.integers(5, size=n)
        assert grad_check(lambda a: softmax_xent(a, targets), [x]) <= 1e-6

    @pytest.mark.parametrize("n", [1, 5, 32])
    def test_value_is_the_row_losses_summed_then_scaled_by_1_over_n(self, n):
        # np.mean divides instead, which moves the last bits of the
        # pretraining losses; plain-array logits give the Tensor's bits
        rng = np.random.default_rng(12 + n)
        logits = rng.normal(scale=3.0, size=(n, 7))
        targets = rng.integers(7, size=n)
        want = np.asarray((-log_softmax(logits)[np.arange(n), targets]).sum() * (1.0 / n))
        got = softmax_xent(logits, targets)
        assert type(got) is np.ndarray and got.tobytes() == want.tobytes()
        assert softmax_xent(t(logits), targets).data.tobytes() == want.tobytes()

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            logits = rng.normal(scale=3.0, size=(4, 7))
            assert softmax_xent(t(logits), rng.integers(7, size=4)).item() >= 0.0

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_softmax_rows_sum_to_one(self, logits):
        p = np.exp(log_softmax(np.asarray(logits)))
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_log_softmax_matches_naive(self):
        x = np.array([1.0, 2.0, 3.0])
        naive = np.log(np.exp(x) / np.exp(x).sum())
        assert np.allclose(log_softmax(x), naive, atol=1e-12)


class TestDropout:
    @pytest.mark.parametrize("wrap", [np.asarray, t])
    def test_rate_zero_identity(self, wrap):
        x = wrap(np.ones((2, 3)))
        assert dropout(x, 0.0, rng=np.random.default_rng(0)) is x
        assert dropout(x, 0.0) is x

    @pytest.mark.parametrize("wrap", [np.asarray, t])
    def test_inference_identity(self, wrap):
        x = wrap(np.ones((2, 3)))
        assert dropout(x, 0.9) is x
        assert dropout(x, 0.5, rng=None) is x

    def test_invalid_rate(self):
        for bad in (-0.1, 1.0, 1.5, float("nan"), "x", None):
            with pytest.raises(ConfigError, match="^dropout rate must be in"):
                dropout(t([1.0]), bad, rng=np.random.default_rng(0))

    def test_empirical_drop_fraction(self):
        rng = np.random.default_rng(12)
        x = Tensor(np.ones(1_000_000))
        out = dropout(x, 0.3, rng=rng)
        dropped = float((out.data == 0.0).mean())
        assert abs(dropped - 0.3) <= 0.01

    def test_survivors_scaled(self):
        rng = np.random.default_rng(13)
        out = dropout(Tensor(np.ones(1000)), 0.25, rng=rng)
        kept = out.data[out.data != 0.0]
        assert np.allclose(kept, 1.0 / 0.75)

    def test_gradient_with_fixed_mask(self):
        x = t(np.linspace(-1.0, 1.0, 8))

        def f(a):
            return total(dropout(a, 0.5, rng=np.random.default_rng(99)))

        assert grad_check(f, [x]) <= 1e-6


class TestAdam:
    def test_frozen_parameter_is_read_only(self):
        p = Parameter("w", np.array([1.0, 2.0]))
        p.data[...] = 3.0  # writable until frozen
        p.freeze()
        with pytest.raises(ValueError):
            p.data[...] = 0.0
        assert np.array_equal(p.data, [3.0, 3.0])
        assert not p.data.flags.writeable

    def test_rebinding_a_frozen_parameter_raises_and_keeps_its_data(self):
        p = Parameter("w", np.array([1.0, 2.0]))
        p.data = np.array([3.0, 4.0])  # rebindable until frozen
        p.freeze()
        data = p.data
        with pytest.raises(StateError, match="w is frozen; data"):
            p.data = np.zeros(2)
        with pytest.raises(StateError, match="w is frozen; frozen"):
            p.frozen = False
        assert p.data is data and np.array_equal(data, [3.0, 4.0]) and p.frozen
        p.freeze()  # freezing again changes nothing
        assert p.data is data and p.frozen

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda q: pickle.loads(pickle.dumps(q))])
    def test_a_copied_or_unpickled_frozen_parameter_stays_frozen(self, clone):
        p = Parameter("w", np.array([1.0, 2.0]))
        p.freeze()
        q = clone(p)
        assert q.frozen and not q.requires_grad and q.grad is None
        assert not q.data.flags.writeable and np.array_equal(q.data, p.data)
        with pytest.raises(ValueError):
            q.data += 1.0
        with pytest.raises(StateError):
            q.data = q.data + 1.0
        live = clone(Parameter("v", np.zeros(2)))
        assert not live.frozen and live.data.flags.writeable

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0, None, "a"])
    def test_a_learning_rate_that_is_not_finite_and_positive_is_rejected(self, lr):
        p = Parameter("w", np.array([1.0, 2.0]))
        with pytest.raises(ConfigError, match="learning rate must be finite and positive"):
            Adam([p], lr=lr)

    def test_frozen_parameter_unchanged(self):
        p = Parameter("w", np.array([1.0, 2.0]))
        p.freeze()
        p.grad = np.array([5.0, 5.0])
        before = p.data.copy()
        Adam([p], lr=0.1).step()
        assert np.array_equal(p.data, before)
        assert p.grad is None

    def test_first_step_hand_derived(self):
        # One Adam step with g=1, lr=0.1: m_hat=1, v_hat=1, so the update is
        # -0.1/(1+eps), slightly smaller in magnitude than 0.1.
        p = Parameter("w", np.array([0.0]))
        p.grad = np.array([1.0])
        opt = Adam([p], lr=0.1)
        opt.step()
        expected = -0.1 * 1.0 / (1.0 + Adam.EPS)
        assert p.data[0] == pytest.approx(expected, abs=1e-15)
        assert abs(p.data[0] + 0.1) < 1e-8

    def test_hand_executed_recurrence_three_steps(self):
        rng = np.random.default_rng(14)
        p = Parameter("w", rng.normal(size=4))
        shadow = p.data.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        opt = Adam([p], lr=0.01)
        for step in range(1, 4):
            g = rng.normal(size=4)
            p.grad = g.copy()
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9 ** step)
            v_hat = v / (1 - 0.999 ** step)
            shadow -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.allclose(p.data, shadow, atol=1e-15)

    def test_in_place_update_keeps_the_bits_of_the_formula(self):
        rng = np.random.default_rng(17)
        params = [Parameter("a", rng.normal(size=(3, 5))), Parameter("b", rng.normal(size=7))]
        shadow = [p.data.copy() for p in params]
        m = [np.zeros_like(w) for w in shadow]
        v = [np.zeros_like(w) for w in shadow]
        opt = Adam(params, lr=3e-3)
        for step in range(1, 31):
            grads = [rng.normal(size=w.shape) * 10.0 ** rng.uniform(-6, 2) for w in shadow]
            given = [g.copy() for g in grads]
            for p, g in zip(params, given):
                p.grad = g
            opt.step()
            b1t, b2t = 1.0 - Adam.BETA1 ** step, 1.0 - Adam.BETA2 ** step
            for i, g in enumerate(grads):
                m[i] = Adam.BETA1 * m[i] + (1.0 - Adam.BETA1) * g
                v[i] = Adam.BETA2 * v[i] + (1.0 - Adam.BETA2) * (g * g)
                shadow[i] -= 3e-3 * (m[i] / b1t) / (np.sqrt(v[i] / b2t) + Adam.EPS)
                assert given[i].tobytes() == g.tobytes()  # the gradient array is not written
        for k, p in enumerate(params):
            assert p.data.tobytes() == shadow[k].tobytes()
            assert opt._m[k].tobytes() == m[k].tobytes()
            assert opt._v[k].tobytes() == v[k].tobytes()

    def test_missing_gradient_raises(self):
        p = Parameter("w", np.array([1.0]))
        with pytest.raises(StateError, match="w"):
            Adam([p]).step()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_raises_before_any_update(self, bad):
        rng = np.random.default_rng(16)
        params = [Parameter("a", rng.normal(size=3)), Parameter("b", rng.normal(size=(2, 2)))]
        opt = Adam(params, lr=0.01)
        for p in params:
            p.grad = rng.normal(size=p.shape)
        opt.step()
        for p in params:
            p.grad = rng.normal(size=p.shape)
        params[1].grad[1, 0] = bad
        saved = [(p.data.copy(), m.copy(), v.copy())
                 for p, m, v in zip(params, opt._m, opt._v)]
        with pytest.raises(NumericError, match="parameter b "):
            opt.step()
        assert opt.t == 1
        for p, m, v, (data, m0, v0) in zip(params, opt._m, opt._v, saved):
            assert np.array_equal(p.data, data)
            assert np.array_equal(m, m0) and np.array_equal(v, v0)

    def test_two_runs_bit_identical(self):
        def run():
            rng = np.random.default_rng(15)
            p = Parameter("w", np.zeros(6))
            opt = Adam([p], lr=0.05)
            for _ in range(10):
                p.grad = rng.normal(size=6)
                opt.step()
            return p.data

        assert np.array_equal(run(), run())

    def test_step_counter_increments(self):
        p = Parameter("w", np.array([0.0]))
        opt = Adam([p])
        assert opt.t == 0
        for k in range(1, 4):
            p.grad = np.array([1.0])
            opt.step()
            assert opt.t == k


class TestClipGradNorm:
    def params(self, *grads):
        out = []
        for i, g in enumerate(grads):
            p = Parameter(f"p{i}", np.zeros(len(g)))
            p.grad = np.array(g, dtype=np.float64)
            out.append(p)
        return out

    def test_a_norm_above_max_norm_is_scaled_down_to_it(self):
        params = self.params([3.0, 0.0], [4.0])
        assert ad.clip_grad_norm(params, 1.0) == 5.0
        assert np.allclose(params[0].grad, [0.6, 0.0]) and np.allclose(params[1].grad, [0.8])

    def test_a_norm_within_max_norm_is_left_alone(self):
        params = self.params([3.0, 4.0, 0.0])
        assert ad.clip_grad_norm(params, 5.0) == 5.0
        assert np.array_equal(params[0].grad, [3.0, 4.0, 0.0])

    @pytest.mark.parametrize("max_norm", [0.0, -1.0, float("nan"), float("inf"), None, "1"])
    def test_a_max_norm_that_is_not_finite_and_positive_is_rejected(self, max_norm):
        params = self.params([3.0, 4.0, 0.0])
        with pytest.raises(ConfigError, match="max_norm must be finite and positive"):
            ad.clip_grad_norm(params, max_norm)
        assert np.array_equal(params[0].grad, [3.0, 4.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_norm_raises_before_any_gradient_is_scaled(self, bad):
        params = self.params([30.0, 40.0], [1.0, bad])
        with pytest.raises(NumericError, match="gradient norm"):
            ad.clip_grad_norm(params, 1.0)
        assert np.array_equal(params[0].grad, [30.0, 40.0])


class TestGradCheck:
    def test_quadratic(self):
        x = t([1.0, 2.0])
        assert grad_check(lambda a: total(a * a), [x]) <= 1e-8

    def test_constant_function(self):
        x = t([1.0, 2.0])
        c = Tensor(np.array(3.0))
        zero = Tensor(np.zeros(2))
        assert grad_check(lambda a: add(total(a * zero), c), [x]) == 0.0

    def test_nonfinite_raises(self):
        x = t([1.0])

        def f(a):
            return Tensor(np.array(np.inf), requires_grad=True)

        with pytest.raises(NumericError):
            grad_check(f, [x])


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        x = t([1.0, 2.0])
        with pytest.raises(StateError):
            (x * x).backward()

    def test_grad_accumulates_over_reuse(self):
        x = t([3.0])
        y = add(total(x * x), total(x))
        y.backward()
        assert x.grad[0] == pytest.approx(7.0)

    def test_an_op_without_a_parent_requiring_a_gradient_records_nothing(self):
        x = t([1.0, 2.0], rg=False)
        w = Parameter("w", np.ones((2, 2)))
        w.freeze()
        wx, wh, b = Parameter("wx", np.ones((4, 4))), Parameter("wh", np.ones((1, 4))), \
            Parameter("b", np.ones(4))
        for p in (wx, wh, b):
            p.freeze()
        wb = Parameter("wb", np.ones(2))
        wb.freeze()
        y = t([3.0, 4.0], rg=False)
        outs = [x * x, x * y, relu(x), affine(Tensor(np.ones((1, 2))), w, wb),
                affine(Tensor(np.ones((1, 2))), w, Tensor(np.ones(2))),
                concat(x, x), concat_rows(x, x), glu(Tensor(np.ones((1, 4)))),
                dropout(x, 0.5, np.random.default_rng(0)), gather_rows(w, np.array([1, 0])),
                lstm_seq(Tensor(np.ones((2, 4))), 1, wx, wh, b, [1]),
                softmax_xent(Tensor(np.ones((1, 2))), np.array([0]))]
        assert all(not y.requires_grad and y._parents == () and y._backward is None
                   for y in outs)

    def test_leaf_not_requiring_a_gradient_gets_none(self):
        x = t([1.0, 2.0])
        c = Tensor(np.array([4.0, 5.0]))
        total(x * c).backward()
        assert c.grad is None
        assert x.grad is not None

    def test_gather_rows_gradient(self):
        table = Parameter("e", np.arange(12, dtype=np.float64).reshape(4, 3))
        ids = np.array([1, 1, 3])
        out = gather_rows(table, ids)
        total(out).backward()
        expect = np.zeros((4, 3))
        expect[1] = 2.0
        expect[3] = 1.0
        assert np.array_equal(table.grad, expect)

    @pytest.mark.parametrize("seed", range(3))
    def test_gather_gradients_match_full_size_accumulation_bit_for_bit(self, seed):
        # the reference adds one full-size array per backward into the
        # gradient; repeated ids must be summed before they reach it
        rng = np.random.default_rng(seed)
        table = Parameter("e", rng.normal(size=(5, 3)))
        want = np.zeros(table.shape)
        for _ in range(4):
            ids = rng.integers(0, 5, 8)
            g_rows = rng.normal(size=(8, 3))
            total(gather_rows(table, ids) * Tensor(g_rows)).backward()
            want = want + gather_rows_grad_full(table.shape, ids, g_rows)
        assert table.grad.tobytes() == want.tobytes()

    def test_a_negative_id_gathers_a_zero_row_that_passes_no_gradient(self):
        table = Parameter("e", np.arange(12, dtype=np.float64).reshape(4, 3) + 1.0)
        ids = np.array([-1, 2, -3, 2])
        out = gather_rows(table, ids)
        assert np.array_equal(out.data, [[0.0] * 3, [7.0, 8.0, 9.0], [0.0] * 3, [7.0, 8.0, 9.0]])
        assert np.array_equal(gather_rows(table.data, ids), out.data)
        total(out * Tensor(np.full((4, 3), 2.0))).backward()
        want = np.zeros((4, 3))
        want[2] = 4.0
        assert np.array_equal(table.grad, want)

    @pytest.mark.parametrize("add_first", [True, False])
    def test_parents_of_one_sum_get_separate_gradient_arrays(self, add_first):
        a, b = t([1.0, 2.0]), t([3.0, 4.0])
        terms = [total(add(a, b)), total(a * a)]
        (add(terms[0], terms[1]) if add_first else add(terms[1], terms[0])).backward()
        assert np.array_equal(a.grad, [3.0, 5.0])
        assert np.array_equal(b.grad, [1.0, 1.0])

    def test_second_backward_raises_and_keeps_the_first_gradients(self):
        x = t([3.0])
        y = total(x * x)
        y.backward()
        assert x.grad[0] == 6.0
        with pytest.raises(StateError):
            y.backward()
        assert x.grad[0] == 6.0

    def test_backward_through_a_freed_node_raises_before_any_gradient_moves(self):
        x = t([2.0])
        h = x * x
        first, second = total(h), add(total(h * h), total(x))
        first.backward()
        assert h.grad is None and first.grad is None
        x.grad = None
        with pytest.raises(StateError):
            second.backward()
        assert x.grad is None

    def test_deep_graph_iterative_topo(self):
        x, one = t([1.0]), Tensor(np.ones(1))
        y = x
        for _ in range(5000):
            y = y * one
        total(y).backward()
        assert x.grad[0] == 1.0

    @given(
        st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
        st.integers(0, 2 ** 31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_composite_gradients(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        x, w, b = rand(rng, m, k), rand(rng, k, n), rand(rng, n)

        def f(xx, ww, bb):
            out = tanh(affine(xx, ww, bb))
            return total(out * out)

        assert grad_check(f, [x, w, b]) <= 1e-4


def saturated_tanh_case():
    """A composite where x[11]'s gradient is -2.69e-8 and |f| is 3.23: the
    central difference is off by 1.1e-11 from round-off alone, a relative
    error of 4.1e-4 without the round-off allowance."""
    rng = np.random.default_rng(1031)
    x, w, b = rand(rng, 4, 4), rand(rng, 4, 1), rand(rng, 1)

    def f(xx, ww, bb):
        out = tanh(affine(xx, ww, bb))
        return total(out * out)

    return f, [x, w, b]


class TestGradCheckRoundoff:
    def test_near_zero_gradient_passes(self):
        f, inputs = saturated_tanh_case()
        assert abs(f(*inputs).item()) == pytest.approx(3.23, abs=0.01)
        assert grad_check(f, inputs) <= 1e-4

    def test_perturbed_gradient_still_caught(self):
        f, inputs = saturated_tanh_case()
        x = inputs[0]

        def wrong(xx, ww, bb):
            out = f(xx, ww, bb)
            right = out._backward

            def back(g):
                right(g)
                bump = np.zeros_like(x.data)
                bump.flat[11] = 1e-3
                x._accum(bump)

            out._backward = back
            return out

        assert grad_check(wrong, inputs) > 1e-4


def test_params_checksum_sensitivity():
    p1 = Parameter("a", np.array([1.0, 2.0]))
    p2 = Parameter("b", np.array([3.0]))
    base = ad.params_checksum([p1, p2])
    assert ad.params_checksum([p2, p1]) == base  # order independent
    p1.data[0] = 1.0 + 1e-15
    assert ad.params_checksum([p1, p2]) != base
