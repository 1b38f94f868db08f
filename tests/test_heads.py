import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from egoforge.errors import TrainingDiverged
from egoforge.heads import (
    HEAD_KINDS,
    MAX_EPOCHS,
    LinearHead,
    REGRESSION_DIM,
    SgdConfig,
    classifier_probs,
    cross_entropy,
    finite_difference_grad,
    head_forward,
    joint_targets,
    l1_loss,
    new_head,
    predict_labels,
    softmax,
    train_head,
)
from egoforge.heads import _descend, _dual_is_cheaper
from egoforge.model import ActionLabel


def test_new_head_shapes():
    reg = new_head("regression_20", in_dim=6, seed=0)
    assert reg.weight.shape == (REGRESSION_DIM, 6)
    assert reg.bias.shape == (REGRESSION_DIM,)
    assert np.all(reg.bias == 0)
    clf = new_head("classifier_C", in_dim=6, seed=0, z=3, c_v=2, c_n=4)
    assert clf.out_dim == 3 * 2 * 4


def test_new_head_seeded():
    a = new_head("regression_20", in_dim=6, seed=5)
    b = new_head("regression_20", in_dim=6, seed=5)
    assert np.array_equal(a.weight, b.weight)
    c = new_head("regression_20", in_dim=6, seed=6)
    assert not np.array_equal(a.weight, c.weight)


@pytest.mark.parametrize("seed", [-1, 1.5, "0", None])
def test_bad_seed_is_refused(seed):
    with pytest.raises(ValueError, match="^seed must be an int >= 0$"):
        new_head("regression_20", in_dim=6, seed=seed)


def test_regression_head_rejects_class_counts():
    with pytest.raises(ValueError):
        LinearHead(kind="regression_20", weight=np.zeros((20, 4)), bias=np.zeros(20), z=2)


def test_classifier_out_dim_checked():
    with pytest.raises(ValueError):
        LinearHead(
            kind="classifier_C", weight=np.zeros((7, 4)), bias=np.zeros(7), z=2, c_v=2, c_n=2
        )


def test_head_forward_single_and_batch():
    head = LinearHead(
        kind="regression_20",
        weight=np.eye(20, 4),
        bias=np.arange(20, dtype=float),
    )
    x = np.arange(4, dtype=float)
    single = head_forward(head, x)
    assert single[0] == 0.0 + 0.0
    assert single[1] == 1.0 + 1.0
    batch = head_forward(head, np.stack([x, x]))
    assert batch.shape == (2, 20)
    assert np.array_equal(batch[0], single)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    logits = np.array([[1.0, 2.0, 3.0], [1000.0, 1000.0, 1000.0]])
    p = softmax(logits)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.allclose(p[1], 1 / 3)
    shifted = softmax(logits + 250.0)
    assert np.allclose(p, shifted)


class TestClassifierProbs:
    def _head(self, seed=0):
        return new_head("classifier_C", in_dim=5, seed=seed, z=3, c_v=2, c_n=4)

    def test_marginals_are_proper_rows(self):
        head = self._head()
        x = np.random.default_rng(0).standard_normal(5)
        m = classifier_probs(head, x)
        assert m.verb.shape == (3, 2)
        assert m.noun.shape == (3, 4)
        assert np.allclose(m.verb.sum(axis=1), 1.0)
        assert np.allclose(m.noun.sum(axis=1), 1.0)

    def test_joint_and_independent_modes_can_disagree(self):
        # Construct one position whose joint argmax differs from the pair of
        # marginal argmaxes: mass 0.4 at (0,1)/(1,0), 0.2 at (1,1) with a
        # slight tilt; marginals prefer (1,1) jointly worth less.
        head = LinearHead(
            kind="classifier_C",
            weight=np.zeros((4, 1)),
            bias=np.log(np.array([0.05, 0.40, 0.39, 0.16])),
            z=1,
            c_v=2,
            c_n=2,
        )
        x = np.zeros(1)
        joint = predict_labels(head, x, mode="joint")
        indep = predict_labels(head, x, mode="independent")
        # Joint picks (0,1) at 0.40; marginals: verb 1 has 0.55, noun 1 has 0.56.
        assert joint == (ActionLabel(verb_id=0, noun_id=1),)
        assert indep == (ActionLabel(verb_id=1, noun_id=1),)

    def test_modes_share_the_same_marginals(self):
        head = self._head(seed=2)
        x = np.random.default_rng(1).standard_normal(5)
        m = classifier_probs(head, x)
        indep = predict_labels(head, x, mode="independent")
        for pos, label in enumerate(indep):
            assert label.verb_id == int(np.argmax(m.verb[pos]))
            assert label.noun_id == int(np.argmax(m.noun[pos]))


class TestLosses:
    def test_l1_value_and_grad(self):
        pred = np.array([1.0, -2.0, 0.5])
        target = np.array([0.0, 0.0, 0.5])
        loss, grad = l1_loss(pred, target)
        assert loss == pytest.approx(1.0)
        assert grad.tolist() == [1 / 3, -1 / 3, 0.0]

    def test_cross_entropy_uniform(self):
        logits = np.zeros((2, 4))
        targets = np.array([0, 3])
        loss, grad = cross_entropy(logits, targets)
        assert loss == pytest.approx(np.log(4))
        assert grad.shape == (2, 4)
        assert grad[0, 0] == pytest.approx((0.25 - 1.0) / 2)
        assert grad[0, 1] == pytest.approx(0.25 / 2)

    def test_cross_entropy_extreme_logits_stable(self):
        logits = np.array([[1000.0, 0.0]])
        loss, _ = cross_entropy(logits, np.array([0]))
        assert loss == pytest.approx(0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_l1_grad_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.standard_normal(12)
        target = rng.standard_normal(12)

        def fn(p):
            return l1_loss(p, target)[0]

        analytic = l1_loss(pred, target)[1]
        numeric = finite_difference_grad(fn, pred)
        assert np.max(np.abs(analytic - numeric)) < 1e-6

    @pytest.mark.parametrize("seed", range(20))
    def test_ce_grad_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((3, 5))
        targets = rng.integers(0, 5, size=3)

        def fn(flat):
            return cross_entropy(flat.reshape(3, 5), targets)[0]

        analytic = cross_entropy(logits, targets)[1].ravel()
        numeric = finite_difference_grad(fn, logits.ravel())
        denom = np.maximum(np.abs(analytic), np.abs(numeric))
        rel = np.abs(analytic - numeric) / np.maximum(denom, 1e-8)
        assert np.max(rel) < 1e-4


def test_joint_targets_flattens_pairs():
    seqs = [[ActionLabel(verb_id=1, noun_id=2), ActionLabel(verb_id=0, noun_id=3)]]
    t = joint_targets(seqs, c_n=4)
    assert t.shape == (1, 2)
    assert t.tolist() == [[6, 3]]


def test_joint_targets_past_int64_are_refused():
    # The largest id int64 holds is kept; one more is refused.
    assert joint_targets([[ActionLabel(verb_id=2**62 - 1, noun_id=1)]], c_n=2).tolist() == [[2**63 - 1]]
    with pytest.raises(ValueError, match=r"^joint class ids \(verb \* c_n \+ noun\) must fit in int64$"):
        joint_targets([[ActionLabel(verb_id=2**62, noun_id=0)]], c_n=2)


class TestTraining:
    def _toy_regression(self):
        rng = np.random.default_rng(0)
        w_true = rng.standard_normal((REGRESSION_DIM, 4))
        x = rng.standard_normal((64, 4))
        y = x @ w_true.T
        return x, y

    def test_loss_decreases(self):
        x, y = self._toy_regression()
        head = new_head("regression_20", in_dim=4, seed=0)
        _, losses = train_head(head, x, y, SgdConfig(lr=0.1, momentum=0.9), epochs=50)
        assert losses[-1] < losses[0] * 0.2

    def test_full_batch_training_deterministic(self):
        x, y = self._toy_regression()
        heads = []
        for _ in range(2):
            head = new_head("regression_20", in_dim=4, seed=0)
            trained, _ = train_head(head, x, y, SgdConfig(lr=0.05, momentum=0.9), epochs=10)
            heads.append(trained)
        assert np.array_equal(heads[0].weight, heads[1].weight)
        assert np.array_equal(heads[0].bias, heads[1].bias)

    @pytest.mark.parametrize("epochs, text", [(MAX_EPOCHS + 1, "10001"), (10**5000, "1000…0 (5001 digits)")], ids=["one-past", "past-str"])
    def test_epochs_past_the_cap_are_refused(self, epochs, text):
        x, y = self._toy_regression()
        head = new_head("regression_20", in_dim=4, seed=0)
        with pytest.raises(ValueError) as refused:
            train_head(head, x, y, SgdConfig(lr=0.1), epochs=epochs)
        assert str(refused.value) == f"epochs must be at most {MAX_EPOCHS}, got {text}"

    def test_divergence_detected(self):
        # The sign gradient of the L1 loss is bounded, so the step has to
        # overflow float64 outright before the guard can fire.
        x, y = self._toy_regression()
        head = new_head("regression_20", in_dim=4, seed=0)
        with pytest.raises(TrainingDiverged):
            train_head(head, x, y, SgdConfig(lr=1e308, momentum=0.9), epochs=5)

    def test_classifier_training_fits_separable_data(self):
        rng = np.random.default_rng(3)
        # Two clusters mapped to distinct joint labels at each of 2 positions.
        x0 = rng.standard_normal((32, 6)) + np.array([3, 0, 0, 0, 0, 0])
        x1 = rng.standard_normal((32, 6)) - np.array([3, 0, 0, 0, 0, 0])
        x = np.vstack([x0, x1])
        t = np.vstack([np.tile([0, 1], (32, 1)), np.tile([5, 4], (32, 1))])
        head = new_head("classifier_C", in_dim=6, seed=0, z=2, c_v=2, c_n=3)
        trained, losses = train_head(head, x, t, SgdConfig(lr=0.5, momentum=0.9), epochs=60)
        assert losses[-1] < 0.1
        pred = predict_labels(trained, x0[0], mode="joint")
        assert pred == (ActionLabel(verb_id=0, noun_id=0), ActionLabel(verb_id=0, noun_id=1))


# ---------------------------------------------------------------------------
# Equality with the allocating training loops.
#
# _ref_train_head is the loop train_head replaced, kept verbatim but for its
# input checks and the minibatches it no longer takes: it computed the
# softmax's exp apart from the loss's, and allocated new arrays for every
# update. _ref_train_dual is the same loop on the coefficients of the dual
# form. Each form of the in-place loop must make the same floating-point
# operations in the same order as its reference, so weights, biases and
# losses are compared for exact equality. Both sides run on the same BLAS,
# which keeps the comparison independent of the machine. The two forms
# agree with each other to rounding only.
# ---------------------------------------------------------------------------


def _ref_softmax(logits, axis=-1):
    arr = np.asarray(logits, dtype=np.float64)
    shifted = arr - arr.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _ref_l1_loss(pred, target):
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    diff = p - t
    return float(np.abs(diff).mean()), np.sign(diff) / diff.size


def _ref_cross_entropy(logits, targets):
    arr = np.asarray(logits, dtype=np.float64)
    idx = np.asarray(targets)
    m = arr.shape[0]
    shifted = arr - arr.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    loss = float((log_z - shifted[np.arange(m), idx]).mean())
    grad = _ref_softmax(arr, axis=1)
    grad[np.arange(m), idx] -= 1.0
    return loss, grad / m


def _ref_loss(head, out, t):
    """Loss and output gradient of one full batch of outputs (n, out_dim)."""
    if head.kind == "regression_20":
        return _ref_l1_loss(out, t)
    loss, g = _ref_cross_entropy(out.reshape(-1, head.c_v * head.c_n), t.reshape(-1))
    return loss, g.reshape(out.shape)


def _ref_train_head(head, inputs, targets, config, epochs):
    x = np.asarray(inputs, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64) if head.kind == "regression_20" else np.asarray(targets)
    weight = head.weight.copy()
    bias = head.bias.copy()
    vel_w = np.zeros_like(weight)
    vel_b = np.zeros_like(bias)
    losses = []
    for epoch in range(epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            loss, g = _ref_loss(head, x @ weight.T + bias, t)
            grad_w = g.T @ x
            grad_b = g.sum(axis=0)
        if not np.isfinite(loss):
            raise TrainingDiverged(epoch, f"loss became {loss!r}")
        vel_w = config.momentum * vel_w - config.lr * grad_w
        vel_b = config.momentum * vel_b - config.lr * grad_b
        weight = weight + vel_w
        bias = bias + vel_b
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            raise TrainingDiverged(epoch, "parameters became non-finite")
        losses.append(loss)
    return weight, bias, losses


def _ref_train_dual(head, inputs, targets, config, epochs):
    # weight = weight0 + coef.T @ x throughout, so x @ weight.T is
    # gram @ coef + x @ weight0.T, and g.T @ x updates coef by g itself.
    x = np.asarray(inputs, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64) if head.kind == "regression_20" else np.asarray(targets)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = x @ x.T
        base = x @ head.weight.T
    coef = np.zeros((x.shape[0], head.out_dim))
    bias = head.bias.copy()
    vel_c = np.zeros_like(coef)
    vel_b = np.zeros_like(bias)
    losses = []
    for epoch in range(epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            loss, g = _ref_loss(head, gram @ coef + base + bias, t)
            grad_b = g.sum(axis=0)
        if not np.isfinite(loss):
            raise TrainingDiverged(epoch, f"loss became {loss!r}")
        vel_c = config.momentum * vel_c - config.lr * g
        vel_b = config.momentum * vel_b - config.lr * grad_b
        coef = coef + vel_c
        bias = bias + vel_b
        if not (np.isfinite(coef).all() and np.isfinite(bias).all()):
            raise TrainingDiverged(epoch, "parameters became non-finite")
        losses.append(loss)
    with np.errstate(over="ignore", invalid="ignore"):
        weight = head.weight + coef.T @ x
    if not np.isfinite(weight).all():
        raise TrainingDiverged(epochs - 1, "parameters became non-finite")
    return weight, bias, losses


def _problem(kind, n, in_dim, seed, z=3, c_v=2, c_n=4):
    """A head and (inputs, targets) whose targets the inputs partly predict."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, in_dim))
    if kind == "regression_20":
        head = new_head(kind, in_dim=in_dim, seed=seed)
        t = x @ rng.standard_normal((in_dim, REGRESSION_DIM)) * 0.1
    else:
        head = new_head(kind, in_dim=in_dim, seed=seed, z=z, c_v=c_v, c_n=c_n)
        t = np.argmax(x @ rng.standard_normal((in_dim, z * c_v * c_n)), axis=1) % (c_v * c_n)
        t = (t[:, None] + np.arange(z)) % (c_v * c_n)
    return head, x, t


def _assert_same_training(head, x, t, config, epochs, reference=_ref_train_head):
    weight, bias, losses = reference(head, x, t, config, epochs)
    trained, got = train_head(head, x, t, config, epochs)
    assert np.array_equal(trained.weight, weight) and np.array_equal(trained.bias, bias)
    assert got == losses


def _assert_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * np.max(np.abs(want), initial=0.0)


class TestInPlaceTrainingEqualsTheAllocatingLoop:
    # n = 50 >= 2 * 12: the primal form.
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_weights_biases_and_losses(self, kind, momentum, order):
        head, x, t = _problem(kind, n=50, in_dim=12, seed=7)
        x, t = np.asarray(x, order=order), np.asarray(t, order=order)
        lr = 0.05 if kind == "regression_20" else 0.5
        _assert_same_training(head, x, t, SgdConfig(lr=lr, momentum=momentum), epochs=8)

    def test_forecast_fuse_shapes(self):
        # train lta's shapes on the benchmark: 24 videos x 8 clips of 2 x 192
        # stub features, z=20 positions of 5 x 7 (verb, noun) pairs. With
        # 192 rows under twice the width of 384, it trains in the dual form.
        head, x, t = _problem("classifier_C", n=192, in_dim=384, seed=11, z=20, c_v=5, c_n=7)
        assert (x.shape, head.out_dim) == ((192, 384), 700)
        _assert_same_training(head, x, t, SgdConfig(lr=2.0, momentum=0.9), epochs=20, reference=_ref_train_dual)

    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_the_forms_switch_where_the_dual_one_is_cheaper(self, kind):
        # Width 12, 6 epochs, 20 or 24 outputs: 18 rows train in the dual
        # form, 19 in the primal one.
        for n, reference in ((18, _ref_train_dual), (19, _ref_train_head)):
            head, x, t = _problem(kind, n=n, in_dim=12, seed=5)
            _assert_same_training(head, x, t, SgdConfig(lr=0.1, momentum=0.9), epochs=6, reference=reference)

    @pytest.mark.parametrize(
        "shape, dual",
        [
            ((192, 384, 700, 20), True),  # forecast-fuse's train lta
            ((24, 384, 20, 200), True),  # forecast-fuse's train fhp
            ((700, 384, 20, 20), False),  # fhp over 700 videos: the Gram work outweighs the epochs
            ((710, 384, 700, 20), True),  # lta over 710 clips: 0.86 of the primal time, measured
            ((816, 384, 700, 20), False),  # 1.17 of the primal time, measured
            ((5, 384, 700, 0), False),  # no epoch to amortize x @ x.T
            ((2, 1, 20, MAX_EPOCHS), False),  # n >= 2 * in_dim
        ],
    )
    def test_the_dual_form_is_chosen_by_its_multiply_adds(self, shape, dual):
        assert _dual_is_cheaper(*shape) is dual

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 10**4), in_dim=st.integers(1, 10**4), out_dim=st.integers(1, 10**4), epochs=st.integers(0, MAX_EPOCHS))
    def test_the_dual_form_needs_fewer_rows_than_twice_the_width(self, n, in_dim, out_dim, epochs):
        # epochs * n * n * out_dim alone must stay under the primal's count.
        assert not _dual_is_cheaper(n, in_dim, out_dim, epochs) or n < 2 * in_dim

    @pytest.mark.parametrize("n", [5, 50], ids=["few-rows", "many-rows"])
    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_zero_epochs_return_the_head_bit_for_bit(self, kind, n):
        head, x, t = _problem(kind, n=n, in_dim=12, seed=4)
        x[0, 0] = np.nan  # no epoch runs, so nothing reads it
        trained, losses = train_head(head, x, t, SgdConfig(lr=0.1, momentum=0.9), 0)
        assert losses == [] and trained.weight.tobytes() + trained.bias.tobytes() == head.weight.tobytes() + head.bias.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(HEAD_KINDS),
        in_dim=st.integers(1, 40),
        rows=st.floats(0.0, 1.0, exclude_max=True),
        momentum=st.sampled_from([0.0, 0.9]),
        epochs=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_the_dual_form_agrees_with_the_primal_loop(self, kind, in_dim, rows, momentum, epochs, seed):
        n = 1 + int(rows * (2 * in_dim - 1))  # 1 <= n < 2 * in_dim
        head, x, t = _problem(kind, n=n, in_dim=in_dim, seed=seed)
        config = SgdConfig(lr=0.05 if kind == "regression_20" else 0.5, momentum=momentum)
        weight, bias, losses = _ref_train_head(head, x, t, config, epochs)
        trained, got = _descend(head, x, t, config, epochs, dual=True)
        _assert_close(trained.weight, weight)
        _assert_close(trained.bias, bias)
        _assert_close(got, losses)

    # At unit scale the loss overflows first, inside the quiet forward pass;
    # at 1e10 the step itself overflows, and numpy warns outside it.
    @pytest.mark.parametrize("scale", [1.0, 1e10])
    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_divergence_is_raised_at_the_same_point(self, kind, scale):
        head, x, t = _problem(kind, n=40, in_dim=6, seed=2)
        x = x * scale
        weight, x_before, t_before = head.weight.copy(), x.copy(), t.copy()
        config = SgdConfig(lr=1e308, momentum=0.9)
        raised = []
        for train in (_ref_train_head, train_head):
            with warnings.catch_warnings(record=True) as caught, pytest.raises(TrainingDiverged) as err:
                warnings.simplefilter("always")
                train(head, x, t, config, 6)
            raised.append((err.value.epoch, str(err.value), [(w.category, str(w.message)) for w in caught]))
        assert raised[1] == raised[0]
        assert np.array_equal(head.weight, weight) and np.array_equal(x, x_before) and np.array_equal(t, t_before)

    # A dual run that diverges is rerun in the primal form, so train_head
    # raises at the primal loop's epoch, with its text and numpy's warnings.
    @pytest.mark.parametrize(
        "scale, lr, epochs",
        [(1.0, 1e308, 6), (1e150, 1e160, 6), (1e150, 1e160, 1)],
        ids=["lr-1e308", "coef-then-loss", "weight-formed"],
    )
    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_the_dual_form_diverges_as_the_primal_loop_does(self, kind, scale, lr, epochs):
        # At x ~ 1e150 one step's coef and bias are finite but the weight
        # w0 + coef.T @ x is not: the primal loop breaks in its first step,
        # the dual form in the next epoch's loss or, after one epoch, when it
        # forms the weight. Either way it raises TrainingDiverged.
        head, x, t = _problem(kind, n=10, in_dim=8, seed=2)
        x = x * scale
        config = SgdConfig(lr=lr, momentum=0.9)
        with pytest.raises(TrainingDiverged):
            with np.errstate(all="ignore"):
                _descend(head, x, t, config, epochs, dual=True)
        raised = []
        for train in (_ref_train_head, train_head):
            with warnings.catch_warnings(record=True) as caught, pytest.raises(TrainingDiverged) as err:
                warnings.simplefilter("always")
                train(head, x, t, config, epochs)
            raised.append((err.value.epoch, str(err.value), [(w.category, str(w.message)) for w in caught]))
        assert raised[1] == raised[0]

    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_a_gram_matrix_past_the_float_range_trains_in_the_primal_form(self, kind):
        # At x ~ 1e155, x @ x.T overflows, but the primal logits |x| * |w0|
        # and its steps at lr 1e-156 stay finite, so the head trains.
        head, x, t = _problem(kind, n=10, in_dim=8, seed=2)
        x = x * 1e155
        config = SgdConfig(lr=1e-156, momentum=0.9)
        assert _dual_is_cheaper(10, 8, head.out_dim, 6)
        with pytest.raises(TrainingDiverged, match="^diverged at epoch 0: loss became nan$"):
            _ref_train_dual(head, x, t, config, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_same_training(head, x, t, config, epochs=6)
