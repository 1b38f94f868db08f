import warnings

import numpy as np
import pytest

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
    head = new_head("regression_20", in_dim=6, seed=0)
    with pytest.raises(ValueError, match="^seed must be an int >= 0$"):
        train_head(head, np.zeros((2, 6)), np.zeros((2, REGRESSION_DIM)), SgdConfig(lr=0.1), epochs=1, seed=seed)


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

    def test_minibatch_training_seeded(self):
        x, y = self._toy_regression()
        outs = []
        for _ in range(2):
            head = new_head("regression_20", in_dim=4, seed=0)
            trained, losses = train_head(
                head, x, y, SgdConfig(lr=0.05, momentum=0.9), epochs=5, seed=11, batch_size=16
            )
            outs.append((trained, tuple(losses)))
        assert np.array_equal(outs[0][0].weight, outs[1][0].weight)
        assert outs[0][1] == outs[1][1]

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
# Equality with the allocating training loop.
#
# The reference below is the loop train_head replaced, kept verbatim but
# for its input checks: it copied each batch, computed the softmax's exp
# apart from the loss's, and allocated new arrays for every update. The in-place loop must make the
# same floating-point operations in the same order, so weights, biases and
# losses are compared for exact equality. Both sides run on the same BLAS,
# which keeps the comparison independent of the machine.
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


def _ref_train_head(head, inputs, targets, config, epochs, seed=0, batch_size=None):
    x = np.asarray(inputs, dtype=np.float64)
    n = x.shape[0]
    t = np.asarray(targets, dtype=np.float64) if head.kind == "regression_20" else np.asarray(targets)
    weight = head.weight.copy()
    bias = head.bias.copy()
    vel_w = np.zeros_like(weight)
    vel_b = np.zeros_like(bias)
    rng = np.random.default_rng(seed)
    losses = []
    for epoch in range(epochs):
        if batch_size is None:
            batches = [np.arange(n)]
        else:
            order = rng.permutation(n)
            batches = [order[i : i + batch_size] for i in range(0, n, batch_size)]
        epoch_loss = 0.0
        for idx in batches:
            xb = x[idx]
            with np.errstate(over="ignore", invalid="ignore"):
                if head.kind == "regression_20":
                    pred = xb @ weight.T + bias
                    loss, g = _ref_l1_loss(pred, t[idx])
                    grad_w = g.T @ xb
                    grad_b = g.sum(axis=0)
                else:
                    joint_width = head.c_v * head.c_n
                    logits = (xb @ weight.T + bias).reshape(len(idx) * head.z, joint_width)
                    loss, g = _ref_cross_entropy(logits, t[idx].reshape(-1))
                    flat = g.reshape(len(idx), head.out_dim)
                    grad_w = flat.T @ xb
                    grad_b = flat.sum(axis=0)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch, f"loss became {loss!r}")
            vel_w = config.momentum * vel_w - config.lr * grad_w
            vel_b = config.momentum * vel_b - config.lr * grad_b
            weight = weight + vel_w
            bias = bias + vel_b
            epoch_loss += loss * len(idx)
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            raise TrainingDiverged(epoch, "parameters became non-finite")
        losses.append(epoch_loss / n)
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


def _assert_same_training(head, x, t, config, epochs, **kwargs):
    weight, bias, losses = _ref_train_head(head, x, t, config, epochs, **kwargs)
    trained, got = train_head(head, x, t, config, epochs, **kwargs)
    assert np.array_equal(trained.weight, weight) and np.array_equal(trained.bias, bias)
    assert got == losses


class TestInPlaceTrainingEqualsTheAllocatingLoop:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("batch_size", [None, 16, 1000], ids=["full", "16", "over-n"])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_weights_biases_and_losses(self, kind, momentum, batch_size, order):
        head, x, t = _problem(kind, n=50, in_dim=12, seed=7)
        x, t = np.asarray(x, order=order), np.asarray(t, order=order)
        lr = 0.05 if kind == "regression_20" else 0.5
        _assert_same_training(head, x, t, SgdConfig(lr=lr, momentum=momentum), epochs=8, seed=3, batch_size=batch_size)

    def test_forecast_fuse_shapes(self):
        # train lta's shapes on the benchmark: 24 videos x 8 clips of 2 x 192
        # stub features, z=20 positions of 5 x 7 (verb, noun) pairs.
        head, x, t = _problem("classifier_C", n=192, in_dim=384, seed=11, z=20, c_v=5, c_n=7)
        assert (x.shape, head.out_dim) == ((192, 384), 700)
        _assert_same_training(head, x, t, SgdConfig(lr=2.0, momentum=0.9), epochs=20)

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
