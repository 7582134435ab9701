from dataclasses import astuple

import numpy as np
import pytest

from fedbalance import federation
from fedbalance.federation import (
    ClientState,
    EncodedSet,
    ServerState,
    TrainHyper,
    build_personalization_set,
    evaluate_clients,
    fedavg,
    run_global_round,
    train_on,
)
from fedbalance.gcae import (
    ArchSpec,
    ConvStage,
    decode,
    encode,
    evaluate_loss,
    head_scores,
    init_model,
    train_head_step,
)
from fedbalance.metrics import accuracy, roc_auc_macro, sample_std
from fedbalance.resampling import SamplerSpec

ARCH = ArchSpec(input_len=8, num_classes=3, stages=(ConvStage(3, 3, 2),),
                latent_dim=4, mlp_hidden=(5,))


def make_model(seed=0):
    return init_model(ARCH, np.random.default_rng(seed))


def fill(model, value):
    for k in model.params:
        model.params[k][:] = value
    return model


def random_batch(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 8)).astype(np.float32), rng.integers(0, 3, size=n)


# --- fedavg ---


def test_fedavg_single_model_is_identity():
    m = make_model(1)
    avg = fedavg([m], [17])
    for k in m.params:
        assert np.array_equal(avg.params[k], m.params[k])


def test_fedavg_identical_models_average_to_themselves():
    m = make_model(2)
    avg = fedavg([m, m.copy(), m.copy()], [5, 1, 9])
    for k in m.params:
        assert np.array_equal(avg.params[k], m.params[k])


def test_fedavg_opposite_models_cancel():
    a = fill(make_model(), 0.5)
    b = fill(make_model(), -0.5)
    avg = fedavg([a, b], [3, 3])
    for k in avg.params:
        assert np.allclose(avg.params[k], 0.0, atol=1e-6)


def test_fedavg_weighted_mean_example():
    # params 1, 2, 3 with counts 1, 2, 3 average to 14/6
    models = [fill(make_model(), float(v)) for v in (1, 2, 3)]
    avg = fedavg(models, [1, 2, 3])
    for k in avg.params:
        assert np.allclose(avg.params[k], 14.0 / 6.0, atol=1e-6)


def test_fedavg_is_bitwise_deterministic():
    models = [make_model(s) for s in range(4)]
    a = fedavg(models, [2, 3, 4, 5])
    b = fedavg(models, [2, 3, 4, 5])
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])


def test_fedavg_permutation_agrees_within_tolerance():
    models = [make_model(s) for s in range(4)]
    counts = [2, 3, 4, 5]
    a = fedavg(models, counts)
    b = fedavg(models[::-1], counts[::-1])
    for k in a.params:
        assert np.allclose(a.params[k], b.params[k], atol=1e-6)


def test_fedavg_rejects_bad_input():
    m = make_model()
    with pytest.raises(ValueError):
        fedavg([], [])
    with pytest.raises(ValueError):
        fedavg([m, m.copy()], [1])
    with pytest.raises(ValueError, match="positive"):
        fedavg([m, m.copy()], [1, 0])
    other = init_model(ArchSpec(input_len=8, num_classes=4, stages=(ConvStage(3, 3, 2),),
                                latent_dim=4, mlp_hidden=(5,)), np.random.default_rng(0))
    with pytest.raises(ValueError, match="mismatched"):
        fedavg([m, other], [1, 1])
    # a diverged client's NaN must not become the global model
    diverged = m.copy()
    name = list(diverged.params)[-1]
    diverged.params[name][0] = np.nan
    with pytest.raises(FloatingPointError, match=f"non-finite FedAvg mean of parameter {name}$"):
        fedavg([m, diverged], [1, 1])


# --- state containers ---


def test_client_state_rejects_overlapping_splits():
    with pytest.raises(ValueError, match="overlap"):
        ClientState(0, make_model(), np.array([0, 1, 2]), np.array([2, 3]))
    with pytest.raises(ValueError, match="overlap"):
        ClientState(0, make_model(), np.array([9, 40]), np.array([40]))
    # disjoint splits, in any order and with an empty side, are accepted
    ClientState(0, make_model(), np.array([7, 3, 12]), np.array([0, 11, 4]))
    ClientState(0, make_model(), np.array([5]), np.array([], dtype=np.int64))


def test_server_state_defaults_and_validation():
    clients = [ClientState(i, make_model(i), np.array([i]), np.array([i + 10]))
               for i in range(3)]
    s = ServerState(make_model(), clients)
    assert s.rs_test_acc == s.rs_test_auc == s.rs_train_loss == []
    other = init_model(ArchSpec(input_len=8, num_classes=4, stages=(ConvStage(3, 3, 2),),
                                latent_dim=4, mlp_hidden=(5,)), np.random.default_rng(0))
    with pytest.raises(ValueError, match="arch differs"):
        ServerState(other, clients)
    with pytest.raises(ValueError, match="aligned"):
        ServerState(make_model(), clients, rs_test_acc=[0.5], rs_test_auc=[])


def test_hyper_validation():
    with pytest.raises(ValueError):
        TrainHyper(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainHyper(batch_size=0)


# --- local training and global rounds ---


def test_train_on_is_seed_deterministic():
    x, y = random_batch(20, seed=3)
    hyper = TrainHyper(learning_rate=0.05, batch_size=8, local_epochs=2)
    m1, m2 = make_model(5), make_model(5)
    l1 = train_on(m1, x, y, hyper, np.random.default_rng(11))
    l2 = train_on(m2, x, y, hyper, np.random.default_rng(11))
    assert l1 == l2
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k])
    with pytest.raises(ValueError):
        train_on(make_model(), x[:0], y[:0], hyper, np.random.default_rng(0))


def _toy_server(n_per_client=10, seed=4):
    rng = np.random.default_rng(seed)
    n_clients = 3
    features = rng.normal(size=(n_clients * n_per_client, 8))
    labels = rng.integers(0, 3, size=len(features))
    gm = make_model(seed)
    clients = []
    for i in range(n_clients):
        rows = np.arange(i * n_per_client, (i + 1) * n_per_client)
        clients.append(ClientState(i, gm.copy(), rows[:-2], rows[-2:]))
    return ServerState(gm, clients), features, labels


def test_global_round_aggregates_client_models():
    server, X, y = _toy_server()
    hyper = TrainHyper(learning_rate=0.05, batch_size=4)
    mean_loss = run_global_round(server, X, y, hyper, lambda cid: np.random.default_rng(cid))
    assert server.rs_train_loss == [mean_loss]
    expected = fedavg([c.model for c in server.clients],
                      [len(c.train_indices) for c in server.clients])
    for k in expected.params:
        assert np.array_equal(server.global_model.params[k], expected.params[k])


def test_global_round_skips_empty_client_with_warning():
    server, X, y = _toy_server()
    server.clients[0].train_indices = np.array([], dtype=np.int64)
    with pytest.warns(UserWarning, match="no fold-train data"):
        run_global_round(server, X, y, TrainHyper(), lambda cid: np.random.default_rng(cid))
    for c in server.clients:
        c.train_indices = np.array([], dtype=np.int64)
    with pytest.raises(ValueError, match="nothing to aggregate"), pytest.warns(UserWarning):
        run_global_round(server, X, y, TrainHyper(), lambda cid: np.random.default_rng(cid))


# --- personalization ---


def test_personalization_set_balances_in_latent_space():
    rng = np.random.default_rng(6)
    X = np.vstack([rng.normal(size=(20, 8)), rng.normal(size=(4, 8)) + 2.0])
    y = np.array([0] * 20 + [1] * 4)
    model = make_model(2)
    out = build_personalization_set(model, X, y, SamplerSpec(kind="smote"),
                                    np.random.default_rng(0))
    assert np.bincount(out.labels).tolist() == [20, 20]
    # originals keep their raw features; synthetics decode from latent space
    originals = ~out.resampled.is_synthetic
    assert np.array_equal(out.features[originals],
                          X[out.resampled.source_indices[originals]].astype(np.float32))
    synth_latent = out.resampled.features[out.resampled.is_synthetic]
    assert np.array_equal(out.features[out.resampled.is_synthetic],
                          decode(model, synth_latent))
    # and the latent rows really are the model's encodings
    assert np.allclose(out.resampled.features[originals], encode(model, X), atol=1e-6)


def test_personalization_set_single_class_passthrough():
    X = np.random.default_rng(0).normal(size=(6, 8))
    y = np.zeros(6, dtype=np.int64)
    with pytest.warns(UserWarning, match="single-class"):
        out = build_personalization_set(make_model(), X, y, SamplerSpec(kind="smote"),
                                        np.random.default_rng(0))
    assert out.resampled is None
    assert np.array_equal(out.features, X.astype(np.float32))
    assert np.array_equal(out.labels, y)


# --- evaluation ---


def test_evaluate_clients_closed_form():
    """Zero-weight models predict class 0 with all-equal scores, so accuracy
    is each test split's class-0 share and every AUC is exactly 0.5."""
    zero = fill(make_model(), 0.0)
    models = [zero.copy() for _ in range(3)]
    x = np.zeros((4, 8), dtype=np.float32)
    test_sets = [
        EncodedSet(models[0], x, np.array([0, 0, 0, 1])),  # accuracy 0.75
        EncodedSet(models[1], x, np.array([0, 0, 1, 1])),  # accuracy 0.50
        EncodedSet(models[2], x, np.array([0, 1, 1, 1])),  # accuracy 0.25
    ]
    train_sets = [EncodedSet(m, x, np.array([0, 1, 2, 0])) for m in models]
    out = evaluate_clients(test_sets, train_sets)
    assert out.test_accuracy == pytest.approx(0.5)
    assert out.std_test_accuracy == pytest.approx(0.25)
    assert out.test_auc == pytest.approx(0.5)
    assert out.std_test_auc == 0.0
    # equal scores: CE is exactly log(num_classes), MSE is mean(x^2) = 0
    assert out.train_loss == pytest.approx(np.log(3), rel=1e-6)


def test_evaluate_clients_single_client_has_zero_std():
    m = make_model(1)
    x, y = random_batch(10, seed=2)
    out = evaluate_clients([EncodedSet(m, x, y)], [EncodedSet(m, x, y)])
    assert out.std_test_accuracy == 0.0 and out.std_test_auc == 0.0


def test_evaluate_clients_exclusions():
    """Warnings name a client by its position in the lists."""
    x, y = random_batch(8, seed=3)
    models = [make_model(1), make_model(1)]

    def sets(*rows):
        return [EncodedSet(m, *r) for m, r in zip(models, rows)]

    empty = (x[:0], y[:0])
    trains = sets((x, y), (x, y))
    with pytest.warns(UserWarning, match="client 1 has an empty test split"):
        both = evaluate_clients(sets((x, y), (x, y)), trains)
        out = evaluate_clients(sets((x, y), empty), trains)
    assert out.test_accuracy == both.test_accuracy and out.std_test_accuracy == 0.0
    single = (x, np.zeros(8, dtype=np.int64))
    with pytest.warns(UserWarning, match="client 1 test split is single-class"):
        out = evaluate_clients(sets((x, y), single), trains)
    assert 0.0 <= out.test_auc <= 1.0
    with pytest.raises(ValueError, match="no client had test data"), pytest.warns(UserWarning):
        evaluate_clients(sets(empty, empty), trains)


def test_evaluate_clients_weights_by_sample_count():
    zero = fill(make_model(), 0.0)
    models = [zero.copy(), zero.copy()]
    x2 = np.zeros((2, 8), dtype=np.float32)
    x6 = np.zeros((6, 8), dtype=np.float32)
    rows = [(x2, np.array([0, 1])),                  # acc 0.5, weight 2
            (x6, np.array([0, 0, 0, 0, 0, 1]))]      # acc 5/6, weight 6
    out = evaluate_clients([EncodedSet(m, *r) for m, r in zip(models, rows)],
                           [EncodedSet(m, *r) for m, r in zip(models, rows)])
    assert out.test_accuracy == pytest.approx((0.5 * 2 + 5 / 6 * 6) / 8)


def test_evaluate_clients_without_train_sets_scores_no_loss(monkeypatch):
    x, y = random_batch(10, seed=2)
    models = [make_model(1), make_model(1)]
    with_loss = evaluate_clients([EncodedSet(m, x, y) for m in models],
                                 [EncodedSet(m, x, y) for m in models])

    def refuse(*a, **k):
        raise AssertionError("a training loss was computed without train sets")

    for name in ("evaluate_loss", "evaluate_head_loss", "decode"):
        monkeypatch.setattr(federation, name, refuse)
    out = evaluate_clients([EncodedSet(m, x, y) for m in models])
    assert out.train_loss is None
    assert astuple(out)[:4] == astuple(with_loss)[:4]


def _counting(monkeypatch, *names):
    """Wrap federation's ``names`` to count their calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        inner = getattr(federation, name)

        def counted(*a, _name=name, _inner=inner, **k):
            calls[_name] += 1
            return _inner(*a, **k)

        monkeypatch.setattr(federation, name, counted)
    return calls


def test_encoded_sets_score_as_fresh_pairs_and_encode_once(monkeypatch):
    """Sets scored a second time, on their kept codes, give the very summary
    that fresh sets over the same (features, labels) pairs give; the codes
    and the MSE are computed by the first evaluation only."""
    x, y = random_batch(40, seed=4)
    models = [make_model(3), make_model(4)]
    pairs = [(x[:25], y[:25]), (x[25:], y[25:])]

    def fresh():
        return [EncodedSet(m, *p) for m, p in zip(models, pairs)]

    want = evaluate_clients(fresh(), fresh())
    calls = _counting(monkeypatch, "encode", "decode")
    tests, trains = fresh(), fresh()
    assert evaluate_clients(tests, trains) == want
    assert calls == {"encode": 4, "decode": 2}
    assert evaluate_clients(tests, trains) == want
    assert calls == {"encode": 4, "decode": 2}


def test_empty_train_set_adds_no_loss():
    """A client with no training rows is left out of train_loss; the other
    client's loss is the mean."""
    x, y = random_batch(20, seed=7)
    models = [make_model(3), make_model(4)]
    trains = [EncodedSet(models[0], x[:0], y[:0]), EncodedSet(models[1], x, y)]
    out = evaluate_clients([EncodedSet(m, x, y) for m in models], trains)
    assert out.train_loss == evaluate_loss(models[1], x, y)[0]


def test_no_loss_names_its_cause_when_only_untested_clients_have_material():
    """Client 0 has a test split and no training rows, client 1 training
    rows and an empty test split, which excludes its material too: the error
    names that pairing, not a lack of material."""
    x, y = random_batch(20, seed=7)
    models = [make_model(3), make_model(4)]
    tests = [EncodedSet(models[0], x, y), EncodedSet(models[1], x[:0], y[:0])]
    trains = [EncodedSet(models[0], x[:0], y[:0]), EncodedSet(models[1], x, y)]
    with (pytest.raises(ValueError, match="^no client had both a test split and training "
                                          "material$"),
          pytest.warns(UserWarning, match="client 1 has an empty test split")):
        evaluate_clients(tests, trains)


def test_encoded_set_is_scored_by_its_own_model():
    """Sets of two different models, in one evaluation, are each scored by
    the model that encodes them."""
    x, y = random_batch(30, seed=5)
    models = [make_model(1), make_model(2)]
    rows = [(x[:14], y[:14]), (x[14:], y[14:])]
    out = evaluate_clients([EncodedSet(m, *r) for m, r in zip(models, rows)])
    accs, aucs = [], []
    for m, (xs, ys) in zip(models, rows):
        scores = head_scores(m, encode(m, xs))
        accs.append(accuracy(np.argmax(scores, axis=1), ys))
        aucs.append(roc_auc_macro(federation._softmax(scores), ys))
    assert accs[0] != accs[1]
    assert out.test_accuracy == pytest.approx(np.average(accs, weights=[14, 16]))
    assert out.std_test_accuracy == pytest.approx(sample_std(accs))
    assert out.test_auc == pytest.approx(np.average(aucs, weights=[14, 16]))
    assert out.std_test_auc == pytest.approx(sample_std(aucs))


def test_train_on_head_only_steps_the_head_on_codes():
    """A head-only train_on is one train_head_step per shuffled batch of the
    codes, the trailing partial batch included."""
    x, y = random_batch(21, seed=6)
    hyper = TrainHyper(learning_rate=0.1, batch_size=8, local_epochs=2)
    model, ref = make_model(2), make_model(2)
    z = encode(model, x)
    got = train_on(model, z, y, hyper, np.random.default_rng(9), head_only=True)
    rng, total = np.random.default_rng(9), 0.0
    for _ in range(2):
        order = rng.permutation(21)
        for start in range(0, 21, 8):
            idx = order[start:start + 8]
            total += train_head_step(ref, z[idx], y[idx], 0.1) * len(idx)
    assert got == total / 42
    for name, p in ref.params.items():
        assert np.array_equal(model.params[name], p)
