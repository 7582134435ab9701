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
    forward,
    init_model,
    train_head_step,
)
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


# --- state containers ---


def test_client_state_rejects_overlapping_splits():
    with pytest.raises(ValueError, match="overlap"):
        ClientState(0, make_model(), np.array([0, 1, 2]), np.array([2, 3]))


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
    clients = [ClientState(i, zero.copy(), np.array([100 + i]), np.array([200 + i]))
               for i in range(3)]
    x = np.zeros((4, 8), dtype=np.float32)
    test_sets = [
        (x, np.array([0, 0, 0, 1])),  # accuracy 0.75
        (x, np.array([0, 0, 1, 1])),  # accuracy 0.50
        (x, np.array([0, 1, 1, 1])),  # accuracy 0.25
    ]
    train_sets = [(x, np.array([0, 1, 2, 0])) for _ in range(3)]
    out = evaluate_clients(clients, test_sets, train_sets)
    assert out.accuracy == pytest.approx(0.5)
    assert out.std_accuracy == pytest.approx(0.25)
    assert out.auc == pytest.approx(0.5)
    assert out.std_auc == 0.0
    # equal scores: CE is exactly log(num_classes), MSE is mean(x^2) = 0
    assert out.train_loss == pytest.approx(np.log(3), rel=1e-6)


def test_evaluate_clients_single_client_has_zero_std():
    m = make_model(1)
    clients = [ClientState(0, m, np.array([0]), np.array([1]))]
    x, y = random_batch(10, seed=2)
    out = evaluate_clients(clients, [(x, y)], [(x, y)])
    assert out.std_accuracy == 0.0 and out.std_auc == 0.0


def test_evaluate_clients_exclusions():
    m = make_model(1)
    x, y = random_batch(8, seed=3)
    clients = [ClientState(i, m.copy(), np.array([0]), np.array([1])) for i in range(2)]
    empty = (x[:0], y[:0])
    with pytest.warns(UserWarning, match="empty test split"):
        both = evaluate_clients(clients, [(x, y), (x, y)], [(x, y), (x, y)])
        out = evaluate_clients(clients, [(x, y), empty], [(x, y), (x, y)])
    assert out.accuracy == both.accuracy and out.std_accuracy == 0.0
    single = (x, np.zeros(8, dtype=np.int64))
    with pytest.warns(UserWarning, match="single-class"):
        out = evaluate_clients(clients, [(x, y), single], [(x, y), (x, y)])
    assert 0.0 <= out.auc <= 1.0
    with pytest.raises(ValueError, match="no client had test data"), pytest.warns(UserWarning):
        evaluate_clients(clients, [empty, empty], [(x, y), (x, y)])


def test_evaluate_clients_weights_by_sample_count():
    zero = fill(make_model(), 0.0)
    clients = [ClientState(i, zero.copy(), np.array([10 + i]), np.array([20 + i]))
               for i in range(2)]
    x2 = np.zeros((2, 8), dtype=np.float32)
    x6 = np.zeros((6, 8), dtype=np.float32)
    test_sets = [(x2, np.array([0, 1])),                 # acc 0.5, weight 2
                 (x6, np.array([0, 0, 0, 0, 0, 1]))]     # acc 5/6, weight 6
    train_sets = [(x2, np.array([0, 1])), (x6, np.array([0, 0, 0, 0, 0, 1]))]
    out = evaluate_clients(clients, test_sets, train_sets)
    assert out.accuracy == pytest.approx((0.5 * 2 + 5 / 6 * 6) / 8)


def test_evaluate_clients_without_train_sets_scores_no_loss(monkeypatch):
    m = make_model(1)
    x, y = random_batch(10, seed=2)
    clients = [ClientState(i, m.copy(), np.array([0]), np.array([1])) for i in range(2)]
    with_loss = evaluate_clients(clients, [(x, y), (x, y)], [(x, y), (x, y)])

    def refuse(*a, **k):
        raise AssertionError("a training loss was computed without train sets")

    for name in ("evaluate_loss", "evaluate_head_loss", "decode"):
        monkeypatch.setattr(federation, name, refuse)
    out = evaluate_clients(clients, [(x, y), (x, y)])
    assert out.train_loss is None
    assert (out.accuracy, out.auc, out.std_accuracy, out.std_auc) == (
        with_loss.accuracy, with_loss.auc, with_loss.std_accuracy, with_loss.std_auc)


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
    """Scoring on kept codes gives the very summary that encoding the pairs
    afresh gives; the codes and the MSE are computed by the first
    evaluation only."""
    x, y = random_batch(40, seed=4)
    models = [make_model(3), make_model(4)]
    clients = [ClientState(i, m, np.array([0]), np.array([1])) for i, m in enumerate(models)]
    pairs = [(x[:25], y[:25]), (x[25:], y[25:])]
    fresh = evaluate_clients(clients, pairs, pairs)
    calls = _counting(monkeypatch, "encode", "decode")
    tests = [EncodedSet(m, *p) for m, p in zip(models, pairs)]
    trains = [EncodedSet(m, *p) for m, p in zip(models, pairs)]
    assert evaluate_clients(clients, tests, trains) == fresh
    assert calls == {"encode": 4, "decode": 2}
    assert evaluate_clients(clients, tests, trains) == fresh
    assert calls == {"encode": 4, "decode": 2}


@pytest.mark.parametrize("wrap", (False, True), ids=("pair", "encoded"))
def test_empty_train_set_adds_no_loss(wrap):
    """A client with no training rows, given as a pair or as an EncodedSet,
    is left out of train_loss; the other client's loss is the mean."""
    x, y = random_batch(20, seed=7)
    models = [make_model(3), make_model(4)]
    clients = [ClientState(i, m, np.array([0]), np.array([1])) for i, m in enumerate(models)]
    trains = [(x[:0], y[:0]), (x, y)]
    if wrap:
        trains = [EncodedSet(m, *p) for m, p in zip(models, trains)]
    out = evaluate_clients(clients, [(x, y), (x, y)], trains)
    assert out.train_loss == evaluate_loss(models[1], x, y)[0]


def test_encoded_set_is_scored_by_its_own_model():
    x, y = random_batch(10, seed=5)
    clients = [ClientState(0, make_model(1), np.array([0]), np.array([1]))]
    with pytest.raises(ValueError, match="another model encoded"):
        evaluate_clients(clients, [EncodedSet(make_model(1), x, y)])
    with pytest.raises(ValueError, match="another model encoded"):
        evaluate_clients(clients, [(x, y)], [EncodedSet(clients[0].model.copy(), x, y)])


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
