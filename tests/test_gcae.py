import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbalance import gcae
from fedbalance.gcae import (
    _PASS_ROWS,
    ArchSpec,
    ConvStage,
    ModelState,
    _conv_bwd,
    _conv_fwd,
    _ConvPlan,
    _maxpool_bwd,
    _maxpool_fwd,
    _padded,
    _plan,
    _upsample_bwd,
    _upsample_into,
    decode,
    encode,
    evaluate_head_loss,
    evaluate_loss,
    forward,
    grad_check,
    head_scores,
    init_model,
    loss,
    train_head_step,
    train_step,
)
from oracles import (
    conv1d_grads_ref,
    conv1d_ref,
    gcae_forward_ref,
    head_only_step_ref,
    maxpool_grad_ref,
    maxpool_ref,
    upsample_grad_ref,
    upsample_ref,
)

BATCHES = (1, 7, 32, 512)
SLICED_BATCH = 1100  # three inference slices, the last a partial one


def small_arch(input_len=12, **kw):
    kw.setdefault("stages", (ConvStage(4, 3, 2),))
    kw.setdefault("latent_dim", 5)
    kw.setdefault("mlp_hidden", (6,))
    return ArchSpec(input_len=input_len, num_classes=3, **kw)


def randomize_biases(model, rng):
    """Shift biases off zero so no ReLU pre-activation sits exactly at the
    kink, where a finite difference straddles two subgradients."""
    for name, p in model.params.items():
        if name.endswith(".b"):
            p[...] = rng.uniform(-0.1, 0.1, p.shape).astype(p.dtype)
    return model


# --- architecture bookkeeping ---


def test_arch_derived_lengths_even_and_odd():
    a = ArchSpec(input_len=24, num_classes=6)
    assert a.stage_input_lengths == (24, 12)
    assert a.pooled_lengths == (12, 6)
    assert a.flat_dim == 16 * 6
    b = ArchSpec(input_len=25, num_classes=6)  # ceil-mode pooling
    assert b.stage_input_lengths == (25, 13)
    assert b.pooled_lengths == (13, 7)


def test_arch_validation():
    with pytest.raises(ValueError):
        ArchSpec(input_len=0, num_classes=3)
    with pytest.raises(ValueError):
        ArchSpec(input_len=8, num_classes=1)
    with pytest.raises(ValueError):
        ArchSpec(input_len=8, num_classes=3, stages=())
    with pytest.raises(ValueError, match="weights"):
        ArchSpec(input_len=8, num_classes=3, recon_weight=0.0, pred_weight=0.0)
    with pytest.raises(ValueError, match="weights"):
        ArchSpec(input_len=8, num_classes=3, recon_weight=-1.0)


def test_arch_takes_stage_triples_and_names_the_bad_field():
    a = ArchSpec(input_len=8, num_classes=3, stages=[[3, 3, 2]], mlp_hidden=[5])
    assert a == ArchSpec(input_len=8, num_classes=3, stages=(ConvStage(3, 3, 2),), mlp_hidden=(5,))
    assert hash(a) == hash(ArchSpec(input_len=8, num_classes=3, stages=((3, 3, 2),),
                                    mlp_hidden=(5,)))
    for kwargs, message in [({"stages": [[3, 0, 2]]}, r"stages must .*, got \[\[3, 0, 2\]\]"),
                            ({"latent_dim": 0}, "latent_dim must be >= 1, got 0"),
                            ({"mlp_hidden": [4, 0]}, r"mlp_hidden widths must be >= 1, got \[4, 0\]"),
                            ({"recon_weight": -1.0}, "recon_weight and pred_weight")]:
        with pytest.raises(ValueError, match=message):
            ArchSpec(input_len=8, num_classes=3, **kwargs)


def test_init_model_bounds_and_determinism():
    arch = small_arch()
    m1 = init_model(arch, np.random.default_rng(3))
    m2 = init_model(arch, np.random.default_rng(3))
    for name, p in m1.params.items():
        assert np.array_equal(p, m2.params[name])
        assert p.dtype == np.float32
        if name.endswith(".b"):
            assert not p.any()
    w = m1.params["enc.conv0.w"]
    assert np.abs(w).max() <= np.sqrt(3.0 / (1 * 3))


# --- layer primitives against naive references ---
#
# The kernels hold activations as (batch, length, channels); the oracles
# take (batch, channels, length).  ``swap`` converts either way.


def swap(a):
    return np.ascontiguousarray(np.swapaxes(a, 1, 2))


def conv_forward(x, w, b):
    """The kernel's conv of (B, C, L) rows ``x``: (its (B, O, L) output,
    the padded channels-last buffer it read, the plan)."""
    conv = _ConvPlan(x.shape[1], w.shape[0], w.shape[2], x.shape[2])
    xp = _padded(swap(x), conv.pad_left, conv.pad_right)
    return swap(_conv_fwd(xp, w, b, conv)), xp, conv


def test_conv1d_matches_reference():
    rng = np.random.default_rng(0)
    for batch, k in ((batch, k) for batch in BATCHES for k in (1, 2, 3, 5)):
        x = rng.normal(size=(batch, 3, 25))
        w = rng.normal(size=(4, 3, k))
        b = rng.normal(size=4)
        got, _, _ = conv_forward(x, w, b)
        assert np.allclose(got, conv1d_ref(x, w, b), atol=1e-12)


def test_conv1d_backward_matches_reference():
    rng = np.random.default_rng(100)
    for batch, k in ((batch, k) for batch in BATCHES for k in (1, 2, 3, 5)
                     if batch < 512 or k == 3):
        x = rng.normal(size=(batch, 3, 25))
        w = rng.normal(size=(4, 3, k))
        dy = rng.normal(size=(batch, 4, 25))
        _, xp, conv = conv_forward(x, w, rng.normal(size=4))
        dx, dw, db = _conv_bwd(swap(dy), xp, w, conv)
        want_dx, want_dw, want_db = conv1d_grads_ref(x, w, dy)
        assert np.allclose(swap(dx), want_dx, atol=1e-12)
        assert np.allclose(dw, want_dw, atol=1e-12)
        assert np.allclose(db, want_db, atol=1e-12)
        # the input gradient of the data-facing conv is never computed
        skip = _ConvPlan(3, 4, k, 25, need_dx=False)
        none_dx, dw_again, _ = _conv_bwd(swap(dy), xp, w, skip)
        assert none_dx is None and np.array_equal(dw_again, dw)


def test_maxpool_matches_reference_including_ragged_tail():
    rng = np.random.default_rng(1)
    for batch, (L, p) in ((batch, lp) for batch in BATCHES
                          for lp in ((8, 2), (9, 2), (25, 2), (10, 3), (7, 4), (5, 1))):
        x = rng.normal(size=(batch, 3, L))
        want = maxpool_ref(x, p)
        got, winner = _maxpool_fwd(swap(x), p, train=True)
        assert np.allclose(swap(got), want)
        values_only, none = _maxpool_fwd(swap(x), p, train=False)
        assert np.array_equal(values_only, got) and none is None
        dy = rng.normal(size=want.shape)
        assert np.allclose(swap(_maxpool_bwd(swap(dy), winner, p, L)), maxpool_grad_ref(x, p, dy))


def test_maxpool_gradient_goes_to_the_first_of_tied_maxima():
    x = np.array([[[1.0], [1.0], [0.0], [2.0], [2.0], [2.0]]])
    got, winner = _maxpool_fwd(x, 3, train=True)
    assert got.tolist() == [[[1.0], [2.0]]]
    dx = _maxpool_bwd(np.array([[[5.0], [7.0]]]), winner, 3, 6)
    assert dx.tolist() == [[[5.0], [0.0], [0.0], [7.0], [0.0], [0.0]]]


def test_upsample_matches_reference():
    rng = np.random.default_rng(2)
    for batch, (p, in_len, out_len) in ((batch, shape) for batch in BATCHES
                                        for shape in ((2, 5, 9), (2, 5, 10), (2, 13, 25),
                                                      (3, 4, 10), (3, 4, 12))):
        x = rng.normal(size=(batch, 3, in_len))
        # written into the middle of a longer buffer, as the decoder pads it
        buf = np.full((batch, out_len + 4, 3), 9.0)
        _upsample_into(buf, swap(x), p, 2, out_len)
        assert np.allclose(swap(buf[:, 2:-2]), upsample_ref(x, p, out_len))
        assert np.all(buf[:, :2] == 9.0) and np.all(buf[:, -2:] == 9.0)
        dy = rng.normal(size=(batch, 3, out_len))
        assert np.allclose(swap(_upsample_bwd(swap(dy), p)), upsample_grad_ref(dy, p, in_len))


def test_plan_depends_on_the_architecture_only():
    arch = small_arch(input_len=25, stages=(ConvStage(4, 3, 2), ConvStage(5, 4, 3)))
    plan = _plan(arch)
    assert plan is _plan(ArchSpec(**{f: getattr(arch, f) for f in arch.__dataclass_fields__}))
    assert [(c.cin, c.cout, c.kernel, c.length, c.need_dx) for c in plan.enc] == [
        (1, 4, 3, 25, False), (4, 5, 4, 13, True)]
    assert [(c.cin, c.cout, c.kernel, c.length) for c in plan.dec] == [
        (5, 4, 4, 13), (4, 1, 3, 25)]
    assert plan.pools == (2, 3)
    # calls at many batch sizes add nothing to the plan cache
    m = init_model(arch, np.random.default_rng(0))
    before = _plan.cache_info().currsize
    rng = np.random.default_rng(1)
    for batch in range(1, 40):
        x = rng.normal(size=(batch, 25)).astype(np.float32)
        train_step(m, x, rng.integers(0, 3, size=batch), lr=0.01)
        forward(m, x)
    assert _plan.cache_info().currsize == before


# --- forward pass ---


def test_forward_shapes_and_input_checks():
    arch = small_arch()
    m = init_model(arch, np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(7, 12)).astype(np.float32)
    recon, scores, latent = forward(m, x)
    assert recon.shape == (7, 12)
    assert scores.shape == (7, 3)
    assert latent.shape == (7, 5)
    with pytest.raises(ValueError):
        forward(m, x[:, :11])


def test_zero_model_gives_zero_recon_and_uniform_scores():
    arch = small_arch()
    m = init_model(arch, np.random.default_rng(0))
    m.flat[:] = 0
    recon, scores, latent = forward(m, np.ones((3, 12), dtype=np.float32))
    assert not recon.any() and not scores.any() and not latent.any()


def test_encode_decode_compose_to_forward():
    arch = small_arch(input_len=25)
    m = init_model(arch, np.random.default_rng(5))
    x = np.random.default_rng(6).normal(size=(4, 25)).astype(np.float32)
    recon, scores, latent = forward(m, x)
    z = encode(m, x)
    assert np.array_equal(z, latent)
    assert np.array_equal(decode(m, z), recon)
    with pytest.raises(ValueError):
        decode(m, z[:, :3])


# --- loss ---


def test_loss_value_matches_manual_computation():
    rng = np.random.default_rng(9)
    recon = rng.normal(size=(4, 6))
    x = rng.normal(size=(4, 6))
    scores = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])
    total, drecon, dscores = loss(recon, x, scores, labels, alpha=0.7, beta=1.3)

    mse = np.mean((recon - x) ** 2)
    log_probs = scores - np.log(np.exp(scores).sum(axis=1, keepdims=True))
    ce = -np.mean(log_probs[np.arange(4), labels])
    assert total == pytest.approx(0.7 * mse + 1.3 * ce, rel=1e-12)
    assert np.allclose(drecon, 0.7 * 2.0 / recon.size * (recon - x))
    # each cross-entropy gradient row is (softmax - onehot)/n and sums to 0
    assert np.allclose(dscores.sum(axis=1), 0.0, atol=1e-12)
    softmax = np.exp(log_probs)
    onehot = np.eye(3)[labels]
    assert np.allclose(dscores, 1.3 * (softmax - onehot) / 4)


def test_loss_is_stable_under_huge_scores():
    scores = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
    total, _, _ = loss(np.zeros((2, 2)), np.zeros((2, 2)), scores, np.array([0, 1]), 1.0, 1.0)
    assert np.isfinite(total) and total == pytest.approx(0.0, abs=1e-9)


def test_evaluate_loss_uses_arch_weights_by_default():
    arch = small_arch(recon_weight=2.0, pred_weight=0.5)
    m = init_model(arch, np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(5, 12)).astype(np.float32)
    y = np.array([0, 1, 2, 0, 1])
    total, mse, ce = evaluate_loss(m, x, y)
    assert total == pytest.approx(2.0 * mse + 0.5 * ce, rel=1e-6)
    even = ModelState(replace(arch, recon_weight=1.0, pred_weight=1.0), m.flat)
    assert evaluate_loss(even, x, y)[0] == pytest.approx(mse + ce, rel=1e-6)


# --- gradients & training ---


def test_gradients_match_finite_differences():
    arch = ArchSpec(input_len=10, num_classes=3,
                    stages=(ConvStage(3, 3, 2), ConvStage(4, 3, 2)),
                    latent_dim=4, mlp_hidden=(5,))
    rng = np.random.default_rng(11)
    m = randomize_biases(init_model(arch, rng, dtype=np.float64), rng)
    x = rng.normal(size=(5, 10))
    y = rng.integers(0, 3, size=5)
    assert grad_check(m, x, y) < 1e-4


def test_gradients_with_uneven_loss_weights():
    arch = small_arch(recon_weight=0.3, pred_weight=1.7)
    rng = np.random.default_rng(13)
    m = randomize_biases(init_model(arch, rng, dtype=np.float64), rng)
    x = rng.normal(size=(4, 12))
    y = rng.integers(0, 3, size=4)
    assert grad_check(m, x, y) < 1e-4


def test_gradients_match_finite_differences_at_a_large_batch():
    """Every kernel runs one path at every batch size; check the float64
    backward pass well above the batch-32 training size, on a ragged
    architecture with pool sizes 2 and 3."""
    arch = ArchSpec(input_len=11, num_classes=3,
                    stages=(ConvStage(3, 3, 2), ConvStage(4, 2, 3)),
                    latent_dim=4, mlp_hidden=(5,))
    rng = np.random.default_rng(17)
    m = randomize_biases(init_model(arch, rng, dtype=np.float64), rng)
    x = rng.normal(size=(96, 11))
    y = rng.integers(0, 3, size=96)
    assert grad_check(m, x, y) < 1e-4


@st.composite
def small_models(draw):
    """A float64 model of 1-3 stages with kernels 1-6 (even ones included)
    and pools 1-4 on inputs as short as one sample, which may be shorter
    than a kernel or not divisible by a pool; a batch of 1-9 rows; labels."""
    stages = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 4)),
                           min_size=1, max_size=3))
    arch = ArchSpec(input_len=draw(st.integers(1, 14)), num_classes=draw(st.integers(2, 3)),
                    stages=stages, latent_dim=draw(st.integers(1, 3)),
                    mlp_hidden=draw(st.sampled_from([(), (3,)])),
                    recon_weight=draw(st.sampled_from([0.5, 1.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = randomize_biases(init_model(arch, rng, dtype=np.float64), rng)
    batch = draw(st.integers(1, 9))
    return model, rng.normal(size=(batch, arch.input_len)), rng.integers(0, arch.num_classes, batch)


def central_differences(model, x, y, eps=1e-6):
    """The loss gradient of every parameter entry by central differences."""
    out = {}
    for name, p in model.params.items():
        flat, grad = p.reshape(-1), np.empty(p.size)
        for i, orig in enumerate(flat.tolist()):
            flat[i] = orig + eps
            plus = evaluate_loss(model, x, y)[0]
            flat[i] = orig - eps
            grad[i] = (plus - evaluate_loss(model, x, y)[0]) / (2 * eps)
            flat[i] = orig
        out[name] = grad.reshape(p.shape)
    return out


@settings(max_examples=30, deadline=None, derandomize=True)
@given(small_models())
def test_kernels_match_finite_differences_and_a_per_row_oracle(case):
    """An absolute floor keeps gradients near 0, whose differences are
    rounding noise, from failing a relative test."""
    model, x, y = case
    grads = ModelState(model.arch, gcae._compute_grads(model, x, y)[1]).params  # named views
    for name, want in central_differences(model, x, y).items():
        assert np.allclose(grads[name], want, rtol=1e-4, atol=1e-7), name
    for got, want in zip(forward(model, x), gcae_forward_ref(model, x)):
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_interleaved_architectures_train_as_if_alone():
    """Plans are per architecture: alternating steps of two models with
    different shapes gives each the bits it gets when trained alone."""
    archs = (small_arch(input_len=25), small_arch(input_len=12, stages=(ConvStage(5, 4, 3),)))
    rng = np.random.default_rng(21)
    models = [init_model(a, rng) for a in archs]
    batches = [[(rng.normal(size=(b, a.input_len)).astype(np.float32),
                 rng.integers(0, 3, size=b)) for b in (32, 7, 1, 32)] for a in archs]

    alone = []
    for m, steps in zip(models, batches):
        m = m.copy()
        losses = [train_step(m, x, y, lr=0.05) for x, y in steps]
        alone.append((m, losses))

    together = [m.copy() for m in models]
    losses = [[], []]
    for t in range(4):
        for i in (0, 1):
            x, y = batches[i][t]
            losses[i].append(train_step(together[i], x, y, lr=0.05))
    for i in (0, 1):
        assert losses[i] == alone[i][1]
        for name, p in alone[i][0].params.items():
            assert np.array_equal(together[i].params[name], p)


def test_train_step_zero_lr_is_noop():
    arch = small_arch()
    m = init_model(arch, np.random.default_rng(0))
    before = {k: v.copy() for k, v in m.params.items()}
    train_step(m, np.ones((2, 12), dtype=np.float32), np.array([0, 1]), lr=0.0)
    for k in before:
        assert np.array_equal(m.params[k], before[k])


def test_head_only_updates_classifier_only():
    arch = small_arch()
    m = init_model(arch, np.random.default_rng(4))
    before = {k: v.copy() for k, v in m.params.items()}
    flat = m.flat.copy()
    train_step(m, np.random.default_rng(0).normal(size=(6, 12)).astype(np.float32),
               np.array([0, 1, 2, 0, 1, 2]), lr=0.1, head_only=True)
    for k in before:
        changed = not np.array_equal(m.params[k], before[k])
        assert changed == k.startswith("mlp.")
    # the head's tensors are the tail of flat, and every byte before them stays
    body = sum(v.size for k, v in before.items() if not k.startswith("mlp."))
    assert m.flat[:body].tobytes() == flat[:body].tobytes()


# the default architecture; a 2-channel conv, a pool of 3 and no hidden
# head layer; a 1-tap conv, a pool of 4 and two hidden layers
HEAD_ARCHS = (
    ArchSpec(input_len=24, num_classes=6),
    small_arch(input_len=13, stages=(ConvStage(2, 3, 3),),
               mlp_hidden=(), recon_weight=0.3, pred_weight=0.7),
    ArchSpec(input_len=11, num_classes=4, stages=(ConvStage(3, 5, 2), ConvStage(5, 1, 4)),
             latent_dim=3, mlp_hidden=(7, 5), pred_weight=2.0),
)


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("arch", HEAD_ARCHS, ids=("default", "2ch-pool3", "k1-pool4"))
def test_head_only_step_matches_the_decoding_step(arch, dtype):
    """Skipping the decoder leaves every parameter bit for bit where the
    step that decoded and took the full loss left it, and the step returns
    pred_weight * cross-entropy."""
    rng = np.random.default_rng(31)
    for batch in BATCHES:
        model = randomize_biases(init_model(arch, rng, dtype=dtype), rng)
        ref = model.copy()
        for _ in range(2):
            x = rng.normal(size=(batch, arch.input_len)).astype(dtype)
            y = rng.integers(0, arch.num_classes, size=batch)
            ce = evaluate_loss(model, x, y)[2]
            assert train_step(model, x, y, lr=0.05, head_only=True) == arch.pred_weight * ce
            head_only_step_ref(ref, x, y, lr=0.05)
            for name, p in ref.params.items():
                assert np.array_equal(model.params[name], p), (batch, name)


def test_head_only_step_returns_the_weighted_cross_entropy():
    arch = small_arch(recon_weight=0.3, pred_weight=0.7)
    rng = np.random.default_rng(5)
    m = init_model(arch, rng)
    x = rng.normal(size=(9, 12)).astype(np.float32)
    y = rng.integers(0, 3, size=9)
    total, _, ce = evaluate_loss(m, x, y)
    assert train_step(m.copy(), x, y, lr=0.1, head_only=True) == 0.7 * ce
    quarter = ModelState(replace(arch, pred_weight=0.25), m.copy().flat)
    assert train_step(quarter, x, y, lr=0.1, head_only=True) == 0.25 * ce
    assert train_step(m.copy(), x, y, lr=0.1) == total


def test_head_only_step_rejects_non_finite_input():
    m = init_model(small_arch(), np.random.default_rng(0))
    before = m.copy()
    x = np.ones((4, 12), dtype=np.float32)
    x[2, 5] = np.nan
    with pytest.raises(FloatingPointError), np.errstate(invalid="ignore"):
        train_step(m, x, np.array([0, 1, 2, 0]), lr=0.1, head_only=True)
    for name, p in before.params.items():
        assert np.array_equal(m.params[name], p)


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("arch", HEAD_ARCHS, ids=("default", "2ch-pool3", "k1-pool4"))
def test_head_only_step_is_encode_then_head_step(arch, dtype):
    """A head-only train_step, train_head_step on the encoded batch and the
    decoding oracle leave every parameter with the same bits, and the two
    steps return the same value."""
    rng = np.random.default_rng(37)
    for batch in BATCHES:
        model = randomize_biases(init_model(arch, rng, dtype=dtype), rng)
        on_codes, ref = model.copy(), model.copy()
        for _ in range(2):
            x = rng.normal(size=(batch, arch.input_len)).astype(dtype)
            y = rng.integers(0, arch.num_classes, size=batch)
            z = encode(on_codes, x)
            assert train_head_step(on_codes, z, y, lr=0.05) == train_step(
                model, x, y, lr=0.05, head_only=True)
            head_only_step_ref(ref, x, y, lr=0.05)
            for name, p in ref.params.items():
                assert np.array_equal(model.params[name], p), (batch, name)
                assert np.array_equal(on_codes.params[name], p), (batch, name)


def test_head_step_checks_its_codes_and_labels():
    m = init_model(small_arch(), np.random.default_rng(0))
    before = m.copy()
    z = np.ones((4, m.arch.latent_dim), dtype=np.float32)
    y = np.array([0, 1, 2, 0])
    half = ModelState(replace(m.arch, pred_weight=0.5), m.copy().flat)
    assert train_head_step(half, z, y, lr=0.1) == 0.5 * train_head_step(m.copy(), z, y, lr=0.1)
    with pytest.raises(ValueError, match="latent must be"):
        train_head_step(m, np.ones((4, m.arch.latent_dim + 1)), y, lr=0.1)
    with pytest.raises(ValueError, match="labels must be"):
        train_head_step(m, z, y[:3], lr=0.1)
    z[1, 0] = np.inf
    with pytest.raises(FloatingPointError), np.errstate(invalid="ignore"):
        train_head_step(m, z, y, lr=0.1)
    for name, p in before.params.items():
        assert np.array_equal(m.params[name], p)


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("arch", HEAD_ARCHS, ids=("default", "2ch-pool3", "k1-pool4"))
def test_head_loss_on_kept_codes_equals_evaluate_loss(arch, dtype):
    """Given the codes and the reconstruction MSE of a batch, the head alone
    gives evaluate_loss's three values bit for bit."""
    rng = np.random.default_rng(41)
    model = randomize_biases(init_model(arch, rng, dtype=dtype), rng)
    for batch in BATCHES + (SLICED_BATCH,):
        x = rng.normal(size=(batch, arch.input_len)).astype(dtype)
        y = rng.integers(0, arch.num_classes, size=batch)
        z = encode(model, x)
        diff = decode(model, z) - x
        mse = float(np.mean(diff * diff))
        assert evaluate_head_loss(model, z, y, mse) == evaluate_loss(model, x, y)
        other = ModelState(replace(arch, recon_weight=0.2, pred_weight=3.0), model.flat)
        assert evaluate_head_loss(other, z, y, mse) == evaluate_loss(other, x, y)


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("arch", HEAD_ARCHS, ids=("default", "2ch-pool3", "k1-pool4"))
def test_head_scores_of_encoded_rows_equal_forward_scores(arch, dtype):
    rng = np.random.default_rng(17)
    m = randomize_biases(init_model(arch, rng, dtype=dtype), rng)
    for batch in BATCHES + (SLICED_BATCH,):
        x = rng.normal(size=(batch, arch.input_len)).astype(dtype)
        assert np.array_equal(head_scores(m, encode(m, x)), forward(m, x)[1])
    with pytest.raises(ValueError, match="latent"):
        head_scores(m, np.zeros((2, arch.latent_dim + 1), dtype=dtype))


# --- inference slices ---


def _count_passes(monkeypatch):
    """Count the calls of the encoder, decoder and head passes."""
    calls = {"_encode": 0, "_decode": 0, "_mlp": 0}
    for name in calls:
        inner = getattr(gcae, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(gcae, name, counted)
    return calls


@pytest.mark.parametrize("n", (1, _PASS_ROWS, _PASS_ROWS + 1, 2 * _PASS_ROWS, SLICED_BATCH))
def test_inference_runs_in_slices_of_at_most_pass_rows(n, monkeypatch):
    """Each inference pass over n rows makes ceil(n / _PASS_ROWS) internal
    passes, and gives the rows its own passes give on each slice."""
    arch = HEAD_ARCHS[0]
    rng = np.random.default_rng(23)
    m = randomize_biases(init_model(arch, rng), rng)
    x = rng.normal(size=(n, arch.input_len)).astype(np.float32)
    y = rng.integers(0, arch.num_classes, size=n)
    calls = _count_passes(monkeypatch)
    slices = math.ceil(n / _PASS_ROWS)
    for run, want in (
        (lambda: encode(m, x), {"_encode": slices}),
        (lambda: decode(m, x[:, :arch.latent_dim]), {"_decode": slices}),
        (lambda: head_scores(m, x[:, :arch.latent_dim]), {"_mlp": slices}),
        (lambda: forward(m, x), {"_encode": slices, "_decode": slices, "_mlp": slices}),
        (lambda: evaluate_loss(m, x, y), {"_encode": slices, "_decode": slices, "_mlp": slices}),
        (lambda: evaluate_head_loss(m, x[:, :arch.latent_dim], y, 0.5), {"_mlp": slices}),
        (lambda: train_step(m.copy(), x, y, lr=0.01), {"_encode": 1, "_decode": 1, "_mlp": 1}),
        (lambda: train_head_step(m.copy(), x[:, :arch.latent_dim], y, lr=0.01), {"_mlp": 1}),
    ):
        calls.update(dict.fromkeys(calls, 0))
        run()
        assert calls == {name: want.get(name, 0) for name in calls}
    starts = range(0, n, _PASS_ROWS)
    z = encode(m, x)
    assert np.array_equal(z, np.concatenate([encode(m, x[s:s + _PASS_ROWS]) for s in starts]))
    for fn in (decode, head_scores):
        assert np.array_equal(fn(m, z), np.concatenate([fn(m, z[s:s + _PASS_ROWS])
                                                        for s in starts]))


def test_inference_memory_does_not_grow_with_the_set():
    """The traced peak of encode, decode and head_scores on 4096 rows stays
    within 1.5 times their peak on _PASS_ROWS rows; one whole-set pass
    would hold eight times the activations."""
    arch = HEAD_ARCHS[0]
    rng = np.random.default_rng(29)
    m = init_model(arch, rng)
    x = rng.normal(size=(4096, arch.input_len)).astype(np.float32)

    def peak_bytes(rows):
        tracemalloc.start()
        try:
            z = encode(m, rows)
            decode(m, z)
            head_scores(m, z)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(x) <= 1.5 * peak_bytes(x[:_PASS_ROWS])


def test_batch_512_peak_memory():
    """On the default architecture, a 512-row decode and a batch-512 train
    step peak under tracemalloc at no more than the 3.28 MB and 6.70 MB
    that (batch, channels, length) kernels took."""
    arch = HEAD_ARCHS[0]
    rng = np.random.default_rng(43)
    m = init_model(arch, rng)
    x = rng.normal(size=(_PASS_ROWS, arch.input_len)).astype(np.float32)
    y = rng.integers(0, arch.num_classes, size=_PASS_ROWS)
    z = encode(m, x)
    train_step(m, x, y, lr=0.01)  # a warm-up step

    def peak_bytes(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(lambda: decode(m, z)) <= 3.28e6
    assert peak_bytes(lambda: train_step(m, x, y, lr=0.01)) <= 6.70e6


def test_training_decreases_loss():
    arch = small_arch()
    rng = np.random.default_rng(8)
    m = init_model(arch, rng)
    x = rng.normal(size=(32, 12)).astype(np.float32)
    y = rng.integers(0, 3, size=32)
    losses = [train_step(m, x, y, lr=0.05) for _ in range(50)]
    assert losses[-1] < losses[0]
    increases = sum(b > a for a, b in zip(losses, losses[1:]))
    assert increases <= 2  # full-batch SGD should be almost monotone here


def test_non_finite_loss_aborts():
    arch = small_arch()
    m = init_model(arch, np.random.default_rng(0))
    m.params["mlp.fc1.w"][:] = np.inf
    with pytest.raises(FloatingPointError), np.errstate(invalid="ignore"):
        train_step(m, np.ones((2, 12), dtype=np.float32), np.array([0, 1]), lr=0.01)


def test_train_step_rejects_bad_labels():
    arch = small_arch()
    m = init_model(arch, np.random.default_rng(0))
    x = np.ones((2, 12), dtype=np.float32)
    with pytest.raises(ValueError):
        train_step(m, x, np.array([0, 3]), lr=0.01)
    with pytest.raises(ValueError):
        train_step(m, x, np.array([0]), lr=0.01)


def test_model_copy_is_deep():
    arch = small_arch()
    m = init_model(arch, np.random.default_rng(0))
    c = m.copy()
    assert c.flat.tobytes() == m.flat.tobytes()
    assert not np.shares_memory(c.flat, m.flat)
    assert not any(np.shares_memory(p, m.flat) for p in c.params.values())
    c.params["enc.fc.w"][:] = 7.0
    assert not np.array_equal(m.params["enc.fc.w"], c.params["enc.fc.w"])
    assert m.arch is c.arch


# --- the parameter vector ---


def test_flat_of_the_wrong_length_is_rejected():
    arch = small_arch()
    size = init_model(arch, np.random.default_rng(0)).flat.size
    assert size == sum(math.prod(s) for s in gcae._param_shapes(arch).values())
    for bad in (np.zeros(size - 1, np.float32), np.zeros((1, size), np.float32)):
        with pytest.raises(ValueError, match=f"architecture's {size} parameters"):
            ModelState(arch, bad)


def test_params_are_read_only_views_into_flat():
    m = init_model(small_arch(), np.random.default_rng(0))
    offset = 0
    for name, p in m.params.items():
        assert p.base is m.flat and np.shares_memory(p, m.flat), name
        assert np.array_equal(p.reshape(-1), m.flat[offset:offset + p.size]), name
        offset += p.size
    assert offset == m.flat.size
    with pytest.raises(TypeError):
        m.params["enc.fc.b"] = np.zeros(m.arch.latent_dim, np.float32)


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_init_model_draws_each_tensor_in_layout_order(dtype):
    """The draws of a model built tensor by tensor, each cast on its own."""
    arch = small_arch(stages=(ConvStage(3, 3, 2), ConvStage(4, 5, 2)))
    rng = np.random.default_rng(8)
    want = []
    for name, shape in gcae._param_shapes(arch).items():
        if name.endswith(".b"):
            want.append(np.zeros(shape, dtype=dtype))
            continue
        fan_in = int(np.prod(shape[1:])) if ".conv" in name else shape[0]
        bound = np.sqrt(3.0 / fan_in)
        want.append(rng.uniform(-bound, bound, size=shape).astype(dtype))
    got = init_model(arch, np.random.default_rng(8), dtype=dtype)
    assert got.dtype == dtype
    assert got.flat.tobytes() == b"".join(w.tobytes() for w in want)


def test_first_non_finite_names_the_first_bad_parameter():
    m = init_model(small_arch(), np.random.default_rng(0))
    assert m.first_non_finite() is None
    m.params["mlp.fc0.b"][1] = np.inf
    assert m.first_non_finite() == "mlp.fc0.b"
    m.params["enc.fc.w"][0, 0] = np.nan
    assert m.first_non_finite() == "enc.fc.w"
