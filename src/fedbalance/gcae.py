"""Generative convolutional autoencoder with a classifier head, in plain numpy.

Feature vectors are treated as single-channel 1-D signals.  The encoder is a
conv -> ReLU -> max-pool pyramid followed by a dense map to the latent space;
the decoder mirrors it with nearest-neighbour upsampling (cropped back to the
encoder's pre-pool lengths, so odd signal lengths round-trip exactly); a small
MLP on the latent produces class logits.  Training minimises
alpha * MSE(reconstruction) + beta * cross-entropy(logits) by plain SGD with
hand-written backpropagation — no autodiff framework anywhere.
"""

from __future__ import annotations

import functools
from dataclasses import astuple, dataclass

import numpy as np


@dataclass(frozen=True)
class ConvStage:
    channels: int
    kernel: int
    pool: int


@dataclass(frozen=True)
class ArchSpec:
    """Shape of the network plus the two loss weights; everything else
    (stage lengths, flat widths) is derived from these fields."""

    input_len: int
    num_classes: int
    stages: tuple[ConvStage, ...] = (ConvStage(8, 5, 2), ConvStage(16, 5, 2))
    latent_dim: int = 16
    mlp_hidden: tuple[int, ...] = (32,)
    input_channels: int = 1
    recon_weight: float = 1.0
    pred_weight: float = 1.0

    def __post_init__(self):
        # stages may come as [channels, kernel, pool] triples and widths as any
        # sequence; both are kept as tuples, so equal specs compare equal
        stages = tuple(s if isinstance(s, ConvStage) else ConvStage(*s) for s in self.stages)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "mlp_hidden", tuple(self.mlp_hidden))
        for name, low in (("input_len", 1), ("num_classes", 2), ("latent_dim", 1),
                          ("input_channels", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not stages or any(min(astuple(s)) < 1 for s in stages):
            raise ValueError("stages must be one or more [channels, kernel, pool] triples "
                             f"of integers >= 1, got {[list(astuple(s)) for s in stages]}")
        if any(h < 1 for h in self.mlp_hidden):
            raise ValueError(f"mlp_hidden widths must be >= 1, got {list(self.mlp_hidden)}")
        if self.recon_weight < 0 or self.pred_weight < 0 or self.recon_weight + self.pred_weight <= 0:
            raise ValueError("recon_weight and pred_weight, the loss weights, must be >= 0 with "
                             f"a positive sum, got {self.recon_weight} and {self.pred_weight}")

    @property
    def stage_input_lengths(self) -> tuple[int, ...]:
        """Signal length entering each stage (also its post-conv length)."""
        lens, cur = [], self.input_len
        for st in self.stages:
            lens.append(cur)
            cur = -(-cur // st.pool)  # ceil-mode pooling
        return tuple(lens)

    @property
    def pooled_lengths(self) -> tuple[int, ...]:
        lens, cur = [], self.input_len
        for st in self.stages:
            cur = -(-cur // st.pool)
            lens.append(cur)
        return tuple(lens)

    @property
    def flat_dim(self) -> int:
        return self.stages[-1].channels * self.pooled_lengths[-1]

    @property
    def input_width(self) -> int:
        """Width of a flattened input row."""
        return self.input_channels * self.input_len


@dataclass
class ModelState:
    arch: ArchSpec
    params: dict[str, np.ndarray]

    @property
    def dtype(self) -> np.dtype:
        return next(iter(self.params.values())).dtype

    def copy(self) -> "ModelState":
        return ModelState(self.arch, {k: v.copy() for k, v in self.params.items()})


def _param_shapes(arch: ArchSpec) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    in_ch = arch.input_channels
    for i, st in enumerate(arch.stages):
        shapes[f"enc.conv{i}.w"] = (st.channels, in_ch, st.kernel)
        shapes[f"enc.conv{i}.b"] = (st.channels,)
        in_ch = st.channels
    shapes["enc.fc.w"] = (arch.flat_dim, arch.latent_dim)
    shapes["enc.fc.b"] = (arch.latent_dim,)
    shapes["dec.fc.w"] = (arch.latent_dim, arch.flat_dim)
    shapes["dec.fc.b"] = (arch.flat_dim,)
    n = len(arch.stages)
    for d, i in enumerate(reversed(range(n))):
        out_ch = arch.stages[i - 1].channels if i > 0 else arch.input_channels
        shapes[f"dec.conv{d}.w"] = (out_ch, arch.stages[i].channels, arch.stages[i].kernel)
        shapes[f"dec.conv{d}.b"] = (out_ch,)
    widths = (arch.latent_dim,) + tuple(arch.mlp_hidden) + (arch.num_classes,)
    for j in range(len(widths) - 1):
        shapes[f"mlp.fc{j}.w"] = (widths[j], widths[j + 1])
        shapes[f"mlp.fc{j}.b"] = (widths[j + 1],)
    return shapes


def init_model(arch: ArchSpec, rng, dtype=np.float32) -> ModelState:
    """Weights ~ U(+-sqrt(3 / fan_in)), biases zero, in a fixed draw order."""
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(arch).items():
        if name.endswith(".b"):
            params[name] = np.zeros(shape, dtype=dtype)
            continue
        fan_in = int(np.prod(shape[1:])) if ".conv" in name else shape[0]
        bound = np.sqrt(3.0 / fan_in)
        params[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return ModelState(arch, params)


# --- kernel plan ---
#
# Each convolution product is one im2col copy of a zero-padded buffer and
# one matmul on C-contiguous operands, in the orientation that
# np.einsum(optimize=True) chooses for the same contraction:
#   forward  w (O, C*K)          @ windows of x  (C*K, B*L)
#   dw       dy (O, B*L)         @ windows of x  (B*L, C*K)
#   dx       flipped w (C, O*K)  @ windows of dy (O*K, B*L)
# BLAS rounds differently when an operand is transposed, so fixing the
# orientation keeps every result bit for bit what the einsum formulation
# gave.  The shapes come from a plan built once per ArchSpec; a call does
# no planning of its own and keeps no buffer between calls.


@dataclass(frozen=True)
class _ConvPlan:
    """One stride-1, same-length 1-D correlation of ``length`` samples.

    The input is zero-padded by ``kernel - 1`` samples, ``pad_left`` of them
    before the signal.  ``need_dx`` is False for the encoder's first conv,
    whose input gradient nobody reads.
    """

    cin: int
    cout: int
    kernel: int
    length: int
    need_dx: bool = True

    @property
    def pad_left(self) -> int:
        return (self.kernel - 1) // 2

    @property
    def pad_right(self) -> int:
        return self.kernel - 1 - self.pad_left

    @property
    def padded(self) -> int:
        return self.length + self.kernel - 1


@dataclass(frozen=True)
class _Plan:
    enc: tuple[_ConvPlan, ...]   # encoder convs, input side first
    dec: tuple[_ConvPlan, ...]   # decoder convs, latent side first
    pools: tuple[int, ...]       # encoder pool sizes; the decoder upsamples by them in reverse
    pooled: tuple[int, ...]      # encoder lengths after each pool


@functools.lru_cache(maxsize=16)
def _plan(arch: ArchSpec) -> _Plan:
    """The layer geometry of ``arch``; one per architecture, whatever the batch."""
    lengths = arch.stage_input_lengths
    enc, in_ch = [], arch.input_channels
    for i, st in enumerate(arch.stages):
        enc.append(_ConvPlan(in_ch, st.channels, st.kernel, lengths[i], need_dx=i > 0))
        in_ch = st.channels
    dec = []
    for i in reversed(range(len(arch.stages))):
        out_ch = arch.stages[i - 1].channels if i > 0 else arch.input_channels
        st = arch.stages[i]
        dec.append(_ConvPlan(st.channels, out_ch, st.kernel, lengths[i]))
    return _Plan(tuple(enc), tuple(dec), tuple(st.pool for st in arch.stages),
                 arch.pooled_lengths)


# --- layer primitives ---


def _padded(h, pad_left: int, pad_right: int):
    """Copy of h zero-padded along the last axis, C-contiguous."""
    B, C, L = h.shape
    xp = np.zeros((B, C, pad_left + L + pad_right), dtype=h.dtype)
    xp[:, :, pad_left:pad_left + L] = h
    return xp


def _windows(xp, kernel: int, length: int, batch_major: bool):
    """Read-only strided view of the ``length`` windows of ``kernel`` taps
    in a C-contiguous (B, C, length + kernel - 1) buffer: (B, L, C, K) if
    ``batch_major``, else (C, K, B, L)."""
    B, C, Lp = xp.shape
    s = xp.itemsize
    if batch_major:
        shape, strides = (B, length, C, kernel), (C * Lp * s, s, Lp * s, s)
    else:
        shape, strides = (C, kernel, B, length), (Lp * s, s, C * Lp * s, s)
    return np.ndarray(shape, xp.dtype, xp, 0, strides)


def _conv_fwd(xp, w, b, conv: _ConvPlan):
    """y[b, o, l] = sum_{c, k} w[o, c, k] * xp[b, c, l + k] + b[o], for a
    buffer padded as ``conv`` says.  Returns (B, O, L)."""
    B, L = len(xp), conv.length
    cols = _windows(xp, conv.kernel, L, False).reshape(conv.cin * conv.kernel, B * L)
    y = w.reshape(conv.cout, -1) @ cols
    return y.reshape(conv.cout, B, L).transpose(1, 0, 2) + b[None, :, None]


def _conv_bwd(dy, xp, w, conv: _ConvPlan):
    """(dx or None, dw, db) for ``_conv_fwd`` given the output gradient."""
    B, L, K = len(dy), conv.length, conv.kernel
    cols = _windows(xp, K, L, True).reshape(B * L, conv.cin * K)
    dw = (dy.transpose(1, 0, 2).reshape(conv.cout, B * L) @ cols).reshape(w.shape)
    db = dy.sum(axis=(0, 2))
    if not conv.need_dx:
        return None, dw, db
    # dx is the correlation of dy, padded the other way round, with the
    # kernel flipped and its channel axes swapped
    dyp = _padded(dy, conv.pad_right, conv.pad_left)
    wf = np.ascontiguousarray(w[:, :, ::-1].transpose(1, 0, 2)).reshape(conv.cin, conv.cout * K)
    dx = wf @ _windows(dyp, K, L, False).reshape(conv.cout * K, B * L)
    return dx.reshape(conv.cin, B, L).transpose(1, 0, 2), dw, db


def _maxpool_fwd(h, p: int, train: bool):
    """Ceil-mode max pooling by p over the last axis: (pooled, winner).

    The ragged final window is maxed as-is.  In training mode ``winner``
    holds the position of each window's first maximum; otherwise it is
    None.  A NaN anywhere in a window makes the pooled value NaN, and the
    loss with it, so the winner then goes unread.
    """
    B, C, L = h.shape
    if L % p:
        hp = np.empty((B, C, -(-L // p) * p), dtype=h.dtype)
        hp[:, :, :L] = h
        hp[:, :, L:] = -np.inf
        h = hp
    y, winner = h[:, :, 0::p], None
    for j in range(1, p):
        s = h[:, :, j::p]
        if train:
            take = s > y
            winner = take if winner is None else np.where(take, j, winner)
        y = np.maximum(y, s)
    if train and winner is None:  # p == 1: the only slot wins
        winner = np.zeros(y.shape, dtype=bool)
    return y, winner


def _maxpool_bwd(dy, winner, p: int, length: int):
    """Route each pooled gradient to its window's first maximum; the other
    slots get dy * 0, as in the ReLU backward.  C-contiguous."""
    B, C, T = dy.shape
    dx = np.empty((B, C, T, p), dtype=dy.dtype)
    for j in range(p):
        dx[..., j] = dy * (winner == j)
    return dx.reshape(B, C, T * p)[:, :, :length]


def _upsample_into(xp, h, p: int, start: int, length: int) -> None:
    """Write h repeated p times along the last axis, cropped to ``length``,
    into xp[:, :, start:start + length]."""
    for j in range(p):
        dst = xp[:, :, start + j:start + length:p]
        dst[...] = h[:, :, :dst.shape[2]]


def _upsample_bwd(dy, p: int):
    """Sum each group of p gradient samples (the last group may be short),
    in sample order; C-contiguous."""
    dx = np.ascontiguousarray(dy[:, :, 0::p])
    for j in range(1, p):
        part = dy[:, :, j::p]
        dx[:, :, :part.shape[2]] += part
    return dx


def _dense_fwd(x, w, b):
    return x @ w + b, (x, w)


def _dense_bwd(dy, ctx):
    x, w = ctx
    return dy @ w.T, x.T @ dy, dy.sum(axis=0)


def _relu_fwd(x):
    return np.maximum(x, 0), x > 0


def _relu_bwd(dy, mask):
    return dy * mask


# --- model passes ---
#
# With ``cache=None`` a pass only computes values; given a list, it also
# appends what the matching backward pass reads.


def _encode(params, plan: _Plan, x, cache=None):
    B = len(x)
    train = cache is not None
    first = plan.enc[0]
    xp = _padded(x.reshape(B, first.cin, first.length), first.pad_left, first.pad_right)
    for i, conv in enumerate(plan.enc):
        h, relu_mask = _relu_fwd(_conv_fwd(xp, params[f"enc.conv{i}.w"],
                                           params[f"enc.conv{i}.b"], conv))
        h, winner = _maxpool_fwd(h, plan.pools[i], train)
        if train:
            cache.append((xp, relu_mask, winner))
        if i + 1 < len(plan.enc):
            nxt = plan.enc[i + 1]
            xp = _padded(h, nxt.pad_left, nxt.pad_right)
    flat = h.reshape(B, -1)
    latent, fc_ctx = _dense_fwd(flat, params["enc.fc.w"], params["enc.fc.b"])
    if train:
        cache.append(fc_ctx)
    return latent


def _decode(params, plan: _Plan, z, cache=None):
    B = len(z)
    pre, fc_ctx = _dense_fwd(z, params["dec.fc.w"], params["dec.fc.b"])
    h, relu_mask = _relu_fwd(pre)
    h = h.reshape(B, plan.dec[0].cin, plan.pooled[-1])
    if cache is not None:
        cache.append((fc_ctx, relu_mask))
    last = len(plan.dec) - 1
    for d, conv in enumerate(plan.dec):
        xp = np.zeros((B, conv.cin, conv.padded), dtype=h.dtype)
        _upsample_into(xp, h, plan.pools[last - d], conv.pad_left, conv.length)
        h = _conv_fwd(xp, params[f"dec.conv{d}.w"], params[f"dec.conv{d}.b"], conv)
        conv_relu = None
        if d < last:
            h, conv_relu = _relu_fwd(h)
        if cache is not None:
            cache.append((xp, conv_relu))
    return h.reshape(B, -1)


def _mlp_cached(params, arch, z):
    n_layers = len(arch.mlp_hidden) + 1
    h = z
    cache = []
    for j in range(n_layers):
        h, ctx = _dense_fwd(h, params[f"mlp.fc{j}.w"], params[f"mlp.fc{j}.b"])
        if j < n_layers - 1:
            h, mask = _relu_fwd(h)
        else:
            mask = None
        cache.append((ctx, mask))
    return h, cache


def encode(model: ModelState, x: np.ndarray) -> np.ndarray:
    x = _check_input(model, x)
    return _encode(model.params, _plan(model.arch), x)


def decode(model: ModelState, z: np.ndarray) -> np.ndarray:
    return _decode(model.params, _plan(model.arch), _check_codes(model, z))


def head_scores(model: ModelState, z: np.ndarray) -> np.ndarray:
    """Class scores of the classifier head on latent codes; with
    ``encode`` it gives the scores of ``forward`` without the decoder."""
    return _mlp_cached(model.params, model.arch, _check_codes(model, z))[0]


def forward(model: ModelState, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(reconstruction, class scores, latent codes), no gradient bookkeeping."""
    x = _check_input(model, x)
    plan = _plan(model.arch)
    latent = _encode(model.params, plan, x)
    recon = _decode(model.params, plan, latent)
    scores, _ = _mlp_cached(model.params, model.arch, latent)
    return recon, scores, latent


def _check_input(model: ModelState, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=model.dtype)
    if x.ndim != 2 or x.shape[1] != model.arch.input_width:
        raise ValueError(f"input must be (n, {model.arch.input_width}), got {x.shape}")
    return x


def _check_codes(model: ModelState, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=model.dtype)
    if z.ndim != 2 or z.shape[1] != model.arch.latent_dim:
        raise ValueError(f"latent must be (n, {model.arch.latent_dim})")
    return z


def _weights(model: ModelState, alpha, beta) -> tuple[float, float]:
    if alpha is None:
        alpha = model.arch.recon_weight
    if beta is None:
        beta = model.arch.pred_weight
    return alpha, beta


def _mse(recon, target):
    diff = recon - target
    val = float(np.mean(diff * diff))
    grad = (2.0 / diff.size) * diff
    return val, grad


def _cross_entropy(scores, labels):
    z = scores - scores.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=1))
    val = float(np.mean(lse - z[np.arange(len(labels)), labels]))
    soft = np.exp(z - lse[:, None])
    soft[np.arange(len(labels)), labels] -= 1.0
    return val, soft / len(labels)


def loss(recon, x, scores, labels, alpha: float, beta: float):
    """alpha*MSE + beta*cross-entropy with gradients for both heads.

    Returns (value, d_recon, d_scores); the cross-entropy side is computed
    in float64 for stability regardless of the input dtype.
    """
    recon = np.asarray(recon)
    x = np.asarray(x)
    labels = np.asarray(labels, dtype=np.int64)
    mse, drecon = _mse(recon, x)
    ce, dscores = _cross_entropy(np.asarray(scores, dtype=np.float64), labels)
    return alpha * mse + beta * ce, alpha * drecon, beta * dscores


def evaluate_loss(model: ModelState, x, labels, alpha: float | None = None,
                  beta: float | None = None) -> tuple[float, float, float]:
    """(total, mse, cross_entropy) on one batch; weights default to the arch's."""
    x = _check_input(model, x)
    plan = _plan(model.arch)
    latent = _encode(model.params, plan, x)
    mse = reconstruction_mse(_decode(model.params, plan, latent), x)
    return evaluate_head_loss(model, latent, labels, mse, alpha, beta)


def reconstruction_mse(recon: np.ndarray, x: np.ndarray) -> float:
    """The loss's MSE term, of a reconstruction ``recon`` of the rows ``x``."""
    return _mse(recon, x)[0]


def evaluate_head_loss(model: ModelState, z, labels, mse: float, alpha: float | None = None,
                       beta: float | None = None) -> tuple[float, float, float]:
    """``evaluate_loss`` of rows given by their latent codes ``z`` and their
    reconstruction MSE, which the decoder gave and does not change while it
    is frozen: the same (total, mse, cross_entropy), with only the classifier
    head run."""
    alpha, beta = _weights(model, alpha, beta)
    z = _check_codes(model, z)
    labels = _check_labels(model, labels, len(z))
    scores, _ = _mlp_cached(model.params, model.arch, z)
    ce, _ = _cross_entropy(scores.astype(np.float64), labels)
    return alpha * mse + beta * ce, mse, ce


def _check_labels(model, labels, n):
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValueError("labels must be 1-D and match the batch")
    if labels.min() < 0 or labels.max() >= model.arch.num_classes:
        raise ValueError("label out of range")
    return labels


def _mlp_bwd(dscores, mlp_cache, grads):
    """Backward through the classifier head; fills its gradients into
    ``grads`` and returns the gradient of the latent."""
    dz = dscores
    for j in reversed(range(len(mlp_cache))):
        ctx, mask = mlp_cache[j]
        if mask is not None:
            dz = _relu_bwd(dz, mask)
        dz, grads[f"mlp.fc{j}.w"], grads[f"mlp.fc{j}.b"] = _dense_bwd(dz, ctx)
    return dz


def _compute_grads(model: ModelState, x, labels, alpha, beta):
    """(loss, gradients) of a full step."""
    params, arch = model.params, model.arch
    plan = _plan(arch)
    dtype = model.dtype
    grads: dict[str, np.ndarray] = {}
    enc_cache, dec_cache = [], []
    latent = _encode(params, plan, x, enc_cache)
    recon = _decode(params, plan, latent, dec_cache)
    scores, mlp_cache = _mlp_cached(params, arch, latent)

    total, drecon, dscores = loss(recon, x, scores, labels, alpha, beta)
    drecon = drecon.astype(dtype)
    dz_mlp = _mlp_bwd(dscores.astype(dtype), mlp_cache, grads)

    # decoder
    (fc_ctx, relu_mask), stage_cache = dec_cache[0], dec_cache[1:]
    last = len(plan.dec) - 1
    dh = drecon.reshape(len(x), arch.input_channels, arch.input_len)
    for d in reversed(range(len(plan.dec))):
        xp, conv_relu = stage_cache[d]
        if conv_relu is not None:
            dh = _relu_bwd(dh, conv_relu)
        dh, grads[f"dec.conv{d}.w"], grads[f"dec.conv{d}.b"] = _conv_bwd(
            dh, xp, params[f"dec.conv{d}.w"], plan.dec[d])
        dh = _upsample_bwd(dh, plan.pools[last - d])
    dflat = _relu_bwd(dh.reshape(len(x), arch.flat_dim), relu_mask)
    dz_dec, grads["dec.fc.w"], grads["dec.fc.b"] = _dense_bwd(dflat, fc_ctx)

    # encoder, fed by both latent consumers
    stage_cache, enc_fc_ctx = enc_cache[:-1], enc_cache[-1]
    dflat_enc, grads["enc.fc.w"], grads["enc.fc.b"] = _dense_bwd(dz_dec + dz_mlp, enc_fc_ctx)
    dh = dflat_enc.reshape(len(x), arch.stages[-1].channels, plan.pooled[-1])
    for i in reversed(range(len(plan.enc))):
        xp, relu_mask_i, winner = stage_cache[i]
        conv = plan.enc[i]
        dh = _relu_bwd(_maxpool_bwd(dh, winner, plan.pools[i], conv.length), relu_mask_i)
        dh, grads[f"enc.conv{i}.w"], grads[f"enc.conv{i}.b"] = _conv_bwd(
            dh, xp, params[f"enc.conv{i}.w"], conv)
    return total, grads


def train_step(model: ModelState, x, labels, lr: float, alpha: float | None = None,
               beta: float | None = None, head_only: bool = False) -> float:
    """One SGD step in place; returns the pre-update loss it trained on.

    A full step returns alpha * MSE + beta * cross-entropy.  A head-only
    step is ``encode`` followed by ``train_head_step``: it updates the
    classifier head alone, returns beta * cross-entropy and runs no
    decoder.  Raises FloatingPointError if the returned loss is not finite
    — divergence must stop a run rather than silently poison downstream
    aggregation.
    """
    alpha, beta = _weights(model, alpha, beta)
    x = _check_input(model, x)
    if head_only:
        return train_head_step(model, encode(model, x), labels, lr, beta)
    labels = _check_labels(model, labels, len(x))
    return _apply_step(model, *_compute_grads(model, x, labels, alpha, beta), lr)


def train_head_step(model: ModelState, z, labels, lr: float, beta: float | None = None) -> float:
    """One SGD step of the classifier head alone, in place, on latent codes
    ``z``; returns the pre-update beta * cross-entropy it trained on, and
    raises FloatingPointError, leaving the model as it was, when that value
    is not finite.  Nothing else of the model is read or written, so codes
    encoded once serve every step while the encoder stays frozen."""
    beta = _weights(model, None, beta)[1]
    z = _check_codes(model, z)
    labels = _check_labels(model, labels, len(z))
    scores, mlp_cache = _mlp_cached(model.params, model.arch, z)
    ce, dscores = _cross_entropy(np.asarray(scores, dtype=np.float64), labels)
    grads: dict[str, np.ndarray] = {}
    _mlp_bwd((beta * dscores).astype(model.dtype), mlp_cache, grads)
    return _apply_step(model, beta * ce, grads, lr)


def _apply_step(model: ModelState, total: float, grads, lr: float) -> float:
    if not np.isfinite(total):
        raise FloatingPointError(f"non-finite training loss {total!r}")
    for name, g in grads.items():
        # the step is rounded to the model's dtype before it is subtracted
        model.params[name] -= np.multiply(lr, g, out=g)
    return total


def grad_check(model: ModelState, x, labels, eps: float = 1e-5,
               alpha: float | None = None, beta: float | None = None) -> float:
    """Max relative error between analytic gradients and central differences,
    over every parameter entry.  Meaningful only on a float64 model."""
    alpha, beta = _weights(model, alpha, beta)
    x = _check_input(model, x)
    labels = _check_labels(model, labels, len(x))
    _, grads = _compute_grads(model, x, labels, alpha, beta)
    worst = 0.0
    for name, g in grads.items():
        p = model.params[name]
        flat_p, flat_g = p.reshape(-1), np.asarray(g).reshape(-1)
        for idx in range(flat_p.size):
            orig = flat_p[idx]
            flat_p[idx] = orig + eps
            lp = evaluate_loss(model, x, labels, alpha, beta)[0]
            flat_p[idx] = orig - eps
            lm = evaluate_loss(model, x, labels, alpha, beta)[0]
            flat_p[idx] = orig
            numeric = (lp - lm) / (2.0 * eps)
            scale = max(abs(numeric), abs(flat_g[idx]), 1e-8)
            worst = max(worst, abs(numeric - flat_g[idx]) / scale)
    return worst
