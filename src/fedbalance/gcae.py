"""Generative convolutional autoencoder with a classifier head, in plain numpy.

Feature vectors are treated as single-channel 1-D signals.  The encoder is a
conv -> ReLU -> max-pool pyramid followed by a dense map to the latent space;
the decoder mirrors it with nearest-neighbour upsampling (cropped back to the
encoder's pre-pool lengths, so odd signal lengths round-trip exactly); a small
MLP on the latent produces class logits.  Training minimises
recon_weight * MSE(reconstruction) + pred_weight * cross-entropy(logits),
with both weights from the ArchSpec, by plain SGD with hand-written
backpropagation — no autodiff framework anywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass
from types import MappingProxyType

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
    recon_weight: float = 1.0
    pred_weight: float = 1.0

    def __post_init__(self):
        # stages may come as [channels, kernel, pool] triples and widths as any
        # sequence; both are kept as tuples, so equal specs compare equal
        stages = tuple(s if isinstance(s, ConvStage) else ConvStage(*s) for s in self.stages)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "mlp_hidden", tuple(self.mlp_hidden))
        for name, low in (("input_len", 1), ("num_classes", 2), ("latent_dim", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not stages or any(min(astuple(s)) < 1 for s in stages):
            raise ValueError("stages must be one or more [channels, kernel, pool] triples "
                             f"of integers >= 1, got {[list(astuple(s)) for s in stages]}")
        if any(h < 1 for h in self.mlp_hidden):
            raise ValueError(f"mlp_hidden widths must be >= 1, got {list(self.mlp_hidden)}")
        if not (0 <= self.recon_weight < np.inf and 0 <= self.pred_weight < np.inf  # NaN fails too
                and self.recon_weight + self.pred_weight > 0):
            raise ValueError("recon_weight and pred_weight, the loss weights, must be finite and "
                             ">= 0 with a positive sum, got "
                             f"{self.recon_weight} and {self.pred_weight}")

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


@dataclass(frozen=True)
class ModelState:
    """A network's parameters: ``flat`` holds them all back to back, in
    ``_param_shapes`` order, which ends with the classifier head's, and
    ``params`` maps each name to a view into ``flat`` in its shape.  The
    mapping is read-only and built on first use; a view writes to ``flat``."""

    arch: ArchSpec
    flat: np.ndarray

    def __post_init__(self):
        size = _param_count(self.arch)
        if self.flat.shape != (size,):
            raise ValueError(f"flat must be a vector of the architecture's {size} parameters, "
                             f"got shape {self.flat.shape}")

    @functools.cached_property
    def params(self) -> MappingProxyType:
        views, start = {}, 0
        for name, shape in _param_shapes(self.arch).items():
            views[name] = self.flat[start:start + math.prod(shape)].reshape(shape)
            start += views[name].size
        return MappingProxyType(views)

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    def copy(self) -> "ModelState":
        return ModelState(self.arch, self.flat.copy())

    def first_non_finite(self) -> str | None:
        """The name of the first parameter, in layout order, that holds a
        NaN or an infinity; None when every value is finite."""
        if np.isfinite(self.flat).all():
            return None
        return next(name for name, p in self.params.items() if not np.isfinite(p).all())


@functools.lru_cache(maxsize=16)
def _param_shapes(arch: ArchSpec) -> MappingProxyType:
    """Each parameter's name and shape, in the order of ``ModelState.flat``:
    the encoder's, the decoder's, then the classifier head's."""
    shapes: dict[str, tuple[int, ...]] = {}
    plan = _plan(arch)
    for i, conv in enumerate(plan.enc):
        shapes[f"enc.conv{i}.w"] = (conv.cout, conv.cin, conv.kernel)
        shapes[f"enc.conv{i}.b"] = (conv.cout,)
    shapes["enc.fc.w"] = (arch.flat_dim, arch.latent_dim)
    shapes["enc.fc.b"] = (arch.latent_dim,)
    shapes["dec.fc.w"] = (arch.latent_dim, arch.flat_dim)
    shapes["dec.fc.b"] = (arch.flat_dim,)
    for d, conv in enumerate(plan.dec):
        shapes[f"dec.conv{d}.w"] = (conv.cout, conv.cin, conv.kernel)
        shapes[f"dec.conv{d}.b"] = (conv.cout,)
    widths = (arch.latent_dim,) + tuple(arch.mlp_hidden) + (arch.num_classes,)
    for j in range(len(widths) - 1):
        shapes[f"mlp.fc{j}.w"] = (widths[j], widths[j + 1])
        shapes[f"mlp.fc{j}.b"] = (widths[j + 1],)
    return MappingProxyType(shapes)


def _param_count(arch: ArchSpec) -> int:
    return sum(map(math.prod, _param_shapes(arch).values()))


def init_model(arch: ArchSpec, rng, dtype=np.float32) -> ModelState:
    """Weights ~ U(+-sqrt(3 / fan_in)), biases zero, in a fixed draw order."""
    model = ModelState(arch, np.zeros(_param_count(arch), dtype=dtype))
    for name, p in model.params.items():
        if name.endswith(".w"):
            fan_in = math.prod(p.shape[1:]) if ".conv" in name else p.shape[0]
            bound = np.sqrt(3.0 / fan_in)
            p[...] = rng.uniform(-bound, bound, size=p.shape)  # cast to the model's dtype
    return model


# --- kernel plan ---
#
# Activations are channels-last, (batch, length, channels).  A conv's
# im2col is then a strided view of its zero-padded input whose rows are
# contiguous runs of kernel * channels samples, and one copy of it gives
# ``cols`` of shape (B*L, K*C).  Each product is one matmul:
#   forward  cols (B*L, K*C)              @ w as (K*C, O)          -> (B*L, O)
#   dw       cols.T (K*C, B*L)            @ dy (B*L, O)            -> (K*C, O)
#   dx       cols of dy padded the other way (B*L, K*O) @ flipped w (K*O, C)
# so outputs come out channels-last with no transpose.  A training step
# keeps the padded input, K times smaller than ``cols``, and rebuilds
# ``cols`` from it in the backward pass, and an inference pass holds one
# layer's ``cols`` at a time, so batch-512 memory does not grow.  The
# encoder pools before its ReLU: max and ReLU commute, and the ReLU then
# sees 1/pool of the samples.
# Parameters keep (O, C, K) shapes and the dense layers read a (channels,
# length) flattening, so the checkpoint format does not depend on the
# layout.  The shapes come from a plan built once per ArchSpec; a call does
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


@functools.lru_cache(maxsize=16)
def _plan(arch: ArchSpec) -> _Plan:
    """The layer geometry of ``arch``; one per architecture, whatever the batch."""
    lengths = arch.stage_input_lengths
    enc, in_ch = [], 1  # a row is one single-channel signal
    for i, st in enumerate(arch.stages):
        enc.append(_ConvPlan(in_ch, st.channels, st.kernel, lengths[i], need_dx=i > 0))
        in_ch = st.channels
    dec = []
    for i in reversed(range(len(arch.stages))):
        out_ch = arch.stages[i - 1].channels if i > 0 else 1
        st = arch.stages[i]
        dec.append(_ConvPlan(st.channels, out_ch, st.kernel, lengths[i]))
    return _Plan(tuple(enc), tuple(dec), tuple(st.pool for st in arch.stages))


# --- layer primitives ---
#
# Every activation and gradient here is (batch, length, channels).


def _padded(h, pad_left: int, pad_right: int):
    """Copy of h zero-padded along the length axis, C-contiguous."""
    B, L, C = h.shape
    xp = np.zeros((B, pad_left + L + pad_right, C), dtype=h.dtype)
    xp[:, pad_left:pad_left + L] = h
    return xp


def _im2col(xp, kernel: int, length: int):
    """(B*length, kernel*C) matrix of the ``length`` windows of ``kernel``
    taps in a C-contiguous (B, length + kernel - 1, C) buffer; row
    b*length + l holds xp[b, l:l + kernel] flattened.  It is a copy, except
    when kernel, B or length is 1, where it may be a view into xp: nothing
    may write to xp while the result is in use."""
    B, Lp, C = xp.shape
    s = xp.itemsize
    windows = np.ndarray((B, length, kernel * C), xp.dtype, xp, 0, (Lp * C * s, C * s, s))
    return windows.reshape(B * length, kernel * C)


def _conv_fwd(xp, w, b, conv: _ConvPlan):
    """y[b, l, o] = sum_{k, c} xp[b, l + k, c] * w[o, c, k] + b[o], (B, L, O),
    for a buffer padded as ``conv`` says."""
    y = _im2col(xp, conv.kernel, conv.length) @ w.transpose(2, 1, 0).reshape(
        conv.kernel * conv.cin, conv.cout)
    y += b
    return y.reshape(len(xp), conv.length, conv.cout)


def _conv_bwd(dy, xp, w, conv: _ConvPlan):
    """(dx or None, dw, db) for ``_conv_fwd`` given the output gradient and
    the padded input the forward pass read."""
    B, L, K = len(dy), conv.length, conv.kernel
    dy2 = dy.reshape(B * L, conv.cout)
    dw = (_im2col(xp, K, L).T @ dy2).reshape(K, conv.cin, conv.cout).transpose(2, 1, 0)
    db = dy2.sum(axis=0)
    if not conv.need_dx:
        return None, dw, db
    # dx is the correlation of dy, padded the other way round, with the
    # kernel flipped and its channel axes swapped
    wf = w[:, :, ::-1].transpose(2, 0, 1).reshape(K * conv.cout, conv.cin)
    dx = _im2col(_padded(dy, conv.pad_right, conv.pad_left), K, L) @ wf
    return dx.reshape(B, L, conv.cin), dw, db


def _maxpool_fwd(h, p: int, train: bool):
    """Ceil-mode max pooling by p over the length axis: (pooled, winner).

    The ragged final window is maxed as-is.  In training mode ``winner``
    holds the position of each window's first maximum; otherwise it is
    None.  A NaN anywhere in a window makes the pooled value NaN, and the
    loss with it, so the winner then goes unread.
    """
    B, L, C = h.shape
    if L % p:
        hp = np.empty((B, -(-L // p) * p, C), dtype=h.dtype)
        hp[:, :L] = h
        hp[:, L:] = -np.inf
        h = hp
    y, winner = h[:, 0::p], None
    for j in range(1, p):
        s = h[:, j::p]
        if train:
            take = s > y
            winner = take if winner is None else np.where(take, j, winner)
        y = np.maximum(y, s)
    if train and winner is None:  # p == 1: the only slot wins
        winner = np.zeros(y.shape, dtype=bool)
    return y, winner


def _maxpool_bwd(dy, winner, p: int, length: int):
    """Route each pooled gradient to its window's first maximum; the other
    slots get dy * 0, as in the ReLU backward."""
    B, T, C = dy.shape
    dx = np.empty((B, T, p, C), dtype=dy.dtype)
    for j in range(p):
        dx[:, :, j] = dy * (winner == j)
    return dx.reshape(B, T * p, C)[:, :length]


def _upsample_into(xp, h, p: int, start: int, length: int) -> None:
    """Write h repeated p times along the length axis, cropped to
    ``length``, into xp[:, start:start + length]."""
    for j in range(p):
        dst = xp[:, start + j:start + length:p]
        dst[...] = h[:, :dst.shape[1]]


def _upsample_bwd(dy, p: int):
    """Sum each group of p gradient samples (the last group may be short),
    in sample order; C-contiguous."""
    dx = np.ascontiguousarray(dy[:, 0::p])
    for j in range(1, p):
        part = dy[:, j::p]
        dx[:, :part.shape[1]] += part
    return dx


def _dense_fwd(x, w, b):
    return x @ w + b, (x, w)


def _dense_bwd(dy, ctx):
    x, w = ctx
    return dy @ w.T, x.T @ dy, dy.sum(axis=0)


def _relu_fwd(x, train: bool):
    """(max(x, 0), the mask of positive inputs if ``train``, else None)."""
    return np.maximum(x, 0), (x > 0 if train else None)


def _relu_bwd(dy, mask):
    return dy * mask


def _flatten(h):
    """(B, L, C) activations as the dense layers' (B, C*L) rows."""
    return h.transpose(0, 2, 1).reshape(len(h), -1)


def _unflatten(flat, channels: int):
    """Inverse of ``_flatten``: a (B, L, C) view of (B, C*L) rows."""
    return flat.reshape(len(flat), channels, -1).transpose(0, 2, 1)


# --- model passes ---
#
# With ``cache=None`` a pass only computes values; given a list, it also
# appends what the matching backward pass reads.  A public inference pass
# runs over consecutive slices of at most _PASS_ROWS rows, so its working
# memory does not grow with the set; a set of _PASS_ROWS rows or fewer is
# one pass.  Training steps keep a cache and take their whole batch.

# The largest batch any workload trains on: an inference pass never holds
# more rows than a training step already does.
_PASS_ROWS = 512


def _in_slices(pass_fn, rows):
    """pass_fn(rows), run on consecutive slices of at most _PASS_ROWS rows
    with each slice's result rows written into one array."""
    n = len(rows)
    if n <= _PASS_ROWS:
        return pass_fn(rows)
    first = pass_fn(rows[:_PASS_ROWS])
    out = np.empty((n,) + first.shape[1:], dtype=first.dtype)
    out[:_PASS_ROWS] = first
    for start in range(_PASS_ROWS, n, _PASS_ROWS):
        out[start:start + _PASS_ROWS] = pass_fn(rows[start:start + _PASS_ROWS])
    return out


def _encode(params, plan: _Plan, x, cache=None):
    B = len(x)
    train = cache is not None
    first = plan.enc[0]
    xp = _padded(x.reshape(B, first.length, first.cin), first.pad_left, first.pad_right)
    for i, conv in enumerate(plan.enc):
        h = _conv_fwd(xp, params[f"enc.conv{i}.w"], params[f"enc.conv{i}.b"], conv)
        h, winner = _maxpool_fwd(h, plan.pools[i], train)
        h, relu_mask = _relu_fwd(h, train)
        if train:
            cache.append((xp, relu_mask, winner))
        if i + 1 < len(plan.enc):
            nxt = plan.enc[i + 1]
            xp = _padded(h, nxt.pad_left, nxt.pad_right)
    latent, fc_ctx = _dense_fwd(_flatten(h), params["enc.fc.w"], params["enc.fc.b"])
    if train:
        cache.append(fc_ctx)
    return latent


def _decode(params, plan: _Plan, z, cache=None):
    B = len(z)
    train = cache is not None
    pre, fc_ctx = _dense_fwd(z, params["dec.fc.w"], params["dec.fc.b"])
    h, relu_mask = _relu_fwd(pre, train)
    h = _unflatten(h, plan.dec[0].cin)
    if train:
        cache.append((fc_ctx, relu_mask))
    last = len(plan.dec) - 1
    for d, conv in enumerate(plan.dec):
        xp = np.zeros((B, conv.padded, conv.cin), dtype=h.dtype)
        _upsample_into(xp, h, plan.pools[last - d], conv.pad_left, conv.length)
        h = _conv_fwd(xp, params[f"dec.conv{d}.w"], params[f"dec.conv{d}.b"], conv)
        conv_relu = None
        if d < last:
            h, conv_relu = _relu_fwd(h, train)
        if train:
            cache.append((xp, conv_relu))
    return h.reshape(B, -1)


def _mlp(params, arch, z, cache=None):
    train = cache is not None
    n_layers = len(arch.mlp_hidden) + 1
    h = z
    for j in range(n_layers):
        h, ctx = _dense_fwd(h, params[f"mlp.fc{j}.w"], params[f"mlp.fc{j}.b"])
        mask = None
        if j < n_layers - 1:
            h, mask = _relu_fwd(h, train)
        if train:
            cache.append((ctx, mask))
    return h


def encode(model: ModelState, x: np.ndarray) -> np.ndarray:
    x = _check_input(model, x)
    return _in_slices(functools.partial(_encode, model.params, _plan(model.arch)), x)


def decode(model: ModelState, z: np.ndarray) -> np.ndarray:
    z = _check_codes(model, z)
    return _in_slices(functools.partial(_decode, model.params, _plan(model.arch)), z)


def head_scores(model: ModelState, z: np.ndarray) -> np.ndarray:
    """Class scores of the classifier head on latent codes; with
    ``encode`` it gives the scores of ``forward`` without the decoder."""
    z = _check_codes(model, z)
    return _in_slices(functools.partial(_mlp, model.params, model.arch), z)


def forward(model: ModelState, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(reconstruction, class scores, latent codes), no gradient bookkeeping."""
    latent = encode(model, x)
    return decode(model, latent), head_scores(model, latent), latent


def _check_input(model: ModelState, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=model.dtype)
    if x.ndim != 2 or x.shape[1] != model.arch.input_len:
        raise ValueError(f"input must be (n, {model.arch.input_len}), got {x.shape}")
    return x


def _check_codes(model: ModelState, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=model.dtype)
    if z.ndim != 2 or z.shape[1] != model.arch.latent_dim:
        raise ValueError(f"latent must be (n, {model.arch.latent_dim})")
    return z


def _mean_square(diff) -> float:
    return float(np.mean(diff * diff))


def _mse(recon, target):
    diff = recon - target
    return _mean_square(diff), (2.0 / diff.size) * diff


def _cross_entropy_value(scores, labels):
    """(mean cross-entropy, shifted scores, their log-sum-exp per row)."""
    z = scores - scores.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=1))
    return float(np.mean(lse - z[np.arange(len(labels)), labels])), z, lse


def _cross_entropy(scores, labels):
    val, z, lse = _cross_entropy_value(scores, labels)
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


def evaluate_loss(model: ModelState, x, labels) -> tuple[float, float, float]:
    """(total, mse, cross_entropy) on one batch, weighted by the arch's
    ``recon_weight`` and ``pred_weight``."""
    x = _check_input(model, x)
    latent = encode(model, x)
    mse = reconstruction_mse(decode(model, latent), x)
    return evaluate_head_loss(model, latent, labels, mse)


def reconstruction_mse(recon: np.ndarray, x: np.ndarray) -> float:
    """The loss's MSE term, of a reconstruction ``recon`` of the rows ``x``."""
    return _mean_square(recon - x)


def evaluate_head_loss(model: ModelState, z, labels, mse: float) -> tuple[float, float, float]:
    """``evaluate_loss`` of rows given by their latent codes ``z`` and their
    reconstruction MSE, which the decoder gave and does not change while it
    is frozen: the same (total, mse, cross_entropy), with only the classifier
    head run."""
    z = _check_codes(model, z)
    labels = _check_labels(model, labels, len(z))
    ce = _cross_entropy_value(head_scores(model, z).astype(np.float64), labels)[0]
    return model.arch.recon_weight * mse + model.arch.pred_weight * ce, mse, ce


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


def _compute_grads(model: ModelState, x, labels):
    """(loss, gradient) of a full step, the gradient laid out like ``model.flat``."""
    params, arch = model.params, model.arch
    plan = _plan(arch)
    dtype = model.dtype
    grads: dict[str, np.ndarray] = {}
    enc_cache, dec_cache = [], []
    latent = _encode(params, plan, x, enc_cache)
    recon = _decode(params, plan, latent, dec_cache)
    mlp_cache = []
    scores = _mlp(params, arch, latent, mlp_cache)

    total, drecon, dscores = loss(recon, x, scores, labels, arch.recon_weight, arch.pred_weight)
    drecon = drecon.astype(dtype)
    dz_mlp = _mlp_bwd(dscores.astype(dtype), mlp_cache, grads)

    # decoder
    (fc_ctx, relu_mask), stage_cache = dec_cache[0], dec_cache[1:]
    last = len(plan.dec) - 1
    dh = drecon.reshape(len(x), arch.input_len, 1)
    for d in reversed(range(len(plan.dec))):
        xp, conv_relu = stage_cache[d]
        if conv_relu is not None:
            dh = _relu_bwd(dh, conv_relu)
        dh, grads[f"dec.conv{d}.w"], grads[f"dec.conv{d}.b"] = _conv_bwd(
            dh, xp, params[f"dec.conv{d}.w"], plan.dec[d])
        dh = _upsample_bwd(dh, plan.pools[last - d])
    dflat = _relu_bwd(_flatten(dh), relu_mask)
    dz_dec, grads["dec.fc.w"], grads["dec.fc.b"] = _dense_bwd(dflat, fc_ctx)

    # encoder, fed by both latent consumers
    stage_cache, enc_fc_ctx = enc_cache[:-1], enc_cache[-1]
    dflat_enc, grads["enc.fc.w"], grads["enc.fc.b"] = _dense_bwd(dz_dec + dz_mlp, enc_fc_ctx)
    dh = _unflatten(dflat_enc, arch.stages[-1].channels)
    for i in reversed(range(len(plan.enc))):
        xp, relu_mask_i, winner = stage_cache[i]
        conv = plan.enc[i]
        dh = _maxpool_bwd(_relu_bwd(dh, relu_mask_i), winner, plan.pools[i], conv.length)
        dh, grads[f"enc.conv{i}.w"], grads[f"enc.conv{i}.b"] = _conv_bwd(
            dh, xp, params[f"enc.conv{i}.w"], conv)
    return total, np.concatenate([grads[name] for name in _param_shapes(arch)], axis=None)


def train_step(model: ModelState, x, labels, lr: float, head_only: bool = False) -> float:
    """One SGD step in place; returns the pre-update loss it trained on.

    A full step returns recon_weight * MSE + pred_weight * cross-entropy,
    with the arch's weights.  A head-only step is ``encode`` followed by
    ``train_head_step``: it updates the classifier head alone, returns
    pred_weight * cross-entropy and runs no decoder.  Raises
    FloatingPointError if the returned loss is not finite — divergence must
    stop a run rather than silently poison downstream aggregation.
    """
    x = _check_input(model, x)
    if head_only:
        return train_head_step(model, encode(model, x), labels, lr)
    labels = _check_labels(model, labels, len(x))
    return _apply_step(model, *_compute_grads(model, x, labels), lr)


def train_head_step(model: ModelState, z, labels, lr: float) -> float:
    """One SGD step of the classifier head alone, in place, on latent codes
    ``z``; returns the pre-update pred_weight * cross-entropy it trained on,
    and raises FloatingPointError, leaving the model as it was, when that
    value is not finite.  Nothing else of the model is read or written, so codes
    encoded once serve every step while the encoder stays frozen."""
    weight = model.arch.pred_weight
    z = _check_codes(model, z)
    labels = _check_labels(model, labels, len(z))
    mlp_cache = []
    scores = _mlp(model.params, model.arch, z, mlp_cache)
    ce, dscores = _cross_entropy(np.asarray(scores, dtype=np.float64), labels)
    grads: dict[str, np.ndarray] = {}
    _mlp_bwd((weight * dscores).astype(model.dtype), mlp_cache, grads)
    head = [grads[name] for name in _param_shapes(model.arch) if name in grads]  # flat's tail
    return _apply_step(model, weight * ce, np.concatenate(head, axis=None), lr)


def _apply_step(model: ModelState, total: float, grad, lr: float) -> float:
    """SGD on the tail of ``model.flat`` that ``grad`` covers, if ``total`` is finite."""
    if not np.isfinite(total):
        raise FloatingPointError(f"non-finite training loss {total!r}")
    # the step is rounded to the model's dtype before it is subtracted
    model.flat[len(model.flat) - len(grad):] -= np.multiply(lr, grad, out=grad)
    return total


def grad_check(model: ModelState, x, labels, eps: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences,
    over every parameter entry.  Meaningful only on a float64 model."""
    x = _check_input(model, x)
    labels = _check_labels(model, labels, len(x))
    _, grad = _compute_grads(model, x, labels)
    flat, worst = model.flat, 0.0
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + eps
        lp = evaluate_loss(model, x, labels)[0]
        flat[idx] = orig - eps
        lm = evaluate_loss(model, x, labels)[0]
        flat[idx] = orig
        numeric = (lp - lm) / (2.0 * eps)
        scale = max(abs(numeric), abs(grad[idx]), 1e-8)
        worst = max(worst, abs(numeric - grad[idx]) / scale)
    return worst
