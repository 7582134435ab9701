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
        return MappingProxyType(_views(self.arch, self.flat))

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


@functools.lru_cache(maxsize=16)
def _slots(arch: ArchSpec) -> MappingProxyType:
    """Each parameter's slice of ``ModelState.flat`` and its shape, or None
    for a vector, which the slice already is."""
    slots, start = {}, 0
    for name, shape in _param_shapes(arch).items():
        slots[name] = (slice(start, start + math.prod(shape)), shape if len(shape) > 1 else None)
        start += math.prod(shape)
    return MappingProxyType(slots)


def _param_count(arch: ArchSpec) -> int:
    return sum(map(math.prod, _param_shapes(arch).values()))


def _views(arch: ArchSpec, flat) -> dict:
    return {name: flat[part] if shape is None else flat[part].reshape(shape)
            for name, (part, shape) in _slots(arch).items()}


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
# layer's ``cols`` at a time, so batch-512 memory does not grow.  An
# encoder conv's rows come grouped by pooling slot, so its pool and ReLU
# read contiguous blocks, and a bias gradient is one product with ones.
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
    pool: int = 1  # of the encoder's max pooling over the output

    @property
    def pad_left(self) -> int:
        return (self.kernel - 1) // 2

    @property
    def pad_right(self) -> int:
        return self.kernel - 1 - self.pad_left

    @property
    def tail(self) -> int:
        """Zeros after ``pad_right`` that complete a ragged last pooling window."""
        return -self.length % self.pool


@dataclass(frozen=True)
class _Plan:
    enc: tuple[_ConvPlan, ...]   # encoder convs, input side first
    dec: tuple[_ConvPlan, ...]   # decoder convs, latent side first


@functools.lru_cache(maxsize=16)
def _plan(arch: ArchSpec) -> _Plan:
    """The layer geometry of ``arch``; one per architecture, whatever the batch."""
    lengths = arch.stage_input_lengths
    enc, in_ch = [], 1  # a row is one single-channel signal
    for i, st in enumerate(arch.stages):
        enc.append(_ConvPlan(in_ch, st.channels, st.kernel, lengths[i], need_dx=i > 0,
                              pool=st.pool))
        in_ch = st.channels
    dec = []
    for i in reversed(range(len(arch.stages))):
        out_ch = arch.stages[i - 1].channels if i > 0 else 1
        st = arch.stages[i]
        dec.append(_ConvPlan(st.channels, out_ch, st.kernel, lengths[i]))
    return _Plan(tuple(enc), tuple(dec))


# --- layer primitives ---
#
# Every activation and gradient here is (batch, length, channels).  A
# backward pass writes parameter gradients into views of one vector.


def _padded(h, pad_left: int, pad_right: int):
    """Copy of h zero-padded along the length axis, C-contiguous."""
    B, L, C = h.shape
    xp = np.zeros((B, pad_left + L + pad_right, C), dtype=h.dtype)
    xp[:, pad_left:pad_left + L] = h
    return xp


def _im2col(xp, kernel: int, length: int, pool: int = 1):
    """Matrix of the windows of ``kernel`` taps at ``length`` positions, made
    whole pooling windows, of a C-contiguous (B, ., C) buffer: row
    (j*B + b)*T + t holds xp[b, l:l + kernel] flattened, l = t*pool + j.  A
    copy, or where kernel, B or length is 1 maybe a view: xp must not change."""
    B, Lp, C = xp.shape
    s, T = xp.itemsize, -(-length // pool)
    windows = np.ndarray((pool, B, T, kernel * C), xp.dtype, xp, 0,
                         (C * s, Lp * C * s, pool * C * s, s))
    return windows.reshape(pool * B * T, kernel * C)


def _conv_fwd(xp, w, b, conv: _ConvPlan):
    """y[j, b, t, o] = sum_{k, c} xp[b, l + k, c] * w[o, c, k] + b[o], l = t*pool + j,
    (pool, B, T, O), for xp padded as ``conv`` says; row order moves no bit."""
    y = _im2col(xp, conv.kernel, conv.length, conv.pool) @ w.transpose(2, 1, 0).reshape(
        conv.kernel * conv.cin, conv.cout)
    y += b
    return y.reshape(conv.pool, len(xp), -1, conv.cout)


def _conv_bwd(dy, xp, w, conv: _ConvPlan, dw, db):
    """dx (None if ``conv`` needs none) of ``_conv_fwd`` on padded input xp;
    writes the weight and bias gradients into ``dw`` and ``db``."""
    B, L, K = len(dy), conv.length, conv.kernel
    dy2 = dy.reshape(B * L, conv.cout)
    dw[...] = (_im2col(xp, K, L).T @ dy2).reshape(K, conv.cin, conv.cout).transpose(2, 1, 0)
    np.matmul(np.ones(len(dy2), dtype=dy.dtype), dy2, out=db)  # a BLAS-ordered row sum
    if not conv.need_dx:
        return None
    # dx is the correlation of dy, padded the other way round, with the
    # kernel flipped and its channel axes swapped
    wf = w[:, :, ::-1].transpose(2, 0, 1).reshape(K * conv.cout, conv.cin)
    dx = _im2col(_padded(dy, conv.pad_right, conv.pad_left), K, L) @ wf
    return dx.reshape(B, L, conv.cin)


def _pool_relu(h, length: int, train: bool):
    """ReLU of ceil-mode max pooling of ``length`` samples grouped by window
    slot, (p, B, T, C), as ``_conv_fwd`` gives them: (y, raised).  y is the
    running max(0, slot 0, slot 1, ...) of each window, a ragged last one
    over the samples it has; in training ``raised[j - 1]`` marks where slot j
    raised it, else ``raised`` is None.  A NaN makes y and the loss NaN."""
    if length % len(h):
        h[length % len(h):, :, -1] = -np.inf  # past the end of the signal
    y = np.maximum(h[0], 0)
    raised = [] if train else None
    for slot in h[1:]:
        if train:
            raised.append(slot > y)
        np.maximum(y, slot, out=y)
    return y, raised


def _pool_relu_bwd(dy, y, raised, length: int):
    """dx of ``_pool_relu``, one mask per slot: a window's dy
    goes to its first maximum, the last slot that raised the running one or
    else slot 0, and nowhere where y is 0; the other slots get dy * 0."""
    B, T, C = dy.shape
    p = len(raised) + 1
    dx = np.empty((B, T, p, C), dtype=dy.dtype)
    taken = None
    for j in range(p - 1, 0, -1):
        up = raised[j - 1]
        np.multiply(dy, up if taken is None else up > taken, out=dx[:, :, j])
        taken = up if taken is None else taken | up
    np.multiply(dy, y > 0 if taken is None else (y > 0) > taken, out=dx[:, :, 0])
    return dx.reshape(B, T * p, C)[:, :length]


def _upsampled(h, p: int, conv: _ConvPlan):
    """``conv``'s padded input: h repeated p times along the length axis and
    cropped to ``conv.length``, between zero pads."""
    xp = np.zeros((len(h), conv.length + conv.kernel - 1, conv.cin), dtype=h.dtype)
    xp[:, conv.pad_left:conv.pad_left + conv.length] = np.repeat(h, p, axis=1)[:, :conv.length]
    return xp


def _upsample_bwd(dy, p: int):
    """Sum each group of p gradient samples (the last group may be short),
    in sample order; C-contiguous."""
    dx = np.ascontiguousarray(dy[:, 0::p])
    for j in range(1, p):
        part = dy[:, j::p]
        dx[:, :part.shape[1]] += part
    return dx


def _dense_bwd(dy, x, w, dw, db):
    """dx of ``x @ w + b``; writes the weight and bias gradients into dw, db."""
    np.matmul(x.T, dy, out=dw)
    np.add.reduce(dy, axis=0, out=db)
    return dy @ w.T


def _relu(x, train: bool):
    """(max(x, 0), the mask of positive inputs if ``train``, else None)."""
    return np.maximum(x, 0), (x > 0 if train else None)


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
    train = cache is not None
    h = x.reshape(len(x), -1, 1)  # a row is one single-channel signal
    for i, conv in enumerate(plan.enc):
        xp = _padded(h, conv.pad_left, conv.pad_right + conv.tail)
        h, raised = _pool_relu(_conv_fwd(xp, params[f"enc.conv{i}.w"], params[f"enc.conv{i}.b"],
                                         conv), conv.length, train)
        if train:
            cache.append((xp, h, raised))
    rows = _flatten(h)
    if train:
        cache.append(rows)
    return rows @ params["enc.fc.w"] + params["enc.fc.b"]


def _decode(params, plan: _Plan, z, cache=None):
    train = cache is not None
    h, relu_mask = _relu(z @ params["dec.fc.w"] + params["dec.fc.b"], train)
    if train:
        cache.append((z, relu_mask))
    h = _unflatten(h, plan.dec[0].cin)
    last = len(plan.dec) - 1
    for d, conv in enumerate(plan.dec):
        xp = _upsampled(h, plan.enc[last - d].pool, conv)
        h = _conv_fwd(xp, params[f"dec.conv{d}.w"], params[f"dec.conv{d}.b"], conv)[0]
        conv_relu = None
        if d < last:
            h, conv_relu = _relu(h, train)
        if train:
            cache.append((xp, conv_relu))
    return h.reshape(len(z), -1)


def _mlp(params, arch, z, cache=None):
    train = cache is not None
    n_layers = len(arch.mlp_hidden) + 1
    h = z
    for j in range(n_layers):
        x, h = h, h @ params[f"mlp.fc{j}.w"] + params[f"mlp.fc{j}.b"]
        mask = None
        if j < n_layers - 1:
            h, mask = _relu(h, train)
        if train:
            cache.append((x, mask))
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


def _mean(values) -> float:
    """``np.mean`` of a float array without its Python layer: the same sum,
    divided by the count in float64 and rounded to the array's dtype."""
    return float(values.dtype.type(float(np.add.reduce(values, axis=None)) / values.size))


def _mse(recon, target):
    diff = recon - target
    return _mean(np.square(diff)), (2.0 / diff.size) * diff


def _cross_entropy_value(scores, labels):
    """(mean cross-entropy, shifted scores, their log-sum-exp per row)."""
    z = scores - np.maximum.reduce(scores, axis=1, keepdims=True)
    lse = np.log(np.add.reduce(np.exp(z), axis=1))
    return _mean(lse - z[np.arange(len(labels)), labels]), z, lse


def _cross_entropy(scores, labels):
    val, z, lse = _cross_entropy_value(scores, labels)
    soft = np.exp(z - lse[:, None])
    soft[np.arange(len(labels)), labels] -= 1.0
    soft /= len(labels)
    return val, soft


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
    return _mean(np.square(recon - x))


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
    if np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= model.arch.num_classes:
        raise ValueError("label out of range")
    return labels


def _mlp_bwd(dscores, mlp_cache, params, grads):
    """Backward through the classifier head; writes its gradients into the
    views ``grads`` and returns the gradient of the latent."""
    dz = dscores
    for j in reversed(range(len(mlp_cache))):
        x, mask = mlp_cache[j]
        if mask is not None:
            dz = dz * mask
        dz = _dense_bwd(dz, x, params[f"mlp.fc{j}.w"], grads[f"mlp.fc{j}.w"], grads[f"mlp.fc{j}.b"])
    return dz


def _compute_grads(model: ModelState, x, labels):
    """(loss, gradient) of a full step, the gradient laid out like ``model.flat``."""
    params, arch = model.params, model.arch
    plan = _plan(arch)
    grad = np.empty_like(model.flat)
    g = _views(arch, grad)
    enc_cache, dec_cache, mlp_cache = [], [], []
    latent = _encode(params, plan, x, enc_cache)
    recon = _decode(params, plan, latent, dec_cache)
    scores = _mlp(params, arch, latent, mlp_cache)

    total, drecon, dscores = loss(recon, x, scores, labels, arch.recon_weight, arch.pred_weight)
    dz_mlp = _mlp_bwd(dscores.astype(model.dtype), mlp_cache, params, g)

    # decoder
    (z, relu_mask), stage_cache = dec_cache[0], dec_cache[1:]
    last = len(plan.dec) - 1
    dh = drecon.astype(model.dtype, copy=False).reshape(len(x), arch.input_len, 1)
    for d in reversed(range(len(plan.dec))):
        xp, conv_relu = stage_cache[d]
        if conv_relu is not None:
            dh = dh * conv_relu
        dh = _conv_bwd(dh, xp, params[f"dec.conv{d}.w"], plan.dec[d],
                       g[f"dec.conv{d}.w"], g[f"dec.conv{d}.b"])
        dh = _upsample_bwd(dh, plan.enc[last - d].pool)
    dz_dec = _dense_bwd(_flatten(dh) * relu_mask, z, params["dec.fc.w"], g["dec.fc.w"],
                        g["dec.fc.b"])

    # encoder, fed by both latent consumers
    stage_cache, rows = enc_cache[:-1], enc_cache[-1]
    dh = _unflatten(_dense_bwd(dz_dec + dz_mlp, rows, params["enc.fc.w"], g["enc.fc.w"],
                               g["enc.fc.b"]), arch.stages[-1].channels)
    for i in reversed(range(len(plan.enc))):
        xp, y, raised = stage_cache[i]
        conv = plan.enc[i]
        dh = _conv_bwd(_pool_relu_bwd(dh, y, raised, conv.length), xp, params[f"enc.conv{i}.w"],
                       conv, g[f"enc.conv{i}.w"], g[f"enc.conv{i}.b"])
    return total, grad


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
    grad = np.empty_like(model.flat)  # only the head's tail is written
    _mlp_bwd((weight * dscores).astype(model.dtype), mlp_cache, model.params,
             _views(model.arch, grad))
    return _apply_step(model, weight * ce, grad[_slots(model.arch)["mlp.fc0.w"][0].start:], lr)


def _apply_step(model: ModelState, total: float, grad, lr: float) -> float:
    """SGD on the tail of ``model.flat`` that ``grad`` covers, if ``total`` is finite."""
    if not math.isfinite(total):
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
