"""Brute-force reference implementations used to cross-check the fast paths.

Everything here favours obviousness over speed: explicit sorts with
(distance, index) keys, per-row loops, O(n^2) pair counting.  The point is
that these are *different algorithms* for the same definitions, so agreement
with the package is evidence, not tautology.
"""

from __future__ import annotations

import numpy as np


def _d2(points, i):
    diff = points - points[i]
    return (diff * diff).sum(axis=1)


def brute_knn(points, query_row: int, k: int, exclude_self: bool = True) -> list[int]:
    """k nearest rows by explicit lexicographic (distance, index) sort."""
    points = np.asarray(points, dtype=np.float64)
    d2 = _d2(points, query_row)
    order = sorted(range(len(points)), key=lambda j: (d2[j], j))
    if exclude_self:
        order = [j for j in order if j != query_row]
    return order[:k]


def brute_enn_keep(features, labels, k: int) -> list[bool]:
    """Row survives iff its own class is the unique most common class among
    its k nearest other rows (a tie keeps the row)."""
    labels = np.asarray(labels)
    keep = []
    for i in range(len(labels)):
        votes: dict[int, int] = {}
        for j in brute_knn(features, i, k):
            votes[int(labels[j])] = votes.get(int(labels[j]), 0) + 1
        top = max(votes.values())
        winners = [c for c, v in votes.items() if v == top]
        keep.append(len(winners) > 1 or winners[0] == int(labels[i]))
    return keep


def brute_tomek(features, labels) -> set[tuple[int, int]]:
    """Cross-class mutual-nearest-neighbour pairs, i < j."""
    labels = np.asarray(labels)
    n = len(labels)
    nn = [brute_knn(features, i, 1)[0] for i in range(n)]
    return {
        (i, nn[i])
        for i in range(n)
        if i < nn[i] and nn[nn[i]] == i and labels[i] != labels[nn[i]]
    }


def brute_danger_positions(features, labels, class_label: int, m: int) -> list[int]:
    """Positions (within the class) of borderline rows: among the m nearest
    rows of the whole set, at least half but not all belong to other classes.
    m is clamped to n-1 candidates."""
    labels = np.asarray(labels)
    m_eff = min(m, len(labels) - 1)
    out = []
    for pos, i in enumerate(np.flatnonzero(labels == class_label)):
        neigh = brute_knn(features, int(i), m_eff)
        n_other = sum(1 for j in neigh if labels[j] != class_label)
        if n_other < m_eff and 2 * n_other >= m_eff:
            out.append(pos)
    return out


def pairwise_auc(scores, is_positive) -> float:
    """Pair-counting AUC: concordant pairs plus half the ties, over all
    positive/negative pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    is_positive = np.asarray(is_positive, dtype=bool)
    pos = scores[is_positive]
    neg = scores[~is_positive]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def average_rank_ref(values) -> list[float]:
    """1-based rank of each value with ties sharing the mean of the ranks
    they span: one plus the smaller values plus half the other equal ones."""
    values = list(values)
    return [1 + sum(x < y for x in values) + (sum(x == y for x in values) - 1) / 2
            for y in values]


def segments_hold(class_rows, synthetics, rel: float = 1e-6) -> np.ndarray:
    """For each synthetic row, whether it lies on the segment between *some*
    pair of class rows: d(p,s) + d(s,q) - d(p,q) <= rel * d(p,q)."""
    R = np.asarray(class_rows, dtype=np.float64)
    S = np.asarray(synthetics, dtype=np.float64)
    D_pq = np.sqrt(((R[:, None, :] - R[None, :, :]) ** 2).sum(axis=2))
    out = np.zeros(len(S), dtype=bool)
    for t, s in enumerate(S):
        d_ps = np.sqrt(((R - s) ** 2).sum(axis=1))
        slack = d_ps[:, None] + d_ps[None, :] - D_pq
        out[t] = bool(np.any(slack <= rel * D_pq))
    return out


def on_some_segment(class_rows, synthetic, rel: float = 1e-6) -> bool:
    return bool(segments_hold(class_rows, [synthetic], rel)[0])


def conv1d_ref(x, w, b):
    """Stride-1, same-length 1-D correlation with (k-1)//2 left padding."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    B, C, L = x.shape
    O, _, K = w.shape
    pl = (K - 1) // 2
    y = np.zeros((B, O, L))
    for bi in range(B):
        for o in range(O):
            for t in range(L):
                acc = 0.0
                for c in range(C):
                    for kk in range(K):
                        src = t - pl + kk
                        if 0 <= src < L:
                            acc += x[bi, c, src] * w[o, c, kk]
                y[bi, o, t] = acc + b[o]
    return y


def maxpool_ref(x, p: int):
    """Ceil-mode max pooling: the ragged final window is maxed as-is."""
    x = np.asarray(x, dtype=np.float64)
    B, C, L = x.shape
    T = (L + p - 1) // p
    y = np.zeros((B, C, T))
    for bi in range(B):
        for c in range(C):
            for t in range(T):
                y[bi, c, t] = x[bi, c, t * p:(t + 1) * p].max()
    return y


def upsample_ref(x, p: int, out_len: int):
    """Nearest-neighbour repeat by p, cropped to out_len."""
    x = np.asarray(x, dtype=np.float64)
    B, C, L = x.shape
    y = np.zeros((B, C, out_len))
    for t in range(out_len):
        y[:, :, t] = x[:, :, t // p]
    return y


def linear_svm_ref(features, binary_labels, learning_rate: float, regularization: float,
                   epochs: int):
    """Full-batch hinge-loss subgradient descent written as plain loops over
    epochs, rows and features.  Each epoch reads every row's margin at the
    epoch's starting (w, b), then shrinks w once per row and adds
    lr * y_i * x_i for every row inside the margin.

    Returns (w, b, violators), where violators[e] lists the rows inside the
    margin in epoch e.
    """
    X = [[float(v) for v in row] for row in np.asarray(features, dtype=np.float64)]
    y = [float(v) for v in binary_labels]
    n, d = len(X), len(X[0])
    w = [0.0] * d
    b = 0.0
    violators = []
    for _ in range(epochs):
        inside = []
        for i in range(n):
            f = b
            for j in range(d):
                f += X[i][j] * w[j]
            if y[i] * f < 1.0:
                inside.append(i)
        for _ in range(n):
            for j in range(d):
                w[j] *= 1.0 - learning_rate * regularization
        for i in inside:
            for j in range(d):
                w[j] += learning_rate * y[i] * X[i][j]
            b += learning_rate * y[i]
        violators.append(inside)
    return np.array(w), b, violators


def conv1d_grads_ref(x, w, dy):
    """(dx, dw, db) of ``conv1d_ref`` by the chain rule, accumulated one
    output sample and one tap at a time."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    B, C, L = x.shape
    O, _, K = w.shape
    pl = (K - 1) // 2
    dx, dw, db = np.zeros_like(x), np.zeros_like(w), np.zeros(O)
    for bi in range(B):
        for o in range(O):
            for t in range(L):
                g = float(dy[bi, o, t])
                db[o] += g
                for kk in range(K):
                    src = t - pl + kk
                    if 0 <= src < L:
                        dw[o, :, kk] += g * x[bi, :, src]
                        dx[bi, :, src] += g * w[o, :, kk]
    return dx, dw, db


def maxpool_grad_ref(x, p: int, dy):
    """Gradient of ``maxpool_ref``: each window's gradient goes to the first
    position holding its maximum."""
    x = np.asarray(x, dtype=np.float64)
    B, C, L = x.shape
    dx = np.zeros((B, C, L))
    for bi in range(B):
        for c in range(C):
            for t in range(dy.shape[2]):
                window = list(x[bi, c, t * p:(t + 1) * p])
                dx[bi, c, t * p + window.index(max(window))] = dy[bi, c, t]
    return dx


def upsample_grad_ref(dy, p: int, in_len: int):
    """Gradient of ``upsample_ref``: each input sample collects the
    gradients of its copies."""
    B, C, L = dy.shape
    dx = np.zeros((B, C, in_len))
    for t in range(L):
        dx[:, :, t // p] += dy[:, :, t]
    return dx


def head_only_step_ref(model, x, labels, lr: float) -> float:
    """The head-only SGD step as it ran before it skipped the decoder:
    encode, decode, the full loss, then the classifier-head update by hand.

    Updates ``model`` in place and returns the full pre-update loss.
    """
    from fedbalance.gcae import decode, encode, loss

    arch, params = model.arch, model.params
    x = np.asarray(x, dtype=model.dtype)
    labels = np.asarray(labels, dtype=np.int64)
    latent = encode(model, x)
    recon = decode(model, latent)
    h, inputs, masks = latent, [], []
    n_layers = len(arch.mlp_hidden) + 1
    for j in range(n_layers):
        inputs.append(h)
        h = h @ params[f"mlp.fc{j}.w"] + params[f"mlp.fc{j}.b"]
        if j < n_layers - 1:
            masks.append(h > 0)
            h = np.maximum(h, 0)
    total, _, dscores = loss(recon, x, h, labels, arch.recon_weight, arch.pred_weight)
    if not np.isfinite(total):
        raise FloatingPointError(f"non-finite training loss {total!r}")
    grads, dz = {}, dscores.astype(model.dtype)
    for j in reversed(range(n_layers)):
        if j < n_layers - 1:
            dz = dz * masks[j]
        w = params[f"mlp.fc{j}.w"]
        grads[f"mlp.fc{j}.w"], grads[f"mlp.fc{j}.b"] = inputs[j].T @ dz, dz.sum(axis=0)
        dz = dz @ w.T
    for name, g in grads.items():
        params[name] -= np.multiply(lr, g, out=g)
    return total


def gcae_forward_ref(model, x):
    """(reconstruction, class scores, latent codes) of ``gcae.forward``, one
    row at a time through the (batch, channels, length) layer references
    above: a conv -> ReLU -> max-pool encoder, a dense map each way, an
    upsample -> conv decoder with no ReLU after its last conv, and the
    classifier MLP."""
    arch, params = model.arch, model.params
    lengths = arch.stage_input_lengths
    n_stages = len(arch.stages)
    n_mlp = len(arch.mlp_hidden) + 1
    out = ([], [], [])
    for row in np.asarray(x, dtype=np.float64):
        h = row.reshape(1, 1, -1)
        for i, st in enumerate(arch.stages):
            h = conv1d_ref(h, params[f"enc.conv{i}.w"], params[f"enc.conv{i}.b"])
            h = maxpool_ref(np.maximum(h, 0.0), st.pool)
        z = h.reshape(1, -1) @ params["enc.fc.w"] + params["enc.fc.b"]
        h = np.maximum(z @ params["dec.fc.w"] + params["dec.fc.b"], 0.0)
        h = h.reshape(1, arch.stages[-1].channels, -1)
        for d, i in enumerate(reversed(range(n_stages))):
            h = upsample_ref(h, arch.stages[i].pool, lengths[i])
            h = conv1d_ref(h, params[f"dec.conv{d}.w"], params[f"dec.conv{d}.b"])
            if d < n_stages - 1:
                h = np.maximum(h, 0.0)
        s = z
        for j in range(n_mlp):
            s = s @ params[f"mlp.fc{j}.w"] + params[f"mlp.fc{j}.b"]
            if j < n_mlp - 1:
                s = np.maximum(s, 0.0)
        for acc, value in zip(out, (h.reshape(-1), s.reshape(-1), z.reshape(-1))):
            acc.append(value)
    return tuple(np.array(acc) for acc in out)
