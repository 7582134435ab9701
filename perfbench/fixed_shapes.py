"""Per-call timings of GCAE and resampling functions at fixed shapes.

Only public functions of ``fedbalance`` and ``fedbalance.resampling`` are
called, so a kernel refactor behind them cannot break these timings.  Each function is called a fixed number of
times after warm-up calls, and the median call is reported.  Each result is
checked against ``bruteforce`` or against a property the method must have.
"""

from __future__ import annotations

import numpy as np

import bruteforce
from tally import Tally
from workloads import ALL_SAMPLERS, gaussian_classes

# (batch, head_only, timed calls)
TRAIN_STEP_SHAPES = ((32, False, 60), (512, False, 12), (1024, False, 8), (512, True, 16))
FORWARD_BATCH, FORWARD_CALLS = 1024, 12
LATENT_DIM = 16
# timed calls per sampler and helper at each resampling size
RESAMPLE_CALLS = {
    300: {"smote": 5, "borderline_smote": 5, "random_over": 5, "svm_smote": 1,
          "smote_enn": 3, "smote_tomek": 3,
          "fit_linear_svm": 1, "enn_filter": 3, "tomek_links": 3},
    2000: {"smote": 3, "borderline_smote": 1, "random_over": 5, "svm_smote": 1,
           "smote_enn": 1, "smote_tomek": 1,
           "fit_linear_svm": 1, "enn_filter": 1, "tomek_links": 1},
}
KNN_QUERIES, KNN_K = 200, 5
PURE_OVERSAMPLERS = ("smote", "borderline_smote", "random_over", "svm_smote")


def run(seed: int) -> Tally:
    s = Tally()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    _gcae_shapes(s, rng)
    _train_step_lowers_loss(s, rng)
    for n in RESAMPLE_CALLS:
        _resampling_shapes(s, rng, n)
    _knn_shape(s, rng)
    return s


def _gcae_shapes(s: Tally, rng) -> None:
    from fedbalance import ArchSpec, forward, init_model, train_step

    arch = ArchSpec(input_len=24, num_classes=6)
    x, y = gaussian_classes([171] * 6, 24, rng)
    order = rng.permutation(len(y))[:1024]
    x, y = x[order].astype(np.float32), y[order]
    base = init_model(arch, rng)
    for batch, head_only, calls in TRAIN_STEP_SHAPES:
        model = base.copy()
        xb, yb = x[:batch], y[:batch]
        secs, _ = s.timed(f"train_step b{batch}",
                          lambda: train_step(model, xb, yb, 0.01, head_only=head_only), calls)
        name = f"gcae.train_step_{'head_' if head_only else ''}b{batch}_us"
        if secs is not None:
            s.metrics[name] = secs * 1e6
    secs, _ = s.timed("forward b1024", lambda: forward(base, x[:FORWARD_BATCH]), FORWARD_CALLS)
    if secs is not None:
        s.metrics["gcae.forward_b1024_us"] = secs * 1e6


def _train_step_lowers_loss(s: Tally, rng) -> None:
    """On a float64 model, one tiny-step SGD update lowers its batch's loss."""
    from fedbalance import ArchSpec, evaluate_loss, init_model, train_step

    arch = ArchSpec(input_len=24, num_classes=6)
    x, y = gaussian_classes([11] * 6, 24, rng)
    for head_only in (False, True):
        model = init_model(arch, rng, dtype=np.float64)
        before = evaluate_loss(model, x, y)[0]
        train_step(model, x, y, 1e-4, head_only=head_only)
        after = evaluate_loss(model, x, y)[0]
        s.check(f"float64 train_step{' head-only' if head_only else ''} lowers its loss",
                after < before, f"({before!r} -> {after!r})")


def latent_set(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Two overlapping 16-d Gaussian classes at 4:1, float32 like the
    encoder's output, rows shuffled."""
    minority = n // 5
    centers = rng.uniform(-0.5, 0.5, size=(2, LATENT_DIM))
    x = np.vstack([centers[0] + rng.standard_normal((n - minority, LATENT_DIM)),
                   centers[1] + rng.standard_normal((minority, LATENT_DIM))])
    y = np.repeat([0, 1], [n - minority, minority])
    order = rng.permutation(n)
    return x[order].astype(np.float32), y[order]


def _resampling_shapes(s: Tally, rng, n: int) -> None:
    from fedbalance import SamplerSpec, resample
    from fedbalance.resampling import SvmParams, enn_filter, fit_linear_svm, tomek_links

    x, y = latent_set(n, rng)
    calls = RESAMPLE_CALLS[n]
    # The smallest size warms every code path up; larger sizes skip the
    # untimed call, which costs seconds for the SVM.
    warmup = 1 if n == min(RESAMPLE_CALLS) else 0
    stream = int(rng.integers(2**32))
    for kind in ALL_SAMPLERS:
        spec = SamplerSpec(kind=kind)
        secs, rs = s.timed(f"{kind} n={n}",
                           lambda: resample(x, y, spec, np.random.default_rng(stream)),
                           calls[kind], warmup)
        if secs is None:
            continue
        s.metrics[f"resampling.{kind}_{n}_ms"] = secs * 1e3
        _check_resampled(s, f"{kind} n={n}", kind, x, y, rs, spec.k_neighbors)

    binary = np.where(y == 1, 1.0, -1.0)
    secs, _ = s.timed(f"fit_linear_svm n={n}", lambda: fit_linear_svm(x, binary, SvmParams()),
                      calls["fit_linear_svm"], warmup)
    if secs is not None:
        s.metrics[f"resampling.fit_linear_svm_{n}_ms"] = secs * 1e3

    secs, keep = s.timed(f"enn_filter n={n}", lambda: enn_filter(x, y, 3),
                          calls["enn_filter"], warmup)
    if secs is not None:
        s.metrics[f"resampling.enn_filter_{n}_ms"] = secs * 1e3
        want = bruteforce.enn_keep(x, y, 3)
        s.check(f"enn_filter n={n} matches brute force", np.array_equal(keep, want),
                f"({int(np.count_nonzero(keep != want))} rows differ)")

    secs, links = s.timed(f"tomek_links n={n}", lambda: tomek_links(x, y),
                           calls["tomek_links"], warmup)
    if secs is not None:
        s.metrics[f"resampling.tomek_links_{n}_ms"] = secs * 1e3
        want = bruteforce.tomek_pairs(x, y)
        s.check(f"tomek_links n={n} matches brute force",
                [tuple(map(int, p)) for p in links] == want,
                f"({len(links)} links, brute force {len(want)})")


def _check_resampled(s: Tally, label: str, kind: str, x, y, rs, k: int) -> None:
    synth = np.asarray(rs.is_synthetic, dtype=bool)
    src = np.asarray(rs.source_indices)[~synth]
    s.check(f"{label} keeps original rows intact",
            np.array_equal(rs.features[~synth], x[src]) and np.array_equal(rs.labels[~synth], y[src]))
    counts = np.bincount(rs.labels, minlength=2)
    if kind in PURE_OVERSAMPLERS:
        majority = np.bincount(y).max()
        s.check(f"{label} leaves every class at the majority count",
                bool(np.all(counts == majority)), f"(counts {counts.tolist()}, majority {majority})")
    tol = 1e-5 * (1.0 + float(np.max(np.abs(x))))
    off = 0
    for c in np.unique(rs.labels[synth]):
        off += len(bruteforce.off_segment_rows(rs.features[synth & (rs.labels == c)],
                                               x[y == c], k, tol))
    s.check(f"{label} synthetic rows lie on same-class segments", off == 0,
            f"({off} of {int(np.count_nonzero(synth))} off every segment)")


def _knn_shape(s: Tally, rng) -> None:
    from fedbalance.resampling import knn_indices

    x, _ = latent_set(2000, rng)
    queries = rng.choice(len(x), size=KNN_QUERIES, replace=False)
    got = []

    def all_queries():
        got.clear()
        for q in queries:
            got.append(knn_indices(x, int(q), KNN_K))

    secs, _ = s.timed("knn_indices n=2000", all_queries, 1)
    if secs is None:
        return
    s.metrics["resampling.knn_indices_2000_us"] = secs / KNN_QUERIES * 1e6
    want = bruteforce.knn(x, KNN_K, rows=queries)
    s.check("knn_indices n=2000 matches brute force", np.array_equal(np.asarray(got), want))
