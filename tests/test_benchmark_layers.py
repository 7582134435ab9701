"""The benchmark's fixed-shape layer suite still runs against the package.

``perfbench/fixed_shapes.py`` calls ``train_step``, ``forward``,
``evaluate_loss``, ``resample``, ``fit_linear_svm``, ``enn_filter``,
``tomek_links`` and ``knn_indices`` with fixed signatures, so a signature
change in the package breaks the layer suite without failing any other test.
This runs the whole suite in-process at tiny shapes.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

pytestmark = pytest.mark.skipif(not (PERFBENCH / "fixed_shapes.py").is_file(),
                                reason="no perfbench/ in this checkout")


def test_fixed_shape_suite_runs_without_a_failed_operation(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import fixed_shapes

    monkeypatch.setattr(fixed_shapes, "TRAIN_STEP_SHAPES", ((4, False, 1), (4, True, 1)))
    monkeypatch.setattr(fixed_shapes, "FORWARD_BATCH", 8)
    monkeypatch.setattr(fixed_shapes, "FORWARD_CALLS", 1)
    monkeypatch.setattr(fixed_shapes, "KNN_QUERIES", 5)
    monkeypatch.setattr(fixed_shapes, "RESAMPLE_CALLS",
                        {60: dict.fromkeys(fixed_shapes.RESAMPLE_CALLS[300], 1)})
    tally = fixed_shapes.run(1)
    assert tally.failed == 0, tally.failures
    assert {"gcae.train_step_b4_us", "gcae.train_step_head_b4_us", "gcae.forward_b1024_us",
            "resampling.smote_enn_60_ms", "resampling.fit_linear_svm_60_ms",
            "resampling.knn_indices_2000_us"} <= set(tally.metrics)
