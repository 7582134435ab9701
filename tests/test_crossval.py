import numpy as np
import pytest

import fedbalance.crossval as cv
from fedbalance.crossval import ExperimentPlan, MetricsTable, run_experiment, run_fold
from fedbalance.dataset import generate_synthetic, make_synthetic_spec
from fedbalance.federation import TrainHyper
from fedbalance.gcae import ArchSpec, ConvStage

# The tiny fixture dataset has a rare class, so some clients legitimately end up
# with single-class splits; those warnings are expected small-data behaviour.
pytestmark = pytest.mark.filterwarnings(
    "ignore:single-class training split",
    "ignore:client 2 test split is single-class",
)


def tiny_dataset():
    spec = make_synthetic_spec(class_counts=(30, 20, 8), dim=8, seed=0)
    return generate_synthetic(spec, seed=1)


def tiny_plan(tmp_path, **kw):
    kw.setdefault("samplers", ["smote", "random_over"])
    kw.setdefault("num_folds", 2)
    kw.setdefault("global_rounds", 3)
    kw.setdefault("personalization_rounds", 4)
    kw.setdefault("eval_gap", 2)
    kw.setdefault("master_seed", 5)
    kw.setdefault("arch", ArchSpec(input_len=8, num_classes=3, stages=(ConvStage(3, 3, 2),),
                                   latent_dim=4, mlp_hidden=(5,)))
    kw.setdefault("hyper", TrainHyper(learning_rate=0.05, batch_size=8))
    return ExperimentPlan(dataset=tiny_dataset(), num_clients=3, work_dir=tmp_path, **kw)


# --- plan validation and the evaluation schedule ---


def test_plan_normalizes_sampler_names(tmp_path):
    plan = tiny_plan(tmp_path)
    assert [s.kind for s in plan.samplers] == ["smote", "random_over"]


def test_plan_rejects_bad_configuration(tmp_path):
    with pytest.raises(ValueError, match="folds"):
        tiny_plan(tmp_path, num_folds=1)
    with pytest.raises(ValueError, match="duplicate"):
        tiny_plan(tmp_path, samplers=["smote", "smote"])
    with pytest.raises(ValueError, match="sampler"):
        tiny_plan(tmp_path, samplers=[])
    with pytest.raises(ValueError, match="input width"):
        tiny_plan(tmp_path, arch=ArchSpec(input_len=9, num_classes=3,
                                          stages=(ConvStage(3, 3, 2),)))


@pytest.mark.parametrize(
    "rounds,gap,expected",
    [
        (20, 5, (0, 5, 10, 15, 20)),
        (10, 3, (0, 3, 6, 9)),
        (3, 1, (0, 1, 2, 3)),
        (2, 5, (0,)),
    ],
)
def test_eval_schedule(tmp_path, rounds, gap, expected):
    plan = tiny_plan(tmp_path, personalization_rounds=rounds, eval_gap=gap)
    assert plan.eval_schedule() == expected


# --- one shared tiny run ---


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("xval")
    plan = tiny_plan(work)
    return plan, run_experiment(plan)


def test_grid_is_complete(tiny_run):
    plan, table = tiny_run
    assert isinstance(table, MetricsTable)
    assert len(table) == 2 * 2 * len(plan.eval_schedule())
    assert table.samplers() == ["smote", "random_over"]
    assert table.folds() == [0, 1]
    assert table.rounds() == list(plan.eval_schedule())


def test_round_zero_is_identical_across_samplers(tiny_run):
    """Every sampler starts from the same reloaded checkpoint, so the
    un-personalized test metrics must agree exactly."""
    _, table = tiny_run
    for fold in table.folds():
        rows = table.select(fold=fold, round=0)
        assert len(rows) == 2
        a, b = rows
        assert a.test_accuracy == b.test_accuracy
        assert a.test_auc == b.test_auc
        assert a.std_test_accuracy == b.std_test_accuracy
        assert a.std_test_auc == b.std_test_auc


def test_fold_now_tracks_progress(tiny_run):
    plan, _ = tiny_run
    assert plan.fold_now == plan.num_folds - 1


def test_checkpoints_written_per_fold(tiny_run):
    plan, _ = tiny_run
    for fold in range(plan.num_folds):
        d = plan.fold_dir(fold)
        assert (d / "global.fedh").is_file()
        for cid in range(plan.num_clients):
            assert (d / f"client_{cid}.fedh").is_file()


def test_rerun_reproduces_every_record(tiny_run, tmp_path):
    plan, table = tiny_run
    again = run_experiment(tiny_plan(tmp_path))
    assert again.records == table.records


def test_trials_never_read_client_checkpoints(tiny_run, tmp_path, monkeypatch):
    plan, table = tiny_run

    def refuse(path):
        raise AssertionError(f"client checkpoint {path} was read")

    monkeypatch.setattr(cv, "load_client", refuse)
    again = run_experiment(tiny_plan(tmp_path))
    assert again.records == table.records


def test_client_files_duplicate_the_global_checkpoint(tiny_run):
    """Each client_<id>.fedh holds what global.fedh already holds for that
    client, so building trials from global.fedh alone loses nothing."""
    from fedbalance.checkpoint import load_client, load_global

    plan, _ = tiny_run
    for fold in range(plan.num_folds):
        d = plan.fold_dir(fold)
        server = load_global(d / "global.fedh")
        assert [c.client_id for c in server.clients] == list(range(plan.num_clients))
        for c in server.clients:
            alone = load_client(d / f"client_{c.client_id}.fedh")
            assert alone.client_id == c.client_id
            assert np.array_equal(alone.train_indices, c.train_indices)
            assert np.array_equal(alone.test_indices, c.test_indices)
            for name, p in c.model.params.items():
                assert np.array_equal(alone.model.params[name], p)


def test_run_fold_validates_index(tiny_run):
    plan, _ = tiny_run
    with pytest.raises(ValueError):
        run_fold(plan, 2)


# --- failure paths ---


def test_sampler_failure_is_wrapped_with_context(tmp_path, monkeypatch):
    plan = tiny_plan(tmp_path)

    def boom(*a, **k):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(cv, "build_personalization_set", boom)
    with pytest.raises(RuntimeError, match=r"fold 0, sampler 'smote'.*synthetic failure"):
        run_fold(plan, 0)


@pytest.mark.filterwarnings("ignore:client 0 test split is single-class")
def test_single_class_client_warns_but_completes(tmp_path):
    """A client whose fold-train rows are one class skips resampling and
    trains on its raw rows; the sampler trial still records its full grid."""
    from fedbalance.federation import ClientState, ServerState
    from fedbalance.gcae import init_model

    plan = tiny_plan(tmp_path)
    ds = plan.dataset
    gm = init_model(plan.arch, np.random.default_rng(0))
    class0 = np.flatnonzero(ds.labels == 0)
    class1 = np.flatnonzero(ds.labels == 1)
    class2 = np.flatnonzero(ds.labels == 2)
    clients = [
        ClientState(0, gm.copy(), class0[:8], class0[8:12]),  # single-class train
        ClientState(1, gm.copy(), np.concatenate([class1[:6], class2[:4]]),
                    np.concatenate([class1[6:8], class2[4:6]])),
    ]
    server = ServerState(gm, clients)
    with pytest.warns(UserWarning, match="single-class training split"):
        records = cv._run_personalization(plan, 0, plan.samplers[0], server,
                                          ds.features, ds.labels)
    assert len(records) == len(plan.eval_schedule())
