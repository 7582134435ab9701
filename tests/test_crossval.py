import json
import struct

import numpy as np
import pytest

import fedbalance.crossval as cv
from fedbalance.checkpoint import VERSION, _split_digest, save_global
from fedbalance.crossval import (ExperimentPlan, run_experiment, run_fold, run_global_phase,
                                 run_trial)
from fedbalance.dataset import generate_synthetic, make_synthetic_spec
from fedbalance.federation import TrainHyper
from fedbalance.gcae import ArchSpec, ConvStage, _param_shapes

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
    ],
)
def test_eval_schedule(tmp_path, rounds, gap, expected):
    plan = tiny_plan(tmp_path, global_rounds=gap, personalization_rounds=rounds, eval_gap=gap)
    assert plan.eval_schedule() == expected


def test_eval_gap_beyond_the_last_round_is_rejected(tmp_path):
    # such a schedule would score round 0 only, never a trained model
    with pytest.raises(ValueError, match=r"^eval_gap must be <= personalization_rounds \(2\), "
                                         "got 5$"):
        tiny_plan(tmp_path, personalization_rounds=2, eval_gap=5)
    assert tiny_plan(tmp_path, global_rounds=5, personalization_rounds=5,
                     eval_gap=5).eval_schedule() == (0, 5)


def test_eval_gap_beyond_the_last_global_round_is_rejected(tmp_path):
    # the global phase would score only the untrained initial model
    with pytest.raises(ValueError, match=r"^eval_gap must be <= global_rounds \(2\), got 3$"):
        tiny_plan(tmp_path, global_rounds=2, personalization_rounds=4, eval_gap=3)
    tiny_plan(tmp_path, global_rounds=3, personalization_rounds=4, eval_gap=3)


# --- one shared tiny run ---


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("xval")
    plan = tiny_plan(work)
    return plan, run_experiment(plan)


def test_grid_is_complete(tiny_run):
    plan, records = tiny_run
    assert isinstance(records, list)
    assert len(records) == 2 * 2 * len(plan.eval_schedule())
    assert list(dict.fromkeys(r.sampler for r in records)) == ["smote", "random_over"]
    assert sorted({r.fold for r in records}) == [0, 1]
    assert sorted({r.round for r in records}) == list(plan.eval_schedule())


def test_round_zero_is_identical_across_samplers(tiny_run):
    """Every sampler starts from the same reloaded checkpoint, so the
    un-personalized test metrics must agree exactly."""
    _, records = tiny_run
    for fold in sorted({r.fold for r in records}):
        rows = [r for r in records if r.fold == fold and r.round == 0]
        assert len(rows) == 2
        a, b = rows
        assert a.test_accuracy == b.test_accuracy
        assert a.test_auc == b.test_auc
        assert a.std_test_accuracy == b.std_test_accuracy
        assert a.std_test_auc == b.std_test_auc


def test_checkpoints_written_per_fold(tiny_run):
    """global.fedh, in the current format, is the only file a fold writes.  It holds
    a digest of the clients' rows and only the global model's tensors: each
    sampler trial derives the rows from the plan and gives every client a
    copy of the global model."""
    plan, _ = tiny_run
    for fold in range(plan.num_folds):
        path = plan.fold_dir(fold) / "global.fedh"
        assert [p.name for p in plan.fold_dir(fold).iterdir()] == ["global.fedh"]
        raw = path.read_bytes()
        _, version, header_len = struct.unpack_from("<4sIQ", raw)
        header = json.loads(raw[16:16 + header_len])
        assert version == VERSION
        splits = cv._split_clients(cv.partition_clients(plan), cv._fold_assignment(plan), fold)
        assert "clients" not in header and header["split"] == _split_digest(splits)
        assert [name for name, _ in header["tensors"]] == list(_param_shapes(plan.arch))


def test_rerun_reproduces_every_record(tiny_run, tmp_path):
    plan, records = tiny_run
    assert run_experiment(tiny_plan(tmp_path)) == records


def test_trials_never_read_client_checkpoints(tiny_run, tmp_path, monkeypatch):
    plan, records = tiny_run

    def refuse(path):
        raise AssertionError(f"client checkpoint {path} was read")

    monkeypatch.setattr(cv, "load_client", refuse)
    assert run_experiment(tiny_plan(tmp_path)) == records


def _record_trials(monkeypatch):
    """Keep each server a sampler trial reloads, with a copy of its global
    model as it was loaded."""
    trials = []
    load = cv.load_global

    def recording_load(path, splits):
        server = load(path, splits)
        trials.append((server, server.global_model.copy()))
        return server

    monkeypatch.setattr(cv, "load_global", recording_load)
    return trials


def _changed(model, reference, names):
    return any(not np.array_equal(model.params[k], reference.params[k]) for k in names)


def test_run_fold_never_mutates_the_global_model(tmp_path, monkeypatch):
    trials = _record_trials(monkeypatch)
    run_fold(tiny_plan(tmp_path), 0)
    assert len(trials) == 2
    for server, loaded in trials:
        assert not _changed(server.global_model, loaded, loaded.params)
        for c in server.clients:  # every client has fold-train rows and trained
            assert _changed(c.model, loaded, loaded.params)


def test_run_fold_head_only_freezes_autoencoder(tmp_path, monkeypatch):
    trials = _record_trials(monkeypatch)
    run_fold(tiny_plan(tmp_path, personalize_full_model=False), 0)
    assert len(trials) == 2
    for server, loaded in trials:
        head = [k for k in loaded.params if k.startswith("mlp.")]
        body = [k for k in loaded.params if not k.startswith("mlp.")]
        for c in server.clients:
            assert not _changed(c.model, loaded, body)
            assert _changed(c.model, loaded, head)


def _log_codes(monkeypatch):
    """Log every federation.encode and decode call of the personalization
    phase as (trial, crossval call, evaluation number in the trial, name)."""
    import fedbalance.federation as fed

    where = {"trial": -1, "call": None, "eval": -1}
    log = []

    def entering(name, inner):
        def wrapped(*a, **k):
            if name == "evaluate_clients":
                where["eval"] += 1
            where["call"] = name
            try:
                return inner(*a, **k)
            finally:
                where["call"] = None
        return wrapped

    for name in ("build_personalization_set", "train_on", "evaluate_clients"):
        monkeypatch.setattr(cv, name, entering(name, getattr(cv, name)))
    load = cv.load_global

    def loading(path, splits):
        where["trial"] += 1
        where["eval"] = -1
        return load(path, splits)

    monkeypatch.setattr(cv, "load_global", loading)
    for fn in ("encode", "decode"):
        def logged(*a, _fn=fn, _inner=getattr(fed, fn), **k):
            if where["trial"] >= 0:
                log.append((where["trial"], where["call"], where["eval"], _fn))
            return _inner(*a, **k)
        monkeypatch.setattr(fed, fn, logged)
    return log


def _nonempty_splits(plan, fold):
    splits = cv._split_clients(cv.partition_clients(plan), cv._fold_assignment(plan), fold)
    return sum(len(tr) > 0 for tr, _ in splits), sum(len(te) > 0 for _, te in splits)


def test_head_only_trial_encodes_and_decodes_each_set_once(tmp_path, monkeypatch):
    """Per head-only trial, the round-0 evaluation encodes each client's
    test split and personalization set and decodes the latter; no step and
    no later evaluation runs the encoder or the decoder."""
    plan = tiny_plan(tmp_path, personalize_full_model=False)
    log = _log_codes(monkeypatch)
    run_fold(plan, 0)
    n_train, n_test = _nonempty_splits(plan, 0)
    for trial in range(len(plan.samplers)):
        calls = [c[1:] for c in log if c[0] == trial and c[1] != "build_personalization_set"]
        assert sorted(calls) == sorted([("evaluate_clients", 0, "encode")] * (n_train + n_test)
                                       + [("evaluate_clients", 0, "decode")] * n_train)


def test_full_model_trial_encodes_every_scheduled_round(tmp_path, monkeypatch):
    plan = tiny_plan(tmp_path)
    log = _log_codes(monkeypatch)
    run_fold(plan, 0)
    n_train, n_test = _nonempty_splits(plan, 0)
    for trial in range(len(plan.samplers)):
        calls = [c[1:] for c in log if c[0] == trial and c[1] != "build_personalization_set"]
        assert sorted(calls) == sorted(
            ("evaluate_clients", e, fn) for e in range(len(plan.eval_schedule()))
            for fn, n in (("encode", n_train + n_test), ("decode", n_train)) for _ in range(n))


@pytest.mark.filterwarnings("ignore:client 0 has no fold-train data")
def test_head_only_fold_scores_a_client_without_train_rows(tmp_path):
    """A client whose rows all fall in the test fold keeps the global model
    and adds no training loss; the other clients' losses are still recorded."""
    plan = tiny_plan(tmp_path, personalize_full_model=False)
    shards = cv.partition_clients(plan)
    rows = shards[0]
    in_test = rows[cv._fold_assignment(plan)[rows] == 0]
    assert len(in_test) > 0
    shards = [in_test] + shards[1:]
    with pytest.warns(UserWarning, match="client 0 has no fold-train rows"):
        records = run_fold(plan, 0, shards)
    assert len(records) == len(plan.samplers) * len(plan.eval_schedule())
    assert all(np.isfinite(r.train_loss) for r in records)


def test_global_phase_scores_no_train_loss(tmp_path, monkeypatch):
    """Global evaluation keeps accuracy and AUC only, so nothing computes a
    training loss before the checkpoint; personalization still records one."""
    import fedbalance.federation as fed

    calls = []
    inner = fed.evaluate_head_loss
    monkeypatch.setattr(fed, "evaluate_head_loss",
                        lambda *a, **k: calls.append(1) or inner(*a, **k))
    at_save = []
    save = cv.save_global

    def saving(path, server):
        at_save.append(len(calls))
        save(path, server)

    monkeypatch.setattr(cv, "save_global", saving)
    run_fold(tiny_plan(tmp_path), 0)
    assert at_save == [0]
    assert calls


def test_partition_is_computed_once_per_experiment(tmp_path, monkeypatch):
    calls = []
    inner = cv.partition_noniid
    monkeypatch.setattr(cv, "partition_noniid",
                        lambda *a, **k: calls.append(1) or inner(*a, **k))
    records = run_experiment(tiny_plan(tmp_path / "all"))
    assert len(calls) == 1
    # a fold run on its own computes the same partition itself
    assert run_fold(tiny_plan(tmp_path / "alone"), 1) == [r for r in records if r.fold == 1]
    assert len(calls) == 2


def test_trials_in_reverse_sampler_order_give_the_same_records(tmp_path):
    """A trial reads only the plan, the fold, its spec and the checkpoint, so
    the order in which a fold runs its samplers changes no record."""
    plan = tiny_plan(tmp_path)
    path = run_global_phase(plan, 0)
    forward = {spec.kind: run_trial(plan, 0, spec, path) for spec in plan.samplers}
    backward = {spec.kind: run_trial(plan, 0, spec, path) for spec in reversed(plan.samplers)}
    assert backward == forward


def test_trial_alone_returns_its_slice_of_the_fold(tmp_path):
    plan = tiny_plan(tmp_path)
    records = run_fold(plan, 1)
    path = plan.fold_dir(1) / "global.fedh"
    for spec in plan.samplers:
        assert run_trial(plan, 1, spec, path) == [r for r in records if r.sampler == spec.kind]


def test_trial_rejects_a_checkpoint_of_another_split(tmp_path):
    """A trial derives the clients' rows from its own plan; a checkpoint
    written for another partition is refused, not trained on."""
    path = run_global_phase(tiny_plan(tmp_path, concentration=0.5), 0)
    plan = tiny_plan(tmp_path, concentration=5.0)
    assert not all(np.array_equal(a, b) for a, b in
                   zip(cv.partition_clients(plan),
                       cv.partition_clients(tiny_plan(tmp_path, concentration=0.5))))
    with pytest.raises(RuntimeError,
                       match=r"^fold 0, sampler 'smote': .*written for another client split"):
        run_trial(plan, 0, plan.samplers[0], path)


def _fixed_size(path) -> int:
    """The file's size with each history value and the payload checksum
    written as 0: what is left does not depend on the values."""
    raw = path.read_bytes()
    _, _, header_len = struct.unpack_from("<4sIQ", raw)
    header = json.loads(raw[16:16 + header_len])
    header["server"] = {k: [0] * len(v) for k, v in header["server"].items()}
    header["payload_crc32"] = 0
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return len(raw) - header_len + len(blob)


def test_global_checkpoint_does_not_grow_with_the_data(tmp_path):
    """Datasets of 58 and 580 rows, under the same architecture and rounds,
    give files of one size, but for the digits of their histories and
    checksum."""
    paths = []
    for n, counts in ((58, (30, 20, 8)), (580, (300, 200, 80))):
        ds = generate_synthetic(make_synthetic_spec(class_counts=counts, dim=8, seed=0), seed=1)
        plan = tiny_plan(tmp_path / str(n), global_rounds=2, samplers=["smote"])
        plan = ExperimentPlan(**{**vars(plan), "dataset": ds})
        assert len(plan.dataset) == n
        paths.append(run_global_phase(plan, 0))
    small, large = paths
    assert _fixed_size(small) == _fixed_size(large)


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
    labels = plan.dataset.labels
    gm = init_model(plan.arch, np.random.default_rng(0))
    # client 0 holds class 0 only; client 1 the other two classes
    shards = [np.flatnonzero(labels == 0), np.flatnonzero(labels > 0)]
    splits = cv._split_clients(shards, cv._fold_assignment(plan), 0)
    clients = [ClientState(i, gm.copy(), tr, te) for i, (tr, te) in enumerate(splits)]
    path = tmp_path / "global.fedh"
    save_global(path, ServerState(gm, clients))
    with pytest.warns(UserWarning, match="single-class training split"):
        records = run_trial(plan, 0, plan.samplers[0], path, shards)
    assert len(records) == len(plan.eval_schedule())
