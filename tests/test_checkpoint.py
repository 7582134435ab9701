import json
import re
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedbalance.checkpoint import (
    VERSION,
    CheckpointError,
    load_client,
    load_global,
    save_client,
    save_global,
)
from fedbalance.federation import ClientState, ServerState
from fedbalance.gcae import ArchSpec, ConvStage, _param_shapes, forward, init_model

ARCH = ArchSpec(input_len=10, num_classes=3, stages=(ConvStage(3, 3, 2), ConvStage(4, 3, 2)),
                latent_dim=4, mlp_hidden=(6,), recon_weight=0.8, pred_weight=1.2)


def make_server(seed=0):
    rng = np.random.default_rng(seed)
    gm = init_model(ARCH, rng)
    clients = [
        ClientState(
            client_id=i,
            model=init_model(ARCH, np.random.default_rng(seed + 10 + i)),
            train_indices=rng.choice(100, size=8, replace=False),
            test_indices=np.arange(100 + i * 3, 103 + i * 3),
        )
        for i in range(3)
    ]
    return ServerState(gm, clients,
                       rs_test_acc=[0.4, 0.5], rs_test_auc=[0.6, 1 / 3.0],  # 1/3 is inexact
                       rs_train_loss=[2.0, 1.5, 1.2])


def splits_of(server):
    """The (train, test) rows of each client, the split a file is loaded with."""
    return [(c.train_indices, c.test_indices) for c in server.clients]


SPLITS = splits_of(make_server())  # the split of every make_server() file


def test_global_round_trip_restores_every_field(tmp_path):
    server = make_server()
    path = tmp_path / "g.fedh"
    save_global(path, server)
    back = load_global(path, splits_of(server))

    raw = path.read_bytes()  # the payload is the model's flat vector
    assert raw[_header_len(raw):] == server.global_model.flat.astype("<f4").tobytes()
    assert back.global_model.flat.dtype == np.float32 and back.global_model.flat.flags.writeable
    for k in server.global_model.params:
        assert np.array_equal(back.global_model.params[k], server.global_model.params[k])
    assert back.global_model.arch == ARCH
    assert back.rs_test_acc == [0.4, 0.5]
    assert back.rs_test_auc == [0.6, 1 / 3.0]  # bitwise float round-trip
    assert back.rs_train_loss == [2.0, 1.5, 1.2]
    for orig, rest in zip(server.clients, back.clients):
        assert rest.client_id == orig.client_id
        assert np.array_equal(rest.train_indices, orig.train_indices)
        assert np.array_equal(rest.test_indices, orig.test_indices)
        # since format 3 no client models are stored: each client restarts from the global one
        for k in server.global_model.params:
            assert np.array_equal(rest.model.params[k], server.global_model.params[k])


def test_loaded_clients_hold_independent_copies_of_the_global_model(tmp_path):
    path = tmp_path / "g.fedh"
    save_global(path, make_server())
    back = load_global(path, splits_of(make_server()))
    for c in back.clients:
        for k, p in back.global_model.params.items():
            assert c.model.params[k].tobytes() == p.tobytes()
            assert c.model.params[k].dtype == p.dtype and c.model.arch == ARCH
    others = [back.global_model, back.clients[0].model, back.clients[2].model]
    before = [m.copy() for m in others]
    for p in back.clients[1].model.params.values():
        p += 1.0
    for m, b in zip(others, before):
        assert all(np.array_equal(m.params[k], b.params[k]) for k in b.params)


def test_client_round_trip(tmp_path):
    client = make_server().clients[1]
    path = tmp_path / "c.fedh"
    save_client(path, client)
    back = load_client(path)
    assert back.client_id == 1
    assert np.array_equal(back.train_indices, client.train_indices)
    assert np.array_equal(back.test_indices, client.test_indices)
    for k in client.model.params:
        assert np.array_equal(back.model.params[k], client.model.params[k])


def test_save_load_save_is_byte_identical(tmp_path):
    server = make_server(3)
    p1, p2 = tmp_path / "a.fedh", tmp_path / "b.fedh"
    save_global(p1, server)
    save_global(p2, load_global(p1, splits_of(server)))
    assert p1.read_bytes() == p2.read_bytes()

    c1, c2 = tmp_path / "ca.fedh", tmp_path / "cb.fedh"
    save_client(c1, server.clients[0])
    save_client(c2, load_client(c1))
    assert c1.read_bytes() == c2.read_bytes()


def test_forward_pass_bitwise_after_reload(tmp_path):
    server = make_server(7)
    path = tmp_path / "g.fedh"
    save_global(path, server)
    back = load_global(path, splits_of(server))
    x = np.random.default_rng(5).normal(size=(6, 10)).astype(np.float32)
    for a, b in [(server.global_model, back.global_model),
                 (server.global_model, back.clients[2].model)]:
        ra, sa, za = forward(a, x)
        rb, sb, zb = forward(b, x)
        assert np.array_equal(ra, rb) and np.array_equal(sa, sb) and np.array_equal(za, zb)


def test_no_temp_file_left_behind(tmp_path):
    save_global(tmp_path / "g.fedh", make_server())
    assert [p.name for p in tmp_path.iterdir()] == ["g.fedh"]


def test_readme_states_the_current_format_version():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"format version (\d+)", readme) + re.findall(r"\(format (\d+)\)", readme)
    assert stated and set(stated) == {str(VERSION)}, stated


# --- corruption and malformed files ---


def _header_len(raw: bytes) -> int:
    _, _, hlen = struct.unpack_from("<4sIQ", raw)
    return 16 + hlen


def _header(path) -> dict:
    raw = path.read_bytes()
    return json.loads(raw[16:_header_len(raw)])


@pytest.mark.parametrize("offset_from", ["start", "middle", "end"])
def test_payload_byte_flip_is_detected(tmp_path, offset_from):
    path = tmp_path / "g.fedh"
    save_global(path, make_server())
    raw = bytearray(path.read_bytes())
    base = _header_len(raw)
    offset = {"start": base, "middle": (base + len(raw)) // 2, "end": len(raw) - 1}[offset_from]
    raw[offset] ^= 0x01
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match="checksum"):
        load_global(path, SPLITS)


def test_truncations_are_detected(tmp_path):
    path = tmp_path / "g.fedh"
    save_global(path, make_server())
    raw = path.read_bytes()
    needed = len(raw) - _header_len(raw)
    cases = [
        (raw[:5], "too short"),
        (raw[: _header_len(raw) - 3], "truncated header"),
        (raw[:-10], f"payload is {needed - 10} bytes, the architecture needs {needed}"),
    ]
    for blob, match in cases:
        bad = tmp_path / "bad.fedh"
        bad.write_bytes(blob)
        with pytest.raises(CheckpointError, match=match):
            load_global(bad, SPLITS)


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "g.fedh"
    save_global(path, make_server())
    raw = bytearray(path.read_bytes())
    wrong_magic = tmp_path / "m.fedh"
    wrong_magic.write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(CheckpointError, match="magic"):
        load_global(wrong_magic, SPLITS)
    # 1 is the format before the strict header; 2 also stored every client's
    # model; 3 also stored the arch's input_channels; 4 also stored each
    # tensor's byte offset, byte count and dtype; 5 also stored every
    # client's id and rows, which the plan fixes
    for version in (1, 2, 3, 4, 5, 99):
        wrong_version = bytearray(raw)
        struct.pack_into("<I", wrong_version, 4, version)
        vp = tmp_path / "v.fedh"
        vp.write_bytes(wrong_version)
        with pytest.raises(CheckpointError, match=f"unsupported version {version}"):
            load_global(vp, SPLITS)


def test_kind_mismatch_both_directions(tmp_path):
    server = make_server()
    save_global(tmp_path / "g.fedh", server)
    save_client(tmp_path / "c.fedh", server.clients[0])
    with pytest.raises(CheckpointError, match="kind"):
        load_client(tmp_path / "g.fedh")
    with pytest.raises(CheckpointError, match="kind"):
        load_global(tmp_path / "c.fedh", SPLITS)


def _rewrite_header(path, mutate):
    raw = path.read_bytes()
    hlen = _header_len(raw)
    header = json.loads(raw[16:hlen])
    payload = raw[hlen:]
    mutate(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(struct.pack("<4sIQ", b"FEDH", VERSION, len(blob)) + blob + payload)


def test_tensor_directory_must_match_architecture(tmp_path):
    client = make_server().clients[0]
    path = tmp_path / "c.fedh"
    save_client(path, client)
    assert _header(path)["tensors"] == [[name, list(shape)]
                                        for name, shape in _param_shapes(ARCH).items()]

    def rename(h):
        h["tensors"][0][0] = "enc.conv9.w"

    _rewrite_header(path, rename)
    with pytest.raises(CheckpointError, match="does not match the architecture"):
        load_client(path)


def test_tensor_shape_and_dtype_are_checked(tmp_path):
    """Format 5 stores no dtype: every tensor is float32, and saving another
    dtype fails (test_save_rejects_non_float32_models)."""
    client = make_server().clients[0]
    path = tmp_path / "c.fedh"
    for shape in ([1, 1, 1, 1], [3.0, 1, 3], [3, True, 3]):  # enc.conv0.w is [3, 1, 3]
        save_client(path, client)
        _rewrite_header(path, lambda h: h["tensors"][0].__setitem__(1, shape))
        with pytest.raises(CheckpointError, match="does not match the architecture"):
            load_client(path)


def test_swapped_directory_entries_are_rejected(tmp_path):
    """Two biases of 4 floats each trade places in the directory; the payload
    and its checksum still fit, so only the directory check can object."""
    path = tmp_path / "g.fedh"
    save_global(path, make_server())

    def swap(h):
        names = [name for name, _ in h["tensors"]]
        i, j = names.index("enc.conv1.b"), names.index("enc.fc.b")
        assert h["tensors"][i][1] == h["tensors"][j][1] == [4]
        h["tensors"][i], h["tensors"][j] = h["tensors"][j], h["tensors"][i]

    _rewrite_header(path, swap)
    with pytest.raises(CheckpointError, match="does not match the architecture"):
        load_global(path, SPLITS)


def test_another_valid_architecture_over_the_old_payload_is_rejected(tmp_path):
    path = tmp_path / "g.fedh"
    save_global(path, make_server())
    _rewrite_header(path, lambda h: h["arch"].update(latent_dim=5))
    with pytest.raises(CheckpointError, match="does not match the architecture"):
        load_global(path, SPLITS)


def test_save_rejects_non_float32_models(tmp_path):
    server = make_server()
    server.global_model = init_model(ARCH, np.random.default_rng(0), dtype=np.float64)
    for c in server.clients:
        c.model = init_model(ARCH, np.random.default_rng(1), dtype=np.float64)
    with pytest.raises(CheckpointError, match="float32"):
        save_global(tmp_path / "g.fedh", server)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_rejects_non_finite_tensors(tmp_path, bad):
    server = make_server()
    server.global_model.params["enc.fc.b"][0] = bad
    with pytest.raises(CheckpointError, match="tensor global/enc.fc.b contains non-finite"):
        save_global(tmp_path / "g.fedh", server)
    server.clients[1].model.params["enc.fc.b"][0] = bad
    with pytest.raises(CheckpointError, match="non-finite"):
        save_client(tmp_path / "c.fedh", server.clients[1])


def _rewrite_payload(path, mutate):
    """Let ``mutate(header, payload)`` edit a saved file, then store a fresh
    payload checksum so only the loader's own checks can object."""
    raw = path.read_bytes()
    hlen = _header_len(raw)
    header = json.loads(raw[16:hlen])
    payload = bytearray(raw[hlen:])
    mutate(header, payload)
    header["payload_crc32"] = zlib.crc32(payload)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(struct.pack("<4sIQ", b"FEDH", VERSION, len(blob)) + blob + bytes(payload))


def _offset(name):
    """Where tensor ``name`` of an ARCH model starts in the payload."""
    shapes = _param_shapes(ARCH)
    return 4 * sum(np.prod(shapes[n]) for n in list(shapes)[:list(shapes).index(name)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_tensors(tmp_path, bad):
    path = tmp_path / "g.fedh"
    save_global(path, make_server())

    def poison(header, payload):
        struct.pack_into("<f", payload, _offset("enc.fc.b") + 4, bad)

    _rewrite_payload(path, poison)
    with pytest.raises(CheckpointError, match="global/enc.fc.b contains non-finite"):
        load_global(path, SPLITS)

    cpath = tmp_path / "c.fedh"
    save_client(cpath, make_server().clients[0])
    _rewrite_payload(cpath, lambda h, p: struct.pack_into("<f", p, len(p) - 4, bad))
    with pytest.raises(CheckpointError, match="non-finite"):
        load_client(cpath)


# --- the strict header schema of the current format version ---


@pytest.mark.parametrize("block", ["arch", "server", "split", "tensors"])
def test_load_rejects_a_missing_block(tmp_path, block):
    path = tmp_path / "g.fedh"
    save_global(path, make_server())
    _rewrite_header(path, lambda h: h.pop(block))
    with pytest.raises(CheckpointError, match=f"'{block}' block is missing"):
        load_global(path, SPLITS)


@pytest.mark.parametrize("mutate", [lambda arch: arch.pop("stages"),
                                    lambda arch: arch.update(latent_dim=4.0),
                                    lambda arch: arch.update(mlp_hidden=[6, True])],
                         ids=["no_stages", "float_size", "bool_width"])
def test_load_rejects_a_malformed_arch_block(tmp_path, mutate):
    path = tmp_path / "g.fedh"
    save_global(path, make_server())
    _rewrite_header(path, lambda h: mutate(h["arch"]))
    with pytest.raises(CheckpointError, match="'arch' block is malformed"):
        load_global(path, SPLITS)


def test_arch_block_holds_the_arch_fields_only(tmp_path):
    path = tmp_path / "g.fedh"
    save_global(path, make_server())
    arch = _header(path)["arch"]
    assert sorted(arch) == ["input_len", "latent_dim", "mlp_hidden", "num_classes",
                            "pred_weight", "recon_weight", "stages"]
    _rewrite_header(path, lambda h: h["arch"].update(input_channels=1))
    with pytest.raises(CheckpointError, match="invalid architecture block"):
        load_global(path, SPLITS)


def test_load_rejects_another_client_split(tmp_path):
    """The file keeps a digest of the rows it was written for, and refuses
    any other split: another row, another client order, or the same rows
    with a train/test boundary moved, which only the lengths tell apart."""
    server = make_server()
    path = tmp_path / "g.fedh"
    save_global(path, server)
    header = _header(path)
    assert "clients" not in header and re.fullmatch(r"[0-9a-f]{64}", header["split"])
    same = splits_of(server)
    (tr0, te0), (tr1, te1) = same[:2]
    others = {
        "another row": [(tr0, te0 + 1)] + same[1:],
        "another order": [same[1], same[0]] + same[2:],
        "a moved boundary": [(tr0[:-1], np.concatenate([tr0[-1:], te0]))] + same[1:],
        "a client fewer": same[:2],
    }
    for name, splits in others.items():
        with pytest.raises(CheckpointError, match="written for another client split"):
            load_global(path, splits)
    back = load_global(path, [(list(tr), list(te)) for tr, te in same])  # any int sequence
    assert [c.client_id for c in back.clients] == [0, 1, 2]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=5,
)


def _paths(node, prefix=()):
    """Every location inside a decoded JSON header."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_headers_raise_only_checkpoint_errors(tmp_path, data):
    """Delete or replace up to three values anywhere in a global and in a
    client header; the loader either succeeds or raises CheckpointError,
    never anything else."""
    small = ServerState(init_model(ARCH, np.random.default_rng(0)), [
        ClientState(i, init_model(ARCH, np.random.default_rng(i)), np.array([i]), np.array([5 + i]))
        for i in range(2)
    ], rs_test_acc=[0.5], rs_test_auc=[0.5], rs_train_loss=[1.0])
    gpath, cpath = tmp_path / "g.fedh", tmp_path / "c.fedh"
    save_global(gpath, small)
    save_client(cpath, small.clients[1])

    def mutate(header):
        for _ in range(data.draw(st.integers(1, 3))):
            where = data.draw(st.sampled_from(list(_paths(header))))
            parent = header
            for key in where[:-1]:
                parent = parent[key]
            if data.draw(st.booleans()):
                del parent[where[-1]]
            else:
                parent[where[-1]] = data.draw(_JSON_VALUES)

    for path, load in [(gpath, lambda p: load_global(p, splits_of(small))), (cpath, load_client)]:
        assert struct.unpack_from("<I", path.read_bytes(), 4) == (VERSION,)
        _rewrite_header(path, mutate)
        try:
            load(path)
        except CheckpointError:
            pass
