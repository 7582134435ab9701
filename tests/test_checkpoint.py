import json
import struct
import zlib

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
from fedbalance.gcae import ArchSpec, ConvStage, forward, init_model

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


def test_global_round_trip_restores_every_field(tmp_path):
    server = make_server()
    path = tmp_path / "g.fedh"
    save_global(path, server)
    back = load_global(path)

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
        # format 3 stores no client models: each client restarts from the global one
        for k in server.global_model.params:
            assert np.array_equal(rest.model.params[k], server.global_model.params[k])


def test_loaded_clients_hold_independent_copies_of_the_global_model(tmp_path):
    path = tmp_path / "g.fedh"
    save_global(path, make_server())
    back = load_global(path)
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
    save_global(p2, load_global(p1))
    assert p1.read_bytes() == p2.read_bytes()

    c1, c2 = tmp_path / "ca.fedh", tmp_path / "cb.fedh"
    save_client(c1, server.clients[0])
    save_client(c2, load_client(c1))
    assert c1.read_bytes() == c2.read_bytes()


def test_forward_pass_bitwise_after_reload(tmp_path):
    server = make_server(7)
    path = tmp_path / "g.fedh"
    save_global(path, server)
    back = load_global(path)
    x = np.random.default_rng(5).normal(size=(6, 10)).astype(np.float32)
    for a, b in [(server.global_model, back.global_model),
                 (server.global_model, back.clients[2].model)]:
        ra, sa, za = forward(a, x)
        rb, sb, zb = forward(b, x)
        assert np.array_equal(ra, rb) and np.array_equal(sa, sb) and np.array_equal(za, zb)


def test_no_temp_file_left_behind(tmp_path):
    save_global(tmp_path / "g.fedh", make_server())
    assert [p.name for p in tmp_path.iterdir()] == ["g.fedh"]


# --- corruption and malformed files ---


def _header_len(raw: bytes) -> int:
    _, _, hlen = struct.unpack_from("<4sIQ", raw)
    return 16 + hlen


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
        load_global(path)


def test_truncations_are_detected(tmp_path):
    path = tmp_path / "g.fedh"
    save_global(path, make_server())
    raw = path.read_bytes()
    cases = [
        (raw[:5], "too short"),
        (raw[: _header_len(raw) - 3], "truncated header"),
        (raw[:-10], "directory says"),
    ]
    for blob, match in cases:
        bad = tmp_path / "bad.fedh"
        bad.write_bytes(blob)
        with pytest.raises(CheckpointError, match=match):
            load_global(bad)


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "g.fedh"
    save_global(path, make_server())
    raw = bytearray(path.read_bytes())
    wrong_magic = tmp_path / "m.fedh"
    wrong_magic.write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(CheckpointError, match="magic"):
        load_global(wrong_magic)
    # 1 is the format before the strict header; 2 also stored every client's model
    for version in (1, 2, 99):
        wrong_version = bytearray(raw)
        struct.pack_into("<I", wrong_version, 4, version)
        vp = tmp_path / "v.fedh"
        vp.write_bytes(wrong_version)
        with pytest.raises(CheckpointError, match=f"unsupported version {version}"):
            load_global(vp)


def test_kind_mismatch_both_directions(tmp_path):
    server = make_server()
    save_global(tmp_path / "g.fedh", server)
    save_client(tmp_path / "c.fedh", server.clients[0])
    with pytest.raises(CheckpointError, match="kind"):
        load_client(tmp_path / "g.fedh")
    with pytest.raises(CheckpointError, match="kind"):
        load_global(tmp_path / "c.fedh")


def _rewrite_header(path, mutate):
    raw = path.read_bytes()
    hlen = _header_len(raw)
    header = json.loads(raw[16:hlen])
    payload = raw[hlen:]
    mutate(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(struct.pack("<4sIQ", b"FEDH", VERSION, len(blob)) + blob + payload)


def test_tensor_directory_must_match_architecture(tmp_path):
    path = tmp_path / "c.fedh"
    save_client(path, make_server().clients[0])

    def rename(h):
        h["tensors"][0]["name"] = "model/enc.conv9.w"

    _rewrite_header(path, rename)
    with pytest.raises(CheckpointError, match="does not match the architecture"):
        load_client(path)


def test_tensor_shape_and_dtype_are_checked(tmp_path):
    path = tmp_path / "c.fedh"
    save_client(path, make_server().clients[0])

    def reshape(h):
        h["tensors"][0]["shape"] = [1, 1, 1, 1]

    _rewrite_header(path, reshape)
    with pytest.raises(CheckpointError):
        load_client(path)

    save_client(path, make_server().clients[0])

    def retype(h):
        h["tensors"][0]["dtype"] = "float64"

    _rewrite_header(path, retype)
    with pytest.raises(CheckpointError, match="dtype"):
        load_client(path)


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


def _entry(header, name):
    return next(e for e in header["tensors"] if e["name"] == name)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_tensors(tmp_path, bad):
    path = tmp_path / "g.fedh"
    save_global(path, make_server())

    def poison(header, payload):
        e = _entry(header, "global/enc.fc.b")
        struct.pack_into("<f", payload, e["offset"] + 4, bad)

    _rewrite_payload(path, poison)
    with pytest.raises(CheckpointError, match="global/enc.fc.b contains non-finite"):
        load_global(path)

    cpath = tmp_path / "c.fedh"
    save_client(cpath, make_server().clients[0])
    _rewrite_payload(cpath, lambda h, p: struct.pack_into("<f", p, len(p) - 4, bad))
    with pytest.raises(CheckpointError, match="non-finite"):
        load_client(cpath)


@pytest.mark.parametrize("where", ["past_end", "straddles_end", "negative", "not_an_int"])
def test_load_rejects_tensor_offsets_outside_the_payload(tmp_path, where):
    path = tmp_path / "g.fedh"
    save_global(path, make_server())

    def move(header, payload):
        e = _entry(header, "global/dec.fc.w")
        e["offset"] = {"past_end": len(payload) + 8,
                       "straddles_end": len(payload) - e["nbytes"] + 4,
                       "negative": -4,
                       "not_an_int": float(e["offset"])}[where]

    _rewrite_payload(path, move)
    with pytest.raises(CheckpointError, match="tensor global/dec.fc.w: bytes .* outside"):
        load_global(path)



def test_load_rejects_tensors_outside_the_global_model(tmp_path):
    path = tmp_path / "g.fedh"
    save_global(path, make_server())
    _rewrite_header(path, lambda h: _entry(h, "global/enc.fc.b").update(name="client/0/enc.fc.b"))
    with pytest.raises(CheckpointError, match="tensor client/0/enc.fc.b is not under 'global/'"):
        load_global(path)


# --- the strict header schema of format version 3 ---


@pytest.mark.parametrize("block", ["arch", "server", "clients", "tensors"])
def test_load_rejects_a_missing_block(tmp_path, block):
    path = tmp_path / "g.fedh"
    save_global(path, make_server())
    _rewrite_header(path, lambda h: h.pop(block))
    with pytest.raises(CheckpointError, match=f"'{block}' block is missing"):
        load_global(path)


@pytest.mark.parametrize("mutate", [lambda arch: arch.pop("stages"),
                                    lambda arch: arch.update(latent_dim=4.0),
                                    lambda arch: arch.update(mlp_hidden=[6, True])],
                         ids=["no_stages", "float_size", "bool_width"])
def test_load_rejects_a_malformed_arch_block(tmp_path, mutate):
    path = tmp_path / "g.fedh"
    save_global(path, make_server())
    _rewrite_header(path, lambda h: mutate(h["arch"]))
    with pytest.raises(CheckpointError, match="'arch' block is malformed"):
        load_global(path)


def test_load_rejects_a_tensor_without_a_name(tmp_path):
    path = tmp_path / "g.fedh"
    save_global(path, make_server())
    _rewrite_header(path, lambda h: h["tensors"][3].pop("name"))
    with pytest.raises(CheckpointError, match="tensor #3 has no name"):
        load_global(path)


def test_load_rejects_overlapping_tensors(tmp_path):
    """Two tensors of one size aliasing the same bytes leave the payload
    length and checksum intact, so only the range check can object."""
    path = tmp_path / "g.fedh"
    save_global(path, make_server())

    def alias(header):  # both biases hold 4 floats
        _entry(header, "global/enc.fc.b")["offset"] = _entry(header, "global/enc.conv1.b")["offset"]

    _rewrite_header(path, alias)
    with pytest.raises(CheckpointError, match="global/enc.conv1.b and global/enc.fc.b overlap"):
        load_global(path)


def test_load_rejects_duplicate_client_ids(tmp_path):
    path = tmp_path / "g.fedh"
    save_global(path, make_server())
    _rewrite_header(path, lambda h: h["clients"][2].update(client_id=0))
    with pytest.raises(CheckpointError, match=r"repeats client ids \[0\]"):
        load_global(path)


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
    """Delete or replace up to three values anywhere in a global header; the
    loader either succeeds or raises CheckpointError, never anything else."""
    path = tmp_path / "g.fedh"
    small = ServerState(init_model(ARCH, np.random.default_rng(0)), [
        ClientState(i, init_model(ARCH, np.random.default_rng(i)), np.array([i]), np.array([5 + i]))
        for i in range(2)
    ], rs_test_acc=[0.5], rs_test_auc=[0.5], rs_train_loss=[1.0])
    save_global(path, small)
    assert struct.unpack_from("<I", path.read_bytes(), 4) == (3,)

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

    _rewrite_header(path, mutate)
    try:
        load_global(path)
    except CheckpointError:
        pass
