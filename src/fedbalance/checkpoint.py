"""Binary checkpoints for server and client state.

Layout: ``b"FEDH" | u32 version | u64 header_len | JSON header | payload``,
all little-endian.  The header carries the architecture, every non-tensor
state field, and a tensor directory with explicit byte offsets into the
payload; the payload is the concatenation of one model's raw float32
tensors in directory order.  A CRC32 of the payload is stored in the header
so bit rot in the bulk data is caught on load.

Two kinds exist: ``global`` (a ServerState's global model, histories, and
each client's id and row indices; every loaded client gets a copy of the
global model, the one each sampler trial starts from) and ``client`` (one
ClientState).  Files are written atomically via a temp file +
``os.replace``.  Loads check the whole header against the version-4 schema
first (:func:`_check_header`), so a malformed file raises
:class:`CheckpointError` naming the block or tensor at fault.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import asdict, astuple

import numpy as np

from .federation import ClientState, ServerState
from .gcae import ArchSpec, ModelState, _param_shapes

MAGIC = b"FEDH"
VERSION = 4
_HEAD = struct.Struct("<4sIQ")  # magic, version, header_len
_ARCH_SIZES = ("input_len", "num_classes", "latent_dim")
_HISTORIES = ("rs_test_acc", "rs_test_auc", "rs_train_loss")


class CheckpointError(Exception):
    """Raised for malformed, corrupted, or mismatched checkpoint files."""


def _arch_to_dict(arch: ArchSpec) -> dict:
    return {**asdict(arch), "stages": [astuple(s) for s in arch.stages]}


def _arch_from_dict(d: dict) -> ArchSpec:
    try:
        return ArchSpec(**d)
    except (TypeError, ValueError) as exc:  # TypeError: a field ArchSpec does not have
        raise CheckpointError(f"invalid architecture block: {exc}") from exc


def _client_meta(c: ClientState) -> dict:
    return {
        "client_id": c.client_id,
        "train_indices": c.train_indices.tolist(),
        "test_indices": c.test_indices.tolist(),
    }


def _client_from_meta(d: dict, model: ModelState) -> ClientState:
    try:
        return ClientState(
            client_id=d["client_id"],
            model=model,
            train_indices=np.asarray(d["train_indices"], dtype=np.int64),
            test_indices=np.asarray(d["test_indices"], dtype=np.int64),
        )
    except ValueError as exc:
        raise CheckpointError(f"invalid block of client {d['client_id']}: {exc}") from exc


def _is_int(v) -> bool:
    return type(v) is int  # JSON true/false must not pass as 1/0


def _is_number(v) -> bool:
    return type(v) in (int, float)


def _int_list(v, minimum: int | None = None) -> bool:
    return isinstance(v, list) and all(
        _is_int(i) and (minimum is None or minimum <= i < 2**63) for i in v)


def _check_header(header, kind: str, payload: bytes) -> None:
    """Reject a header that breaks the schema, naming the block or tensor.

    Checks, in order: the kind and the blocks it needs; the architecture,
    client and server fields' types (ArchSpec checks the values); client
    ids unique; every tensor named, once, with a byte count; the payload
    length and checksum; then each tensor's dtype, shape, and byte range,
    which must lie inside the payload and overlap no other tensor's.
    """
    if not isinstance(header, dict):
        raise CheckpointError("header is not a JSON object")
    if header.get("kind") != kind:
        raise CheckpointError(f"expected a {kind} checkpoint, found kind={header.get('kind')!r}")
    blocks = {"arch": dict, "tensors": list}
    blocks.update({"server": dict, "clients": list} if kind == "global" else {"client": dict})
    for block, typ in blocks.items():
        if not isinstance(header.get(block), typ):
            raise CheckpointError(f"{block!r} block is missing or not a JSON {typ.__name__}")

    arch = header["arch"]
    stages = arch.get("stages")
    if not (all(_is_int(arch.get(k)) for k in _ARCH_SIZES)
            and isinstance(stages, list) and all(_int_list(s) and len(s) == 3 for s in stages)
            and _int_list(arch.get("mlp_hidden"))
            and _is_number(arch.get("recon_weight")) and _is_number(arch.get("pred_weight"))):
        raise CheckpointError("'arch' block is malformed")

    metas = header["clients"] if kind == "global" else [header["client"]]
    for i, meta in enumerate(metas):
        if not (isinstance(meta, dict) and _is_int(meta.get("client_id"))
                and _int_list(meta.get("train_indices"), 0)
                and _int_list(meta.get("test_indices"), 0)):
            raise CheckpointError(f"client block #{i} is malformed")
    ids = [meta["client_id"] for meta in metas]
    if len(set(ids)) != len(ids):
        raise CheckpointError(f"'clients' block repeats client ids "
                              f"{sorted({i for i in ids if ids.count(i) > 1})}")
    if kind == "global":
        for key in _HISTORIES:
            v = header["server"].get(key)
            if not (isinstance(v, list) and all(_is_number(x) for x in v)):
                raise CheckpointError(f"'server' block: {key} is not a list of numbers")

    tensors = header["tensors"]
    for i, e in enumerate(tensors):
        if not (isinstance(e, dict) and isinstance(e.get("name"), str)):
            raise CheckpointError(f"tensor #{i} has no name")
        if not (_is_int(e.get("nbytes")) and e["nbytes"] >= 0):
            raise CheckpointError(f"tensor {e['name']}: nbytes {e.get('nbytes')!r} is not a byte count")
    names = [e["name"] for e in tensors]
    if len(set(names)) != len(names):
        raise CheckpointError("tensor directory repeats a tensor name")
    expected = sum(e["nbytes"] for e in tensors)
    if len(payload) != expected:
        raise CheckpointError(f"payload is {len(payload)} bytes, directory says {expected}")
    if zlib.crc32(payload) != header.get("payload_crc32"):
        raise CheckpointError("payload checksum mismatch")

    ranges = []
    for e in tensors:
        name, shape, offset, nbytes = e["name"], e.get("shape"), e.get("offset"), e["nbytes"]
        if e.get("dtype") != "float32":
            raise CheckpointError(f"tensor {name} has dtype {e.get('dtype')}")
        if not _int_list(shape, 1) or math.prod(shape) * 4 != nbytes:
            raise CheckpointError(f"tensor {name}: shape {shape!r} disagrees with {nbytes} bytes")
        if not _is_int(offset) or offset < 0 or offset + nbytes > len(payload):
            raise CheckpointError(f"tensor {name}: bytes [{offset!r}, +{nbytes}) lie "
                                  f"outside the {len(payload)}-byte payload")
        ranges.append((offset, offset + nbytes, name))
    ranges.sort()
    for (_, end, first), (start, _, second) in zip(ranges, ranges[1:]):
        if start < end:
            raise CheckpointError(f"tensors {first} and {second} overlap in the payload")


def _collect_tensors(prefix: str, model: ModelState):
    """Flatten a model into a (directory, payload) pair with byte offsets."""
    if model.dtype != np.float32:
        raise CheckpointError(f"only float32 models are supported, got {model.dtype}")
    entries, chunks, offset = [], [], 0
    for pname, arr in model.params.items():
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"tensor {prefix}/{pname} contains non-finite values")
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        entries.append({
            "name": f"{prefix}/{pname}",
            "shape": list(arr.shape),
            "dtype": "float32",
            "offset": offset,
            "nbytes": len(raw),
        })
        chunks.append(raw)
        offset += len(raw)
    return entries, b"".join(chunks)


def _write_file(path, header: dict, payload: bytes) -> None:
    header = dict(header)
    header["payload_crc32"] = zlib.crc32(payload)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(_HEAD.pack(MAGIC, VERSION, len(blob)))
        fh.write(blob)
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _read_file(path, kind: str) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        head = fh.read(_HEAD.size)
        if len(head) < _HEAD.size:
            raise CheckpointError("file too short for header")
        magic, version, header_len = _HEAD.unpack(head)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}")
        if version != VERSION:
            raise CheckpointError(f"unsupported version {version}")
        blob = fh.read(header_len)
        if len(blob) < header_len:
            raise CheckpointError("truncated header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable header: {exc}") from exc
        payload = fh.read()
    _check_header(header, kind, payload)
    return header, payload


def _extract_model(header: dict, payload: bytes, prefix: str, arch: ArchSpec) -> ModelState:
    """The file's one model, whose every tensor is named ``prefix/...``."""
    want = f"{prefix}/"
    params: dict[str, np.ndarray] = {}
    for e in header["tensors"]:
        if not e["name"].startswith(want):
            raise CheckpointError(f"tensor {e['name']} is not under {want!r}")
        arr = np.frombuffer(payload, dtype="<f4", count=e["nbytes"] // 4, offset=e["offset"])
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"tensor {e['name']} contains non-finite values")
        params[e["name"][len(want):]] = arr.reshape(e["shape"]).copy()
    expected = _param_shapes(arch)
    if set(params) != set(expected):
        raise CheckpointError(f"tensor set under {prefix!r} does not match the architecture")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise CheckpointError(f"tensor {prefix}/{name} has shape {params[name].shape}, "
                                  f"expected {shape}")
    return ModelState(arch, params)


def save_global(path, server: ServerState) -> None:
    """Serialize a ServerState's global model, histories, and each client's
    id and rows.  The clients' own models are not stored."""
    entries, payload = _collect_tensors("global", server.global_model)
    header = {
        "kind": "global",
        "arch": _arch_to_dict(server.global_model.arch),
        "server": {key: list(getattr(server, key)) for key in _HISTORIES},
        "clients": [_client_meta(c) for c in server.clients],
        "tensors": entries,
    }
    _write_file(path, header, payload)


def load_global(path) -> ServerState:
    """A saved ServerState whose every client holds a copy of the global model."""
    header, payload = _read_file(path, "global")
    arch = _arch_from_dict(header["arch"])
    global_model = _extract_model(header, payload, "global", arch)
    clients = [_client_from_meta(meta, global_model.copy()) for meta in header["clients"]]
    try:
        return ServerState(global_model=global_model, clients=clients,
                           **{key: list(header["server"][key]) for key in _HISTORIES})
    except ValueError as exc:
        raise CheckpointError(f"invalid server block: {exc}") from exc


def save_client(path, client: ClientState) -> None:
    entries, payload = _collect_tensors("model", client.model)
    header = {
        "kind": "client",
        "arch": _arch_to_dict(client.model.arch),
        "client": _client_meta(client),
        "tensors": entries,
    }
    _write_file(path, header, payload)


def load_client(path) -> ClientState:
    header, payload = _read_file(path, "client")
    arch = _arch_from_dict(header["arch"])
    model = _extract_model(header, payload, "model", arch)
    return _client_from_meta(header["client"], model)
