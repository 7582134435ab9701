"""Binary checkpoints for server and client state.

Layout: ``b"FEDH" | u32 version | u64 header_len | JSON header | payload``,
all little-endian.  The header carries the architecture, every non-tensor
state field, and a tensor directory ``[[name, shape], ...]``; the payload
is one model's ``ModelState.flat``: its tensors as float32, back to back in
directory order.  The architecture fixes the directory (``_param_shapes``
order), so a tensor's place in the payload follows from the shapes before
it.  A CRC32 of the payload is stored in the header so bit rot in the bulk
data is caught on load.

Two kinds exist: ``global`` (a ServerState's global model, histories, and
each client's id and row indices; every loaded client gets a copy of the
global model, the one each sampler trial starts from) and ``client`` (one
ClientState).  Files are written atomically via a temp file +
``os.replace``.  Loads check the header against the version-5 schema first
(:func:`_check_header`), then the directory against the architecture's,
the payload's length and checksum, and each tensor's values, so a
malformed file raises :class:`CheckpointError` naming the block or tensor
at fault.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import asdict, astuple

import numpy as np

from .federation import ClientState, ServerState
from .gcae import ArchSpec, ModelState, _param_count, _param_shapes

MAGIC = b"FEDH"
VERSION = 5
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


def _check_header(header, kind: str) -> None:
    """Reject a header that breaks the schema, naming the block at fault.

    Checks, in order: the kind and the blocks it needs; the architecture,
    client and server fields' types (ArchSpec checks the values); and that
    client ids are unique.  :func:`_extract_model` then checks the tensor
    directory and the payload against the architecture.
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


def _directory(arch: ArchSpec) -> list:
    """The tensor directory ``arch`` gives: ``[name, shape]`` pairs."""
    return [[name, list(shape)] for name, shape in _param_shapes(arch).items()]


def _write_file(path, header: dict, model: ModelState) -> None:
    """Write ``header`` plus ``model``'s arch block, directory and payload.
    Errors name a tensor as ``<kind>/<name>``."""
    if model.dtype != np.float32:
        raise CheckpointError(f"only float32 models are supported, got {model.dtype}")
    _check_finite(model, header["kind"])
    payload = model.flat.astype("<f4", copy=False).tobytes()
    header = {**header, "arch": _arch_to_dict(model.arch), "tensors": _directory(model.arch),
              "payload_crc32": zlib.crc32(payload)}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(_HEAD.pack(MAGIC, VERSION, len(blob)))
        fh.write(blob)
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _read_file(path, kind: str) -> tuple[dict, ModelState]:
    """The header and the one model of a ``kind`` file."""
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
    _check_header(header, kind)
    return header, _extract_model(header, payload, kind)


def _extract_model(header: dict, payload: bytes, kind: str) -> ModelState:
    """The model laid out as the ``arch`` block says, once the directory,
    the payload's length and its checksum agree with it."""
    arch = _arch_from_dict(header["arch"])
    # compared as text, where a shape's 3.0 or true is not 3 or 1
    if json.dumps(header["tensors"]) != json.dumps(_directory(arch)):
        raise CheckpointError("tensor directory does not match the architecture")
    expected = 4 * _param_count(arch)
    if len(payload) != expected:
        raise CheckpointError(f"payload is {len(payload)} bytes, the architecture needs {expected}")
    if zlib.crc32(payload) != header.get("payload_crc32"):
        raise CheckpointError("payload checksum mismatch")
    model = ModelState(arch, np.frombuffer(payload, dtype="<f4").astype(np.float32))
    _check_finite(model, kind)
    return model


def _check_finite(model: ModelState, kind: str) -> None:
    name = model.first_non_finite()
    if name is not None:
        raise CheckpointError(f"tensor {kind}/{name} contains non-finite values")


def save_global(path, server: ServerState) -> None:
    """Serialize a ServerState's global model, histories, and each client's
    id and rows.  The clients' own models are not stored."""
    header = {
        "kind": "global",
        "server": {key: list(getattr(server, key)) for key in _HISTORIES},
        "clients": [_client_meta(c) for c in server.clients],
    }
    _write_file(path, header, server.global_model)


def load_global(path) -> ServerState:
    """A saved ServerState whose every client holds a copy of the global model."""
    header, global_model = _read_file(path, "global")
    clients = [_client_from_meta(meta, global_model.copy()) for meta in header["clients"]]
    try:
        return ServerState(global_model=global_model, clients=clients,
                           **{key: list(header["server"][key]) for key in _HISTORIES})
    except ValueError as exc:
        raise CheckpointError(f"invalid server block: {exc}") from exc


def save_client(path, client: ClientState) -> None:
    _write_file(path, {"kind": "client", "client": _client_meta(client)}, client.model)


def load_client(path) -> ClientState:
    header, model = _read_file(path, "client")
    return _client_from_meta(header["client"], model)
