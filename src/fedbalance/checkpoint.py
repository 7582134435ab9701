"""Binary checkpoints for server and client state.

Layout: ``b"FEDH" | u32 version | u64 header_len | JSON header | payload``,
all little-endian.  The header carries the architecture, every non-tensor
state field, and a tensor directory with explicit byte offsets into the
payload; the payload is the concatenation of the raw float32 tensors in
directory order.  A CRC32 of the payload is stored in the header so bit rot
in the bulk data is caught on load.

Two kinds exist: ``global`` (a full ServerState, including every client's
model and metadata) and ``client`` (one ClientState).  Files are written
atomically via a temp file + ``os.replace``.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

from .federation import ClientState, ServerState
from .gcae import ArchSpec, ConvStage, ModelState, _param_shapes

MAGIC = b"FEDH"
VERSION = 1
_HEAD = struct.Struct("<4sIQ")  # magic, version, header_len


class CheckpointError(Exception):
    """Raised for malformed, corrupted, or mismatched checkpoint files."""


def _arch_to_dict(arch: ArchSpec) -> dict:
    return {
        "input_len": arch.input_len,
        "num_classes": arch.num_classes,
        "stages": [[s.channels, s.kernel, s.pool] for s in arch.stages],
        "latent_dim": arch.latent_dim,
        "mlp_hidden": list(arch.mlp_hidden),
        "input_channels": arch.input_channels,
        "recon_weight": arch.recon_weight,
        "pred_weight": arch.pred_weight,
    }


def _arch_from_dict(d: dict) -> ArchSpec:
    try:
        return ArchSpec(
            input_len=d["input_len"],
            num_classes=d["num_classes"],
            stages=tuple(ConvStage(*s) for s in d["stages"]),
            latent_dim=d["latent_dim"],
            mlp_hidden=tuple(d["mlp_hidden"]),
            input_channels=d["input_channels"],
            recon_weight=d["recon_weight"],
            pred_weight=d["pred_weight"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid architecture block: {exc}") from exc


def _client_meta(c: ClientState) -> dict:
    return {
        "client_id": c.client_id,
        "train_indices": c.train_indices.tolist(),
        "test_indices": c.test_indices.tolist(),
        "train_slow": c.train_slow,
        "send_slow": c.send_slow,
        "train_time_cost": c.train_time_cost,
        "send_time_cost": c.send_time_cost,
    }


def _client_from_meta(d: dict, model: ModelState) -> ClientState:
    try:
        return ClientState(
            client_id=d["client_id"],
            model=model,
            train_indices=np.asarray(d["train_indices"], dtype=np.int64),
            test_indices=np.asarray(d["test_indices"], dtype=np.int64),
            train_slow=d["train_slow"],
            send_slow=d["send_slow"],
            train_time_cost=d["train_time_cost"],
            send_time_cost=d["send_time_cost"],
        )
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"invalid client block: {exc}") from exc


def _collect_tensors(named_models: list[tuple[str, ModelState]]):
    """Flatten models into a (directory, payload) pair with byte offsets."""
    entries, chunks, offset = [], [], 0
    for prefix, model in named_models:
        if model.dtype != np.float32:
            raise CheckpointError(f"only float32 models are supported, got {model.dtype}")
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


def _read_file(path) -> tuple[dict, bytes]:
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
    expected = sum(e["nbytes"] for e in header.get("tensors", []))
    if len(payload) != expected:
        raise CheckpointError(f"payload is {len(payload)} bytes, directory says {expected}")
    if zlib.crc32(payload) != header.get("payload_crc32"):
        raise CheckpointError("payload checksum mismatch")
    return header, payload


def _extract_model(header: dict, payload: bytes, prefix: str, arch: ArchSpec) -> ModelState:
    want = f"{prefix}/"
    params: dict[str, np.ndarray] = {}
    for e in header["tensors"]:
        if not e["name"].startswith(want):
            continue
        if e["dtype"] != "float32":
            raise CheckpointError(f"tensor {e['name']} has dtype {e['dtype']}")
        if int(np.prod(e["shape"])) * 4 != e["nbytes"]:
            raise CheckpointError(f"tensor {e['name']}: shape {e['shape']} disagrees "
                                  f"with {e['nbytes']} bytes")
        offset, nbytes = e["offset"], e["nbytes"]
        if (type(offset) is not int or type(nbytes) is not int or offset < 0
                or offset + nbytes > len(payload)):
            raise CheckpointError(f"tensor {e['name']}: bytes [{offset!r}, +{nbytes}) lie "
                                  f"outside the {len(payload)}-byte payload")
        arr = np.frombuffer(payload, dtype="<f4", count=nbytes // 4, offset=offset)
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
    """Serialize a full ServerState (global model, clients, histories)."""
    named = [("global", server.global_model)]
    named += [(f"client/{c.client_id}", c.model) for c in server.clients]
    entries, payload = _collect_tensors(named)
    header = {
        "kind": "global",
        "arch": _arch_to_dict(server.global_model.arch),
        "server": {
            "selected_clients": list(server.selected_clients),
            "train_slow_clients": list(server.train_slow_clients),
            "send_slow_clients": list(server.send_slow_clients),
            "rs_test_acc": list(server.rs_test_acc),
            "rs_test_auc": list(server.rs_test_auc),
            "rs_train_loss": list(server.rs_train_loss),
        },
        "clients": [_client_meta(c) for c in server.clients],
        "tensors": entries,
    }
    _write_file(path, header, payload)


def load_global(path) -> ServerState:
    header, payload = _read_file(path)
    if header.get("kind") != "global":
        raise CheckpointError(f"expected a global checkpoint, found kind={header.get('kind')!r}")
    arch = _arch_from_dict(header["arch"])
    global_model = _extract_model(header, payload, "global", arch)
    clients = [
        _client_from_meta(meta, _extract_model(header, payload, f"client/{meta['client_id']}", arch))
        for meta in header["clients"]
    ]
    s = header["server"]
    try:
        return ServerState(
            global_model=global_model,
            clients=clients,
            selected_clients=list(s["selected_clients"]),
            train_slow_clients=list(s["train_slow_clients"]),
            send_slow_clients=list(s["send_slow_clients"]),
            rs_test_acc=list(s["rs_test_acc"]),
            rs_test_auc=list(s["rs_test_auc"]),
            rs_train_loss=list(s["rs_train_loss"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid server block: {exc}") from exc


def save_client(path, client: ClientState) -> None:
    entries, payload = _collect_tensors([("model", client.model)])
    header = {
        "kind": "client",
        "arch": _arch_to_dict(client.model.arch),
        "client": _client_meta(client),
        "tensors": entries,
    }
    _write_file(path, header, payload)


def load_client(path) -> ClientState:
    header, payload = _read_file(path)
    if header.get("kind") != "client":
        raise CheckpointError(f"expected a client checkpoint, found kind={header.get('kind')!r}")
    arch = _arch_from_dict(header["arch"])
    model = _extract_model(header, payload, "model", arch)
    return _client_from_meta(header["client"], model)
