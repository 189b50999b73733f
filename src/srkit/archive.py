"""Self-describing binary weight archives.

Layout, all little-endian regardless of host:

    magic "SRWT" | version u16 | header_len u32 | header JSON | payload

The JSON header carries the model graph structure (nodes, wiring, fusion
groups, any LoRA/branch decorations) plus a tensor directory of
{name, shape, dtype, offset, nbytes} entries; the payload is the concatenated
raw float32 data. Offsets are payload-relative, strictly increasing,
non-overlapping, and must cover the payload exactly, so a load(save(x))
round-trip is byte-identical.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .fusion import BranchGroup, LoraFactors
from .graph import FusionGroup, ModelGraph, Node
from .tensor import ConvSpec

MAGIC = b"SRWT"
VERSION = 1


class ArchiveError(ValueError):
    pass


# --------------------------------------------------------------------------
# graph <-> header structure


def _conv_meta(spec: ConvSpec) -> dict:
    return {
        "in": spec.in_channels,
        "out": spec.out_channels,
        "kernel": list(spec.kernel),
        "padding": list(spec.padding),
        "groups": spec.groups,
        "bias": spec.bias is not None,
    }


def _node_meta(n: Node) -> dict:
    meta: dict = {"name": n.name, "op": n.op, "inputs": list(n.inputs)}
    if n.op == "input":
        meta["channels"] = n.channels
    if n.op == "pixel_shuffle":
        meta["upscale"] = n.upscale
    if n.spec is not None:
        meta["conv"] = _conv_meta(n.spec)
    if n.lora is not None:
        meta["lora"] = {"rank": n.lora.rank, "alpha": n.lora.alpha}
    if n.branches is not None:
        meta["branches"] = {
            "convs": [_conv_meta(b) for b in n.branches.branches],
            "include_identity": n.branches.include_identity,
        }
    return meta


def save_archive(g: ModelGraph, path: str | Path) -> None:
    directory = []
    payload = bytearray()
    for name, arr in (t for n in g.nodes for t in n.tensors()):
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        directory.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": "f32",
                "offset": len(payload),
                "nbytes": len(raw),
            }
        )
        payload.extend(raw)
    header = {
        "model": g.meta.get("model", g.name),
        "seed": g.meta.get("seed"),
        "graph": {
            "name": g.name,
            "output": g.output,
            "meta": g.meta,
            "nodes": [_node_meta(n) for n in g.nodes],
            "fusion_groups": [[fg.conv, fg.add, fg.mul] for fg in g.fusion_groups],
        },
        "tensors": directory,
    }
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HI", VERSION, len(blob)))
        fh.write(blob)
        fh.write(bytes(payload))


# The header fields load_archive reads. A dict is a JSON object whose keys
# ending in "?" may be absent, a list holds any number of its one item
# schema, a tuple is a list of exactly that length; int is a non-negative
# integer and float any number.
_CONV = {"in": int, "out": int, "kernel": (int, int), "padding": (int, int),
         "groups": int, "bias": bool}
_HEADER = {
    "model?": str,
    "tensors?": [{"name": str, "shape": [int], "dtype": str, "offset": int, "nbytes": int}],
    "graph": {
        "name?": str, "output": str, "meta?": dict,
        "nodes": [{
            "name": str, "op": str, "inputs?": [str], "channels?": int, "upscale?": int,
            "conv?": _CONV,
            "lora?": {"rank": int, "alpha": float},
            "branches?": {"convs": [_CONV], "include_identity": bool},
        }],
        "fusion_groups?": [(str, str, str)],
    },
}
_KIND = {int: "a non-negative integer", float: "a number", str: "a string",
         bool: "a boolean", dict: "an object"}


def _check_header(value, schema, where: str) -> None:
    """Raise ArchiveError naming the first missing or ill-typed field."""
    if isinstance(schema, dict):
        kind, ok = "an object", isinstance(value, dict)
    elif isinstance(schema, list):
        kind, ok = "a list", isinstance(value, list)
    elif isinstance(schema, tuple):
        kind = f"a list of {len(schema)}"
        ok = isinstance(value, list) and len(value) == len(schema)
    else:
        kind = _KIND[schema]
        ok = type(value) is schema or (schema is float and type(value) is int)
        ok = ok and (schema is not int or value >= 0)
    if not ok:
        raise ArchiveError(f"{where} must be {kind}, got {json.dumps(value)[:40]}")
    if isinstance(schema, dict):
        for key, sub in schema.items():
            name = key.rstrip("?")
            if name in value:
                _check_header(value[name], sub, f"{where}.{name}")
            elif not key.endswith("?"):
                raise ArchiveError(f"{where} lacks field {name!r}")
    elif isinstance(schema, (list, tuple)):
        subs = schema * len(value) if isinstance(schema, list) else schema
        for i, (item, sub) in enumerate(zip(value, subs)):
            _check_header(item, sub, f"{where}[{i}]")


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ArchiveError(f"truncated archive: {what}")
    return data


def load_archive(path: str | Path) -> ModelGraph:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise ArchiveError(f"{path}: bad magic (not a weight archive)")
        version, header_len = struct.unpack("<HI", _read_exact(fh, 6, "header size"))
        if version != VERSION:
            raise ArchiveError(f"{path}: unsupported format version {version}")
        try:
            header = json.loads(_read_exact(fh, header_len, "header"))
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, depth
            raise ArchiveError(f"{path}: corrupt header JSON: {exc}") from exc
        payload = fh.read()
    _check_header(header, _HEADER, f"{path}: header")

    blobs: dict[str, np.ndarray] = {}
    end = 0  # offsets must tile the payload exactly, in directory order
    for entry in header.get("tensors", []):
        name, off, nbytes = entry["name"], entry["offset"], entry["nbytes"]
        if entry["dtype"] != "f32":
            raise ArchiveError(f"tensor {name!r}: unsupported dtype")
        if off != end:
            kind = "overlapping" if off < end else "gapped"
            raise ArchiveError(f"{kind} tensor offsets at {name!r} (offset {off}, expected {end})")
        want = math.prod(entry["shape"]) * 4
        if nbytes != want:
            raise ArchiveError(f"tensor {name!r}: nbytes {nbytes} != shape size {want}")
        if name in blobs:
            raise ArchiveError(f"duplicate tensor entry {name!r}")
        end = off + nbytes
        if end > len(payload):
            break
        raw = payload[off:end]
        blobs[name] = np.frombuffer(raw, dtype="<f4").reshape(entry["shape"]).astype(np.float32)
    if end != len(payload):
        raise ArchiveError(
            f"payload size {len(payload)} not exactly covered (tensors end at {end})"
        )

    def take(name: str) -> np.ndarray:
        if name not in blobs:
            raise ArchiveError(f"unresolved tensor name {name!r}")
        return blobs[name]

    def conv(meta: dict, prefix: str) -> ConvSpec:
        bias = take(f"{prefix}.bias") if meta["bias"] else None
        return ConvSpec(meta["in"], meta["out"], tuple(meta["kernel"]), tuple(meta["padding"]),
                        take(f"{prefix}.weight"), bias, meta["groups"])

    gmeta = header["graph"]
    nodes: list[Node] = []
    for nm in gmeta["nodes"]:
        node = Node(nm["name"], nm["op"], tuple(nm.get("inputs", ())),
                    channels=nm.get("channels"), upscale=nm.get("upscale"))
        if "conv" in nm:
            node.spec = conv(nm["conv"], node.name)
        if "lora" in nm:
            a, b = take(f"{node.name}.lora_a"), take(f"{node.name}.lora_b")
            node.lora = LoraFactors(a, b, nm["lora"]["rank"], nm["lora"]["alpha"])
        if "branches" in nm:
            convs = nm["branches"]["convs"]
            node.branches = BranchGroup(
                tuple(conv(bm, f"{node.name}.branch{i}") for i, bm in enumerate(convs)),
                nm["branches"]["include_identity"],
            )
        nodes.append(node)
    unused = sorted(set(blobs) - {name for n in nodes for name, _ in n.tensors()})
    if unused:
        raise ArchiveError(f"tensors not referenced by any layer: {unused}")
    groups = [FusionGroup(*names) for names in gmeta.get("fusion_groups", [])]
    graph_name = gmeta.get("name", header.get("model", "model"))
    g = ModelGraph(graph_name, nodes, gmeta["output"], gmeta.get("meta", {}), groups)
    g.validate()
    return g
