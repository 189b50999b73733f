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


def _build_conv(meta: dict, weight: np.ndarray, bias: np.ndarray | None) -> ConvSpec:
    return ConvSpec(
        in_channels=meta["in"],
        out_channels=meta["out"],
        kernel=tuple(meta["kernel"]),
        padding=tuple(meta["padding"]),
        weight=weight,
        bias=bias,
        groups=meta["groups"],
    )


def save_archive(g: ModelGraph, path: str | Path, seed: int | None = None) -> None:
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
        "seed": g.meta.get("seed") if seed is None else seed,
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


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ArchiveError(f"truncated archive: {what}")
    return data


def _check_directory(directory: list[dict], payload_size: int) -> None:
    expect = 0
    for entry in directory:
        off, nbytes = entry["offset"], entry["nbytes"]
        if entry.get("dtype") != "f32":
            raise ArchiveError(f"tensor {entry.get('name')!r}: unsupported dtype")
        if off != expect:
            kind = "overlapping" if off < expect else "gapped"
            raise ArchiveError(
                f"{kind} tensor offsets at {entry.get('name')!r} "
                f"(offset {off}, expected {expect})"
            )
        want = int(np.prod(entry["shape"], dtype=np.int64)) * 4
        if nbytes != want:
            raise ArchiveError(
                f"tensor {entry.get('name')!r}: nbytes {nbytes} != shape size {want}"
            )
        expect = off + nbytes
    if expect != payload_size:
        raise ArchiveError(
            f"payload size {payload_size} not exactly covered (tensors end at {expect})"
        )


def load_archive(path: str | Path) -> ModelGraph:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise ArchiveError(f"{path}: bad magic (not a weight archive)")
        version, header_len = struct.unpack("<HI", _read_exact(fh, 6, "header size"))
        if version != VERSION:
            raise ArchiveError(f"{path}: unsupported format version {version}")
        try:
            header = json.loads(_read_exact(fh, header_len, "header"))
        except json.JSONDecodeError as exc:
            raise ArchiveError(f"{path}: corrupt header JSON: {exc}") from exc
        payload = fh.read()
    directory = header.get("tensors", [])
    _check_directory(directory, len(payload))

    blobs: dict[str, np.ndarray] = {}
    for entry in directory:
        name = entry["name"]
        if name in blobs:
            raise ArchiveError(f"duplicate tensor entry {name!r}")
        raw = payload[entry["offset"] : entry["offset"] + entry["nbytes"]]
        blobs[name] = np.frombuffer(raw, dtype="<f4").reshape(entry["shape"]).astype(
            np.float32
        )

    def take(name: str) -> np.ndarray:
        if name not in blobs:
            raise ArchiveError(f"unresolved tensor name {name!r}")
        return blobs[name]

    gmeta = header.get("graph")
    if gmeta is None:
        raise ArchiveError(f"{path}: header lacks a graph description")
    nodes: list[Node] = []
    for nm in gmeta["nodes"]:
        node = Node(
            name=nm["name"],
            op=nm["op"],
            inputs=tuple(nm.get("inputs", ())),
            channels=nm.get("channels"),
            upscale=nm.get("upscale"),
        )
        conv = nm.get("conv")
        if conv is not None:
            bias = take(f"{node.name}.bias") if conv["bias"] else None
            node.spec = _build_conv(conv, take(f"{node.name}.weight"), bias)
        lora = nm.get("lora")
        if lora is not None:
            node.lora = LoraFactors(
                a=take(f"{node.name}.lora_a"),
                b=take(f"{node.name}.lora_b"),
                rank=lora["rank"],
                alpha=lora["alpha"],
            )
        branches = nm.get("branches")
        if branches is not None:
            convs = []
            for i, bm in enumerate(branches["convs"]):
                bias = take(f"{node.name}.branch{i}.bias") if bm["bias"] else None
                convs.append(
                    _build_conv(bm, take(f"{node.name}.branch{i}.weight"), bias)
                )
            node.branches = BranchGroup(
                branches=tuple(convs),
                include_identity=branches["include_identity"],
            )
        nodes.append(node)
    unused = sorted(set(blobs) - {name for n in nodes for name, _ in n.tensors()})
    if unused:
        raise ArchiveError(f"tensors not referenced by any layer: {unused}")
    g = ModelGraph(
        name=gmeta.get("name", header.get("model", "model")),
        nodes=nodes,
        output=gmeta["output"],
        meta=gmeta.get("meta", {}),
        fusion_groups=[
            FusionGroup(conv=c, add=a, mul=m) for c, a, m in gmeta.get("fusion_groups", [])
        ],
    )
    g.validate()
    return g
