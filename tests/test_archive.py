import functools
import io
import json
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srkit.archive import MAGIC, VERSION, ArchiveError, load_archive, save_archive
from srkit.cli import main
from srkit.fusion import BranchGroup, LoraFactors
from srkit.graph import run_graph
from srkit.metrics import count_params
from srkit.models import build_span_baseline, build_spanv2, random_conv
from srkit.rewrites import decorate_for_reparam
from srkit.selftest import rand_tensor


def _tensors_of(g):
    out = {}
    for n in g.conv_nodes():
        if n.spec is not None:
            out[f"{n.name}.weight"] = n.spec.weight
            if n.spec.bias is not None:
                out[f"{n.name}.bias"] = n.spec.bias
        if n.lora is not None:
            out[f"{n.name}.lora_a"] = n.lora.a
            out[f"{n.name}.lora_b"] = n.lora.b
        if n.branches is not None:
            for i, b in enumerate(n.branches.branches):
                out[f"{n.name}.branch{i}.weight"] = b.weight
                if b.bias is not None:
                    out[f"{n.name}.branch{i}.bias"] = b.bias
    return out


class TestRoundtrip:
    @pytest.mark.parametrize("builder", [build_spanv2, build_span_baseline])
    def test_bit_exact_tensors(self, tmp_path, builder):
        g = builder(seed=5)
        path = tmp_path / "model.srwt"
        save_archive(g, path)
        loaded = load_archive(path)
        before, after = _tensors_of(g), _tensors_of(loaded)
        assert before.keys() == after.keys()
        for name in before:
            assert np.array_equal(before[name], after[name]), name
            assert before[name].dtype == after[name].dtype == np.float32

    def test_bytes_stable_across_save_load_save(self, tmp_path):
        g = build_spanv2(seed=5)
        p1, p2 = tmp_path / "a.srwt", tmp_path / "b.srwt"
        save_archive(g, p1)
        save_archive(load_archive(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reparam_decorations_roundtrip(self, tmp_path, rng):
        g = decorate_for_reparam(build_spanv2(seed=8), seed=8)
        path = tmp_path / "train.srwt"
        save_archive(g, path)
        loaded = load_archive(path)
        x = rand_tensor(rng, 1, 3, 6, 6)
        a, b = run_graph(g, x), run_graph(loaded, x)
        assert np.array_equal(a.data, b.data)
        node = loaded.node("b2.conv_c")
        assert node.branches is not None and node.branches.include_identity

    @pytest.mark.parametrize("form", ["spanv2", "span", "train"])
    def test_payload_holds_every_parameter(self, tmp_path, form):
        builders = {
            "spanv2": build_spanv2,
            "span": build_span_baseline,
            "train": lambda seed: decorate_for_reparam(build_spanv2(seed=seed), seed=seed),
        }
        g = builders[form](seed=0)
        path = tmp_path / "model.srwt"
        save_archive(g, path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[6:10])
        assert 4 * count_params(g) == len(raw) - 10 - hlen

    def test_seed_recorded(self, tmp_path):
        g = build_spanv2(seed=123)
        path = tmp_path / "model.srwt"
        save_archive(g, path)
        header = _read_header(path)
        assert header["seed"] == 123

    def test_loaded_graph_runs(self, tmp_path, rng):
        g = build_spanv2(seed=5)
        path = tmp_path / "model.srwt"
        save_archive(g, path)
        loaded = load_archive(path)
        x = rand_tensor(rng, 1, 3, 4, 4)
        assert np.array_equal(run_graph(g, x).data, run_graph(loaded, x).data)


def _read_header(path):
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[6:10])
    return json.loads(raw[10 : 10 + hlen])


def _write(path, header: dict, payload: bytes, magic=MAGIC, version=VERSION):
    blob = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<HI", version, len(blob)))
        fh.write(blob)
        fh.write(payload)


def _split(raw: bytes) -> tuple[dict, bytes]:
    """An archive's decoded header and its payload bytes."""
    (hlen,) = struct.unpack("<I", raw[6:10])
    return json.loads(raw[10 : 10 + hlen]), raw[10 + hlen :]


DROP = object()


def _replaced(header, path, value):
    """header with the value at a key/index path replaced, or deleted for DROP."""
    if not path:
        return value
    target = header
    for step in path[:-1]:
        target = target[step]
    if value is DROP:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return header


def _rank1_lora(c, k):
    """A rank-1 LoRA for a c->c k x k conv."""
    rng = np.random.default_rng(0)
    return LoraFactors(rng.normal(size=(k, c * k)), rng.normal(size=(c * k, k)), 1)


class TestMalformed:
    @pytest.fixture
    def good(self, tmp_path):
        path = tmp_path / "good.srwt"
        save_archive(build_spanv2(c=8, s=2, blocks=1, seed=0), path)
        return path

    def test_bad_magic(self, tmp_path, good):
        bad = tmp_path / "bad.srwt"
        raw = bytearray(good.read_bytes())
        raw[:4] = b"NOPE"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ArchiveError, match="bad magic"):
            load_archive(bad)

    def test_unsupported_version(self, tmp_path, good):
        bad = tmp_path / "bad.srwt"
        raw = bytearray(good.read_bytes())
        raw[4:6] = struct.pack("<H", 9)
        bad.write_bytes(bytes(raw))
        with pytest.raises(ArchiveError, match="version"):
            load_archive(bad)

    def test_truncated_payload(self, tmp_path, good):
        bad = tmp_path / "bad.srwt"
        bad.write_bytes(good.read_bytes()[:-20])
        with pytest.raises(ArchiveError, match="covered|truncated"):
            load_archive(bad)

    def test_overlapping_offsets_rejected(self, tmp_path, good):
        raw = good.read_bytes()
        (hlen,) = struct.unpack("<I", raw[6:10])
        header = json.loads(raw[10 : 10 + hlen])
        payload = raw[10 + hlen :]
        header["tensors"][1]["offset"] = 0  # collides with the first tensor
        bad = tmp_path / "bad.srwt"
        _write(bad, header, payload)
        with pytest.raises(ArchiveError, match="overlapping"):
            load_archive(bad)

    def test_unresolved_tensor_name(self, tmp_path, good):
        raw = good.read_bytes()
        (hlen,) = struct.unpack("<I", raw[6:10])
        header = json.loads(raw[10 : 10 + hlen])
        payload = raw[10 + hlen :]
        removed = header["tensors"].pop()  # drop the last directory entry
        payload = payload[: removed["offset"]]
        bad = tmp_path / "bad.srwt"
        _write(bad, header, payload)
        with pytest.raises(ArchiveError, match="unresolved"):
            load_archive(bad)

    def test_corrupt_header_json(self, tmp_path, good):
        raw = bytearray(good.read_bytes())
        raw[10] = 0x58  # stomp the header's opening brace
        bad = tmp_path / "bad.srwt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ArchiveError, match="header"):
            load_archive(bad)

    def test_gapped_offsets_rejected(self, tmp_path, good):
        raw = good.read_bytes()
        (hlen,) = struct.unpack("<I", raw[6:10])
        header = json.loads(raw[10 : 10 + hlen])
        payload = raw[10 + hlen :]
        header["tensors"][-1]["offset"] += 8
        bad = tmp_path / "bad.srwt"
        _write(bad, header, payload + b"\0" * 8)
        with pytest.raises(ArchiveError, match="gapped"):
            load_archive(bad)

    def test_unreferenced_tensor_rejected(self, tmp_path, good):
        raw = good.read_bytes()
        (hlen,) = struct.unpack("<I", raw[6:10])
        header = json.loads(raw[10 : 10 + hlen])
        payload = raw[10 + hlen :]
        stray = {"name": "stray.weight", "shape": [2], "dtype": "f32", "nbytes": 8}
        header["tensors"].append(dict(stray, offset=len(payload)))
        bad = tmp_path / "bad.srwt"
        _write(bad, header, payload + b"\0" * 8)
        with pytest.raises(ArchiveError, match=r"not referenced by any layer: \['stray.weight'\]"):
            load_archive(bad)

    def test_zero_upscale_is_a_one_line_cli_error(self, tmp_path, good):
        raw = good.read_bytes()
        (hlen,) = struct.unpack("<I", raw[6:10])
        header = json.loads(raw[10 : 10 + hlen])
        payload = raw[10 + hlen :]
        (shuffle,) = [n for n in header["graph"]["nodes"] if n["op"] == "pixel_shuffle"]
        shuffle["upscale"] = 0  # was once read as x1
        bad = tmp_path / "bad.srwt"
        _write(bad, header, payload)
        proc = subprocess.run(
            [sys.executable, "-m", "srkit.cli", "flops", "--archive", str(bad)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and "upscale" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "path, value",
        [
            (("tensors", 0, "name"), DROP),
            (("graph", "nodes", 1, "conv", "groups"), DROP),  # node 1 is the `near` conv
            (("tensors",), "x"),
            ((), ["SRWT"]),
            (("graph", "fusion_groups", 0, 0), "nope"),
        ],
        ids=[
            "tensor_without_name",
            "conv_without_groups",
            "tensors_not_a_list",
            "header_is_a_list",
            "fusion_group_names_unknown_node",
        ],
    )
    def test_header_break_is_a_one_line_cli_error(self, tmp_path, good, path, value):
        header, payload = _split(good.read_bytes())
        bad = tmp_path / "bad.srwt"
        _write(bad, _replaced(header, path, value), payload)
        code, err = _params_cli(bad)  # a traceback would escape as an exception
        assert code == 1 and err.count("\n") == 1

    @pytest.mark.parametrize(
        "node, field, value, message",
        [
            ("b1.attn", "lora", _rank1_lora(8, 1), "must be a plain 1x1 conv"),
            ("b1.conv_c", "lora", _rank1_lora(8, 3), "branches need a conv and no spec or LoRA"),
            ("b1.conv_c", "branches", BranchGroup((), True), "branches need a conv"),
            ("b1.relu_a", "spec", random_conv(np.random.default_rng(0), 8, 8), "carries conv"),
        ],
        ids=["lora_on_fusion_group_conv", "branches_and_lora", "no_branch_convs", "relu_with_conv"],
    )
    def test_misdecorated_conv_is_a_one_line_cli_error(self, tmp_path, node, field, value, message):
        """A decoration that execution would ignore or crash on is rejected at load."""
        g = decorate_for_reparam(build_spanv2(c=8, s=2, blocks=1, seed=0))
        i = [n.name for n in g.nodes].index(node)
        g.nodes[i] = replace(g.nodes[i], **{field: value})
        bad = tmp_path / "bad.srwt"
        save_archive(g, bad)
        code, err = _params_cli(bad)
        assert code == 1 and err.count("\n") == 1 and message in err


def _params_cli(path):
    """`srkit params --archive path` in-process: (exit code, stderr text)."""
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(["params", "--archive", str(path)])
    return code, err.getvalue()


def _positions(value, path=()):
    """Key/index paths of every value inside a JSON tree (the root excluded)."""
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield path + (key,)
            yield from _positions(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 100) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=4,
)


@functools.cache
def _reparam_archive() -> bytes:
    """A small training-form archive: every header feature (conv, LoRA, branches)."""
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / "good.srwt"
        save_archive(decorate_for_reparam(build_spanv2(c=8, s=2, blocks=1, seed=0)), path)
        return path.read_bytes()


@settings(max_examples=60, deadline=None, database=None)
@given(pick=st.integers(min_value=0), value=JSON_VALUES)
def test_any_replaced_header_value_exits_cleanly(pick, value):
    """Exit 0, or exit 1 with one stderr line, whatever one header value becomes."""
    header, payload = _split(_reparam_archive())
    positions = list(_positions(header))
    header = _replaced(header, positions[pick % len(positions)], value)
    with TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.srwt"
        _write(bad, header, payload)
        code, err = _params_cli(bad)
    assert code == 0 or (code == 1 and err.count("\n") == 1)
