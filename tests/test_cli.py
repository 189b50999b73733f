import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srkit import metrics, models, ppm
from srkit.archive import save_archive
from srkit.cli import main
from srkit.metrics import image_to_tensor, tensor_to_image
from srkit.models import build_spanv2, nearest_upsample
from srkit.tensor import ShapeError, Tensor


@pytest.fixture
def lr_image(tmp_path, rng):
    img = rng.integers(0, 256, (16, 20, 3), dtype=np.uint8)
    path = tmp_path / "lr.ppm"
    ppm.write_ppm(path, img)
    return path, img


class TestPpmFormat:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        img = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        ppm.write_ppm(path, img)
        assert np.array_equal(ppm.read_ppm(path), img)
        again = tmp_path / "y.ppm"
        ppm.write_ppm(again, ppm.read_ppm(path))
        assert path.read_bytes() == again.read_bytes()

    def test_comment_and_whitespace_tolerant(self, tmp_path):
        raw = b"P6\n# a comment\n2 1\n# another\n255\n" + bytes(6)
        path = tmp_path / "c.ppm"
        path.write_bytes(raw)
        assert ppm.read_ppm(path).shape == (1, 2, 3)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\0")
        with pytest.raises(ppm.ImageFormatError, match="P6"):
            ppm.read_ppm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\0\0\0")
        with pytest.raises(ppm.ImageFormatError, match="truncated"):
            ppm.read_ppm(path)


class TestVerbs:
    def test_init_and_infer_shapes(self, tmp_path, lr_image):
        lr_path, img = lr_image
        archive = tmp_path / "w.srwt"
        out = tmp_path / "sr.ppm"
        assert main(["init", "--model", "spanv2", "--seed", "3", "--out", str(archive)]) == 0
        assert (
            main(
                [
                    "infer",
                    "--archive",
                    str(archive),
                    "--mode",
                    "fused",
                    str(lr_path),
                    str(out),
                ]
            )
            == 0
        )
        sr = ppm.read_ppm(out)
        assert sr.shape == (16 * 4, 20 * 4, 3)

    def test_infer_64_to_256(self, tmp_path, rng):
        img = rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)
        lr = tmp_path / "lr64.ppm"
        ppm.write_ppm(lr, img)
        archive = tmp_path / "w.srwt"
        out = tmp_path / "sr.ppm"
        main(["init", "--seed", "1", "--out", str(archive)])
        assert main(["infer", "--archive", str(archive), str(lr), str(out)]) == 0
        assert ppm.read_ppm(out).shape == (256, 256, 3)

    def test_png_support_behind_optional_dependency(self, tmp_path, rng):
        pytest.importorskip("PIL")
        img = rng.integers(0, 256, (9, 11, 3), dtype=np.uint8)
        path = tmp_path / "x.png"
        ppm.write_image(path, img)
        assert np.array_equal(ppm.read_image(path), img)

    def test_infer_modes_agree_on_image(self, tmp_path, lr_image):
        lr_path, _ = lr_image
        archive = tmp_path / "w.srwt"
        main(["init", "--seed", "3", "--out", str(archive)])
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        main(["infer", "--archive", str(archive), "--mode", "fused", str(lr_path), str(a)])
        main(["infer", "--archive", str(archive), "--mode", "unfused", str(lr_path), str(b)])
        pa, pb = ppm.read_ppm(a).astype(int), ppm.read_ppm(b).astype(int)
        assert np.abs(pa - pb).max() <= 1  # one 8-bit step of rounding slack

    def test_fuse_end_to_end(self, tmp_path, lr_image):
        lr_path, _ = lr_image
        train = tmp_path / "train.srwt"
        fused = tmp_path / "fused.srwt"
        report = tmp_path / "report.json"
        main(["init", "--seed", "4", "--reparam", "--out", str(train)])
        code = main(
            [
                "fuse",
                "--archive",
                str(train),
                "--out",
                str(fused),
                "--report",
                str(report),
                "--probe",
                str(lr_path),
            ]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["rewrites"], "expected applied rewrites"
        assert doc["end_to_end"]["max_rel_err"] <= 1e-5
        for entry in doc["rewrites"]:
            assert entry["max_rel_err"] <= 1e-5

    def test_psnr_verb_identity(self, tmp_path, lr_image, capsys):
        lr_path, _ = lr_image
        assert main(["psnr", "--border", "4", str(lr_path), str(lr_path)]) == 0
        assert capsys.readouterr().out.strip() == "100.0"

    def test_params_and_flops_verbs(self, capsys):
        assert main(["params", "--model", "spanv2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"] == 140_816
        assert main(["flops", "--model", "spanv2", "--size", "256"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["flops"] == 9_270_460_416

    def test_bench_verb(self, tmp_path, lr_image, capsys):
        lr_path, _ = lr_image
        archive = tmp_path / "w.srwt"
        main(["init", "--width", "8", "--blocks", "1", "--upscale", "2", "--out", str(archive)])
        capsys.readouterr()
        assert (
            main(["bench", "--archive", str(archive), "--reps", "2", str(lr_path)]) == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["per_image_ms"]) == 1
        assert doc["mean_ms"] > 0
        # each image's spread over its reps, next to its mean
        (low,), (mid,), (iqr,) = (doc[f"per_image_{k}_ms"] for k in ("min", "median", "iqr"))
        assert 0 < low <= mid and low <= doc["per_image_ms"][0] and iqr >= 0
        assert doc["blas"] and "threads" in doc
        lr_h, lr_w = ppm.read_image(lr_path).shape[:2]
        assert doc["peak_mib"] >= 3 * (2 * lr_h) * (2 * lr_w) * 4 / 2**20  # the x2 output

    @pytest.mark.parametrize("threads", [1, 2])
    def test_bench_threads_cap_the_engine(self, tmp_path, lr_image, capsys, threads):
        lr_path, _ = lr_image
        argv = ["bench", "--model", "spanv2", "--width", "8", "--blocks", "1", "--upscale", "2", "--reps", "1"]
        assert main([*argv, f"--threads={threads}", str(lr_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["engine_threads"] == min(threads, 2, len(os.sched_getaffinity(0)))
        assert doc["strips_in_flight"] == 1  # a patch runs as one strip

    def test_score_verb(self, tmp_path, capsys):
        from importlib import resources

        src = resources.files("srkit") / "data" / "challenge_table.json"
        table = tmp_path / "table.json"
        table.write_text(src.read_text())
        out_json = tmp_path / "scores.json"
        assert main(["score", str(table), "--json", str(out_json)]) == 0
        text = capsys.readouterr().out
        assert "XiaomiMM" in text and "4.43" in text
        doc = json.loads(out_json.read_text())
        xiaomi = next(r for r in doc["teams"] if r["name"] == "XiaomiMM")
        assert xiaomi["overall_rank"] == 1

    def test_selftest_verb(self):
        assert main(["selftest", "--quiet"]) == 0

    def test_non_finite_input_diagnostic(self, tmp_path, lr_image, monkeypatch, capsys):
        # PPM pixels are always finite; stand in a decoder that yields NaN
        lr_path, _ = lr_image
        monkeypatch.setattr(
            metrics,
            "image_to_tensor",
            lambda img: Tensor(np.full((1, 3, *img.shape[:2]), np.nan, np.float32)),
        )
        argv = ["infer", "--model", "spanv2", "--width", "4", "--blocks", "1"]
        assert main([*argv, str(lr_path), str(tmp_path / "sr.ppm")]) == 1
        err = capsys.readouterr().err
        assert err == "srkit infer: graph 'spanv2': input contains non-finite values\n"

    def test_missing_file_diagnostic(self, capsys):
        assert main(["psnr", "missing_a.ppm", "missing_b.ppm"]) == 1
        err = capsys.readouterr().err
        assert "psnr" in err and err.count("\n") == 1

    def test_bad_archive_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.srwt"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["params", "--archive", str(bad)]) == 1
        assert "magic" in capsys.readouterr().err

    def test_unknown_verb_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code != 0

    @pytest.mark.parametrize(
        "name, text, needle",
        [
            ("t.json", '[{"name": "a", "runtime_ms": 1, "params_m": 1}]', "row 0 lacks field"),
            ("t.csv", "name,runtime_ms,flops_g,baseline\na,1,1,true\n", "row 0 lacks field"),
            ("t.json", '{"rows": []}', '{"teams": [...]}'),
            ("t.json", '{"teams": 5}', '{"teams": [...]}'),
            ("t.json", "[1, 2]", "row 0 is not an object"),
            (
                "t.json",
                '[{"name": "a", "runtime_ms": [1], "params_m": 1, "flops_g": 1}]',
                "row 0 field 'runtime_ms' is not a number",
            ),
            ("t.json", "[" * 200_000 + "]" * 200_000, "maximum recursion depth"),
            ("t.csv", f"name,runtime_ms,params_m,flops_g,baseline\n{'a' * 131_073},1,1,1,true\n", "row 0 field larger"),
            (
                "t.json",
                f'[{{"name": "a", "runtime_ms": 1{"0" * 400}, "params_m": 1, "flops_g": 1}}]',
                "row 0 field 'runtime_ms' is out of float range",
            ),
            ("t.csv", "name,runtime_ms,params_m,flops_g,baseline\na,inf,1,1,\nb,1,1,1,true\n", "row 0 a: runtime_ms must be finite"),
            ("t.csv", "name,runtime_ms,params_m,flops_g,baseline\na,1e400,1,1,\nb,1,1,1,true\n", "row 0 a: runtime_ms must be finite"),
            (
                "t.json",
                '[{"name": "a", "runtime_ms": Infinity, "params_m": 1, "flops_g": 1}]',
                "row 0 a: runtime_ms must be finite",
            ),
            (
                "t.csv",
                "name,runtime_ms,params_m,flops_g,psnr_valid,psnr_test,baseline\na,1,1,1,nan,27,\nb,1,1,1,,,true\n",
                "row 0 a: psnr_valid must be finite",
            ),
        ],
        ids=[
            "no_flops_g", "csv_no_params_m", "no_teams", "teams_int", "row_int", "list_runtime",
            "deep_json", "long_csv_field", "huge_runtime",
            "inf_runtime_csv", "overflowing_runtime_csv", "infinite_runtime_json", "nan_psnr_csv",
        ],
    )
    def test_malformed_score_table_diagnostic(self, tmp_path, capsys, name, text, needle):
        table = tmp_path / name
        table.write_text(text)
        assert main(["score", str(table)]) == 1  # a traceback would escape as an exception
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(table) in err and needle in err

    def test_score_ratio_too_large_diagnostic(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("name,runtime_ms,params_m,flops_g,baseline\nslow,1000,1,1,\nbase,1,1,1,true\n")
        assert main(["score", str(table)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "1000.0 against 1.0 is too large a ratio" in err

    @pytest.mark.parametrize(
        "argv, needle",
        [
            ("flops --model spanv2 --size 0", "at least 1x1, got 0x0"),
            ("flops --model spanv2 --size -3", "at least 1x1, got -3x-3"),
            ("params --model spanv2 --width 0", "c (width) must be >= 1"),
            ("params --model span --width 0", "c (width) must be >= 1"),
            ("params --model spanv2 --blocks 0", "blocks must be >= 1"),
            ("init --model span --blocks 0 --out w.srwt", "blocks must be >= 1"),
            # SPANV2's weights at c = 1e8 need 14 EiB to draw, more than any
            # host's memory; nothing is drawn
            ("params --model spanv2 --width 100000000", "has 1310000010500003312 weights, which need 14640390990.3 GiB to draw"),
        ],
        ids=["size_0", "size_neg3", "spanv2_width_0", "span_width_0", "blocks_0", "init_blocks_0", "width_1e8"],
    )
    def test_non_positive_size_diagnostic(self, tmp_path, monkeypatch, capsys, argv, needle):
        monkeypatch.chdir(tmp_path)
        assert main(argv.split()) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and needle in err

    def test_a_weight_larger_than_memory_is_refused_before_it_is_drawn(self, monkeypatch, capsys):
        # On a host of 8 GiB, SPAN at c = 1e8 (1.75e18 weights, each a
        # float64 draw and its float32 copy) does not fit, and nothing is
        # drawn; its 3 -> c head conv alone needs 30.2 GiB.
        memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 << 20}
        monkeypatch.setattr(models.os, "sysconf", memory.__getitem__)
        tracemalloc.start()
        try:
            assert main(["flops", "--model", "span", "--width", "100000000"]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err == (
            "srkit flops: a span of width 100000000, upscale 4 and 6 blocks has 1750000048000000048 weights, "
            "which need 19557774603.4 GiB to draw, more than the host's 8.0 GiB of memory\n"
        )
        assert peak < 64 * 2**20
        with pytest.raises(ShapeError, match="a 100000000x3x3x3 conv weight needs 30.2 GiB to draw"):
            models.random_conv(np.random.default_rng(0), 3, 100_000_000)

    @pytest.mark.parametrize("model", ["spanv2", "span"])
    def test_a_model_of_more_blocks_than_memory_exits_before_any_draw(self, capsys, model):
        # Each of 1e7 blocks' weights fits, and were drawn one after another
        # until memory ran out; the whole model's count is checked first.
        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert main(["flops", "--model", model, "--blocks", "10000000"]) == 1
            took, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"srkit flops: a {model} of width " in err and "more than the host's" in err
        assert took < 1 and peak < 64 * 2**20

    @pytest.mark.parametrize(
        "argv, needle",
        [
            ("psnr a.ppm wide.ppm", "image shapes differ"),
            ("psnr --border 8 a.ppm a.ppm", "smaller than 2*border+1"),
            ("bench --archive w.srwt --reps 0 a.ppm", "reps must be >= 1, got 0"),
            ("bench --archive w.srwt --warmup -1 a.ppm", "warmup must be >= 0, got -1"),
            ("bench --archive w.srwt --threads 0 a.ppm", "threads must be >= 1, got 0"),
            ("fuse --archive w.srwt --out f.srwt --report r.json --probe text.ppm", "not a P6"),
            ("fuse --archive w.srwt --out f.srwt --report r.json --probe cut.ppm", "truncated"),
        ],
        ids=[
            "psnr_sizes",
            "psnr_border",
            "bench_reps_0",
            "bench_warmup_neg1",
            "bench_threads_0",
            "fuse_probe_not_ppm",
            "fuse_probe_truncated",
        ],
    )
    def test_bad_argument_or_image_diagnostic(self, tmp_path, monkeypatch, capsys, argv, needle):
        monkeypatch.chdir(tmp_path)
        ppm.write_ppm("a.ppm", np.zeros((16, 16, 3), np.uint8))
        ppm.write_ppm("wide.ppm", np.zeros((16, 20, 3), np.uint8))
        Path("text.ppm").write_text("not an image\n")
        Path("cut.ppm").write_bytes(b"P6\n2 2\n255\n\0\0\0")
        main(["init", "--width", "4", "--blocks", "1", "--out", "w.srwt"])
        capsys.readouterr()
        assert main(argv.split()) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and needle in err


class TestConsoleEntry:
    def test_subprocess_selftest(self):
        proc = subprocess.run(
            [sys.executable, "-m", "srkit.cli", "selftest", "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_subprocess_usage_on_no_args(self):
        proc = subprocess.run(
            [sys.executable, "-m", "srkit.cli"], capture_output=True, text=True
        )
        assert proc.returncode != 0
        assert "usage" in (proc.stderr + proc.stdout).lower()

    def test_subprocess_infer_of_a_nan_output_writes_no_image(self, tmp_path):
        # conv_a's weights scaled by 1e30 overflow the forward to NaN. The
        # image used to be written all black, with exit 0. In a subprocess, as
        # pytest turns numpy's overflow warnings into errors.
        g = build_spanv2(seed=0)
        spec = g.node("b1.conv_a").spec
        g.node("b1.conv_a").spec = replace(spec, weight=spec.weight * np.float32(1e30))
        archive, lr, out = tmp_path / "nan.srwt", tmp_path / "lr.ppm", tmp_path / "sr.ppm"
        save_archive(g, archive)
        ppm.write_ppm(lr, np.full((4, 3, 3), 128, np.uint8))
        for mode in ("fused", "unfused"):
            proc = subprocess.run(
                [sys.executable, "-m", "srkit.cli", "infer", "--archive", str(archive), "--mode", mode,
                 str(lr), str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 1, proc.stderr
            assert proc.stderr.splitlines()[-1].startswith("srkit infer: tensor_to_image: the image has NaN")
            assert not out.exists()


class TestUpscaleDemo:
    def test_untrained_output_resembles_nearest_neighbor(self, tmp_path, rng):
        # smooth gradient image: the near-pixel pass-through should dominate
        yy, xx = np.mgrid[0:16, 0:16]
        img = np.stack([yy * 8, xx * 8, (yy + xx) * 4], axis=-1).astype(np.uint8)
        lr = tmp_path / "g.ppm"
        sr = tmp_path / "g4.ppm"
        ppm.write_ppm(lr, img)
        archive = tmp_path / "w.srwt"
        main(["init", "--seed", "0", "--out", str(archive)])
        main(["infer", "--archive", str(archive), str(lr), str(sr)])
        got = ppm.read_ppm(sr)
        want = tensor_to_image(nearest_upsample(image_to_tensor(img), 4))
        from srkit.metrics import psnr

        assert psnr(got, want) > 15.0


_PPM = b"P6\n5 4\n255\n" + bytes(range(60))
# (position, kind, byte); positions are taken modulo the current length, and
# the bytes lean towards what PPM headers are made of
_EDITS = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 12), st.integers(0, 1 << 16)),
        st.sampled_from(["replace", "insert", "delete"]),
        st.one_of(st.sampled_from(b"0123456789 \n#P6-"), st.integers(0, 255)),
    ),
    min_size=1,
    max_size=4,
)


def _mutated(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for pos, kind, byte in edits:
        at = pos % (len(buf) + 1)
        if kind == "insert":
            buf.insert(at, byte)
        elif buf:
            at %= len(buf)
            if kind == "replace":
                buf[at] = byte
            else:
                del buf[at]
    return bytes(buf)


@settings(max_examples=40, deadline=None, database=None)
@given(edits=_EDITS)
def test_any_mutated_ppm_infers_or_exits_cleanly(edits):
    """Exit 0, or exit 1 with one stderr line, whatever a few byte edits do."""
    err = io.StringIO()
    with TemporaryDirectory() as tmp:
        src = Path(tmp) / "lr.ppm"
        src.write_bytes(_mutated(_PPM, edits))
        argv = ["infer", "--model", "spanv2", "--width", "4", "--blocks", "1"]
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main([*argv, str(src), str(Path(tmp) / "sr.ppm")])
    assert code == 0 or (code == 1 and err.getvalue().count("\n") == 1), (code, err.getvalue())


@settings(max_examples=30, deadline=None, database=None)
@given(
    border=st.integers(-3, 12),
    sizes=st.tuples(*[st.tuples(st.integers(1, 12), st.integers(1, 12))] * 2),
    reps=st.integers(-1, 2),
    warmup=st.integers(-2, 1),
    threads=st.integers(-1, 2),
)
def test_psnr_and_bench_arguments_run_or_exit_cleanly(border, sizes, reps, warmup, threads):
    """Exit 0, or exit 1 with one stderr line, for any border, image sizes
    and bench counts."""
    with TemporaryDirectory() as tmp:
        paths = [str(Path(tmp) / f"{i}.ppm") for i in range(2)]
        for path, (h, w) in zip(paths, sizes):
            ppm.write_ppm(path, np.full((h, w, 3), 7 * h + w, np.uint8))
        bench = ["bench", "--model", "spanv2", "--width", "4", "--blocks", "1", "--upscale", "2"]
        for argv in (
            ["psnr", f"--border={border}", *paths],
            [*bench, f"--reps={reps}", f"--warmup={warmup}", f"--threads={threads}", paths[0]],
        ):
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code == 0 or (code == 1 and err.getvalue().count("\n") == 1), (
                argv, code, err.getvalue()
            )


@settings(max_examples=30, deadline=None, database=None)
@given(
    edits=st.lists(_EDITS, max_size=1),
    sizes=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=2),
)
def test_any_fuse_probes_fuse_or_exit_cleanly(edits, sizes):
    """Exit 0, or exit 1 with one stderr line, for any probe images: a
    byte-edited PPM and well-formed ones of any size, empty ones included."""
    with TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        probes = []
        for i, e in enumerate(edits):
            probes.append(tmp / f"edited{i}.ppm")
            probes[-1].write_bytes(_mutated(_PPM, e))
        for i, (h, w) in enumerate(sizes):
            probes.append(tmp / f"{h}x{w}.ppm")
            probes[-1].write_bytes(b"P6\n%d %d\n255\n" % (w, h) + bytes(range(3 * h * w)))
        archive = str(tmp / "train.srwt")
        init = ["init", "--width", "4", "--blocks", "1", "--reparam", "--out", archive]
        fuse = ["fuse", "--archive", archive, "--out", str(tmp / "f.srwt"), "--report", str(tmp / "r.json")]
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            assert main(init) == 0
            code = main([*fuse, *(arg for p in probes for arg in ("--probe", str(p)))])
    assert code == 0 or (code == 1 and err.getvalue().count("\n") == 1), (code, err.getvalue())
