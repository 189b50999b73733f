import json
import subprocess
import sys

import numpy as np
import pytest

from srkit import ppm
from srkit.cli import main
from srkit.metrics import image_to_tensor, tensor_to_image
from srkit.models import nearest_upsample


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

    def test_kernels_verbs(self, tmp_path, lr_image, capsys):
        lr_path, _ = lr_image
        assert main(["kernels", "haar", "--image", str(lr_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["roundtrip_max_abs_err"] <= 1e-6
        assert main(["kernels", "entropy", "--image", str(lr_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["entropy"][0]) == 3
        archive = tmp_path / "w.srwt"
        main(["init", "--width", "8", "--blocks", "1", "--out", str(archive)])
        capsys.readouterr()
        assert (
            main(
                [
                    "kernels",
                    "ns",
                    "--archive",
                    str(archive),
                    "--tensor",
                    "b1.conv_b.weight",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert 0.2 < doc["singular_values_min"] <= doc["singular_values_max"] < 1.8

    def test_selftest_verb(self):
        assert main(["selftest", "--quiet"]) == 0

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
        ],
        ids=["no_flops_g", "csv_no_params_m", "no_teams", "teams_int", "row_int", "list_runtime"],
    )
    def test_malformed_score_table_diagnostic(self, tmp_path, capsys, name, text, needle):
        table = tmp_path / name
        table.write_text(text)
        assert main(["score", str(table)]) == 1  # a traceback would escape as an exception
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(table) in err and needle in err

    @pytest.mark.parametrize(
        "argv, needle",
        [
            ("flops --model spanv2 --size 0", "at least 1x1, got 0x0"),
            ("flops --model spanv2 --size -3", "at least 1x1, got -3x-3"),
            ("params --model spanv2 --width 0", "c (width) must be >= 1"),
            ("params --model span --width 0", "c (width) must be >= 1"),
            ("params --model spanv2 --blocks 0", "blocks must be >= 1"),
            ("init --model span --blocks 0 --out w.srwt", "blocks must be >= 1"),
        ],
        ids=["size_0", "size_neg3", "spanv2_width_0", "span_width_0", "blocks_0", "init_blocks_0"],
    )
    def test_non_positive_size_diagnostic(self, tmp_path, monkeypatch, capsys, argv, needle):
        monkeypatch.chdir(tmp_path)
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
