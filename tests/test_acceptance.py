"""Acceptance suite: one test per gate criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines alongside the pytest verdicts. Criterion 2 (complexity
calibration) is the `param_counts` and `flop_counts` checks of
`srkit.selftest`, run by tests/test_selftest.py.
"""

import json
import sys
import time

import numpy as np
import pytest

from srkit import ppm
from srkit.cli import main as cli_main
from srkit.fusion import (
    TrafficCounter,
    branch_forward,
    collapse_branches,
    compose_convs,
    fused_attention,
    lora_forward,
    lora_merge,
    reference_attention,
    LoraFactors,
    BranchGroup,
)
from srkit.graph import run_graph
from srkit.metrics import image_to_tensor, psnr
from srkit.models import (
    build_spanv2,
    near_pixel_init,
    nearest_upsample,
    random_conv,
)
from srkit.scoring import rank_table, round_half_even
from srkit.selftest import assert_close, rand_tensor
from srkit.tensor import Tensor, conv2d, pixel_shuffle
from table_expectations import BASELINE_NAME, EXPECTED, RANKING, check_cell
from test_scoring import published_table

def report(criterion: str, fn):
    """Run one criterion body, print its pass/fail line, re-raise on failure."""
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {criterion}: FAIL", file=sys.stderr)
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s)")


def test_criterion_1_scoring_reproduction():
    def body():
        teams, baseline = published_table()
        table = rank_table(teams, baseline)
        for name, expect in EXPECTED.items():
            row = table.row(name)
            cells = (
                row.runtime_score,
                row.params_score,
                row.flops_score,
                row.overall_score,
            )
            for got, want in zip(cells, expect[:4]):
                assert check_cell(got, want), f"{name}: {got} vs printed {want}"
            ranks = (row.runtime_rank, row.params_rank, row.flops_rank, row.overall_rank)
            assert ranks == expect[4:], f"{name}: ranks {ranks} != {expect[4:]}"
        assert table.ranking() == RANKING
        base = table.row(BASELINE_NAME)
        assert str(round_half_even(base.overall_score)) == "7.39"
        assert base.overall_score == pytest.approx(np.e**2)
        xm = table.row("XiaomiMM")
        assert [str(round_half_even(v)) for v in (
            xm.runtime_score, xm.params_score, xm.flops_score, xm.overall_score
        )] == ["3.95", "6.30", "6.38", "4.43"]
        assert str(round_half_even(table.row("ZenoSR").params_score)) == "1.65"

    report("criterion-1 scoring-reproduction", body)


def test_criterion_3_fusion_equivalence():
    def body():
        widths = (1, 16, 28, 32, 48, 52)
        rng = np.random.default_rng(2024)
        cases = 0
        while cases < 100:
            c = widths[cases % len(widths)]
            x = rand_tensor(rng, 1, c, 8, 8)
            f3 = rand_tensor(rng, 1, c, 8, 8)
            attn = random_conv(rng, c, c, k=1)
            fused_counter, ref_counter = TrafficCounter(), TrafficCounter()
            fused = fused_attention(x, f3, attn, fused_counter)
            ref = reference_attention(x, f3, attn, ref_counter)
            assert_close(fused, ref, msg=f"case {cases} width {c}")
            numel = x.numel
            assert (fused_counter.element_reads, fused_counter.element_writes) == (
                2 * numel,
                numel,
            )
            assert (ref_counter.element_reads, ref_counter.element_writes) == (
                5 * numel,
                3 * numel,
            )
            cases += 1

    report("criterion-3 fused-attention-equivalence", body)


def test_criterion_4_near_pixel_equivalence():
    def body():
        rng = np.random.default_rng(77)
        spec = near_pixel_init(random_conv(rng, 3, 48, k=3, groups=3), 4)
        for case in range(50):
            h, w = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            x = Tensor(rng.random((1, 3, h, w), dtype=np.float32).astype(np.float32))
            got = pixel_shuffle(conv2d(x, spec), 4)
            want = nearest_upsample(x, 4)
            assert np.array_equal(got.data, want.data), f"image {case}"

    report("criterion-4 near-pixel-equivalence", body)


def test_criterion_5_reparameterization_identities():
    def body():
        rng = np.random.default_rng(31)
        for case in range(50):
            cin, cmid, cout = (int(v) for v in rng.integers(1, 7, 3))
            first = random_conv(rng, cin, cmid, k=int(rng.choice([1, 3])))
            second = random_conv(rng, cmid, cout, k=int(rng.choice([1, 3])))
            x = rand_tensor(rng, 1, cin, 10, 10)
            comp = compose_convs(first, second)
            seq = conv2d(conv2d(x, first), second)
            got = conv2d(x, comp)
            m = second.kernel[0] // 2
            interior = (slice(None), slice(None), slice(m, 10 - m), slice(m, 10 - m))
            assert_close(got.data[interior], seq.data[interior], msg=f"compose {case}")
        for case in range(50):
            c_in, c_out = (int(v) for v in rng.integers(1, 8, 2))
            k, r = int(rng.choice([1, 3])), int(rng.integers(1, 4))
            base = random_conv(rng, c_in, c_out, k=k)
            lora = LoraFactors(
                a=rng.normal(0, 0.2, (r * k, c_in * k)).astype(np.float32),
                b=rng.normal(0, 0.2, (c_out * k, r * k)).astype(np.float32),
                rank=r,
                alpha=float(rng.uniform(0.5, 3.0)),
            )
            x = rand_tensor(rng, 1, c_in, 7, 7)
            assert_close(
                conv2d(x, lora_merge(base, lora)), lora_forward(x, base, lora), msg=f"lora {case}"
            )
        for case in range(50):
            c = int(rng.integers(1, 8))
            branches = [random_conv(rng, c, c, k=3), random_conv(rng, c, c, k=1)]
            include_identity = bool(rng.integers(0, 2))
            group = BranchGroup(tuple(branches), include_identity)
            merged = collapse_branches(branches, include_identity)
            x = rand_tensor(rng, 1, c, 6, 6)
            assert_close(conv2d(x, merged), branch_forward(x, group), msg=f"branch {case}")
        head = random_conv(rng, 3, 26, k=3)
        body_conv = random_conv(rng, 26, 26, k=3)
        saved = (
            head.param_count
            + body_conv.param_count
            - compose_convs(head, body_conv).param_count
        )
        assert abs(saved - 5000) <= 500, f"saved {saved} params, expected ~5K"

    report("criterion-5 reparameterization-identities", body)


def test_criterion_7_protocol_correctness(tmp_path):
    def body():
        rng = np.random.default_rng(55)
        img = rng.integers(0, 256, (24, 24, 3), dtype=np.uint8)
        bad = img.copy()
        bad[:4], bad[-4:], bad[:, :4], bad[:, -4:] = 0, 0, 0, 0
        assert psnr(bad, img, border=4) == 100.0
        base = rng.integers(1, 255, (24, 24, 3), dtype=np.uint8)
        off = (base + 1).astype(np.uint8)
        assert round(psnr(off, base, border=4), 3) == 48.131

        from srkit.archive import load_archive, save_archive

        g = build_spanv2(seed=9)
        p1, p2 = tmp_path / "a.srwt", tmp_path / "b.srwt"
        save_archive(g, p1)
        save_archive(load_archive(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

        probe_img = rng.integers(0, 256, (12, 14, 3), dtype=np.uint8)
        probe_path = tmp_path / "probe.ppm"
        ppm.write_ppm(probe_path, probe_img)
        train_path = tmp_path / "train.srwt"
        fused_path = tmp_path / "fused.srwt"
        report_path = tmp_path / "fuse.json"
        assert cli_main(["init", "--seed", "6", "--reparam", "--out", str(train_path)]) == 0
        assert (
            cli_main(
                [
                    "fuse",
                    "--archive",
                    str(train_path),
                    "--out",
                    str(fused_path),
                    "--report",
                    str(report_path),
                    "--probe",
                    str(probe_path),
                ]
            )
            == 0
        )
        doc = json.loads(report_path.read_text())
        assert doc["end_to_end"]["max_rel_err"] <= 1e-5
        for entry in doc["rewrites"]:
            assert entry["max_rel_err"] <= 1e-5
        before = run_graph(load_archive(train_path), image_to_tensor(probe_img))
        after = run_graph(load_archive(fused_path), image_to_tensor(probe_img))
        assert_close(after, before)

    report("criterion-7 protocol-correctness", body)
