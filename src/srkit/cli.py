"""Command-line front end: srkit <verb> [options].

Verbs: init, infer, fuse, psnr, params, flops, bench, score, selftest.
Every verb exits 0 on success and nonzero with a one-line diagnostic
otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import metrics, ppm, scoring, selftest
from .archive import ArchiveError, load_archive, save_archive
from .fusion import TrafficCounter
from .graph import ModelGraph, run_graph
from .models import build_model
from .rewrites import apply_rewrites, decorate_for_reparam, fuse_equivalence
from .tensor import Tensor


class CliError(RuntimeError):
    pass


def _load_graph(args) -> ModelGraph:
    if getattr(args, "archive", None):
        return load_archive(args.archive)
    if getattr(args, "model", None):
        return build_model(
            args.model,
            seed=args.seed,
            width=getattr(args, "width", None),
            upscale=getattr(args, "upscale", None),
            blocks=getattr(args, "blocks", None),
        )
    raise CliError("need --archive or --model")


def _cmd_init(args) -> int:
    g = build_model(
        args.model, seed=args.seed, width=args.width, upscale=args.upscale, blocks=args.blocks
    )
    if args.reparam:
        g = decorate_for_reparam(g, seed=args.seed or 0)
    save_archive(g, args.out)
    print(f"wrote {args.out} ({metrics.count_params(g)} parameters, seed={args.seed})")
    return 0


def _cmd_infer(args) -> int:
    g = _load_graph(args)
    img = ppm.read_image(args.input)
    x = metrics.image_to_tensor(img)
    counter = TrafficCounter() if args.traffic else None
    y = run_graph(g, x, mode=args.mode, counter=counter)
    ppm.write_image(args.output, metrics.tensor_to_image(y))
    msg = f"wrote {args.output} ({y.h}x{y.w})"
    if counter is not None:
        msg += f" traffic reads={counter.element_reads} writes={counter.element_writes}"
    print(msg)
    return 0


def _cmd_fuse(args) -> int:
    g = load_archive(args.archive)
    merged, rewrites = apply_rewrites(g, seed=args.seed or 0)
    if args.probe:
        probes = [metrics.image_to_tensor(ppm.read_image(p)) for p in args.probe]
    else:
        rng = np.random.default_rng(args.seed or 0)
        probes = [
            Tensor(rng.random((1, 3, 24, 24), dtype=np.float32).astype(np.float32))
            for _ in range(2)
        ]
    report = fuse_equivalence(g, merged, probes)
    report["rewrites"] = [r.to_dict() for r in rewrites]
    save_archive(merged, args.out)
    Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    worst = report["end_to_end"]["max_rel_err"]
    print(
        f"wrote {args.out} ({len(rewrites)} rewrites, end-to-end max rel err {worst:.3g}), "
        f"report {args.report}"
    )
    return 0


def _cmd_psnr(args) -> int:
    value = metrics.psnr(ppm.read_image(args.pred), ppm.read_image(args.gt), args.border)
    print(f"{value:.4f}" if value != metrics.PSNR_CAP_DB else "100.0")
    return 0


def _cmd_params(args) -> int:
    g = _load_graph(args)
    count = metrics.count_params(g)
    print(json.dumps({"model": g.name, "params": count, "params_m": count / 1e6}))
    return 0


def _cmd_flops(args) -> int:
    g = _load_graph(args)
    count = metrics.count_flops(g, args.size, args.size)
    print(
        json.dumps(
            {"model": g.name, "input": args.size, "flops": count, "flops_g": count / 1e9}
        )
    )
    return 0


def _cmd_bench(args) -> int:
    g = _load_graph(args)
    images = [metrics.image_to_tensor(ppm.read_image(p)) for p in args.images]
    stats = metrics.bench_runtime(
        g, images, warmup=args.warmup, reps=args.reps, mode=args.mode, threads=args.threads
    )
    print(json.dumps(stats.to_dict(), indent=2))
    return 0


def _cmd_score(args) -> int:
    teams, baseline = scoring.load_team_table(args.table)
    gate = None if args.no_gate else (args.gate_valid, args.gate_test)
    table = scoring.rank_table(teams, baseline, psnr_gate=gate, gate_slack=args.gate_slack)
    print(scoring.format_table(table))
    if args.json:
        Path(args.json).write_text(json.dumps(table.to_dict(), indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


def _cmd_selftest(args) -> int:
    failures = selftest.run(verbose=not args.quiet)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="srkit", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_model_opts(p):
        p.add_argument("--archive", help="weight archive path")
        p.add_argument("--model", choices=("spanv2", "span"), help="build instead of load")
        p.add_argument("--width", type=int, default=None)
        p.add_argument("--upscale", type=int, default=None)
        p.add_argument("--blocks", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("init", help="write a seeded weight archive")
    p.add_argument("--model", choices=("spanv2", "span"), default="spanv2")
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--upscale", type=int, default=None)
    p.add_argument("--blocks", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reparam", action="store_true", help="add LoRA/branch training forms")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_init)

    p = sub.add_parser("infer", help="super-resolve an image x4")
    add_model_opts(p)
    p.add_argument("--mode", choices=("unfused", "fused"), default="fused")
    p.add_argument("--traffic", action="store_true", help="report attention traffic")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("fuse", help="fold re-param branches into plain convs")
    p.add_argument("--archive", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True, help="equivalence report JSON path")
    p.add_argument("--probe", action="append", help="probe image (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_fuse)

    p = sub.add_parser("psnr", help="PSNR between two images")
    p.add_argument("--border", type=int, default=4)
    p.add_argument("pred")
    p.add_argument("gt")
    p.set_defaults(fn=_cmd_psnr)

    p = sub.add_parser("params", help="parameter count")
    add_model_opts(p)
    p.set_defaults(fn=_cmd_params)

    p = sub.add_parser("flops", help="FLOPs at a square input size")
    add_model_opts(p)
    p.add_argument("--size", type=int, default=256)
    p.set_defaults(fn=_cmd_flops)

    p = sub.add_parser("bench", help="wall-clock runtime over images")
    add_model_opts(p)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--mode", choices=("unfused", "fused"), default="fused")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("images", nargs="+")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("score", help="challenge scoring from a metrics table")
    p.add_argument("table", help="JSON or CSV with one baseline-flagged row")
    p.add_argument("--json", help="write the full score table as JSON")
    p.add_argument("--gate-valid", type=float, default=scoring.DEFAULT_PSNR_GATE[0])
    p.add_argument("--gate-test", type=float, default=scoring.DEFAULT_PSNR_GATE[1])
    p.add_argument("--gate-slack", type=float, default=scoring.DEFAULT_GATE_SLACK)
    p.add_argument("--no-gate", action="store_true")
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("selftest", help="run the built-in oracle suite")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ArchiveError, ppm.ImageFormatError, ValueError, OSError) as exc:
        print(f"srkit {args.verb}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
