"""The four benchmark workloads: seeded inputs, the request, and its check.

A workload prepares, outside any timed phase, a weight archive on disk, a
pool of distinct inputs (cycled in order by the timed loop) and, per
distinct input, the float64 reference its output is checked against. A
request drives only public srkit functions, looked up through their modules
at call time so that the tracer's wrappers see every call.

Model weights are the seeded demo models (`srkit init --seed 0`), the
configuration behind the published FLOP figures; `--seed` draws the pixels
of the images and probes. Shapes and their order are fixed, so every seed
asks for the same work.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference
from srkit import archive, graph, metrics, models, rewrites

MODEL_SEED = 0
MODE = "fused"  # the `srkit infer` / `srkit bench` default

# Odd-sided, non-square patches with sides 17..63, spread evenly in area so
# the median request sits inside a dense band of sizes, not between two.
PATCH_SHAPES = [
    (17, 19), (29, 19), (23, 37), (35, 29), (31, 41), (43, 35), (37, 47), (49, 41),
    (43, 53), (53, 47), (49, 57), (57, 53), (55, 59), (61, 57), (61, 63),
]
PROBE_SIDE = 64
PROBES = 2


class CheckFailed(RuntimeError):
    """A request returned, but its output does not match the reference."""


@dataclass
class Prepared:
    inputs: list[Any]  # distinct inputs, sent in this order, cyclically
    load: Callable[[], Any]  # the set-up step: load the model
    request: Callable[[Any, Any], Any]  # (model, input) -> output
    check: Callable[[int, Any], float]  # (input index, output) -> peak error
    calib: tuple[int, int]  # calibration kernel (plane side, repeats)


def _images(rng: np.random.Generator, shapes) -> list[np.ndarray]:
    return [rng.integers(0, 256, (h, w, 3), dtype=np.uint8) for h, w in shapes]


def _require(err: float, what: str) -> float:
    if not err <= reference.TOLERANCE:
        raise CheckFailed(f"{what}: peak-normalised error {err:.3g} > {reference.TOLERANCE}")
    return err


def _inference(model: str, shapes, calib, seed: int, workdir: Path) -> Prepared:
    g = models.build_model(model, seed=MODEL_SEED)
    path = workdir / f"{model}.srwt"
    archive.save_archive(g, path)
    rng = np.random.default_rng(seed)
    images = _images(rng, shapes)
    scale = g.meta["upscale"]
    refs = [reference.forward(g, reference.image_to_input(img)) for img in images]

    def request(model_graph, img):
        x = metrics.image_to_tensor(img)
        y = graph.run_graph(model_graph, x, mode=MODE)
        return y, metrics.tensor_to_image(y)

    def check(i: int, out) -> float:
        y, sr = out
        h, w, _ = images[i].shape
        if sr.shape != (h * scale, w * scale, 3) or sr.dtype != np.uint8:
            raise CheckFailed(f"output image is {sr.shape} {sr.dtype}")
        return _require(reference.peak_error(y.data[0], refs[i]), f"{h}x{w} input")

    return Prepared(images, lambda: archive.load_archive(path), request, check, calib)


def _reparam_fuse(seed: int, workdir: Path) -> Prepared:
    # The `srkit fuse --probe` flow in-process: load a training-form
    # archive, fold every LoRA and branch group, compare before/after on the
    # probes, save the merged archive and load it back.
    train = rewrites.decorate_for_reparam(models.build_spanv2(seed=MODEL_SEED), seed=MODEL_SEED)
    src = workdir / "train.srwt"
    dst = workdir / "merged.srwt"
    archive.save_archive(train, src)
    rng = np.random.default_rng(seed)
    probes = _images(rng, [(PROBE_SIDE, PROBE_SIDE)] * PROBES)
    refs = [reference.forward(train, reference.image_to_input(p)) for p in probes]

    def request(_model, _inp):
        g = archive.load_archive(src)
        merged, _ = rewrites.apply_rewrites(g, seed=seed)
        report = rewrites.fuse_equivalence(g, merged, [metrics.image_to_tensor(p) for p in probes])
        archive.save_archive(merged, dst)
        return archive.load_archive(dst), report

    def check(_i: int, out) -> float:
        merged, report = out
        if any(n.lora is not None or n.branches is not None for n in merged.nodes):
            raise CheckFailed("merged archive still holds training-form convs")
        if report["probes"] != PROBES:
            raise CheckFailed(f"fuse report covers {report['probes']} probes")
        _require(report["end_to_end"]["max_rel_err"], "fuse report end_to_end")
        return max(
            _require(
                reference.peak_error(reference.forward(merged, reference.image_to_input(p)), ref),
                "merged model",
            )
            for p, ref in zip(probes, refs)
        )

    return Prepared([None], lambda: None, request, check, (PROBE_SIDE, 4))


# Each workload's calibration kernel runs on planes like its own activations
# (see run.Calibration): 128x128 twice for 256 px images, 40x40 for the
# patches, 64x64 for the 64 px fuse probes.
WORKLOADS: dict[str, Callable[[int, Path], Prepared]] = {
    "spanv2-256": lambda seed, wd: _inference("spanv2", [(256, 256)] * 2, (128, 2), seed, wd),
    "span-256": lambda seed, wd: _inference("span", [(256, 256)] * 2, (128, 2), seed, wd),
    "spanv2-patches": lambda seed, wd: _inference("spanv2", PATCH_SHAPES, (40, 10), seed, wd),
    "reparam-fuse": _reparam_fuse,
}
