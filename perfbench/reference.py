"""Float64 reference executor, independent of srkit's tensor and fusion code.

It walks the public fields of a graph (`Node.op`, `Node.inputs`, `ConvSpec`,
`LoraFactors`, `BranchGroup`) and evaluates them in float64 with its own
algorithms. Convolution uses shift-and-accumulate on a flattened padded
plane (one GEMM per kernel tap), a different algorithm from the engine's
im2col, so a shared bug cannot make both agree. Fusion groups are ignored:
the attention triple is evaluated as the literal conv, add and mul.
"""

from __future__ import annotations

import numpy as np

# The pass bar: max|y - ref| / max|ref|, the peak-normalised error of
# srkit.fusion.max_errors. Elementwise allclose(1e-5, 1e-6) fails on values
# near zero and uint8 equality flips rounded pixels, so neither is the check.
TOLERANCE = 1e-5


def peak_error(y: np.ndarray, ref: np.ndarray) -> float:
    diff = np.abs(np.asarray(y, dtype=np.float64) - ref).max(initial=0.0)
    return float(diff / max(float(np.abs(ref).max(initial=0.0)), 1e-12))


def image_to_input(img: np.ndarray) -> np.ndarray:
    """(h, w, 3) uint8 -> (3, h, w) float64 in [0, 1]."""
    return img.astype(np.float64).transpose(2, 0, 1) / 255.0


def _conv(x: np.ndarray, weight: np.ndarray, bias, padding, groups: int) -> np.ndarray:
    c, h, w = x.shape
    out_c, cg, kh, kw = weight.shape
    ph, pw = padding
    hp, wp = h + 2 * ph, w + 2 * pw
    ho, wo = hp - kh + 1, wp - kw + 1
    # Output rows are computed at the full padded width; the last kw - 1
    # columns of each row are junk and dropped. The tail keeps the last
    # tap's slice in bounds.
    flat = np.zeros((c, hp * wp + kw - 1))
    flat[:, : hp * wp].reshape(c, hp, wp)[:, ph : ph + h, pw : pw + w] = x
    src = flat.reshape(groups, cg, -1)
    taps = np.asarray(weight, dtype=np.float64).reshape(groups, out_c // groups, cg, kh, kw)
    span = ho * wp
    acc = np.zeros((groups, out_c // groups, span))
    for dy in range(kh):
        for dx in range(kw):
            off = dy * wp + dx
            acc += taps[:, :, :, dy, dx] @ src[:, :, off : off + span]
    out = acc.reshape(out_c, ho, wp)[:, :, :wo]
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64)[:, None, None]
    return out


def _conv_spec(x: np.ndarray, spec) -> np.ndarray:
    return _conv(x, spec.weight, spec.bias, spec.padding, spec.groups)


def _lora_delta(spec, lora) -> np.ndarray:
    # Documented layout: B (out*k, rank*k) @ A (rank*k, in*k) read row-major
    # as (out, k, in, k), scaled by alpha / rank.
    k = spec.kernel[0]
    delta = np.asarray(lora.b, dtype=np.float64) @ np.asarray(lora.a, dtype=np.float64)
    delta *= lora.alpha / lora.rank
    return delta.reshape(spec.out_channels, k, spec.in_channels, k).transpose(0, 2, 1, 3)


def _conv_node(x: np.ndarray, n) -> np.ndarray:
    if n.branches is not None:
        out = sum(_conv_spec(x, b) for b in n.branches.branches)
        return out + x if n.branches.include_identity else out
    out = _conv_spec(x, n.spec)
    if n.lora is not None:
        out = out + _conv(x, _lora_delta(n.spec, n.lora), None, n.spec.padding, 1)
    return out


def _pixel_shuffle(x: np.ndarray, s: int) -> np.ndarray:
    # Channel c*s*s + k lands at offset (k // s, k % s) of each s x s block.
    c, h, w = x.shape
    co = c // (s * s)
    out = np.empty((co, h * s, w * s))
    for k in range(s * s):
        out[:, k // s :: s, k % s :: s] = x[k :: s * s]
    return out


def forward(g, x: np.ndarray) -> np.ndarray:
    """Evaluate graph g on one (c, h, w) float64 input; returns (c, h', w')."""
    last_use = {r: i for i, n in enumerate(g.nodes) for r in n.inputs}
    env: dict[str, np.ndarray] = {}
    for i, n in enumerate(g.nodes):
        args = [env[r] for r in n.inputs]
        for r in n.inputs:
            if last_use[r] == i and r != g.output:
                env.pop(r, None)
        if n.op == "input":
            out = x
        elif n.op == "conv":
            out = _conv_node(args[0], n)
        elif n.op == "relu":
            out = np.maximum(args[0], 0.0)
        elif n.op == "add":
            out = args[0] + args[1]
        elif n.op == "mul":
            out = args[0] * args[1]
        elif n.op == "concat":
            out = np.concatenate(args, axis=0)
        elif n.op == "pixel_shuffle":
            out = _pixel_shuffle(args[0], n.upscale)
        else:
            raise ValueError(f"reference: unknown op {n.op!r} in node {n.name!r}")
        env[n.name] = out
    return env[g.output]
