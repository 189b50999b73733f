"""Graph-level application of the exact re-parameterization rewrites.

Folds every LoRA branch and collapses every parallel-branch group in a model
graph into plain convolutions, verifying each rewrite locally against the
live (training-form) execution on a seeded probe tensor. Only rewrites that
preserve the output on the full plane are applied here; kernel composition
changes border rows on same-padded chains and therefore stays a library-level
tool rather than an automatic graph pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fusion import (
    BranchGroup,
    LoraFactors,
    branch_forward,
    collapse_branches,
    lora_forward,
    lora_merge,
    max_errors,
)
from .graph import ModelGraph, Node, infer_shapes, run_graph
from .models import random_conv
from .tensor import Tensor, conv2d

PROBE_SPATIAL = 12
LORA_RANK, LORA_ALPHA = 2, 1.0  # of the LoRA branches decorate_for_reparam adds


@dataclass
class RewriteReport:
    node: str
    kind: str
    max_abs_err: float
    max_rel_err: float

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "kind": self.kind,
            "max_abs_err": self.max_abs_err,
            "max_rel_err": self.max_rel_err,
        }


def _probe(rng: np.random.Generator, channels: int) -> Tensor:
    return Tensor(
        rng.normal(0.0, 1.0, (1, channels, PROBE_SPATIAL, PROBE_SPATIAL)).astype(
            np.float32
        )
    )


def _scaled(spec, factor: float):
    return replace(spec, weight=spec.weight * np.float32(factor))


def apply_rewrites(g: ModelGraph, seed: int = 0) -> tuple[ModelGraph, list[RewriteReport]]:
    """Return a plain-conv copy of the graph plus per-rewrite equivalence stats."""
    rng = np.random.default_rng(seed)
    shapes = infer_shapes(g, PROBE_SPATIAL, PROBE_SPATIAL)
    reports: list[RewriteReport] = []
    new_nodes: list[Node] = []
    for n in g.nodes:
        if n.op == "conv" and n.branches is not None:
            x = _probe(rng, shapes[n.inputs[0]][0])
            merged = collapse_branches(list(n.branches.branches), n.branches.include_identity)
            abs_err, rel_err = max_errors(conv2d(x, merged), branch_forward(x, n.branches))
            reports.append(RewriteReport(n.name, "collapse_branches", abs_err, rel_err))
            new_nodes.append(replace(n, spec=merged, branches=None))
        elif n.op == "conv" and n.lora is not None:
            x = _probe(rng, shapes[n.inputs[0]][0])
            merged = lora_merge(n.spec, n.lora)
            abs_err, rel_err = max_errors(conv2d(x, merged), lora_forward(x, n.spec, n.lora))
            reports.append(RewriteReport(n.name, "lora_merge", abs_err, rel_err))
            new_nodes.append(replace(n, spec=merged, lora=None))
        else:
            new_nodes.append(n)
    out = replace(g, nodes=new_nodes, meta=dict(g.meta), fusion_groups=list(g.fusion_groups))
    out.validate()
    return out, reports


def decorate_for_reparam(g: ModelGraph, seed: int = 0) -> ModelGraph:
    """Produce a training-form variant of a model graph for rewrite demos.

    Every block's middle 3x3 conv gains a random LoRA branch (LORA_RANK,
    LORA_ALPHA), and every square same-width 3x3 conv named *.conv_c becomes
    a {3x3, 1x1, identity} branch group. The 3x3 branch carries the original
    weights with the identity pre-subtracted from its center taps, and the
    extra 1x1 branch is a small perturbation, so the training form stays
    numerically close to the plain model instead of compounding through the
    multiplicative attention.
    """
    rng = np.random.default_rng(seed)
    new_nodes: list[Node] = []
    for n in g.nodes:
        if n.op != "conv" or n.spec is None:
            new_nodes.append(n)
            continue
        spec = n.spec
        square3 = spec.kernel == (3, 3) and spec.groups == 1
        if n.name.endswith(".conv_c") and square3 and spec.in_channels == spec.out_channels:
            c = spec.in_channels
            main = spec.weight.copy()
            for o in range(c):
                main[o, o, 1, 1] -= 1.0  # compensate the explicit identity branch
            group = BranchGroup(
                branches=(
                    replace(spec, weight=main),
                    _scaled(random_conv(rng, c, c, k=1), 0.05),
                ),
                include_identity=True,
            )
            new_nodes.append(replace(n, spec=None, branches=group))
        elif n.name.endswith(".conv_b") and square3:
            k = spec.kernel[0]
            factors = LoraFactors(
                a=rng.normal(0.0, 0.1, (LORA_RANK * k, spec.in_channels * k)).astype(
                    np.float32
                ),
                b=rng.normal(0.0, 0.1, (spec.out_channels * k, LORA_RANK * k)).astype(
                    np.float32
                ),
                rank=LORA_RANK,
                alpha=LORA_ALPHA,
            )
            new_nodes.append(replace(n, lora=factors))
        else:
            new_nodes.append(n)
    out = replace(g, nodes=new_nodes, meta=dict(g.meta), fusion_groups=list(g.fusion_groups))
    out.validate()
    return out


def fuse_equivalence(
    g_before: ModelGraph,
    g_after: ModelGraph,
    probes: list[Tensor],
) -> dict:
    """End-to-end before/after comparison on probe inputs, as a report dict.

    Also compares fused vs unfused execution of the rewritten graph when it
    has attention fusion groups.
    """
    worst_abs = worst_rel = 0.0
    fused_abs = fused_rel = 0.0
    for x in probes:
        before = run_graph(g_before, x, mode="unfused")
        after = run_graph(g_after, x, mode="unfused")
        abs_err, rel_err = max_errors(after, before)
        worst_abs, worst_rel = max(worst_abs, abs_err), max(worst_rel, rel_err)
        if g_after.fusion_groups:
            fused = run_graph(g_after, x, mode="fused")
            abs_err, rel_err = max_errors(fused, after)
            fused_abs, fused_rel = max(fused_abs, abs_err), max(fused_rel, rel_err)
    report = {
        "probes": len(probes),
        "end_to_end": {"max_abs_err": worst_abs, "max_rel_err": worst_rel},
    }
    if g_after.fusion_groups:
        report["fused_executor"] = {"max_abs_err": fused_abs, "max_rel_err": fused_rel}
    return report
