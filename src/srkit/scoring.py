"""Challenge scoring: per-metric sub-track scores, weighted overall, ranking.

Each metric scores as exp(2 * team / baseline): the exponent holds the
team-to-baseline ratio, which is the only reading under which the baseline
scores its printed e^2 = 7.39 against itself (an exponent in raw
milliseconds would be astronomically large). Lower is better everywhere.

The overall score weights runtime 0.8 and FLOPs/params 0.1 each. Teams whose
PSNR misses either gate are still scored but excluded from every ranking.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

DEFAULT_WEIGHTS = (0.8, 0.1, 0.1)  # runtime, flops, params
DEFAULT_PSNR_GATE = (26.90, 26.99)  # valid-set, test-set minima in dB

# Gate inputs are two-decimal published PSNRs, and the published ranking kept
# a team printing one hundredth below the test threshold, so enforcement
# tolerates one display quantum by default.
DEFAULT_GATE_SLACK = 0.01

METRIC_FIELDS = ("runtime_ms", "params_m", "flops_g")


@dataclass(frozen=True)
class TeamMetrics:
    """One row of measured inputs: averaged runtime, params, FLOPs (+PSNR)."""

    name: str
    runtime_ms: float
    params_m: float
    flops_g: float
    psnr_valid: float | None = None
    psnr_test: float | None = None

    def __post_init__(self) -> None:
        for metric in METRIC_FIELDS:
            value = getattr(self, metric)
            if not (value > 0):
                raise ValueError(f"{self.name}: {metric} must be > 0, got {value}")


def score_metric(team_value: float, baseline_value: float) -> float:
    """exp(2 * team / baseline); equals e^2 when team == baseline."""
    if not (team_value > 0) or not (baseline_value > 0):
        raise ValueError(
            f"score_metric: values must be > 0, got {team_value} / {baseline_value}"
        )
    return math.exp(2.0 * team_value / baseline_value)


def score_final(runtime_score: float, flops_score: float, params_score: float) -> float:
    """Weighted sum of the three sub-track scores."""
    for s in (runtime_score, flops_score, params_score):
        if not math.isfinite(s):
            raise ValueError(f"score_final: non-finite sub-score {s}")
    w1, w2, w3 = DEFAULT_WEIGHTS
    return w1 * runtime_score + w2 * flops_score + w3 * params_score


@dataclass
class TeamScore:
    name: str
    metrics: TeamMetrics
    runtime_score: float
    params_score: float
    flops_score: float
    overall_score: float
    ranked: bool
    is_baseline: bool = False
    runtime_rank: int | None = None
    params_rank: int | None = None
    flops_rank: int | None = None
    overall_rank: int | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "runtime_ms": self.metrics.runtime_ms,
            "params_m": self.metrics.params_m,
            "flops_g": self.metrics.flops_g,
            "psnr_valid": self.metrics.psnr_valid,
            "psnr_test": self.metrics.psnr_test,
            "runtime_score": self.runtime_score,
            "params_score": self.params_score,
            "flops_score": self.flops_score,
            "overall_score": self.overall_score,
            "ranked": self.ranked,
            "is_baseline": self.is_baseline,
            "runtime_rank": self.runtime_rank,
            "params_rank": self.params_rank,
            "flops_rank": self.flops_rank,
            "overall_rank": self.overall_rank,
        }


@dataclass
class ScoreTable:
    rows: list[TeamScore]
    baseline: TeamMetrics
    psnr_gate: tuple[float, float] | None = DEFAULT_PSNR_GATE

    def row(self, name: str) -> TeamScore:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(f"no team named {name!r}")

    def ranking(self) -> list[str]:
        ranked = [r for r in self.rows if r.ranked]
        ranked.sort(key=lambda r: r.overall_rank)
        return [r.name for r in ranked]

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline.name,
            "weights": list(DEFAULT_WEIGHTS),
            "psnr_gate": list(self.psnr_gate) if self.psnr_gate else None,
            "teams": [r.to_dict() for r in self.rows],
        }


def _passes_gate(
    t: TeamMetrics, gate: tuple[float, float] | None, slack: float
) -> bool:
    if gate is None:
        return True
    floor = 1e-9  # absorb binary representation error of dB values
    valid_ok = t.psnr_valid is None or t.psnr_valid >= gate[0] - slack - floor
    test_ok = t.psnr_test is None or t.psnr_test >= gate[1] - slack - floor
    return valid_ok and test_ok


def _competition_ranks(values: list[float]) -> list[int]:
    """Ascending competition ("1224") ranks: ties share, next rank skips."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0] * len(values)
    for pos, idx in enumerate(order):
        if pos > 0 and values[idx] == values[order[pos - 1]]:
            ranks[idx] = ranks[order[pos - 1]]
        else:
            ranks[idx] = pos + 1
    return ranks


def rank_table(
    teams: list[TeamMetrics],
    baseline: TeamMetrics,
    psnr_gate: tuple[float, float] | None = DEFAULT_PSNR_GATE,
    gate_slack: float = DEFAULT_GATE_SLACK,
) -> ScoreTable:
    """Score every team against the baseline and rank the gate-passing ones.

    The baseline is scored (against itself) but never ranked; sub-track rank
    annotations are computed per metric among ranked teams only. Row order:
    ranked teams by overall score, then unranked teams, then the baseline.
    """
    rows: list[TeamScore] = []
    for t in teams + [baseline]:
        r = score_metric(t.runtime_ms, baseline.runtime_ms)
        p = score_metric(t.params_m, baseline.params_m)
        f = score_metric(t.flops_g, baseline.flops_g)
        rows.append(
            TeamScore(
                name=t.name,
                metrics=t,
                runtime_score=r,
                params_score=p,
                flops_score=f,
                overall_score=score_final(r, f, p),
                ranked=t is not baseline and _passes_gate(t, psnr_gate, gate_slack),
                is_baseline=t is baseline,
            )
        )
    gated = [r for r in rows if r.ranked]
    for metric, attr in (
        ("runtime_ms", "runtime_rank"),
        ("params_m", "params_rank"),
        ("flops_g", "flops_rank"),
    ):
        ranks = _competition_ranks([getattr(r.metrics, metric) for r in gated])
        for row, rank in zip(gated, ranks):
            setattr(row, attr, rank)
    overall = _competition_ranks([r.overall_score for r in gated])
    for row, rank in zip(gated, overall):
        row.overall_rank = rank
    rows.sort(
        key=lambda r: (
            r.is_baseline,
            not r.ranked,
            r.overall_rank if r.overall_rank is not None else 0,
        )
    )
    return ScoreTable(rows=rows, baseline=baseline, psnr_gate=psnr_gate)


# --------------------------------------------------------------------------
# presentation and IO


def round_half_even(x: float, places: int = 2) -> Decimal:
    """Banker's rounding of the binary double, for printed-value comparison."""
    return Decimal(x).quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN)


def format_score(x: float) -> str:
    """Two decimals below 1000, two-decimal scientific notation above."""
    if x >= 1000.0:
        mant, exp = f"{x:.2e}".split("e")
        return f"{mant}e{int(exp)}"
    return f"{round_half_even(x):.2f}"


def _rank_suffix(rank: int | None) -> str:
    return f"({rank})" if rank is not None else ""


def format_table(table: ScoreTable) -> str:
    header = (
        f"{'Team':<24}{'PSNR v/t':>14}{'Runtime':>9}{'Params':>8}{'FLOPs':>7}"
        f"{'S.Run':>12}{'S.Par':>12}{'S.FLOP':>12}{'Overall':>12}{'Rank':>6}"
    )
    lines = [header, "-" * len(header)]
    for r in table.rows:
        m = r.metrics
        psnr = (
            f"{m.psnr_valid:.2f}/{m.psnr_test:.2f}"
            if m.psnr_valid is not None and m.psnr_test is not None
            else "-"
        )
        rank = str(r.overall_rank) if r.overall_rank is not None else "-"
        if r.is_baseline:
            rank = "base"
        lines.append(
            f"{r.name:<24}{psnr:>14}{m.runtime_ms:>9.3f}{m.params_m:>8.3f}"
            f"{m.flops_g:>7.2f}"
            f"{format_score(r.runtime_score) + _rank_suffix(r.runtime_rank):>12}"
            f"{format_score(r.params_score) + _rank_suffix(r.params_rank):>12}"
            f"{format_score(r.flops_score) + _rank_suffix(r.flops_rank):>12}"
            f"{format_score(r.overall_score):>12}{rank:>6}"
        )
    return "\n".join(lines)


def _row_to_metrics(row) -> TeamMetrics:
    """One table row as TeamMetrics; ValueError names a missing or ill-typed field."""
    if not isinstance(row, dict):
        raise ValueError(f"is not an object: {row!r}")

    def number(key: str, optional: bool = False) -> float | None:
        value = row.get(key)
        if optional and value in (None, ""):
            return None
        if key not in row:
            raise ValueError(f"lacks field {key!r}")
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ValueError(f"field {key!r} is not a number: {value!r}") from None

    if "name" not in row:
        raise ValueError("lacks field 'name'")
    return TeamMetrics(
        name=str(row["name"]),
        runtime_ms=number("runtime_ms"),
        params_m=number("params_m"),
        flops_g=number("flops_g"),
        psnr_valid=number("psnr_valid", optional=True),
        psnr_test=number("psnr_test", optional=True),
    )


def load_team_table(path: str | Path) -> tuple[list[TeamMetrics], TeamMetrics]:
    """Read team metrics (+ one baseline row) from a JSON or CSV file.

    JSON: either a list of row objects or {"teams": [...]}. CSV: a header
    with name,runtime_ms,params_m,flops_g[,psnr_valid,psnr_test,baseline].
    Exactly one row must be flagged baseline (true/1/yes).
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with open(path, newline="") as fh:
            raw = list(csv.DictReader(fh))
    else:
        with open(path) as fh:
            doc = json.load(fh)
        raw = doc.get("teams") if isinstance(doc, dict) else doc
        if not isinstance(raw, list):
            raise ValueError(f'{path}: expected a list of rows or {{"teams": [...]}}')
    teams: list[TeamMetrics] = []
    baseline: TeamMetrics | None = None
    for i, row in enumerate(raw):
        try:
            tm = _row_to_metrics(row)
        except ValueError as exc:
            raise ValueError(f"{path}: row {i} {exc}") from None
        if str(row.get("baseline", "")).strip().lower() in ("true", "1", "yes"):
            if baseline is not None:
                raise ValueError(f"{path}: more than one baseline row")
            baseline = tm
        else:
            teams.append(tm)
    if baseline is None:
        raise ValueError(f"{path}: no row flagged as baseline")
    return teams, baseline
