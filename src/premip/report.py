"""Conflict accounting over verbosity-4 logs.

Parses transaction logs into per-round presence and conflict events, then
renders per-tier matrices of conflicting/common calls and a pair ledger
with total transactions, conflicts, average conflict rate and the share of
redundant conflicts.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from .mps import read_text
from .presolvers import REGISTRY, Tier

_TIER_OF = {d.name: d.tier for d in REGISTRY}
_ORDER_OF = {d.name: d.apply_order for d in REGISTRY}


def shifted_geomean(values: Iterable[float], shift: float = 1.0) -> float:
    """exp(mean(log(v + shift))) - shift."""
    vals = list(values)
    if not vals:
        raise ValueError("shifted_geomean of an empty list")
    if shift <= 0:
        raise ValueError("shift must be positive")
    for v in vals:
        if v < 0:
            raise ValueError("values must be non-negative")
    return math.exp(sum(math.log(v + shift) for v in vals) / len(vals)) - shift


@dataclass
class LogSummary:
    """One parsed log file (= one instance run)."""
    found: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    conflicts: Dict[Tuple[str, str], int] = field(
        default_factory=lambda: defaultdict(int))
    redundant: Dict[Tuple[str, str], int] = field(
        default_factory=lambda: defaultdict(int))
    # per round: set of presolvers that found transactions / conflict pairs
    round_found: List[set] = field(default_factory=list)
    round_conflicts: List[set] = field(default_factory=list)


def parse_log(path: str) -> LogSummary:
    summary = LogSummary()
    cur_found: set = set()
    cur_conflicts: set = set()
    started = False

    def close_round():
        nonlocal cur_found, cur_conflicts
        summary.round_found.append(cur_found)
        summary.round_conflicts.append(cur_conflicts)
        cur_found, cur_conflicts = set(), set()

    with read_text(path, lambda why, line: ValueError(
            f"{path}:{line}: {why}")) as fh:
        for lineno, line in enumerate(fh, 1):
            tokens = line.split()
            if not tokens:
                continue
            if tokens[0] == "round":
                if started:
                    close_round()
                started = True
                continue
            if tokens[0] != "txn":
                continue
            # txn <p> index <i> status <S> conflict <q> redundant <r>
            if len(tokens) < 10:
                raise ValueError(f"{path}:{lineno}: txn line has "
                                 f"{len(tokens)} fields, expected 10")
            p = tokens[1]
            status = tokens[5]
            conflict = tokens[7]
            redundant = tokens[9] == "1"
            summary.found[p] += 1
            cur_found.add(p)
            if status == "DISCARDED" and conflict != "none":
                summary.conflicts[(p, conflict)] += 1
                cur_conflicts.add((p, conflict))
                if redundant:
                    summary.redundant[(p, conflict)] += 1
    close_round()
    return summary


@dataclass
class PairLedgerRow:
    pair: Tuple[str, str]
    total_transactions: int   # sum over instances of t_i^p
    conflicts: int            # sum of c_i^{p-q}
    mean_conflict_rate: float  # average of c_i/t_i over instances with t_i>0
    redundant_share: float     # sum r / sum c


@dataclass
class ConflictReport:
    calls: Dict[str, int]
    common_calls: Dict[Tuple[str, str], int]
    conflicting_calls: Dict[Tuple[str, str], int]
    ledger: List[PairLedgerRow]


def build_report(summaries: List[LogSummary]) -> ConflictReport:
    calls: Dict[str, int] = defaultdict(int)
    common: Dict[Tuple[str, str], int] = defaultdict(int)
    conflicting: Dict[Tuple[str, str], int] = defaultdict(int)
    for s in summaries:
        for found, confl in zip(s.round_found, s.round_conflicts):
            named = [p for p in found if p in _TIER_OF]
            for p in named:
                calls[p] += 1
            for a in named:
                for b in named:
                    if _ORDER_OF[a] >= _ORDER_OF[b]:
                        common[(a, b)] += 1
            for pair in confl:
                if pair[0] in _TIER_OF and pair[1] in _TIER_OF:
                    conflicting[pair] += 1
    pairs = sorted({p for s in summaries for p in s.conflicts
                    if p[0] in _TIER_OF and p[1] in _TIER_OF})
    ledger = []
    for pair in pairs:
        p = pair[0]
        total_t = sum(s.found.get(p, 0) for s in summaries)
        total_c = sum(s.conflicts.get(pair, 0) for s in summaries)
        total_r = sum(s.redundant.get(pair, 0) for s in summaries)
        rates = [s.conflicts.get(pair, 0) / s.found[p]
                 for s in summaries if s.found.get(p, 0) > 0]
        ledger.append(PairLedgerRow(
            pair=pair,
            total_transactions=total_t,
            conflicts=total_c,
            mean_conflict_rate=sum(rates) / len(rates) if rates else 0.0,
            redundant_share=total_r / total_c if total_c else 0.0))
    ledger.sort(key=lambda r: (_ORDER_OF[r.pair[0]], _ORDER_OF[r.pair[1]]))
    return ConflictReport(dict(calls), dict(common), dict(conflicting), ledger)


def render_report(report: ConflictReport) -> str:
    out: List[str] = []
    for tier in (Tier.FAST, Tier.MEDIUM, Tier.EXHAUSTIVE):
        names = [d.name for d in REGISTRY if d.tier is tier]
        shown = [n for n in names if report.calls.get(n)]
        if not shown:
            continue
        out.append(f"# {tier.value} presolvers: conflicting/common calls")
        header = ["presolver", "calls"] + shown
        out.append("  ".join(header))
        for a in shown:
            cells = [a, str(report.calls.get(a, 0))]
            for b in shown:
                if _ORDER_OF[a] < _ORDER_OF[b]:
                    cells.append("-")
                else:
                    c = report.conflicting_calls.get((a, b), 0)
                    n = report.common_calls.get((a, b), 0)
                    cells.append(f"{c}/{n}")
            out.append("  ".join(cells))
        out.append("")
    out.append("# conflict pair ledger")
    out.append("pair  transactions  conflicts  mean_rate  redundant")
    for row in report.ledger:
        out.append(f"{row.pair[0]}-{row.pair[1]}  {row.total_transactions}  "
                   f"{row.conflicts}  {row.mean_conflict_rate:.2%}  "
                   f"{row.redundant_share:.2%}")
    return "\n".join(out) + "\n"
