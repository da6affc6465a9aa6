"""The benchmark's workloads: which instances, in which number mode, at how
many threads.  Instances are fixed base problems from the generators in
`instances.py`; the seed draws each one's row and column order."""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from premip import NumericContext, Problem

import instances


@dataclass
class Instance:
    name: str
    problem: Problem
    # closed-form optimum, or None for a HiGHS reference
    optimum: Optional[object] = None


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                       # "float64" or "rational"
    threads: int
    build: Callable[[int, bool], List[Instance]]

    def ctx(self) -> NumericContext:
        if self.mode == "rational":
            return NumericContext.rational()
        return NumericContext.float64()


def _large_sparse(seed: int, tiny: bool) -> List[Instance]:
    ncols = 60 if tiny else 3000
    base = instances.random_medium_mip(random.Random(1), ncols,
                                       ncols * 5 // 6)
    name = f"large-sparse-{seed}"
    return [Instance(name, instances.relabel(base, random.Random(seed), name))]


def _probe_chain(seed: int, tiny: bool) -> List[Instance]:
    n = 40 if tiny else 1200
    name = f"probe-chain-{seed}"
    problem = instances.relabel(instances.probing_chain_instance(n),
                                random.Random(seed), name)
    return [Instance(name, problem, instances.probing_chain_optimum(n))]


def _rational_corpus(seed: int, tiny: bool) -> List[Instance]:
    count, ncols, nrows = (2, 30, 25) if tiny else (8, 300, 250)
    rng = random.Random(seed)
    out = []
    for k in range(count):
        base = instances.random_medium_mip(
            random.Random(100 + k), ncols, nrows,
            ctx=NumericContext.rational(), continuous_share=0.0)
        name = f"rational-corpus-{seed}-{k}"
        out.append(Instance(name, instances.relabel(base, rng, name)))
    return out


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("large-sparse", "float64", 1, _large_sparse),
    Workload("probe-chain", "float64", 2, _probe_chain),
    Workload("rational-corpus", "rational", 2, _rational_corpus),
)}
