"""Reduction technique registry.

Presolvers are ordered by the priority their transactions are applied in;
a round at a given tier runs every presolver of that tier and the cheaper
tiers.  Only Sparsify is delayed by default: it wakes up after the first
exhaustive round that fails to find enough reductions.
"""
from __future__ import annotations

from typing import List

from .common import PresolveView, PresolverDescriptor, Tier
from .trivial import run_trivial
from .fast import run_colsingleton, run_coefftightening, run_propagation
from .medium import (run_simpleprobing, run_parallelrows, run_parallelcols,
                     run_stuffing, run_dualfix, run_fixcontinuous,
                     run_simplifyineq, run_doubletoneq)
from .exhaustive import (run_implint, run_domcol, run_dualinfer, run_probing,
                         run_substitution, run_sparsify)

# (name, tier, delayed, run) in apply order
_TABLE = [
    ("colsingleton", Tier.FAST, False, run_colsingleton),
    ("coefftightening", Tier.FAST, False, run_coefftightening),
    ("propagation", Tier.FAST, False, run_propagation),
    ("simpleprobing", Tier.MEDIUM, False, run_simpleprobing),
    ("parallelrows", Tier.MEDIUM, False, run_parallelrows),
    ("parallelcols", Tier.MEDIUM, False, run_parallelcols),
    ("stuffing", Tier.MEDIUM, False, run_stuffing),
    ("dualfix", Tier.MEDIUM, False, run_dualfix),
    ("fixcontinuous", Tier.MEDIUM, False, run_fixcontinuous),
    ("simplifyineq", Tier.MEDIUM, False, run_simplifyineq),
    ("doubletoneq", Tier.MEDIUM, False, run_doubletoneq),
    ("implint", Tier.EXHAUSTIVE, False, run_implint),
    ("domcol", Tier.EXHAUSTIVE, False, run_domcol),
    ("dualinfer", Tier.EXHAUSTIVE, False, run_dualinfer),
    ("probing", Tier.EXHAUSTIVE, False, run_probing),
    ("substitution", Tier.EXHAUSTIVE, False, run_substitution),
    ("sparsify", Tier.EXHAUSTIVE, True, run_sparsify),
]

REGISTRY: List[PresolverDescriptor] = [
    PresolverDescriptor(name=name, tier=tier, apply_order=order,
                        delayed=delayed)
    for order, (name, tier, delayed, _) in enumerate(_TABLE)
]

PRESOLVER_NAMES = [d.name for d in REGISTRY]

_RUNNERS = {name: run for name, _, _, run in _TABLE}


def runner(name: str):
    return _RUNNERS[name]


__all__ = ["PresolveView", "PresolverDescriptor", "Tier", "REGISTRY",
           "PRESOLVER_NAMES", "runner", "run_trivial"]
