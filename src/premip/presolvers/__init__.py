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

_RUNNERS = {
    "colsingleton": run_colsingleton,
    "coefftightening": run_coefftightening,
    "propagation": run_propagation,
    "simpleprobing": run_simpleprobing,
    "parallelrows": run_parallelrows,
    "parallelcols": run_parallelcols,
    "stuffing": run_stuffing,
    "dualfix": run_dualfix,
    "fixcontinuous": run_fixcontinuous,
    "simplifyineq": run_simplifyineq,
    "doubletoneq": run_doubletoneq,
    "implint": run_implint,
    "domcol": run_domcol,
    "dualinfer": run_dualinfer,
    "probing": run_probing,
    "substitution": run_substitution,
    "sparsify": run_sparsify,
}

_ORDERED = [
    ("colsingleton", Tier.FAST, False),
    ("coefftightening", Tier.FAST, False),
    ("propagation", Tier.FAST, False),
    ("simpleprobing", Tier.MEDIUM, False),
    ("parallelrows", Tier.MEDIUM, False),
    ("parallelcols", Tier.MEDIUM, False),
    ("stuffing", Tier.MEDIUM, False),
    ("dualfix", Tier.MEDIUM, False),
    ("fixcontinuous", Tier.MEDIUM, False),
    ("simplifyineq", Tier.MEDIUM, False),
    ("doubletoneq", Tier.MEDIUM, False),
    ("implint", Tier.EXHAUSTIVE, False),
    ("domcol", Tier.EXHAUSTIVE, False),
    ("dualinfer", Tier.EXHAUSTIVE, False),
    ("probing", Tier.EXHAUSTIVE, False),
    ("substitution", Tier.EXHAUSTIVE, False),
    ("sparsify", Tier.EXHAUSTIVE, True),
]

REGISTRY: List[PresolverDescriptor] = [
    PresolverDescriptor(name=name, tier=tier, apply_order=order,
                        delayed=delayed)
    for order, (name, tier, delayed) in enumerate(_ORDERED)
]

PRESOLVER_NAMES = [d.name for d in REGISTRY]


def runner(name: str):
    return _RUNNERS[name]


__all__ = ["PresolveView", "PresolverDescriptor", "Tier", "REGISTRY",
           "PRESOLVER_NAMES", "runner", "run_trivial"]
