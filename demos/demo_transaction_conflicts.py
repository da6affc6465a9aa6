"""The transaction protocol up close.

Two presolvers inspect the same snapshot:

    y + z  = 1
    x + 3y + 3z <= 4          (all binary)

One deletes x from the inequality (it can never flip it); the other
substitutes the equation into it.  Both reductions are valid against the
snapshot, but applying the substitution first rewrites the inequality, so
the deletion's validity assertion fails and it is discarded.  In the
mandated order both go through.
"""
from premip import NumericContext, Problem, apply_all
from premip.model import ModelUpdate
from premip.presolvers import PresolveView
from premip.presolvers.medium import run_simplifyineq
from premip.presolvers.exhaustive import run_substitution

ctx = NumericContext.float64()


def build():
    p = Problem(ctx)
    x = p.add_col(0, 1, obj=-1, integral=True, name="x")
    y = p.add_col(0, 1, obj=-1, integral=True, name="y")
    z = p.add_col(0, 1, obj=-1, integral=True, name="z")
    p.add_row({y: 1, z: 1}, lhs=1, rhs=1, name="eq")
    p.add_row({x: 1, y: 3, z: 3}, rhs=4, name="ineq")
    return p


def collect(update):
    view = PresolveView(update.problem, update.activities)
    return run_simplifyineq(view), run_substitution(view)


print("mandated order (row simplification first):")
update = ModelUpdate(build())
simplify, substitute = collect(update)
for tx, outcome in zip(simplify + substitute,
                       apply_all(update, simplify + substitute)):
    print(f"  {tx.presolver:14s} -> {outcome.status.value}")

print("reversed order (substitution first):")
update = ModelUpdate(build())
simplify, substitute = collect(update)
for tx, outcome in zip(substitute + simplify,
                       apply_all(update, substitute + simplify)):
    conflict = f" (conflicts with {outcome.conflicting_presolver})" \
        if outcome.conflicting_presolver else ""
    print(f"  {tx.presolver:14s} -> {outcome.status.value}{conflict}")
