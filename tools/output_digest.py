"""Print one digest of premip's outputs over a fixed corpus.

Each run of the corpus presolves one instance and hashes its verdict, the
reduced problem's `stable_hash`, the postsolve record's entries,
`stats.as_dict()` and the verbosity-4 log.  The entries are hashed by
value: every number in them is written with the problem's
`NumericContext.format`, as `stable_hash` writes the problem's, so a
change of representation alone (an exact 3 held as `Fraction(3, 1)` or as
the int 3) keeps the digest, while a float in rational mode changes it.
The digest of all runs is printed as one line, so two versions of the
package can be compared without a benchmark:

    python tools/output_digest.py                  # the package in src/
    python tools/output_digest.py --src OTHER/src  # another checkout's
    python tools/output_digest.py --each           # one line per run

A `--each` line names the run and gives one short hash per field, as
`verdict:… hash:… record:… stats:… log:…`, so a changed line tells which
output moved.  `tests/data/outputs.txt` holds these lines, and
`tests/test_outputs.py` recomputes them as a tier-1 gate; a change that
moves outputs on purpose regenerates the file:

    python tools/output_digest.py --each > tests/data/outputs.txt

The instances come from this checkout's `tests/conftest.py` and
`perfbench/instances.py`, whatever `--src` names, so both versions see the
same corpus:
- `random_small_mip` seeds 0-149 in float64 and exact rationals, and
  `random_mixed_mip` seeds 0-149, each batched and applied immediately;
- `random_mixed_mip` seeds 0-29 after an MPS write and read;
- `late_structure_mip` seeds 0-39, batched, in float64 and as exact
  rational copies;
- 12 `random_medium_mip(300, 250)` at 1 and 2 threads, as drawn and with a
  quarter of the bounds opened against the cost only
  (`halfopen_medium_mip`), and the opened ones' exact rational copies at
  1 thread, where infinite shares meet exact arithmetic;
- 8 all-integer rational `random_medium_mip(300, 250)` at 2 threads;
- the 3000x2500 `random_medium_mip` at 1 thread;
- the relabelled `probing_chain_instance(400)` and `(1200)` at 2 threads;
- seeds 0-3 of the half-open medium instance at 1, 2 and 3 threads with
  the four `*_PARALLEL_MIN_*` gates of `premip.presolvers.exhaustive` at
  0, so that Probing, DomCol and Sparsify fork.
No timing enters a run's hash, so the digest depends on the outputs
alone.  It takes about ten seconds.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the fork gates of premip.presolvers.exhaustive
GATES = ("PROBING_PARALLEL_MIN_CANDIDATES", "PROBING_PARALLEL_MIN_NNZ",
         "DOMCOL_PARALLEL_MIN_GROUPS", "SPARSIFY_PARALLEL_MIN_EQS")

# the fields of a run, in the order they are hashed
FIELDS = ("verdict", "hash", "record", "stats", "log")


def _opts(threads=1, mode="float64", immediate=False):
    from premip import PresolveOptions
    return PresolveOptions(threads=threads, verbosity=4, numeric_mode=mode,
                           apply_immediately=immediate)


def _runs():
    """(name, problem, options, immediate) of every run but the forked
    ones, in a fixed order."""
    from premip import NumericContext, read_mps, write_mps
    from conftest import (halfopen_medium_mip, late_structure_mip,
                          random_mixed_mip, random_small_mip, to_rational)
    import instances

    for seed in range(150):
        small = random_small_mip(random.Random(seed))
        mixed = random_mixed_mip(random.Random(seed))
        for immediate in (False, True):
            tag = "immediate" if immediate else "batched"
            yield (f"small-{seed}-{tag}", small, _opts(immediate=immediate),
                   immediate)
            yield (f"small-rational-{seed}-{tag}", to_rational(small),
                   _opts(mode="rational", immediate=immediate), immediate)
            yield (f"mixed-{seed}-{tag}", mixed, _opts(immediate=immediate),
                   immediate)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mixed.mps")
        for seed in range(30):
            write_mps(random_mixed_mip(random.Random(seed)), path)
            yield (f"mixed-mps-{seed}",
                   read_mps(path, NumericContext.float64()), _opts(), False)
    for seed in range(12):
        medium = instances.random_medium_mip(random.Random(seed), 300, 250)
        halfopen = halfopen_medium_mip(seed)
        for threads in (1, 2):
            yield (f"medium-{seed}-t{threads}", medium, _opts(threads), False)
            yield (f"medium-halfopen-{seed}-t{threads}", halfopen,
                   _opts(threads), False)
        yield (f"medium-halfopen-rational-{seed}", to_rational(halfopen),
               _opts(mode="rational"), False)
    for k in range(8):
        exact = instances.random_medium_mip(
            random.Random(100 + k), 300, 250, ctx=NumericContext.rational(),
            continuous_share=0.0)
        yield f"rational-{k}", exact, _opts(2, "rational"), False
    yield ("large", instances.random_medium_mip(random.Random(1), 3000, 2500),
           _opts(), False)
    for n in (400, 1200):
        chain = instances.relabel(instances.probing_chain_instance(n),
                                  random.Random(7), f"chain-{n}")
        yield f"chain-{n}", chain, _opts(2), False
    for seed in range(40):
        late = late_structure_mip(random.Random(seed))
        yield f"late-{seed}", late, _opts(), False
        yield (f"late-rational-{seed}", to_rational(late),
               _opts(mode="rational"), False)


def _forked_runs():
    """(name, problem, options) of the runs made with the fork gates at 0:
    half-open medium instances, whose optimum stays finite, so that the run
    reaches the exhaustive tier."""
    from conftest import halfopen_medium_mip

    for seed in range(4):
        halfopen = halfopen_medium_mip(seed)
        for threads in (1, 2, 3):
            yield (f"medium-halfopen-{seed}-forked-t{threads}", halfopen,
                   _opts(threads))


@contextlib.contextmanager
def _gates_at_zero():
    """The fork gates at 0, so that Probing, DomCol and Sparsify fork."""
    import premip.presolvers.exhaustive as exhaustive
    saved = {gate: getattr(exhaustive, gate) for gate in GATES}
    for gate in GATES:
        setattr(exhaustive, gate, 0)
    try:
        yield
    finally:
        for gate, value in saved.items():
            setattr(exhaustive, gate, value)


def _entries_text(entries, ctx) -> str:
    """One line per record entry: its kind, then its fields in declaration
    order, numbers written by ctx.format and (index, number) lists as
    pairs."""
    def text(value):
        if isinstance(value, list):
            return "[" + " ".join(f"({j}:{ctx.format(a)})"
                                  for j, a in value) + "]"
        if isinstance(value, str):
            return value
        return ctx.format(value)
    return "\n".join(
        " ".join([type(e).__name__] + [text(getattr(e, f.name))
                                       for f in dataclasses.fields(e)])
        for e in entries)


def _run_parts(problem, options, immediate) -> list:
    """The text of each of FIELDS for one run."""
    from premip import capture_log, presolve, presolve_sequential_immediate
    log, buf = capture_log(4)
    run = presolve_sequential_immediate if immediate else presolve
    result = run(problem, options, log)
    return [result.verdict.value, result.problem.stable_hash(),
            _entries_text(result.record.entries, result.problem.ctx),
            repr(sorted(result.stats.as_dict().items())), buf.getvalue()]


def each_line(name: str, parts: list) -> str:
    """A run's `--each` line: its name and one short hash per field."""
    return " ".join([name] + [
        f"{field}:{hashlib.sha256(part.encode()).hexdigest()[:8]}"
        for field, part in zip(FIELDS, parts)])


def run_hash(name: str, parts: list) -> str:
    """A run's line of the total digest: its name and the sha256 of all
    its fields."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return f"{name} {h.hexdigest()}\n"


def digest_lines(src: str):
    """Yield (name, parts) of every run, parts the field texts of
    `_run_parts`, with the premip package taken from src."""
    sys.path[:0] = [os.path.abspath(src), os.path.join(ROOT, "tests"),
                    os.path.join(ROOT, "perfbench")]
    for name, problem, options, immediate in _runs():
        yield name, _run_parts(problem, options, immediate)
    for name, problem, options in _forked_runs():
        with _gates_at_zero():
            parts = _run_parts(problem, options, False)
        yield name, parts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the premip package "
                             "(default: this checkout's src)")
    parser.add_argument("--each", action="store_true",
                        help="also print one line of field hashes per run")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    count = 0
    for name, parts in digest_lines(args.src):
        total.update(run_hash(name, parts).encode())
        count += 1
        if args.each:
            print(each_line(name, parts))
    print(f"{total.hexdigest()} over {count} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
