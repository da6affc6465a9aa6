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

The instances come from this checkout's `tests/conftest.py` and
`perfbench/instances.py`, whatever `--src` names, so both versions see the
same corpus:
- `random_small_mip` seeds 0-149 in float64 and exact rationals, and
  `random_mixed_mip` seeds 0-149, each batched and applied immediately;
- `random_mixed_mip` seeds 0-29 after an MPS write and read;
- 12 `random_medium_mip(300, 250)` at 1 and 2 threads, as drawn and with a
  quarter of the bounds opened to infinity, and the opened ones' exact
  rational copies at 1 thread, where infinite shares meet exact
  arithmetic;
- 8 all-integer rational `random_medium_mip(300, 250)` at 2 threads;
- the 3000x2500 `random_medium_mip` at 1 thread;
- the relabelled `probing_chain_instance(400)` and `(1200)` at 2 threads.
No timing enters a run's hash, so the digest depends on the outputs
alone.  It takes about ten seconds.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _runs():
    """(name, problem, options, immediate) of every run, in a fixed order."""
    from premip import INF, NEG_INF, NumericContext, PresolveOptions
    from premip import read_mps, write_mps
    from conftest import random_mixed_mip, random_small_mip, to_rational
    import instances

    def opts(threads=1, mode="float64", immediate=False):
        return PresolveOptions(threads=threads, verbosity=4,
                               numeric_mode=mode,
                               apply_immediately=immediate)

    for seed in range(150):
        small = random_small_mip(random.Random(seed))
        mixed = random_mixed_mip(random.Random(seed))
        for immediate in (False, True):
            tag = "immediate" if immediate else "batched"
            yield (f"small-{seed}-{tag}", small, opts(immediate=immediate),
                   immediate)
            yield (f"small-rational-{seed}-{tag}", to_rational(small),
                   opts(mode="rational", immediate=immediate), immediate)
            yield (f"mixed-{seed}-{tag}", mixed, opts(immediate=immediate),
                   immediate)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mixed.mps")
        for seed in range(30):
            write_mps(random_mixed_mip(random.Random(seed)), path)
            yield (f"mixed-mps-{seed}",
                   read_mps(path, NumericContext.float64()), opts(), False)
    for seed in range(12):
        medium = instances.random_medium_mip(random.Random(seed), 300, 250)
        opened = instances.random_medium_mip(random.Random(seed), 300, 250)
        rng = random.Random(seed)
        for j in range(opened.ncols):
            if rng.random() < 0.25:
                opened.col_lower[j] = NEG_INF
            if rng.random() < 0.25:
                opened.col_upper[j] = INF
        for threads in (1, 2):
            yield (f"medium-{seed}-t{threads}", medium, opts(threads), False)
            yield (f"medium-open-{seed}-t{threads}", opened, opts(threads),
                   False)
        yield (f"medium-open-rational-{seed}", to_rational(opened),
               opts(mode="rational"), False)
    for k in range(8):
        exact = instances.random_medium_mip(
            random.Random(100 + k), 300, 250, ctx=NumericContext.rational(),
            continuous_share=0.0)
        yield f"rational-{k}", exact, opts(2, "rational"), False
    yield ("large", instances.random_medium_mip(random.Random(1), 3000, 2500),
           opts(), False)
    for n in (400, 1200):
        chain = instances.relabel(instances.probing_chain_instance(n),
                                  random.Random(7), f"chain-{n}")
        yield f"chain-{n}", chain, opts(2), False


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


def _run_digest(problem, options, immediate) -> str:
    from premip import capture_log, presolve, presolve_sequential_immediate
    log, buf = capture_log(4)
    run = presolve_sequential_immediate if immediate else presolve
    result = run(problem, options, log)
    h = hashlib.sha256()
    for part in (result.verdict.value, result.problem.stable_hash(),
                 _entries_text(result.record.entries, result.problem.ctx),
                 repr(sorted(result.stats.as_dict().items())),
                 buf.getvalue()):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the premip package "
                             "(default: this checkout's src)")
    parser.add_argument("--each", action="store_true",
                        help="also print one digest per run")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "tests"),
                    os.path.join(ROOT, "perfbench")]
    total = hashlib.sha256()
    count = 0
    for name, problem, options, immediate in _runs():
        digest = _run_digest(problem, options, immediate)
        total.update(f"{name} {digest}\n".encode())
        count += 1
        if args.each:
            print(f"{name} {digest[:16]}")
    print(f"{total.hexdigest()} over {count} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
