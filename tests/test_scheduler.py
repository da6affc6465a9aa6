import random

import pytest

import premip.scheduler as sched
from premip import (NumericContext, PresolveOptions, Problem, Verdict,
                    capture_log, presolve, presolve_sequential_immediate)
from premip.model import InfeasibleError, UnboundedError
from premip.numerics import INF, NEG_INF
from premip.presolvers import REGISTRY, PresolveView
from premip.scheduler import RoundStats, enough_reductions
from premip.transactions import ApplyOutcome, TxStatus

from conftest import (brute_force, late_structure_mip, make_problem,
                      random_medium_mip, random_mixed_mip, random_small_mip,
                      to_rational)

CTX = NumericContext.float64()


def _window(**kw):
    w = RoundStats()
    for k, v in kw.items():
        setattr(w, k, v)
    return w


def _dummy_problem(ncols=0, nrows=0, nnz_rows=None):
    p = Problem(CTX)
    for _ in range(ncols):
        p.add_col(0, 1, 0, True)
    for entries in (nnz_rows or [{}] * nrows):
        p.add_row(entries, NEG_INF, 10)
    return p


class TestEnoughReductions:
    def test_single_deleted_column_beats_default_factor(self):
        p = _dummy_problem(ncols=1000)
        assert enough_reductions(_window(deleted_cols=1), p, 8e-4)

    def test_all_zero_counters(self):
        p = _dummy_problem(ncols=1000, nrows=100)
        assert not enough_reductions(_window(), p, 8e-4)

    def test_bound_change_boundary_is_strict(self):
        # 0.1 * boundChanges == a * ncols exactly: not strictly greater
        p = _dummy_problem(ncols=1000)
        a = 8e-4
        bc = int(10 * a * 1000)  # 8 -> 0.1*8 = 0.8 == a*ncols
        assert not enough_reductions(_window(bound_changes=bc), p, a)
        assert enough_reductions(_window(bound_changes=bc + 1), p, a)

    def test_side_and_coeff_criteria(self):
        p = _dummy_problem(ncols=10, nrows=100,
                           nnz_rows=[{0: 1, 1: 1}] * 100)
        assert enough_reductions(_window(deleted_rows=1), p, 8e-4)
        assert enough_reductions(_window(coeff_changes=1), p, 8e-4)


class TestPresolveDriver:
    def test_knapsack_strengthening(self):
        p = make_problem(CTX, [(0, 1, -2, True), (0, 1, -1, True)],
                         [({0: 7, 1: 8}, NEG_INF, 13)])
        res = presolve(p)
        q = res.problem
        assert res.verdict is Verdict.REDUCED
        assert len(q.active_rows()) == 1
        i = q.active_rows()[0]
        base = q.rows[i][0]
        assert q.rows[i][1] == base  # integer-scaled x1 + x2
        assert q.row_rhs[i] == base  # <= 1 after scaling
        assert sorted(q.active_cols()) == [0, 1]

    def test_already_minimal_problem(self):
        p = make_problem(CTX, [(0, 1, 1, False)], [])
        res = presolve(p)
        assert res.problem.active_cols() == []
        assert res.problem.obj_offset == 0  # fixed at lower bound 0

    def test_unchanged_verdict(self):
        p = make_problem(CTX, [(0, 1, -2, True), (0, 1, -1, True)],
                         [({0: 1, 1: 1}, NEG_INF, 1)])
        res = presolve(p)
        assert res.verdict is Verdict.UNCHANGED
        assert res.stats.tx_applied == 0

    def test_infeasible_verdict(self):
        p = make_problem(CTX, [(2, 3, 0, True)], [({0: 2}, NEG_INF, 3)])
        res = presolve(p)
        assert res.verdict is Verdict.INFEASIBLE

    def test_unbounded_verdict(self):
        p = make_problem(CTX, [(0, INF, -1, False)], [])
        res = presolve(p)
        assert res.verdict is Verdict.UNBOUNDED

    def test_round_cap_terminates(self):
        p = make_problem(CTX, [(0, 1, -2, True), (0, 1, -1, True)],
                         [({0: 7, 1: 8}, NEG_INF, 13)])
        res = presolve(p, PresolveOptions(max_rounds=1))
        assert res.stats.rounds_fast == 1
        assert res.stats.rounds_medium == 0

    def test_stats_found_equals_outcome_sum(self):
        for seed in range(20):
            p = random_small_mip(random.Random(seed))
            res = presolve(p)
            s = res.stats
            assert s.tx_found == s.tx_applied + s.tx_discarded + s.tx_canceled

    def test_integral_columns_get_integral_bounds(self):
        p = make_problem(CTX, [(0.4, 2.7, 0, True), (0.4, 2.7, -1, True)],
                         [({0: 1, 1: 1}, NEG_INF, 3)])
        res = presolve(p)
        q = res.problem
        for j in q.active_cols():
            assert q.col_lower[j] == int(q.col_lower[j])
            assert q.col_upper[j] == int(q.col_upper[j])

    def test_terminates_well_before_the_hard_cap(self):
        from conftest import random_medium_mip
        for seed in range(20):
            rng = random.Random(seed)
            p = random_medium_mip(rng, rng.choice([80, 200]), 120)
            res = presolve(p)
            s = res.stats
            total = s.rounds_fast + s.rounds_medium + s.rounds_exhaustive
            assert total < 500, "round cap reached; loop did not converge"


class TestNumericsOptions:
    """presolve runs in the problem's numerics; PresolveOptions' numerics
    fields default to None and, when set, must agree with them."""

    @pytest.mark.parametrize("field,value", [
        ("feastol", 1e-4), ("epsilon", 1e-10), ("hugeval", 1e6),
        ("numeric_mode", "rational")])
    def test_disagreeing_field_is_named(self, field, value):
        p = random_small_mip(random.Random(1))
        options = PresolveOptions(**{field: value})
        for run in (presolve, presolve_sequential_immediate):
            with pytest.raises(ValueError, match=f"PresolveOptions.{field}"):
                run(p, options)

    def test_rational_problem_with_float_tolerance(self):
        p = to_rational(random_small_mip(random.Random(1)))
        with pytest.raises(ValueError, match="PresolveOptions.feastol"):
            presolve(p, PresolveOptions(numeric_mode="rational",
                                        feastol=1e-6))

    def test_matching_fields_run_as_unset_ones(self):
        for p, options in (
                (random_small_mip(random.Random(2)),
                 PresolveOptions(numeric_mode="float64", epsilon=1e-9,
                                 feastol=1e-6, hugeval=1e8)),
                (to_rational(random_small_mip(random.Random(2))),
                 PresolveOptions(numeric_mode="rational", epsilon=0,
                                 feastol=0, hugeval=1e8))):
            got = presolve(p, options)
            want = presolve(p, PresolveOptions())
            assert got.problem.stable_hash() == want.problem.stable_hash()
            assert repr(got.record.entries) == repr(want.record.entries)
            assert (got.record.epsilon, got.record.feastol) == (
                p.ctx.epsilon, p.ctx.feastol)

    def test_make_ctx_fills_in_the_defaults(self):
        assert PresolveOptions().make_ctx() == NumericContext.float64()
        assert PresolveOptions(numeric_mode="rational").make_ctx() \
            == NumericContext.rational()
        assert PresolveOptions(feastol=1e-4).make_ctx() \
            == NumericContext.float64(feastol=1e-4)
        with pytest.raises(ValueError):
            PresolveOptions(numeric_mode="rational", epsilon=1e-9).make_ctx()


class TestTierBookkeeping:
    def _round_tiers(self, problem, options=None):
        log, buf = capture_log(2)
        presolve(problem, options, log)
        return [line.split()[3] for line in buf.getvalue().splitlines()
                if line.startswith("round ")]

    def test_escalation_order(self):
        # nothing to find: fast -> medium -> exhaustive, then delayed retry
        p = make_problem(CTX, [(0, 1, -2, True), (0, 1, -1, True)],
                         [({0: 1, 1: 1}, NEG_INF, 1)])
        tiers = self._round_tiers(p)
        assert tiers[:3] == ["fast", "medium", "exhaustive"]

    def test_fast_restart_after_enough_reductions(self):
        p = make_problem(CTX, [(0, 1, -2, True), (0, 1, -1, True)],
                         [({0: 7, 1: 8}, NEG_INF, 13)])
        tiers = self._round_tiers(p)
        # the first fast round strengthens the row, so another fast round
        # precedes any medium round
        assert tiers[0] == "fast" and tiers[1] == "fast"
        assert "medium" in tiers
        assert tiers.index("medium") > 1

    def test_delayed_activation_precedes_second_exhaustive_pass(self):
        p = make_problem(CTX, [(0, 1, 0, True), (0, 1, 0, True)],
                         [({0: 1, 1: 1}, NEG_INF, 1)])
        log, buf = capture_log(2)
        presolve(p, None, log)
        lines = buf.getvalue().splitlines()
        enable = [k for k, l in enumerate(lines)
                  if l == "delayed presolvers enabled"]
        assert len(enable) == 1
        exhaustive = [k for k, l in enumerate(lines)
                      if l.startswith("round ") and l.endswith("exhaustive")]
        assert exhaustive[0] < enable[0]

    def test_sparsify_emits_nothing_before_delayed_activation(self):
        # equations with shared support: sparsify would fire immediately if
        # it were not delayed
        p = make_problem(
            CTX,
            [(0, 1, -1, True)] * 4,
            [({0: 1, 1: 2, 2: 1}, 2, 2), ({0: 1, 1: 2, 3: 1}, NEG_INF, 2)])
        disabled = {"simpleprobing", "substitution", "doubletoneq",
                    "probing", "simplifyineq", "coefftightening"}
        log, buf = capture_log(4)
        presolve(p, PresolveOptions(disabled=disabled), log)
        lines = buf.getvalue().splitlines()
        first_sparsify = next((k for k, l in enumerate(lines)
                               if l.startswith("txn sparsify")), None)
        enable = next((k for k, l in enumerate(lines)
                       if l == "delayed presolvers enabled"), None)
        assert first_sparsify is not None, "sparsify never fired"
        assert enable is not None and enable < first_sparsify


class TestThreadDeterminism:
    def test_identical_output_across_thread_counts(self):
        from conftest import random_medium_mip
        rng = random.Random(77)
        p = random_medium_mip(rng, 150, 120)
        results = {}
        for threads in (1, 2, 4, 8):
            log, buf = capture_log(4)
            res = presolve(p, PresolveOptions(threads=threads), log)
            results[threads] = (res.problem.stable_hash(), buf.getvalue())
        assert len({h for h, _ in results.values()}) == 1
        assert len({l for _, l in results.values()}) == 1


class TestApplyImmediately:
    def test_requires_one_thread(self):
        p = make_problem(CTX, [(0, 1, 0, True)], [])
        with pytest.raises(ValueError):
            presolve_sequential_immediate(p, PresolveOptions(threads=4))

    def test_single_presolver_matches_batched_mode(self):
        disabled = set(n for n in
                       ("colsingleton coefftightening simpleprobing "
                        "parallelrows parallelcols stuffing dualfix "
                        "fixcontinuous simplifyineq doubletoneq implint "
                        "domcol dualinfer probing substitution sparsify"
                        ).split())
        p = make_problem(CTX, [(0, 9, 1, True), (0, 9, 1, True)],
                         [({0: 2, 1: 3}, NEG_INF, 6)])
        a = presolve(p, PresolveOptions(disabled=set(disabled)))
        b = presolve_sequential_immediate(
            p, PresolveOptions(disabled=set(disabled)))
        assert a.problem.stable_hash() == b.problem.stable_hash()

    def test_zero_discards_on_the_interplay_instance(self):
        p = make_problem(
            CTX,
            [(0, 1, -1, True), (0, 1, -1, True), (0, 1, -1, True)],
            [({1: 1, 2: 1}, 1, 1), ({0: 1, 1: 3, 2: 3}, NEG_INF, 4)])
        res = presolve_sequential_immediate(p, PresolveOptions())
        assert res.stats.tx_discarded == 0

    def test_soundness_equivalence_on_random_corpus(self):
        for seed in range(60):
            p = random_small_mip(random.Random(2000 + seed))
            status, opt, _ = brute_force(p)
            res = presolve_sequential_immediate(p, PresolveOptions())
            if res.verdict is Verdict.INFEASIBLE:
                assert status == "infeasible"
                continue
            s2, o2, _ = brute_force(res.problem)
            assert s2 == status
            if status == "optimal":
                assert abs(o2 - opt) <= 1e-6


class TestInterplayFullRun:
    def test_both_reductions_applied_in_one_run(self):
        p = make_problem(
            CTX,
            [(0, 1, -1, True), (0, 1, -1, True), (0, 1, -1, True)],
            [({1: 1, 2: 1}, 1, 1), ({0: 1, 1: 3, 2: 3}, NEG_INF, 4)])
        keep = {"simplifyineq", "substitution"}
        disabled = {n for n in
                    [d.name for d in __import__(
                        "premip.presolvers", fromlist=["REGISTRY"]).REGISTRY]
                    if n not in keep}
        log, buf = capture_log(4)
        res = presolve(p, PresolveOptions(disabled=disabled), log)
        applied = {l.split()[1] for l in buf.getvalue().splitlines()
                   if l.startswith("txn") and l.split()[5] == "APPLIED"}
        assert "simplifyineq" in applied
        assert "substitution" in applied
        assert res.stats.tx_discarded == 0


def _outcome(fn, view):
    """The transactions fn finds on view, or the error it raises."""
    try:
        return repr(fn(view))
    except (InfeasibleError, UnboundedError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _full_view(view):
    return PresolveView(view.problem, view.activities,
                        workers=view.workers)


class TestIncrementalTrivial:
    """A journal-driven trivial scan returns exactly what a full scan of the
    same state returns, including the error it raises."""

    @pytest.mark.parametrize("rational", [False, True])
    def test_matches_full_scan(self, monkeypatch, rational):
        original = sched.run_trivial
        incremental = []

        def checked(view):
            if not view.is_fresh():
                assert _outcome(original, view) == \
                    _outcome(original, _full_view(view))
                incremental.append(view)
            return original(view)

        monkeypatch.setattr(sched, "run_trivial", checked)
        corpus = []
        for seed in range(30):
            corpus.append(random_small_mip(random.Random(seed)))
            corpus.append(random_mixed_mip(random.Random(seed)))
        for seed in range(4):
            rng = random.Random(700 + seed)
            nc = rng.choice([60, 120, 250])
            corpus.append(random_medium_mip(rng, nc, int(nc * 0.8)))
        for k, p in enumerate(corpus):
            if rational:
                p = to_rational(p)
            presolve(p, PresolveOptions())
            if k % 3 == 0:
                presolve_sequential_immediate(p, PresolveOptions())
        assert len(incremental) > len(corpus)

    def test_unapplied_transaction_is_rescanned(self, monkeypatch):
        """A trivial transaction that was not applied is looked at again on
        the next call, even though the journal does not list its column."""
        original = sched.apply_all
        dropped = []

        def drop_first(update, txs, log=None):
            if not dropped and txs and txs[0].presolver == "trivial":
                assert len(txs) == 1
                dropped.append(txs[0])
                return [ApplyOutcome(TxStatus.DISCARDED)]
            return original(update, txs, log)

        monkeypatch.setattr(sched, "apply_all", drop_first)
        # the empty column 2 is the only trivial reduction
        p = make_problem(CTX, [(0, 1, -1, True), (0, 1, -1, True),
                               (0, 4, 1, True)],
                         [({0: 1, 1: 1}, NEG_INF, 1)])
        res = presolve(p, PresolveOptions(disabled={d.name for d in REGISTRY}))
        assert len(dropped) == 1
        assert not res.problem.col_is_active(2)
        assert res.problem.col_lower[2] == 0


def equal_support_mip(rng: random.Random) -> Problem:
    """Groups of columns that share a support of one to four rows, so
    that DomCol compares them.  A column open above has a nonnegative cost,
    so the objective stays bounded below."""
    p = Problem(CTX)
    nrows = rng.randint(8, 25)
    rows = [{} for _ in range(nrows)]
    for _ in range(rng.randint(5, 20)):
        support = rng.sample(range(nrows), rng.randint(1, 4))
        for _ in range(rng.randint(1, 4)):
            c = rng.randint(-5, 5)
            up = INF if c >= 0 and rng.random() < 0.5 else rng.randint(1, 10)
            lo = 0 if rng.random() < 0.9 else -rng.randint(0, 3)
            j = p.add_col(lo, up, c, rng.random() < 0.4)
            for i in support:
                rows[i][j] = rng.choice([-3, -2, -1, 1, 1, 2, 3])
    for entries in rows:
        if not entries:
            continue
        kind, b = rng.random(), rng.randint(-5, 20)
        if kind < 0.6:
            p.add_row(entries, NEG_INF, b)
        elif kind < 0.85:
            p.add_row(entries, b - 10, INF)
        else:
            p.add_row(entries, b, b)
    return p


JOURNAL_DRIVEN = ("simpleprobing", "parallelrows", "parallelcols", "stuffing",
                  "dualfix", "fixcontinuous", "simplifyineq", "doubletoneq",
                  "implint", "domcol", "substitution")


class TestJournalDrivenScans:
    """At every call after its first, a medium or exhaustive presolver that
    scans only the journal's changed rows and columns (plus the carried
    forward rows and columns of its unapplied transactions) finds exactly
    what a full scan of the same state finds."""

    def _run_checked(self, monkeypatch, corpus, rational):
        original = sched.runner
        calls, found = {}, {}

        def checking(name):
            fn = original(name)
            if name not in JOURNAL_DRIVEN:
                return fn

            def run(view):
                if not view.is_fresh():
                    got = _outcome(fn, view)
                    assert got == _outcome(fn, _full_view(view)), name
                    calls[name] = calls.get(name, 0) + 1
                    found[name] = found.get(name, 0) + got.count("Transaction(")
                return fn(view)
            return run

        monkeypatch.setattr(sched, "runner", checking)
        for k, p in enumerate(corpus):
            if rational:
                p = to_rational(p)
            presolve(p, PresolveOptions())
            if k % 3 == 0:
                presolve_sequential_immediate(p, PresolveOptions())
        assert set(calls) == set(JOURNAL_DRIVEN)
        return found

    @pytest.mark.parametrize("rational", [False, True])
    def test_random_corpus_matches_full_scan(self, monkeypatch, rational):
        corpus = []
        for seed in range(30):
            corpus.append(random_small_mip(random.Random(seed)))
            corpus.append(random_mixed_mip(random.Random(seed)))
        for seed in range(4):
            rng = random.Random(700 + seed)
            nc = rng.choice([60, 120, 250])
            corpus.append(random_medium_mip(rng, nc, int(nc * 0.8)))
        self._run_checked(monkeypatch, corpus, rational)

    @pytest.mark.parametrize("rational", [False, True])
    def test_late_structure_matches_full_scan(self, monkeypatch, rational):
        corpus = [late_structure_mip(random.Random(seed)) for seed in range(30)]
        found = self._run_checked(monkeypatch, corpus, rational)
        # the structure each gadget hides is found by a later call
        for name in ("parallelrows", "parallelcols", "stuffing",
                     "doubletoneq"):
            assert found.get(name, 0) > 0, name

    @pytest.mark.parametrize("rational", [False, True])
    def test_equal_supports_match_full_scan(self, monkeypatch, rational):
        corpus = [equal_support_mip(random.Random(seed))
                  for seed in range(150)]
        found = self._run_checked(monkeypatch, corpus, rational)
        assert found.get("domcol", 0) > 0
