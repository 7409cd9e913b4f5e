"""Solver-facing integration tests of the abstract-interpretation layer.

The layer must be a pure accelerator: with ``absint`` on, BMC folds
proven-constant latch bits out of the encoding, k-induction strengthens
its step frames and PDR seeds frame-∞ lemmas — but every verdict, bound
and counterexample frame must be identical to the ``absint=0`` run.
These tests pin both ``REPRO_OPT_LEVEL`` and ``REPRO_ABSINT`` for every
cell they check (the ``pin_pipeline`` fixture), so they hold no matter
which leg of the CI matrix they run on.
"""

from __future__ import annotations

import pytest

from repro.absint import analyze, pdr_seed_cubes
from repro.bmc.engine import BmcSession
from repro.bmc.kinduction import KInductionEngine
from repro.lint.cli import _gallery, _zoo_targets
from repro.pdr.engine import PdrEngine
from repro.pdr.invariant import check_invariant
from repro.ts.coi import reduce_to_property_cone

#: One (opt level, absint) cell per run of the differential matrix.
MATRIX = [(level, absint) for level in (0, 1, 2) for absint in (False, True)]


def _differential_targets():
    targets = [(name, build()) for name, build in sorted(_gallery().items())]
    targets += _zoo_targets(2, seed=1234)
    return targets


class TestBmcDifferential:
    @pytest.mark.parametrize(
        "name,ts",
        _differential_targets(),
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_verdicts_identical_across_matrix(self, name, ts, pin_pipeline):
        for prop in ts.properties:
            outcomes = []
            for level, absint in MATRIX:
                config = pin_pipeline(level, absint)
                session = BmcSession(ts, prop)
                result = session.extend_to(7)
                outcomes.append(
                    (config, result.holds, result.counterexample_length)
                )
            baseline = outcomes[0][1:]
            for config, *outcome in outcomes[1:]:
                assert tuple(outcome) == baseline, (
                    f"{name}/{prop}: opt_level={config.opt_level} "
                    f"absint={config.absint} diverged: {outcome} != {baseline}"
                )

    def test_fold_shrinks_saturating_counter_encoding(self, pin_pipeline):
        ts = _gallery()["saturating_counter"]()
        sizes = {}
        for absint in (False, True):
            pin_pipeline(2, absint)
            session = BmcSession(ts, "bounded")
            sizes[absint] = session.encode_to(10).cnf_clauses_post
        # Bit 3 of the counter folds away, so the on-encoding is strictly
        # smaller — and the matrix test above already pinned the verdict.
        assert sizes[True] < sizes[False]

    def test_fold_is_off_at_level_zero(self, pin_pipeline):
        ts = _gallery()["saturating_counter"]()
        config = pin_pipeline(0, absint=True)
        session = BmcSession(ts, "bounded")
        assert session.fold is None
        assert not config.use_absint

    def test_folded_counterexample_replays_concretely(self, pin_pipeline):
        # The buggy counter refutes; the trace from the folded encoding
        # must still drive the *original* system into the violation.
        from repro.smt.evaluator import evaluate

        ts = _gallery()["saturating_counter_buggy"]()
        pin_pipeline(2, absint=True)
        result = BmcSession(ts, "bounded").extend_to(10)
        assert result.holds is False
        trace = result.trace
        assert trace is not None
        final = trace.steps[-1]
        env = dict(final.states)
        env.update(final.inputs)
        assert evaluate(ts.properties["bounded"], env) == 0


class TestPdrSeeding:
    @pytest.fixture(autouse=True)
    def _pin(self, pin_pipeline):
        """Opt 2 with absint on unless a test re-pins it."""
        self.pin = pin_pipeline
        pin_pipeline(2, absint=True)

    def test_auto_seed_admitted_and_proof_checks(self):
        ts = _gallery()["saturating_counter"]()
        engine = PdrEngine(ts)
        result = engine.prove("bounded")
        assert result.proven is True
        assert result.stats.seed_lemmas_admitted >= 1
        check = check_invariant(ts, "bounded", result.invariant)
        assert check.initiation and check.consecution and check.safety

    def test_absint_off_admits_nothing(self):
        ts = _gallery()["saturating_counter"]()
        self.pin(2, absint=False)
        engine = PdrEngine(ts)
        result = engine.prove("bounded")
        assert result.proven is True
        assert result.stats.seed_lemmas_admitted == 0
        assert result.stats.seed_lemmas_rejected == 0

    def test_empty_iterable_disables_seeding(self):
        ts = _gallery()["saturating_counter"]()
        engine = PdrEngine(ts, seed_lemmas=())
        result = engine.prove("bounded")
        assert result.proven is True
        assert result.stats.seed_lemmas_admitted == 0

    def test_unsound_seed_is_rejected_not_trusted(self):
        # Bit 0 of the counter is NOT stuck: blocking it would be unsound.
        # The consecution filter must reject it and the verdict must hold.
        ts = _gallery()["saturating_counter"]()
        bad = (("d_count", 0, True),)
        engine = PdrEngine(ts, seed_lemmas=[bad])
        result = engine.prove("bounded")
        assert result.proven is True
        assert result.stats.seed_lemmas_admitted == 0
        assert result.stats.seed_lemmas_rejected >= 1
        check = check_invariant(ts, "bounded", result.invariant)
        assert check.initiation and check.consecution and check.safety

    def test_sound_and_unsound_seeds_mixed(self):
        ts = _gallery()["saturating_counter"]()
        reduced = reduce_to_property_cone(ts, "bounded").ts
        good = pdr_seed_cubes(reduced, analyze(reduced))
        assert good  # bit 3 stuck at 0
        bad = (("d_count", 1, True),)
        engine = PdrEngine(ts, seed_lemmas=[*good, bad])
        result = engine.prove("bounded")
        assert result.proven is True
        assert result.stats.seed_lemmas_admitted == len(good)
        assert result.stats.seed_lemmas_rejected == 1

    def test_malformed_seeds_are_skipped_not_fatal(self):
        ts = _gallery()["saturating_counter"]()
        seeds = [
            (("no_such_latch", 0, True),),  # unknown state
            (("d_count", 99, False),),  # bit out of range
            (),  # empty cube
            (("d_count", 3, 1),),  # non-bool polarity
        ]
        engine = PdrEngine(ts, seed_lemmas=seeds)
        result = engine.prove("bounded")
        assert result.proven is True
        assert result.stats.seed_lemmas_admitted == 0
        assert result.stats.seed_lemmas_rejected == len(seeds)

    def test_buggy_design_still_refutes_with_seeding(self):
        ts = _gallery()["saturating_counter_buggy"]()
        for absint in (False, True):
            self.pin(2, absint)
            engine = PdrEngine(ts)
            result = engine.prove("bounded")
            assert result.proven is False, f"absint={absint}"
            assert result.cex_chain

    def test_pipelined_design_verdicts_agree(self):
        # The design whose property is not inductive on its own: seeding
        # must not change the proof outcome in either variant.
        for name, expected in (
            ("pipelined_accumulators", True),
            ("pipelined_accumulators_buggy", False),
        ):
            ts = _gallery()[name]()
            verdicts = set()
            for absint in (False, True):
                self.pin(2, absint)
                result = PdrEngine(ts).prove("consistent")
                verdicts.add(result.proven)
            assert verdicts == {expected}, name


class TestKInductionStrengthening:
    @pytest.mark.parametrize(
        "name", ["saturating_counter", "lockstep_accumulators"]
    )
    def test_on_off_agree_on_clean_designs(self, name, pin_pipeline):
        ts = _gallery()[name]()
        prop = next(iter(ts.properties))
        outcomes = {}
        for absint in (False, True):
            pin_pipeline(2, absint)
            result = KInductionEngine(ts).prove(prop, max_k=6)
            outcomes[absint] = (result.proven, result.k)
        assert outcomes[False] == outcomes[True]
        assert outcomes[True][0] is True

    def test_on_off_agree_on_buggy_design(self, pin_pipeline):
        ts = _gallery()["saturating_counter_buggy"]()
        for absint in (False, True):
            pin_pipeline(2, absint)
            result = KInductionEngine(ts).prove("bounded", max_k=8)
            assert result.proven is False, f"absint={absint}"
            assert result.base_result is not None
            assert result.base_result.holds is False
