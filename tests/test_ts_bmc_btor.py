"""Tests for transition systems, the unroller, BMC, k-induction and BTOR2."""

from __future__ import annotations

import pytest

from repro.bmc.engine import BmcEngine
from repro.bmc.kinduction import KInductionEngine
from repro.btor import parse_btor2, write_btor2
from repro.errors import BmcError, Btor2Error, TransitionSystemError
from repro.smt import terms as T
from repro.ts.system import TransitionSystem
from repro.ts.unroll import Unroller


def _counter_system(prefix: str, limit: int, buggy: bool = False) -> TransitionSystem:
    """A saturating 4-bit counter with an enable input.

    Property: the counter never exceeds ``limit``.  The buggy variant skips
    the saturation check, so the property fails once the counter passes it.
    """
    ts = TransitionSystem(name=f"{prefix}_counter")
    count = ts.add_state(f"{prefix}_count", 4, init=0)
    enable = ts.add_input(f"{prefix}_enable", 1)
    incremented = T.bv_add(count, T.bv_const(1, 4))
    if buggy:
        next_count = T.bv_ite(T.bv_eq(enable, T.bv_true()), incremented, count)
    else:
        at_limit = T.bv_ule(T.bv_const(limit, 4), count)
        next_count = T.bv_ite(
            T.bv_and(T.bv_eq(enable, T.bv_true()), T.bv_not(at_limit)), incremented, count
        )
    ts.set_next(count, next_count)
    ts.add_property("bounded", T.bv_ule(count, T.bv_const(limit, 4)))
    return ts


class TestTransitionSystem:
    def test_duplicate_symbol_rejected(self):
        ts = TransitionSystem()
        ts.add_state("tsx_a", 4, init=0)
        with pytest.raises(TransitionSystemError):
            ts.add_input("tsx_a", 4)

    def test_validate_requires_next(self):
        ts = TransitionSystem()
        ts.add_state("tsx_b", 4, init=0)
        with pytest.raises(TransitionSystemError):
            ts.validate()

    def test_width_checks(self):
        ts = TransitionSystem()
        state = ts.add_state("tsx_c", 4, init=0)
        with pytest.raises(TransitionSystemError):
            ts.set_next(state, T.bv_const(0, 8))
        with pytest.raises(TransitionSystemError):
            ts.add_property("p", T.bv_const(0, 4))

    def test_num_state_bits(self):
        ts = _counter_system("tsx_bits", 5)
        assert ts.num_state_bits() == 4


class TestUnroller:
    def test_concrete_init_propagates_constants(self):
        ts = _counter_system("unr_const", 9)
        unroller = Unroller(ts)
        frame0 = unroller.state_term("unr_const_count", 0)
        assert frame0.is_const and frame0.const_value() == 0

    def test_inputs_get_fresh_symbols_per_frame(self):
        ts = _counter_system("unr_inputs", 9)
        unroller = Unroller(ts)
        assert unroller.input_term("unr_inputs_enable", 0) is not unroller.input_term(
            "unr_inputs_enable", 1
        )

    def test_property_at_frame(self):
        ts = _counter_system("unr_prop", 9)
        unroller = Unroller(ts)
        prop0 = unroller.property_at("bounded", 0)
        assert prop0.is_const and prop0.const_value() == 1


class TestBmc:
    def test_good_counter_holds(self):
        result = BmcEngine(_counter_system("bmc_good", 5)).check("bounded", bound=8)
        assert result.holds is True
        assert result.trace is None

    def test_buggy_counter_fails_with_minimal_trace(self):
        result = BmcEngine(_counter_system("bmc_bad", 5, buggy=True)).check("bounded", bound=10)
        assert result.holds is False
        # The counter must be enabled six times to reach 6 > 5 (frames 0..6).
        assert result.trace is not None and result.trace.length == 7
        values = result.trace.values_over_time("bmc_bad_count")
        assert values[-1] == 6

    def test_unknown_property_rejected(self):
        with pytest.raises(BmcError):
            BmcEngine(_counter_system("bmc_unknown", 5)).check("nope", bound=2)

    def test_trace_rendering(self):
        result = BmcEngine(_counter_system("bmc_render", 3, buggy=True)).check("bounded", bound=8)
        text = result.trace.render(["bmc_render_count", "bmc_render_enable"])
        assert "bmc_render_count" in text and "frame" in text

    def test_constraints_restrict_inputs(self):
        ts = _counter_system("bmc_constrained", 5, buggy=True)
        ts.add_constraint(T.bv_eq(ts.input_symbol("bmc_constrained_enable"), T.bv_false()))
        result = BmcEngine(ts).check("bounded", bound=8)
        assert result.holds is True


class TestKInduction:
    def test_proves_simple_invariant(self):
        ts = TransitionSystem(name="kind_simple")
        bit = ts.add_state("kind_bit", 1, init=0)
        ts.set_next(bit, bit)
        ts.add_property("never_set", T.bv_eq(bit, T.bv_false()))
        result = KInductionEngine(ts).prove("never_set", max_k=2)
        assert result.proven is True

    def test_finds_counterexample_in_base_case(self):
        ts = _counter_system("kind_bad", 2, buggy=True)
        result = KInductionEngine(ts).prove("bounded", max_k=4)
        assert result.proven is False

    def test_max_k_exhaustion_keeps_base_result(self, pin_pipeline):
        # A property that holds but is not 1-inductive (x copies y with one
        # cycle of delay, so induction needs to look two steps back): the
        # inconclusive result must still report how far the base case got
        # (this used to be dropped on the exhausted-return path).
        ts = TransitionSystem(name="kind_exhaust")
        x = ts.add_state("kind_ex_x", 1, init=0)
        y = ts.add_state("kind_ex_y", 1, init=0)
        ts.set_next(x, y)
        ts.set_next(y, y)
        ts.add_property("x_never_set", T.bv_eq(x, T.bv_false()))
        # Pin the abstract-interpretation strengthening off: both latches
        # are sequentially constant, so with it on the property *is*
        # 1-inductive and the exhaustion path under test never runs.
        pin_pipeline(2, absint=False)
        result = KInductionEngine(ts).prove("x_never_set", max_k=1)
        assert result.proven is None
        assert result.base_result is not None
        assert result.base_result.holds is True
        # With one more step of lookback the same engine closes the proof.
        assert KInductionEngine(ts).prove("x_never_set", max_k=2).proven is True
        # And with the strengthening on, one step of lookback suffices.
        pin_pipeline(2, absint=True)
        assert KInductionEngine(ts).prove("x_never_set", max_k=1).proven is True


class TestBtor2:
    def test_roundtrip_counter(self):
        ts = _counter_system("btor_rt", 5, buggy=True)
        text = write_btor2(ts)
        assert "sort bitvec 4" in text and "bad" in text and "next" in text
        parsed = parse_btor2(text, name="parsed_counter")
        # The round-tripped system must reproduce the same BMC verdict.
        original = BmcEngine(ts).check("bounded", bound=8)
        again = BmcEngine(parsed).check("bounded", bound=8)
        assert original.holds == again.holds
        assert original.trace.length == again.trace.length

    def test_writer_declares_free_symbols_as_inputs(self):
        ts = TransitionSystem(name="btor_free")
        state = ts.add_state("btor_free_state", 4, init=0)
        ts.set_next(state, T.bv_add(state, T.bv_var("btor_free_sym", 4)))
        text = write_btor2(ts)
        assert "input" in text and "btor_free_sym" in text

    def test_parser_rejects_unknown_operator(self):
        with pytest.raises(Btor2Error):
            parse_btor2("1 sort bitvec 4\n2 frobnicate 1 1 1\n")

    def test_parse_constants_in_all_bases(self):
        text = "\n".join(
            [
                "1 sort bitvec 8",
                "2 state 1 pstate",
                "3 constd 1 10",
                "4 const 1 00000001",
                "5 consth 1 ff",
                "6 add 1 3 4",
                "7 add 1 6 5",
                "8 next 1 2 7",
                "9 sort bitvec 1",
                "10 input 9 pin",
            ]
        )
        ts = parse_btor2(text)
        assert ts.state_symbol("pstate").width == 8

    def test_qed_model_exports_to_btor2(self, tiny_processor_config):
        """The full SQED verification model serialises to BTOR2."""
        from repro.core.flow import SqedFlow

        model = SqedFlow(tiny_processor_config).build_model()
        text = write_btor2(model.ts)
        assert "bad" in text and "constraint" in text
        assert text.count("state") > 10


class TestCoiEdgeCases:
    """Cone-of-influence reduction on degenerate property shapes.

    Each case checks the contract that matters: the reduced system's BMC
    verdict is identical to the original's.
    """

    def test_property_referencing_no_latches(self):
        from repro.ts.coi import reduce_to_property_cone

        ts = _counter_system("coix_nolatch", 5)
        flag = ts.add_input("coix_nolatch_flag", 1)
        ts.add_property("flag_low", T.bv_not(T.bv_eq(flag, T.bv_true())))
        reduction = reduce_to_property_cone(ts, "flag_low")
        # Every latch is invisible to this property...
        assert reduction.kept_states == []
        assert "coix_nolatch_count" in reduction.dropped_states
        # ...and the verdict survives the reduction (falsified by flag=1).
        original = BmcEngine(ts).check("flag_low", bound=2)
        reduced = BmcEngine(reduction.ts).check("flag_low", bound=2)
        assert original.holds is reduced.holds is False
        assert original.counterexample_length == reduced.counterexample_length

    def test_property_over_inputs_only(self):
        from repro.ts.coi import reduce_to_property_cone

        ts = TransitionSystem(name="coix_inputs_only")
        a = ts.add_input("coix_io_a", 4)
        b = ts.add_input("coix_io_b", 4)
        junk = ts.add_state("coix_io_junk", 4, init=0)
        ts.set_next(junk, T.bv_add(junk, T.bv_const(1, 4)))
        # a <= a|b: holds at every frame with no state involved, and does
        # not constant-fold (unlike e.g. a+b == b+a, which hash-consing
        # normalises away).
        ts.add_property(
            "absorb", T.bv_ule(a, T.bv_or(a, b))
        )
        reduction = reduce_to_property_cone(ts, "absorb")
        assert reduction.kept_states == []
        assert sorted(reduction.kept_inputs) == ["coix_io_a", "coix_io_b"]
        original = BmcEngine(ts).check("absorb", bound=3)
        reduced = BmcEngine(reduction.ts).check("absorb", bound=3)
        assert original.holds is reduced.holds is True

    def test_self_looping_latch(self):
        from repro.ts.coi import reduce_to_property_cone

        ts = TransitionSystem(name="coix_selfloop")
        loop = ts.add_state("coix_sl_loop", 4, init=1)
        # The latch depends only on itself: doubles until it wraps to 0.
        ts.set_next(loop, T.bv_add(loop, loop))
        other = ts.add_state("coix_sl_other", 4, init=0)
        ts.set_next(other, T.bv_add(other, T.bv_const(1, 4)))
        ts.add_property(
            "nonzero", T.bv_not(T.bv_eq(loop, T.bv_const(0, 4)))
        )
        reduction = reduce_to_property_cone(ts, "nonzero")
        # The self-loop must keep the latch live, not drop it as dead.
        assert reduction.kept_states == ["coix_sl_loop"]
        assert reduction.dropped_states == ["coix_sl_other"]
        # 1 -> 2 -> 4 -> 8 -> 0: fails at frame 4 in both systems.
        for bound, expected in ((3, True), (4, False)):
            original = BmcEngine(ts).check("nonzero", bound=bound)
            reduced = BmcEngine(reduction.ts).check("nonzero", bound=bound)
            assert original.holds is reduced.holds is expected


class TestParserDiagnostics:
    def test_error_carries_line_number_and_token(self):
        text = "1 sort bitvec 4\n2 state 1 pdx_r\n3 next 1 2 oops\n"
        with pytest.raises(Btor2Error) as exc_info:
            parse_btor2(text)
        message = str(exc_info.value)
        assert "line 3" in message
        assert "'oops'" in message
        assert "3 next 1 2 oops" in message  # the offending line verbatim

    def test_truncated_line_reports_missing_operand(self):
        with pytest.raises(Btor2Error, match="line 2.*missing"):
            parse_btor2("1 sort bitvec 4\n2 state\n")

    def test_forward_reference_names_the_line(self):
        with pytest.raises(Btor2Error, match="line 1.*before definition"):
            parse_btor2("1 state 7 pdx_fwd\n")

    def test_init_of_non_state_names_the_token(self):
        text = (
            "1 sort bitvec 4\n"
            "2 input 1 pdx_inp\n"
            "3 constd 1 0\n"
            "4 init 1 2 3\n"
        )
        with pytest.raises(Btor2Error, match="line 4.*not a state"):
            parse_btor2(text)

    def test_bad_constant_reports_base(self):
        with pytest.raises(Btor2Error, match="line 2.*base-2"):
            parse_btor2("1 sort bitvec 4\n2 const 1 2001\n")
