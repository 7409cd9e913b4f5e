"""Tests for the incremental CNF preprocessor."""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.sat.preprocess import Preprocessor
from repro.sat.solver import SatSolver


def _brute_force_sat(clauses, num_vars):
    for assignment in range(1 << num_vars):
        values = {v: bool((assignment >> (v - 1)) & 1) for v in range(1, num_vars + 1)}
        if all(any(values[abs(l)] == (l > 0) for l in clause) for clause in clauses):
            return True
    return False


def _solve(clauses, assumptions=()):
    solver = SatSolver()
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve(assumptions=assumptions)


class TestUnitPropagation:
    def test_units_simplify_and_are_reemitted(self):
        pre = Preprocessor()
        out = pre.flush([[1], [-1, 2], [1, 3, 4]])
        # [1] asserted, [-1,2] strengthens to [2], [1,3,4] satisfied.
        assert (1,) in out and (2,) in out
        assert all(len(c) == 1 for c in out)
        assert pre.stats.units_found == 2
        assert pre.stats.satisfied_dropped >= 1

    def test_units_persist_across_batches(self):
        pre = Preprocessor()
        pre.flush([[5]])
        out = pre.flush([[-5, 6], [5, 7]])
        assert out == [(6,)]

    def test_conflicting_units_set_unsat(self):
        pre = Preprocessor()
        pre.flush([[1]])
        pre.flush([[-1]])
        assert pre.unsat is True

    def test_empty_clause_from_propagation_sets_unsat(self):
        pre = Preprocessor()
        pre.flush([[1], [2]])
        pre.flush([[-1, -2]])
        assert pre.unsat is True


class TestTautologies:
    def test_tautology_is_dropped_before_elimination(self):
        # Var 2's elimination used to resolve against [1, -1, 2] and crash.
        pre = Preprocessor()
        clauses = [[1, -1, 2], [-2, 3], [2, 3]]
        out = pre.flush(clauses)
        assert pre.stats.clauses_in == 3
        assert all(not any(-lit in c for lit in c) for c in out)
        model = pre.extend_model(_solve(out).model)
        assert all(
            any(model.get(abs(l), False) == (l > 0) for l in c) for c in clauses
        )

    def test_tautology_over_frozen_vars_is_not_emitted(self):
        pre = Preprocessor()
        pre.freeze_all([1, 2])
        assert pre.flush([[1, 2, -1], [1, 2]]) == [(1, 2)]


class TestSubsumption:
    def test_forward_subsumption_within_batch(self):
        pre = Preprocessor()
        pre.freeze_all([1, 2, 3])
        out = pre.flush([[1, 2], [1, 2, 3]])
        assert (1, 2) in out
        assert all(set(c) != {1, 2, 3} for c in out)
        assert pre.stats.subsumed == 1

    def test_forward_subsumption_against_earlier_batch(self):
        pre = Preprocessor()
        pre.freeze_all([1, 2, 3])
        pre.flush([[1, 2]])
        out = pre.flush([[1, 2, 3]])
        assert out == []
        assert pre.stats.subsumed == 1


class TestVariableElimination:
    def test_pure_auxiliary_gate_vanishes(self):
        # Tseitin AND gate 3 <-> 1&2 with no other use of 3: resolvents are
        # all tautologies, the variable disappears entirely.
        pre = Preprocessor()
        pre.freeze_all([1, 2])
        out = pre.flush([[-3, 1], [-3, 2], [3, -1, -2]])
        assert out == []
        assert pre.is_eliminated(3)
        assert pre.stats.vars_eliminated == 1

    def test_frozen_vars_survive(self):
        pre = Preprocessor()
        pre.freeze_all([1, 2, 3])
        out = pre.flush([[-3, 1], [-3, 2], [3, -1, -2]])
        assert len(out) == 3
        assert not pre.is_eliminated(3)

    def test_elimination_preserves_satisfiability(self):
        rng = random.Random(7)
        for _ in range(40):
            num_vars = rng.randint(3, 7)
            clauses = []
            for _ in range(rng.randint(3, 18)):
                width = rng.randint(1, 3)
                clause = list(
                    {rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(width)}
                )
                if any(-l in clause for l in clause):
                    continue
                clauses.append(clause)
            expected = _brute_force_sat(clauses, num_vars)
            pre = Preprocessor()
            out = pre.flush(clauses)
            if pre.unsat:
                assert expected is False
                continue
            result = _solve(out)
            assert result.satisfiable is expected

    def test_model_extension_through_eliminated_vars(self):
        # Eliminate gate var 3 (out of 3 <-> 1&2), solve the remainder, then
        # extend the model: var 3 must read as value(1) & value(2).
        pre = Preprocessor()
        pre.freeze_all([1, 2])
        out = pre.flush([[-3, 1], [-3, 2], [3, -1, -2], [1], [2]])
        result = _solve(out)
        assert result.satisfiable
        model = pre.extend_model(result.model)
        assert model[1] is True and model[2] is True
        assert model[3] is True

    def test_model_extension_negative_case(self):
        pre = Preprocessor()
        pre.freeze_all([1, 2])
        out = pre.flush([[-3, 1], [-3, 2], [3, -1, -2], [-1], [2]])
        result = _solve(out)
        model = pre.extend_model(result.model)
        assert model[3] is False

    def test_uneliminate_on_later_reference(self):
        pre = Preprocessor()
        pre.freeze_all([1, 2])
        pre.flush([[-3, 1], [-3, 2], [3, -1, -2]])
        assert pre.is_eliminated(3)
        # A later batch references var 3: its definition must come back.
        out = pre.flush([[3, 4], [-4]])
        assert not pre.is_eliminated(3)
        assert pre.stats.vars_restored == 1
        # Solving everything emitted so far with 1,2 true forces 3 true.
        all_clauses = [c for c in out]
        result = _solve(all_clauses, assumptions=[1, 2])
        assert result.satisfiable
        assert result.model[3] is True

    def test_require_vars_restores_assumption_var(self):
        pre = Preprocessor()
        pre.freeze_all([1, 2])
        pre.flush([[-3, 1], [-3, 2], [3, -1, -2]])
        restored = pre.require_vars([3])
        assert not pre.is_eliminated(3)
        assert restored, "the stored definition clauses must be re-emitted"
        # With the definition back, assuming 3 while 1 is false is UNSAT.
        result = _solve(restored, assumptions=[3, -1])
        assert result.satisfiable is False


class TestExactOrder:
    """Orders that later rounds and passes must reproduce exactly."""

    def test_backward_unit_chain_emits_units_in_discovery_order(self):
        # Each implication sits before the clause that fires it, so every
        # link of the chain 1 -> 2 -> 3 -> 4 takes one more propagation
        # pass; 7 follows from 1 in the first pass.
        pre = Preprocessor()
        pre.freeze_all([5, 6])
        out = pre.flush([[-3, 4], [-2, 3], [5, -4, 6], [-1, 2], [1], [-1, 7]])
        assert out == [(1,), (7,), (2,), (3,), (4,), (5, 6)]
        assert pre.stats.units_found == 5
        assert pre.stats.literals_stripped == 5

    def test_clause_stripped_in_a_later_round_subsumes_a_checked_one(self):
        # Round 1 keeps (1, 2, 5) and eliminates 4 into the unit resolvent
        # (-3,).  Round 2 strips (1, 2, 3) to (1, 2), which now subsumes
        # (1, 2, 5) although that clause passed its round-1 check.
        pre = Preprocessor()
        pre.freeze_all([1, 2, 3, 5])
        out = pre.flush([[1, 2, 3], [1, 2, 5], [4, -3], [-4, -3]])
        assert out == [(-3,), (1, 2)]
        assert pre.stats.subsumed == 1

    def test_rejected_var_is_retried_after_a_neighbour_elimination(self):
        # Round 1 eliminates 3, then rejects 1 (six resolvents against a
        # budget of five), then eliminates the pure 5, which takes four of
        # 1's five clauses along.  Round 2 finds 1 pure and eliminates it.
        clauses = [[2, -1], [-4, -2, -5], [-3, -5], [-5, -1, 4]]
        clauses += [[4, 1, -5], [-1, 3], [-5, 3, 1]]
        one_round = Preprocessor(max_rounds=1)
        one_round.freeze_all([2, 4])
        assert one_round.flush(clauses) == [(2, -1)]
        assert not one_round.is_eliminated(1)
        pre = Preprocessor()
        pre.freeze_all([2, 4])
        assert pre.flush(clauses) == []
        assert all(pre.is_eliminated(var) for var in (1, 3, 5))
        assert pre.stats.vars_eliminated == 3
        assert pre.stats.resolvents_added == 2


class TestEquivalenceRandomised:
    """Preprocessed output is equisatisfiable and respects assumptions on frozen vars."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances_with_frozen_assumption_vars(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(4, 8)
        clauses = []
        for _ in range(rng.randint(4, 22)):
            width = rng.randint(1, 3)
            lits = {rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(width)}
            if any(-l in lits for l in lits):
                continue
            clauses.append(sorted(lits))
        frozen = [v for v in range(1, num_vars + 1) if rng.random() < 0.5]
        pre = Preprocessor()
        pre.freeze_all(frozen)
        out = pre.flush(clauses)
        for assumption_bits in range(1 << len(frozen)):
            assumptions = [
                v if (assumption_bits >> i) & 1 else -v
                for i, v in enumerate(frozen)
            ]
            expected = _solve(clauses, assumptions=assumptions).satisfiable
            if pre.unsat:
                got = False
            else:
                got = _solve(out, assumptions=assumptions).satisfiable
            assert got is expected


# --------------------------------------------------------- golden streams

GOLDEN = Path(__file__).parent / "data" / "preprocess_golden.json"


def _golden_stream(seed):
    """A seeded, Tseitin-shaped multi-batch stream of preprocessor calls.

    Returns ``(kind, arg)`` pairs: ``("flush", clauses)``,
    ``("freeze", vars)`` or ``("require", vars)``.  Besides AND/OR/XOR
    gates the batches carry backward implication chains closed by a unit
    (multi-pass propagation), clause pairs whose only resolvent is a unit,
    wide clauses next to a narrower one inside them (subsumption) and
    binary constraints on earlier signals, which often name variables an
    earlier batch eliminated.
    """
    rng = random.Random(seed)
    num_inputs = rng.randint(4, 8)
    signals = list(range(1, num_inputs + 1))
    next_var = num_inputs + 1
    ops = [("freeze", [v for v in signals if rng.random() < 0.7])]
    for _ in range(rng.randint(3, 6)):
        batch = []
        for _ in range(rng.randint(8, 40)):
            roll = rng.random()
            gate = next_var
            next_var += 1
            a, b = (rng.choice((-1, 1)) * v for v in rng.sample(signals, 2))
            if roll < 0.35:  # and: gate <-> a & b
                batch += [[-gate, a], [-gate, b], [gate, -a, -b]]
            elif roll < 0.6:  # or: gate <-> a | b
                batch += [[gate, -a], [gate, -b], [-gate, a, b]]
            elif roll < 0.75:  # xor: gate <-> a ^ b
                batch += [[-gate, a, b], [-gate, -a, -b], [gate, -a, b], [gate, a, -b]]
            elif roll < 0.82:  # backward implication chain closed by a unit
                chain = [gate] + [next_var + i for i in range(rng.randint(2, 4))]
                next_var += len(chain) - 1
                links = reversed(range(len(chain) - 1))
                batch += [[-chain[i], chain[i + 1]] for i in links]
                batch.append([chain[0]])
                continue
            elif roll < 0.88:  # both phases of gate beside a fresh var: resolvent unit
                batch += [[gate, gate + 1], [-gate, gate + 1]]
                next_var += 1
                signals.append(gate + 1)
                continue
            elif roll < 0.94:  # a wide clause and a narrower one inside it
                wide = list(
                    {rng.choice((-1, 1)) * rng.choice(signals) for _ in range(5)}
                )
                if any(-lit in wide for lit in wide):
                    continue
                batch += [wide, wide[: rng.randint(1, len(wide))]]
                next_var -= 1
                continue
            else:  # constrain an existing signal
                batch.append([a, b])
                next_var -= 1
                continue
            signals.append(gate)
        ops.append(("flush", batch))
        roll = rng.random()
        if roll < 0.3:
            ops.append(("freeze", rng.sample(signals, min(3, len(signals)))))
        elif roll < 0.6:
            ops.append(("require", rng.sample(signals, min(2, len(signals)))))
    return ops


def _digest(value):
    return hashlib.sha1(repr(value).encode()).hexdigest()


def _replay(pre, ops):
    """Run ``ops`` on ``pre``; returns the digest of every returned clause list."""
    digests = []
    for kind, arg in ops:
        if kind == "freeze":
            pre.freeze_all(arg)
        elif kind == "require":
            digests.append(_digest(pre.require_vars(arg)))
        else:
            digests.append(_digest(pre.flush(arg)))
    return digests


def _golden_cases():
    return json.loads(GOLDEN.read_text())["cases"]


class TestGoldenOutput:
    """Every returned clause list and the final stats match a recording.

    The digests in ``tests/data/preprocess_golden.json`` were recorded from
    the whole-batch preprocessor that predates the round-incremental
    ``flush``; the round-incremental design promises byte-identical output.
    """

    @pytest.mark.parametrize(
        "case", _golden_cases(), ids=lambda c: f"seed{c['seed']}-scan{c['scan_limit']}"
    )
    def test_stream_matches_recording(self, case):
        pre = Preprocessor(subsumption_scan_limit=case["scan_limit"])
        assert _replay(pre, _golden_stream(case["seed"])) == case["outputs"]
        assert pre.stats.as_dict() == case["stats"]
        assert pre.unsat is case["unsat"]
