"""Conflict-driven clause-learning (CDCL) SAT solver.

The implementation follows the classic MiniSat recipe:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning,
* VSIDS variable activities with phase saving, branching only on
  variables that occur in a clause,
* Luby-sequence restarts,
* learned-clause database reduction based on activity.

It also supports solving under assumptions, which the incremental users
(CEGIS, BMC and IC3/PDR) rely on.  An UNSAT answer under assumptions
carries a *failed-assumption core* (MiniSat's ``analyzeFinal``): the subset
of assumptions that already forces the conflict.  Assumption-UNSAT leaves
the solver reusable; only a root-level (assumption-free) contradiction
latches the instance unsatisfiable for good.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.errors import SatError
from repro.sat.cnf import CNF
from repro.sat.sanitize import (
    check_reference_invariants,
    check_reference_learned,
    check_reference_model,
    check_reference_reasons,
    check_reference_trail,
    check_reference_watches,
    resolve_sanitize,
)

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1

#: LBD retention tiers (glucose-style).  Core clauses (LBD <= _LBD_CORE)
#: are never deleted; mid clauses (LBD <= _LBD_MID) are only deleted after
#: every local clause; local clauses go least-active-first.
_LBD_CORE = 2
_LBD_MID = 6


@dataclass
class SolverStats:
    """Counters describing the work done by a single :class:`SatSolver`."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    max_decision_level: int = 0
    #: Sum of LBD scores over stored learned clauses (avg = lbd_sum /
    #: learned_clauses); low averages mean high-quality conflict clauses.
    lbd_sum: int = 0
    #: Literals removed from learned clauses by conflict-clause minimisation.
    minimized_literals: int = 0
    #: Decisions whose polarity came from a saved (non-default) phase.
    saved_phase_hits: int = 0

    def copy(self) -> "SolverStats":
        """A detached snapshot of the counters."""
        return dataclasses.replace(self)

    def since(self, earlier: "SolverStats") -> "SolverStats":
        """Counters accumulated since the ``earlier`` snapshot was taken.

        ``max_decision_level`` is a high-water mark rather than a counter, so
        the current value is kept as-is.
        """
        return SolverStats(
            decisions=self.decisions - earlier.decisions,
            propagations=self.propagations - earlier.propagations,
            conflicts=self.conflicts - earlier.conflicts,
            restarts=self.restarts - earlier.restarts,
            learned_clauses=self.learned_clauses - earlier.learned_clauses,
            max_decision_level=self.max_decision_level,
            lbd_sum=self.lbd_sum - earlier.lbd_sum,
            minimized_literals=self.minimized_literals - earlier.minimized_literals,
            saved_phase_hits=self.saved_phase_hits - earlier.saved_phase_hits,
        )

    def merge(self, other: "SolverStats") -> None:
        """Accumulate ``other`` into this record (in place)."""
        self.decisions += other.decisions
        self.propagations += other.propagations
        self.conflicts += other.conflicts
        self.restarts += other.restarts
        self.learned_clauses += other.learned_clauses
        self.max_decision_level = max(self.max_decision_level, other.max_decision_level)
        self.lbd_sum += other.lbd_sum
        self.minimized_literals += other.minimized_literals
        self.saved_phase_hits += other.saved_phase_hits


@dataclass
class SatResult:
    """Outcome of a SAT query.

    ``satisfiable`` is ``True``/``False`` for a decided query and ``None``
    if the solver hit its conflict budget.  When satisfiable, ``model`` maps
    every variable index to a boolean.  The kernels branch only on variables
    that occur in a clause; any other variable reads ``False`` unless it was
    assumed.  ``stats`` is a *detached snapshot*
    of the solver's cumulative counters at the time the result was built:
    later calls on the same solver instance do not mutate a stored result.

    For UNSAT answers ``core`` holds the *failed-assumption core*: a subset
    of the passed assumption literals whose conjunction already makes the
    formula unsatisfiable.  An empty core means the clause set is
    unsatisfiable on its own (root UNSAT — the verdict holds under any
    assumptions); a non-empty core always contains at least the assumption
    found falsified.  ``core`` is ``None`` on SAT/unknown answers.
    """

    satisfiable: Optional[bool]
    model: dict[int, bool] = field(default_factory=dict)
    stats: SolverStats = field(default_factory=SolverStats)
    core: Optional[list[int]] = None

    def __bool__(self) -> bool:
        return bool(self.satisfiable)

    def value(self, var: int) -> bool:
        """Value of ``var`` in the model (only valid when satisfiable)."""
        if not self.satisfiable:
            raise SatError("no model available: formula not satisfiable")
        return self.model[var]


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class _Clause:
    """Internal clause representation with an activity score and LBD."""

    __slots__ = ("lits", "learned", "activity", "lbd")

    def __init__(self, lits: list[int], learned: bool = False, lbd: int = 0):
        self.lits = lits
        self.learned = learned
        self.activity = 0.0
        self.lbd = lbd


class SatSolver:
    """A CDCL SAT solver over DIMACS-style literals.

    Typical usage::

        solver = SatSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        result = solver.solve()
        assert result.satisfiable
    """

    def __init__(
        self,
        cnf: CNF | None = None,
        var_decay: float = 0.95,
        default_phase: bool = False,
        restart_interval: int = 100,
        sanitize: Optional[bool] = None,
        lbd_tiers: bool = True,
        phase_saving: bool = True,
        minimize: bool = True,
    ):
        if not (0.0 < var_decay <= 1.0):
            raise SatError(f"var_decay must be in (0, 1], got {var_decay}")
        if restart_interval < 1:
            raise SatError(f"restart_interval must be >= 1, got {restart_interval}")
        self._sanitize = resolve_sanitize(sanitize)
        self._lbd_tiers = bool(lbd_tiers)
        self._phase_saving = bool(phase_saving)
        self._minimize = bool(minimize)
        # Target phases: snapshot of the deepest trail seen, restored on
        # restart so the search re-approaches its best partial assignment.
        self._target_phase: Optional[list[bool]] = None
        self._best_trail = 0
        self._num_vars = 0
        self._clauses: list[_Clause] = []
        self._learned: list[_Clause] = []
        # watches[lit_code] -> clauses watching literal ``lit_code``
        self._watches: list[list[_Clause]] = [[], []]
        self._assign: list[int] = [_UNASSIGNED]
        self._level: list[int] = [0]
        self._reason: list[Optional[_Clause]] = [None]
        self._default_phase = default_phase
        self._restart_interval = restart_interval
        self._phase: list[bool] = [default_phase]
        self._activity: list[float] = [0.0]
        self._var_inc = 1.0
        self._var_decay = var_decay
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._order_heap: list[tuple[float, int]] = []
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._ok = True
        self._learned_limit = 2000
        # Per var: True once the var has occurred in a clause given to
        # add_clause.  Only these decision variables go on the order heap.
        self._decision: list[bool] = [False]
        self.stats = SolverStats()
        if cnf is not None:
            self.add_cnf(cnf)

    # ------------------------------------------------------------------ setup

    @staticmethod
    def _code(lit: int) -> int:
        """Map a DIMACS literal to an index usable for watch lists."""
        var = abs(lit)
        return 2 * var if lit > 0 else 2 * var + 1

    def _ensure_var(self, var: int) -> None:
        while self._num_vars < var:
            self._num_vars += 1
            self._assign.append(_UNASSIGNED)
            self._level.append(0)
            self._reason.append(None)
            self._phase.append(self._default_phase)
            self._activity.append(0.0)
            self._watches.append([])
            self._watches.append([])
            self._decision.append(False)

    def reserve(self, num_vars: int) -> None:
        """Make sure variables ``1..num_vars`` exist even if unconstrained.

        A reserved variable is branched on only once a clause mentions it.
        """
        self._ensure_var(num_vars)

    @property
    def num_clauses(self) -> int:
        """Problem clauses currently attached (units propagate, so excluded)."""
        return len(self._clauses)

    @property
    def num_learned(self) -> int:
        """Learned clauses currently in the database (post reduction)."""
        return len(self._learned)

    def add_cnf(self, cnf: CNF) -> None:
        """Add all clauses of ``cnf`` (and reserve its variable range)."""
        self._ensure_var(cnf.num_vars)
        for clause in cnf.clauses:
            self.add_clause(clause)

    def add_clause(self, literals: Sequence[int]) -> None:
        """Add a clause; duplicate literals are removed and tautologies dropped."""
        if not self._ok:
            return
        seen: dict[int, int] = {}
        lits: list[int] = []
        for lit in literals:
            lit = int(lit)
            if lit == 0:
                raise SatError("literal 0 is not allowed in a clause")
            var = abs(lit)
            self._ensure_var(var)
            if not self._decision[var]:
                self._decision[var] = True
                heapq.heappush(self._order_heap, (-self._activity[var], var))
            if lit in seen:
                continue
            if -lit in seen:
                return  # tautology
            seen[lit] = 1
            lits.append(lit)
        if not lits:
            self._ok = False
            return
        if len(self._trail_lim) != 0:
            raise SatError("clauses may only be added at decision level 0")
        # Drop literals already false at level 0; satisfied clauses are skipped.
        pruned: list[int] = []
        for lit in lits:
            val = self._lit_value(lit)
            if val == _TRUE and self._level[abs(lit)] == 0:
                return
            if val == _FALSE and self._level[abs(lit)] == 0:
                continue
            pruned.append(lit)
        if not pruned:
            self._ok = False
            return
        if len(pruned) == 1:
            if not self._enqueue(pruned[0], None):
                self._ok = False
            elif self._propagate() is not None:
                self._ok = False
            return
        clause = _Clause(pruned, learned=False)
        self._clauses.append(clause)
        self._attach(clause)

    def _attach(self, clause: _Clause) -> None:
        self._watches[self._code(clause.lits[0])].append(clause)
        self._watches[self._code(clause.lits[1])].append(clause)

    # ------------------------------------------------------------- assignment

    def _lit_value(self, lit: int) -> int:
        val = self._assign[abs(lit)]
        if val == _UNASSIGNED:
            return _UNASSIGNED
        return val if lit > 0 else -val

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> bool:
        val = self._lit_value(lit)
        if val == _FALSE:
            return False
        if val == _TRUE:
            return True
        var = abs(lit)
        self._assign[var] = _TRUE if lit > 0 else _FALSE
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        if self._phase_saving:
            self._phase[var] = lit > 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation; returns a conflicting clause or ``None``."""
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            self.stats.propagations += 1
            false_code = self._code(-lit)
            watchers = self._watches[false_code]
            new_watchers: list[_Clause] = []
            i = 0
            n = len(watchers)
            conflict: Optional[_Clause] = None
            while i < n:
                clause = watchers[i]
                i += 1
                lits = clause.lits
                # Ensure the falsified literal is at position 1.
                if lits[0] == -lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self._lit_value(first) == _TRUE:
                    new_watchers.append(clause)
                    continue
                # Look for a new literal to watch.
                found = False
                for k in range(2, len(lits)):
                    if self._lit_value(lits[k]) != _FALSE:
                        lits[1], lits[k] = lits[k], lits[1]
                        self._watches[self._code(lits[1])].append(clause)
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting.
                new_watchers.append(clause)
                if not self._enqueue(first, clause):
                    conflict = clause
                    # copy the remaining watchers back untouched
                    new_watchers.extend(watchers[i:])
                    break
            self._watches[false_code] = new_watchers
            if conflict is not None:
                return conflict
        return None

    # --------------------------------------------------------------- analysis

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
        heapq.heappush(self._order_heap, (-self._activity[var], var))

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for c in self._learned:
                c.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _lit_redundant(
        self,
        q: int,
        in_learned: set[int],
        levels: set[int],
        removable: set[int],
        failed: set[int],
    ) -> bool:
        """MiniSat's ``litRedundant``: iterative DFS over the implication graph.

        A learned-clause literal ``q`` is redundant when every literal of its
        reason clause is assigned at level 0, already in the learned clause,
        or itself (recursively) redundant.  ``removable``/``failed`` memoise
        verdicts across the literals of one learned clause; the ``levels``
        filter prunes branches that can never resolve into the clause (a
        decision level absent from the clause cannot be cancelled).
        """
        var0 = abs(q)
        if var0 in removable:
            return True
        if var0 in failed:
            return False
        reason0 = self._reason[var0]
        if reason0 is None:
            return False
        # Explicit DFS stack of (var, reason clause, next literal index).
        stack: list[tuple[int, _Clause, int]] = [(var0, reason0, 0)]
        while stack:
            var, reason, idx = stack.pop()
            descended = False
            lits = reason.lits
            while idx < len(lits):
                r = lits[idx]
                idx += 1
                rv = abs(r)
                if (
                    rv == var
                    or self._level[rv] == 0
                    or rv in in_learned
                    or rv in removable
                ):
                    continue
                r_reason = self._reason[rv]
                if r_reason is None or self._level[rv] not in levels or rv in failed:
                    # The whole path from var0 down to here depends on a
                    # non-redundant literal.
                    failed.add(var)
                    for v, _, _ in stack:
                        failed.add(v)
                    return False
                stack.append((var, reason, idx))
                stack.append((rv, r_reason, 0))
                descended = True
                break
            if not descended:
                removable.add(var)
        return True

    def _analyze(self, conflict: _Clause) -> tuple[list[int], int, int]:
        """First-UIP conflict analysis.

        Returns the learned clause (with the asserting literal first), the
        backjump level, and the clause's LBD (distinct decision levels).
        """
        learned: list[int] = [0]
        seen = [False] * (self._num_vars + 1)
        counter = 0
        lit = 0
        index = len(self._trail) - 1
        clause: Optional[_Clause] = conflict
        current_level = len(self._trail_lim)

        while True:
            assert clause is not None
            if clause.learned:
                self._bump_clause(clause)
            start = 0 if lit == 0 else 1
            for q in clause.lits[start:]:
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self._level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            # pick next literal to resolve on
            while not seen[abs(self._trail[index])]:
                index -= 1
            lit = self._trail[index]
            index -= 1
            var = abs(lit)
            seen[var] = False
            counter -= 1
            clause = self._reason[var]
            if counter == 0:
                break
        learned[0] = -lit

        # Recursive conflict-clause minimisation: self-subsuming resolution
        # over the whole implication graph (not just one reason level), so a
        # literal is also dropped when its reason resolves into the clause
        # through a chain of intermediate implications.
        if self._minimize and len(learned) > 1:
            in_learned = {abs(q) for q in learned}
            levels = {self._level[abs(q)] for q in learned[1:]}
            removable: set[int] = set()
            not_removable: set[int] = set()
            minimized = [learned[0]]
            for q in learned[1:]:
                if not self._lit_redundant(
                    q, in_learned, levels, removable, not_removable
                ):
                    minimized.append(q)
            self.stats.minimized_literals += len(learned) - len(minimized)
            learned = minimized

        lbd = len({self._level[abs(q)] for q in learned if self._level[abs(q)] > 0})
        lbd = max(lbd, 1)
        if len(learned) == 1:
            backjump = 0
        else:
            # find the second-highest decision level in the clause
            max_i = 1
            for i in range(2, len(learned)):
                if self._level[abs(learned[i])] > self._level[abs(learned[max_i])]:
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            backjump = self._level[abs(learned[1])]
        return learned, backjump, lbd

    def _analyze_final(self, failed: int) -> list[int]:
        """Failed-assumption core for assumption ``failed`` found falsified.

        MiniSat's ``analyzeFinal``: walk the trail backwards from the
        assignment of ``-failed``, expanding reason clauses; every
        reason-less assignment reached above level 0 is an assumption
        decision, and together with ``failed`` those assumptions already
        force the conflict.  Only called from the assumption re-assert loop,
        where every open decision level is an assumption level (a backjump
        that unassigned any assumption also unassigned every ordinary
        decision made after it), so the reason-less set never contains an
        ordinary decision.
        """
        core = [failed]
        var0 = abs(failed)
        if self._level[var0] == 0 or not self._trail_lim:
            # ``-failed`` is implied by the clause set alone: the conflict
            # needs no other assumption.
            return core
        seen = [False] * (self._num_vars + 1)
        seen[var0] = True
        for index in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
            lit = self._trail[index]
            var = abs(lit)
            if not seen[var]:
                continue
            seen[var] = False
            reason = self._reason[var]
            if reason is None:
                # An assumption decision; the trail literal is the
                # assumption exactly as the caller passed it.
                core.append(lit)
            else:
                for q in reason.lits:
                    if abs(q) != var and self._level[abs(q)] > 0:
                        seen[abs(q)] = True
        return core

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        phase_saving = self._phase_saving
        for lit in reversed(self._trail[limit:]):
            var = abs(lit)
            if phase_saving:
                self._phase[var] = self._assign[var] == _TRUE
            self._assign[var] = _UNASSIGNED
            self._reason[var] = None
            heapq.heappush(self._order_heap, (-self._activity[var], var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # --------------------------------------------------------------- decision

    def _decide(self) -> int:
        """Pick the unassigned decision variable with the highest activity.

        Returns 0 when every decision variable is assigned: ``add_clause``
        pushes a variable when it becomes one and ``_backtrack`` re-pushes
        everything it unassigns, so the heap holds every unassigned one.
        """
        while self._order_heap:
            _, var = heapq.heappop(self._order_heap)
            if self._assign[var] == _UNASSIGNED and self._decision[var]:
                return var
        return 0

    def _reduce_db(self) -> None:
        """Remove roughly half the learned clauses, best-LBD-first retention.

        The trigger threshold starts at 2000 clauses and grows geometrically
        on every reduction, so long incremental runs (PDR's thousands of
        consecution queries on one instance) keep more of what they learn
        instead of thrashing a fixed-size cache.

        With ``lbd_tiers`` (the default), retention is tiered by clause LBD
        rather than pure activity: *core* clauses (LBD <= 2) are never
        deleted, the *mid* tier (LBD <= 6) is only dropped once every
        *local* clause (LBD > 6) is gone, and within a tier the least
        active clauses go first.
        """
        if len(self._learned) < self._learned_limit:
            return
        self._learned_limit += self._learned_limit >> 1
        target = len(self._learned) // 2
        if self._lbd_tiers:
            candidates = [c for c in self._learned if c.lbd > _LBD_CORE]
            # Locals (lbd > _LBD_MID) sort before mids; least active first
            # within a tier.
            candidates.sort(key=lambda c: (c.lbd <= _LBD_MID, c.activity))
            drop = set(id(c) for c in candidates[:target])
        else:
            self._learned.sort(key=lambda c: c.activity)
            drop = set(id(c) for c in self._learned[:target])
        # Never drop clauses that are the reason of a current assignment.
        locked = set(id(c) for c in self._reason if c is not None)
        drop -= locked
        for code in range(2, 2 * self._num_vars + 2):
            self._watches[code] = [
                c for c in self._watches[code] if id(c) not in drop
            ]
        self._learned = [c for c in self._learned if id(c) not in drop]

    # ------------------------------------------------------------------ solve

    def solve(
        self,
        assumptions: Iterable[int] = (),
        conflict_budget: Optional[int] = None,
        need_model: bool = True,
    ) -> SatResult:
        """Decide satisfiability under optional assumptions.

        ``conflict_budget`` bounds the number of conflicts *of this call*
        (earlier calls on the same instance do not erode it); when exhausted
        the result has ``satisfiable=None``.  ``need_model=False`` skips
        building the model dict on SAT answers (for verdict-only callers).

        UNSAT answers carry a failed-assumption ``core`` (see
        :class:`SatResult`).  A root-level contradiction latches the solver
        unsatisfiable; an UNSAT caused only by the assumptions does not, so
        persistent contexts keep reusing the instance.
        """
        assumptions = [int(a) for a in assumptions]
        for a in assumptions:
            if a == 0:
                raise SatError("literal 0 is not allowed as an assumption")
            self._ensure_var(abs(a))
        if not self._ok:
            return SatResult(False, stats=self.stats.copy(), core=[])
        self._backtrack(0)
        self._best_trail = 0  # target phases track the deepest trail per call
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return SatResult(False, stats=self.stats.copy(), core=[])
        if self._sanitize:
            check_reference_invariants(self)

        restart_count = 0
        conflicts_until_restart = self._restart_interval * _luby(restart_count + 1)
        conflicts_seen = 0
        conflicts_spent = 0  # conflicts of this call only (budget accounting)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_seen += 1
                conflicts_spent += 1
                if len(self._trail_lim) == 0:
                    # A conflict with no open decision level contradicts the
                    # clause set alone: latch the instance root-UNSAT.
                    self._ok = False
                    return SatResult(False, stats=self.stats.copy(), core=[])
                if self._phase_saving and len(self._trail) > self._best_trail:
                    # Deepest trail of this call so far: snapshot the phases
                    # as the target assignment restored on restart.
                    self._best_trail = len(self._trail)
                    self._target_phase = self._phase.copy()
                learned, backjump, lbd = self._analyze(conflict)
                if self._sanitize:
                    check_reference_learned(self, learned)
                self._backtrack(backjump)
                if len(learned) == 1:
                    self._enqueue(learned[0], None)
                else:
                    clause = _Clause(list(learned), learned=True, lbd=lbd)
                    self._learned.append(clause)
                    self.stats.learned_clauses += 1
                    self.stats.lbd_sum += lbd
                    self._attach(clause)
                    self._enqueue(learned[0], clause)
                self._var_inc /= self._var_decay
                self._cla_inc /= self._cla_decay
                if conflict_budget is not None and conflicts_spent >= conflict_budget:
                    self._backtrack(0)
                    return SatResult(None, stats=self.stats.copy())
                if conflicts_seen >= conflicts_until_restart:
                    # restart, keeping assumptions on re-descent
                    restart_count += 1
                    self.stats.restarts += 1
                    conflicts_seen = 0
                    conflicts_until_restart = self._restart_interval * _luby(
                        restart_count + 1
                    )
                    self._backtrack(0)
                    if self._phase_saving and self._target_phase is not None:
                        # Target-phase reset: re-approach the deepest partial
                        # assignment seen instead of a drifted phase mix.
                        n = min(len(self._phase), len(self._target_phase))
                        self._phase[:n] = self._target_phase[:n]
                    if self._sanitize:
                        check_reference_trail(self)
                        learned_before = len(self._learned)
                        self._reduce_db()
                        if len(self._learned) < learned_before:
                            check_reference_watches(self)
                    else:
                        self._reduce_db()
                continue

            # No conflict: re-assert any assumption not yet satisfied.
            next_lit = 0
            for a in assumptions:
                val = self._lit_value(a)
                if val == _FALSE:
                    # UNSAT under assumptions only: compute the failed core
                    # and leave the instance healthy for later queries.
                    core = self._analyze_final(a)
                    self._backtrack(0)
                    if self._sanitize:
                        check_reference_invariants(self)
                    return SatResult(False, stats=self.stats.copy(), core=core)
                if val == _UNASSIGNED:
                    next_lit = a
                    break
            if next_lit == 0:
                var = self._decide()
                if var == 0:
                    if self._sanitize:
                        check_reference_model(self)
                        check_reference_watches(self)
                        check_reference_reasons(self)
                    model: dict[int, bool] = {}
                    if need_model:
                        # Clause-free variables left unassigned read False.
                        model = {
                            v: self._assign[v] == _TRUE
                            for v in range(1, self._num_vars + 1)
                        }
                    result = SatResult(True, model=model, stats=self.stats.copy())
                    self._backtrack(0)
                    return result
                self.stats.decisions += 1
                phase = self._phase[var]
                if phase != self._default_phase:
                    self.stats.saved_phase_hits += 1
                next_lit = var if phase else -var
            self._trail_lim.append(len(self._trail))
            self.stats.max_decision_level = max(
                self.stats.max_decision_level, len(self._trail_lim)
            )
            self._enqueue(next_lit, None)


def solve_cnf(cnf: CNF, assumptions: Iterable[int] = ()) -> SatResult:
    """Convenience one-shot solve of a :class:`CNF` formula."""
    return SatSolver(cnf).solve(assumptions=assumptions)
