"""Incrementality-safe CNF preprocessing between the blaster and the backend.

The :class:`Preprocessor` sits in :meth:`repro.solve.context.SolverContext._sync`
and filters every batch of freshly bit-blasted clauses before the SAT
backend sees them.  Three classic techniques are applied, each restricted to
forms that stay sound when more clauses arrive later (the whole point of
the persistent incremental context):

* **unit propagation** — root-level units are remembered forever; satisfied
  clauses are dropped and false literals stripped.  Discovered units are
  *also* emitted to the backend, so later assumptions conflicting with a
  propagated value still return UNSAT.
* **subsumption** — a new clause already implied by an emitted (or earlier
  pending) clause is dropped.  Only the forward direction is useful here:
  clauses already handed to an incremental backend cannot be retracted.
* **bounded variable elimination** — in the style of NiVER/SatELite, a
  variable is resolved away when *all* of its occurrences are still in the
  pending batch (so nothing already sent to the backend mentions it), it is
  not frozen, and the resolvent set is no larger than the clauses it
  replaces.  The original clauses are stored; if a later batch or a later
  assumption references an eliminated variable, the stored clauses are
  re-emitted (*un-elimination*), which keeps the trick sound under
  arbitrary future extension because ``originals ⊨ resolvents``.

**Frozen variables** (activation literals of push/pop scopes, the bits of
named bit-vector variables, assumption literals) are never eliminated, so
model extraction and scope retirement keep working unchanged.
:class:`~repro.solve.context.SolverContext` reads only named-variable bits
and so uses backend models as they are; :meth:`Preprocessor.extend_model`
(the standard reverse-order clause-fixing pass) completes a model through
the eliminated variables for callers that need every CNF variable.

**Round-incremental flush.**  A flush runs up to ``max_rounds`` rounds of
propagation, subsumption and elimination, then one more propagation.  Its
output is defined by plain whole-batch rounds: propagation rescans the
batch until a pass finds no unit, every clause is scanned for a subsumer,
every variable is tried for elimination.  The implementation returns that
output byte for byte: the same clauses in the same order and the same
:class:`PreprocessStats` after every call.  It gets there by touching only
what changed since the previous round or pass.  Clauses sit in stable
slots (:class:`_Pending`).  Propagation visits only clauses holding a
variable assigned since their last visit.  Subsumption re-checks only
clauses whose verdict can have changed.  Elimination skips variables it
rejected earlier in the flush while their clauses stay the same, decides
rejections on bitmasks, and skips a pass outright when every variable
left to try is rejected.

What fixes the order of resolvents, and with it the order of emitted
clauses: each elimination pass numbers the live clauses ``0..n-1``, keeps
per-literal *sets* of those ids, and gives the k-th resolvent of the
preprocessor's lifetime the id ``n + k``.  The pass tries a variable's
clause pairs in the iteration order of its two sets.  CPython's iteration
order of a set depends on the set's whole history of adds and discards, so
every pass builds and updates those sets with exactly the operations of
the whole-batch algorithm.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


@dataclass
class PreprocessStats:
    """Work counters accumulated over the preprocessor's lifetime."""

    clauses_in: int = 0
    clauses_emitted: int = 0
    units_found: int = 0
    satisfied_dropped: int = 0
    literals_stripped: int = 0
    subsumed: int = 0
    vars_eliminated: int = 0
    vars_restored: int = 0
    resolvents_added: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class Preprocessor:
    """Streaming clause filter with persistent state across batches."""

    def __init__(
        self,
        subsumption_len_limit: int = 16,
        subsumption_scan_limit: int = 2000,
        elim_occurrence_limit: int = 10,
        elim_resolvent_len_limit: int = 16,
        max_rounds: int = 3,
    ):
        self.subsumption_len_limit = subsumption_len_limit
        self.subsumption_scan_limit = subsumption_scan_limit
        self.elim_occurrence_limit = elim_occurrence_limit
        self.elim_resolvent_len_limit = elim_resolvent_len_limit
        self.max_rounds = max_rounds
        #: var -> root-level value
        self._value: dict[int, bool] = {}
        self._frozen: set[int] = set()
        # Emitted-clause database, indexed by clause id (for subsumption and
        # the "nothing emitted mentions this var" elimination precondition).
        self._db: list[tuple[int, ...]] = []
        self._db_occur: dict[int, list[int]] = {}
        self._db_sig: list[int] = []
        #: first literal -> ids of the emitted clauses it leads
        self._db_lead: dict[int, list[int]] = {}
        self._emitted_vars: set[int] = set()
        #: var -> its original clauses, in elimination order (dict order)
        self._eliminated: dict[int, list[tuple[int, ...]]] = {}
        self.unsat = False
        self.stats = PreprocessStats()

    # -------------------------------------------------------------- freezing

    def freeze(self, var: int) -> None:
        self._frozen.add(abs(var))

    def freeze_all(self, vars: Iterable[int]) -> None:
        for var in vars:
            self._frozen.add(abs(var))

    def is_frozen(self, var: int) -> bool:
        return abs(var) in self._frozen

    def is_eliminated(self, var: int) -> bool:
        return abs(var) in self._eliminated

    # ------------------------------------------------------------- main entry

    def flush(self, batch: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
        """Preprocess ``batch`` and return the clauses to hand to the backend.

        Tautologies (clauses holding both ``x`` and ``-x``) are dropped on
        intake: they hold under every assignment.
        """
        clauses: list[tuple[int, ...]] = []
        count = 0
        for clause in batch:
            clause = tuple(clause)
            count += 1
            for lit in clause:
                if -lit in clause:
                    break
            else:
                clauses.append(clause)
        self.stats.clauses_in += count
        clauses.extend(self._restore_referenced(clauses))
        pending = _Pending(self, clauses)
        for _ in range(self.max_rounds):
            if not pending.propagate():
                self.unsat = True
                return []
            pending.subsume()
            if not pending.eliminate():
                break
        # Eliminations in the final round may have produced unit resolvents.
        if not pending.propagate():
            self.unsat = True
            return []
        kept = [clause for clause in pending.slots if clause is not None]
        self._db_extend(kept)
        out: list[tuple[int, ...]] = [(lit,) for lit in pending.units]
        out.extend(kept)
        self.stats.clauses_emitted += len(out)
        return out

    def require_vars(self, vars: Iterable[int]) -> list[tuple[int, ...]]:
        """Freeze ``vars`` and re-emit stored clauses of any eliminated ones.

        Called with assumption variables before a query: an assumption on an
        eliminated variable would otherwise be unconstrained.
        """
        restored: list[tuple[int, ...]] = []
        for var in vars:
            var = abs(var)
            self._frozen.add(var)
            if var in self._eliminated:
                restored.extend(self._restore_var(var))
        if not restored:
            return []
        return self.flush(restored)

    # -------------------------------------------------------------- the model

    def extend_model(self, model: dict[int, bool]) -> dict[int, bool]:
        """Complete a backend model through the eliminated variables.

        Standard SatELite reconstruction: walk the eliminated variables in
        reverse elimination order and flip each one to ``True`` exactly when
        some stored clause would otherwise be falsified.  Clauses stored at
        elimination time never mention variables eliminated earlier, so the
        reverse walk always has every other literal's value at hand.
        """
        if not self._eliminated:
            return model
        extended = dict(model)

        def lit_true(lit: int) -> bool:
            return extended.get(abs(lit), False) == (lit > 0)

        for var in reversed(self._eliminated):
            extended[var] = False
            for clause in self._eliminated[var]:
                if not any(lit_true(lit) for lit in clause):
                    # Elimination guarantees a fixing value exists, and with
                    # every other literal false it can only be ``var`` itself.
                    extended[var] = True
                    break
        return extended

    # ---------------------------------------------------------- un-elimination

    def _restore_var(self, var: int) -> list[tuple[int, ...]]:
        clauses = self._eliminated.pop(var)
        self.stats.vars_restored += 1
        return clauses

    def _restore_referenced(
        self, pending: list[tuple[int, ...]]
    ) -> list[tuple[int, ...]]:
        """Stored clauses of eliminated vars referenced by ``pending`` (transitive)."""
        restored: list[tuple[int, ...]] = []
        eliminated = self._eliminated
        if not eliminated:
            return restored
        work = list(pending)
        while work:
            clause = work.pop()
            for lit in clause:
                if abs(lit) in eliminated:
                    back = self._restore_var(abs(lit))
                    restored.extend(back)
                    work.extend(back)
        return restored

    # ------------------------------------------------------------ emitted db

    def _db_extend(self, clauses: list[tuple[int, ...]]) -> None:
        db_occur, db_lead, emitted = self._db_occur, self._db_lead, self._emitted_vars
        for cid, clause in enumerate(clauses, len(self._db)):
            sig = 0
            for lit in clause:
                sig |= 1 << (lit & 63)
                entries = db_occur.get(lit)
                if entries is None:
                    db_occur[lit] = [cid]
                else:
                    entries.append(cid)
            emitted.update(map(abs, clause))
            self._db_sig.append(sig)
            entries = db_lead.get(clause[0])
            if entries is None:
                db_lead[clause[0]] = [cid]
            else:
                entries.append(cid)
        self._db.extend(clauses)


class _Pending:
    """The clauses of one :meth:`Preprocessor.flush`, in stable slots.

    ``slots[s]`` is the clause in slot ``s``, or ``None`` once propagation,
    subsumption or elimination dropped it; batch order is slot order and
    resolvents take new slots at the end.  ``occur`` maps each literal to
    the ascending slots whose clause held it when the slot was filled.
    Entries of dropped slots stay and readers skip them.  Entries for a
    literal that propagation stripped stay too: lists are read only for
    unassigned variables, and once for a variable right as it is
    assigned, before any clause is stripped of it.
    """

    def __init__(self, pre: Preprocessor, clauses: list[tuple[int, ...]]):
        """Take over ``clauses``, the batch followed by restored clauses."""
        self.pre = pre
        self.slots: list[Optional[tuple[int, ...]]] = clauses
        #: signature of each slot's clause as of its last subsumption check
        self.sigs: list[int] = [0] * len(clauses)
        self.occur: dict[int, list[int]] = {}
        #: first literal -> slots whose clause it leads (re-filed on strip)
        self.lead: dict[int, list[int]] = {}
        self._index(0, clauses)
        #: units found so far, in discovery order
        self.units: list[int] = []
        #: first slot that no propagation pass has visited yet
        self.fresh = 0
        #: slots whose subsumption verdict may differ from their last check
        self.unchecked: set[int] = set(range(len(clauses)))
        #: slots whose clause propagation shortened since the last check
        self.stripped: list[int] = []
        #: vars whose elimination was rejected while their clauses stayed
        #: exactly as they are now
        self.rejected: set[int] = set()
        #: vars that left ``rejected`` or had no clause when their turn came
        #: since the last elimination pass started: the only ones a later
        #: pass may find worth trying
        self.retry: set[int] = set()
        #: whether a full elimination pass has run in this flush
        self.tried_all = False

    def _index(self, first: int, clauses: list[tuple[int, ...]]) -> None:
        """File ``clauses``, which fill the slots from ``first`` on."""
        occur, lead = self.occur, self.lead
        for slot, clause in enumerate(clauses, first):
            for lit in clause:
                entries = occur.get(lit)
                if entries is None:
                    occur[lit] = [slot]
                else:
                    entries.append(slot)
            if clause:
                entries = lead.get(clause[0])
                if entries is None:
                    lead[clause[0]] = [slot]
                else:
                    entries.append(slot)

    def _forget(self, clause: tuple[int, ...]) -> None:
        """A clause holding these vars changed: their rejections are stale."""
        rejected = self.rejected
        if rejected:
            for lit in clause:
                if abs(lit) in rejected:
                    rejected.remove(abs(lit))
                    self.retry.add(abs(lit))

    # ------------------------------------------------------- unit propagation

    def propagate(self) -> bool:
        """Simplify against root-level values; ``False`` on a conflict.

        Reproduces the whole-batch loop that rescans every clause until a
        pass finds no unit, visiting only the clauses a rescan could change.
        Every clause left after a pass holds no assigned variable, and
        between rounds nothing assigns one, so pass 1 starts at
        :attr:`fresh`.  A later visit is due only where a unit assigned a
        variable after the clause was last visited: a unit found in slot
        ``j`` queues the clauses of its variable in slots above ``j`` into
        the current pass and those below ``j`` into the next pass.  Visits
        happen in the same order as the rescans' effective ones, so units,
        stripped clauses and counters come out the same.
        """
        slots, occur, value = self.slots, self.occur, self.pre._value
        later: set[int] = set()
        for slot in range(self.fresh, len(slots)):
            clause = slots[slot]
            if clause is None:
                continue
            for lit in clause:
                if abs(lit) in value:
                    break
            else:
                if len(clause) > 1:
                    continue
            var = self._visit(slot, clause)
            if var < 0:
                return False
            if var:
                for lit in (var, -var):
                    for other in occur.get(lit, ()):
                        if other >= slot:
                            break
                        later.add(other)
        self.fresh = len(slots)
        while later:
            heap = sorted(later)
            queued = set(heap)
            later = set()
            while heap:
                slot = heapq.heappop(heap)
                clause = slots[slot]
                if clause is None:
                    continue
                var = self._visit(slot, clause)
                if var < 0:
                    return False
                if var:
                    for lit in (var, -var):
                        for other in occur.get(lit, ()):
                            if other < slot:
                                later.add(other)
                            elif other > slot and other not in queued:
                                queued.add(other)
                                heapq.heappush(heap, other)
        return True

    def _visit(self, slot: int, clause: tuple[int, ...]) -> int:
        """One clause against the current values.

        Returns the variable of a unit it became (now assigned), ``-1`` when
        every literal is false and ``0`` otherwise.
        """
        pre = self.pre
        value, stats = pre._value, pre.stats
        stripped: list[int] = []
        for lit in clause:
            current = value.get(abs(lit))
            if current is None:
                stripped.append(lit)
            elif current == (lit > 0):
                stats.satisfied_dropped += 1
                self.slots[slot] = None
                self._forget(clause)
                return 0
        stats.literals_stripped += len(clause) - len(stripped)
        if not stripped:
            return -1
        if len(stripped) == 1:
            lit = stripped[0]
            value[abs(lit)] = lit > 0
            self.units.append(lit)
            stats.units_found += 1
            self.slots[slot] = None
            self._forget(clause)
            return abs(lit)
        if len(stripped) < len(clause):
            self.slots[slot] = tuple(stripped)
            self.stripped.append(slot)
            if stripped[0] != clause[0]:
                self.lead.setdefault(stripped[0], []).append(slot)
            self._forget(clause)
        return 0

    # ------------------------------------------------------------- subsumption

    def subsume(self) -> None:
        """Drop clauses implied by an emitted or an earlier pending clause.

        The emitted database does not change during a flush, so a clause
        whose last check completed within the scan limit keeps its verdict
        unless it was stripped since, or an earlier clause ``D`` was
        stripped to a subset of it; such a clause holds every literal of
        ``D`` and so sits in the occurrence list of ``D``'s rarest one.
        Everything else (resolvents, scans that hit the limit) is checked.
        """
        pre = self.pre
        slots, occur = self.slots, self.occur
        check = self.unchecked
        for slot in self.stripped:
            clause = slots[slot]
            if clause is None:
                continue
            check.add(slot)
            for other in min((occur[lit] for lit in clause), key=len):
                if other > slot and slots[other] is not None:
                    check.add(other)
        self.stripped = []
        self.unchecked = set()
        sigs, db_occur = self.sigs, pre._db_occur
        len_limit = pre.subsumption_len_limit
        scan_limit = pre.subsumption_scan_limit
        for slot in sorted(check):
            clause = slots[slot]
            if clause is None:
                continue
            sig = 0
            # Entries a scan of the clause's occurrence lists could visit.
            bound = 0
            for lit in clause:
                sig |= 1 << (lit & 63)
                bound += len(occur[lit]) + len(db_occur.get(lit, ()))
            sigs[slot] = sig
            if len(clause) > len_limit:
                continue
            if bound <= scan_limit:
                subsumed = self._has_subsumer(slot, clause, sig)
            else:
                subsumed = self._scan(slot, clause, sig)
                if subsumed is None:
                    self.unchecked.add(slot)
                    continue
            if subsumed:
                pre.stats.subsumed += 1
                slots[slot] = None
                self._forget(clause)

    def _has_subsumer(self, slot: int, clause: tuple[int, ...], sig: int) -> bool:
        """Whether an emitted or earlier live clause subsumes ``clause``.

        For a clause whose occurrence lists are too short for a scan to
        give up.  A subsumer's first literal is one of ``clause``'s, so only
        the clauses those literals lead are tried.  The clause's frozenset
        is built only once a signature test passes.
        """
        pre = self.pre
        db, db_sig, db_lead = pre._db, pre._db_sig, pre._db_lead
        slots, sigs, lead = self.slots, self.sigs, self.lead
        inv_sig = ~sig
        cset: Optional[frozenset[int]] = None
        for lit in clause:
            for cid in db_lead.get(lit, ()):
                if db_sig[cid] & inv_sig:
                    continue
                other = db[cid]
                if cset is None:
                    cset = frozenset(clause)
                if len(other) <= len(cset) and cset.issuperset(other):
                    return True
            for index in lead.get(lit, ()):
                if index >= slot or sigs[index] & inv_sig:
                    continue
                other = slots[index]
                if other is None or other[0] != lit:
                    continue
                if cset is None:
                    cset = frozenset(clause)
                if len(other) <= len(cset) and cset.issuperset(other):
                    return True
        return False

    def _scan(
        self, slot: int, clause: tuple[int, ...], sig: int
    ) -> Optional[bool]:
        """:meth:`_has_subsumer` for a clause whose lists may hit the limit.

        Walks the occurrence lists of the clause's literals in order,
        emitted clauses first, and gives up (``None``) after
        ``subsumption_scan_limit`` live entries.
        """
        pre = self.pre
        db, db_sig, db_occur = pre._db, pre._db_sig, pre._db_occur
        slots, sigs, occur = self.slots, self.sigs, self.occur
        scan_limit = pre.subsumption_scan_limit
        scanned = 0
        inv_sig = ~sig
        cset: Optional[frozenset[int]] = None
        for lit in clause:
            for cid in db_occur.get(lit, ()):
                scanned += 1
                if scanned > scan_limit:
                    return None
                if db_sig[cid] & inv_sig:
                    continue
                other = db[cid]
                if cset is None:
                    cset = frozenset(clause)
                if len(other) <= len(cset) and cset.issuperset(other):
                    return True
            for index in occur[lit]:
                if index >= slot:
                    break
                other = slots[index]
                if other is None:
                    continue
                scanned += 1
                if scanned > scan_limit:
                    return None
                if sigs[index] & inv_sig:
                    continue
                if cset is None:
                    cset = frozenset(clause)
                if len(other) <= len(cset) and cset.issuperset(other):
                    return True
        return False

    # ------------------------------------------------- bounded var elimination

    def _all_rejected(self) -> bool:
        """Try the vars of :attr:`retry` alone; ``True`` if all are rejected.

        Only those vars can be tried by a pass after the first.  Whether a
        var is rejected depends on its clauses alone, and while every try
        is a rejection no clause changes, so in that case a full pass would
        change nothing but :attr:`rejected`, which this updates the same
        way.  Once some var is found feasible a full pass is due.
        """
        pre = self.pre
        frozen, value, emitted = pre._frozen, pre._value, pre._emitted_vars
        eliminated, rejected = pre._eliminated, self.rejected
        occurrence_limit = pre.elim_occurrence_limit
        for var in self.retry:
            if (
                var in rejected
                or var in frozen
                or var in value
                or var in emitted
                or var in eliminated
            ):
                continue
            pos, neg = self._live_clauses(var), self._live_clauses(-var)
            if not pos and not neg:
                continue  # no clause holds it: not a candidate
            if (
                len(pos) <= occurrence_limit
                and len(neg) <= occurrence_limit
                and _resolvents(pos, neg, var, pre.elim_resolvent_len_limit)
                is not None
            ):
                return False
            rejected.add(var)
        self.retry = set()
        return True

    def _live_clauses(self, lit: int) -> list[tuple[int, ...]]:
        slots = self.slots
        return [
            slots[slot]
            for slot in dict.fromkeys(self.occur.get(lit, ()))
            if slots[slot] is not None
        ]

    def eliminate(self) -> bool:
        """One bounded-variable-elimination pass; ``True`` if a var went.

        The pass numbers the live clauses ``0..n-1`` and builds its
        occurrence sets and candidate order from them exactly as a
        whole-batch pass would: the sets' iteration order fixes the order
        of resolvents, and resolvent ids follow
        ``n + resolvents_added + 1``.  A variable rejected earlier in this
        flush is skipped while none of its clauses changed (frozen and
        emitted sets are fixed within a flush and values only grow), and a
        rejection is decided on bitmasks before any resolvent is built.
        """
        pre = self.pre
        stats = pre.stats
        slots = self.slots
        frozen, value, emitted = pre._frozen, pre._value, pre._emitted_vars
        rejected = self.rejected
        occurrence_limit = pre.elim_occurrence_limit
        len_limit = pre.elim_resolvent_len_limit
        if self.tried_all and self._all_rejected():
            return False
        self.tried_all = True
        self.retry = set()
        live = [slot for slot, clause in enumerate(slots) if clause is not None]
        size = len(live)
        clauses: dict[int, tuple[int, ...]] = {
            pid: slots[slot] for pid, slot in enumerate(live)
        }
        occur: dict[int, set[int]] = {}
        # Literals of frozen or emitted vars share one set: it is never
        # iterated (those vars are never tried) and only its size is read,
        # as a sort key no tried var's order depends on.
        shared: set[int] = set()
        for pid, clause in clauses.items():
            for lit in clause:
                entries = occur.get(lit)
                if entries is None:
                    entries = occur[lit] = (
                        shared if abs(lit) in frozen or abs(lit) in emitted else set()
                    )
                entries.add(pid)
        candidates = sorted(
            {abs(lit) for clause in clauses.values() for lit in clause},
            key=lambda v: len(occur.get(v, ())) + len(occur.get(-v, ())),
        )
        added: list[int] = []
        retry = self.retry
        eliminated_any = False
        for var in candidates:
            if var in frozen or var in value or var in emitted or var in rejected:
                continue
            pos_ids = occur.get(var, ())
            neg_ids = occur.get(-var, ())
            if not pos_ids and not neg_ids:
                retry.add(var)
                continue
            if len(pos_ids) > occurrence_limit or len(neg_ids) > occurrence_limit:
                rejected.add(var)
                continue
            pos = list(map(clauses.__getitem__, pos_ids))
            neg = list(map(clauses.__getitem__, neg_ids))
            resolvents = _resolvents(pos, neg, var, len_limit)
            if resolvents is None:
                rejected.add(var)
                continue
            # Accept: drop the var's clauses, keep their resolvents pending.
            originals = pos + neg
            for pid in [*pos_ids, *neg_ids]:
                for lit in clauses.pop(pid):
                    occur[lit].discard(pid)
                    if abs(lit) in rejected:
                        rejected.remove(abs(lit))
                        retry.add(abs(lit))
                if pid < size:
                    slots[live[pid]] = None
            for resolvent in resolvents:
                # Ids only grow, past every live one: no collision to skip.
                pid = size + stats.resolvents_added + 1
                clauses[pid] = resolvent
                for lit in resolvent:
                    entries = occur.get(lit)
                    if entries is None:
                        entries = occur[lit] = set()
                    entries.add(pid)
                    if abs(lit) in rejected:
                        rejected.remove(abs(lit))
                        retry.add(abs(lit))
                stats.resolvents_added += 1
                added.append(pid)
            pre._eliminated[var] = originals
            stats.vars_eliminated += 1
            eliminated_any = True
        first = len(slots)
        new = [clauses[pid] for pid in added if pid in clauses]
        slots.extend(new)
        self.sigs.extend([0] * len(new))
        self.unchecked.update(range(first, len(slots)))
        self._index(first, new)
        return eliminated_any


def _resolvents(
    pos: list[tuple[int, ...]],
    neg: list[tuple[int, ...]],
    var: int,
    len_limit: int,
) -> Optional[list[tuple[int, ...]]]:
    """The non-tautological resolvents on ``var``, or ``None`` past a bound.

    The bounds: every resolvent has at most ``len_limit`` literals and
    there are at most ``len(pos) + len(neg)`` of them.  Neither depends on
    the order the pairs are tried in, so they are decided first on
    bitmasks: each clause becomes its literals without the pivot plus two
    masks over the candidate's local variables (positive and negative
    occurrences).  A pair is tautological when the union's masks meet, and
    otherwise its resolvent length is their popcount.  Tuples are built
    only once the variable is accepted: the positive clause's literals
    without the pivot, then the negative clause's ones not already there,
    each first occurrence only, pairs in ``pos`` x ``neg`` order.
    """
    if not pos or not neg:
        return []
    bit: dict[int, int] = {}
    sides = []
    for clauses, pivot in ((pos, var), (neg, -var)):
        side = []
        for clause in clauses:
            rest: list[int] = []
            pmask = nmask = 0
            for lit in clause:
                if lit == pivot:
                    continue
                flag = bit.get(abs(lit))
                if flag is None:
                    flag = bit[abs(lit)] = 1 << len(bit)
                if lit > 0:
                    if not pmask & flag:
                        pmask |= flag
                        rest.append(lit)
                elif not nmask & flag:
                    nmask |= flag
                    rest.append(lit)
            side.append((pmask, nmask, rest))
        sides.append(side)
    budget = len(pos) + len(neg)
    pairs = []
    for ppos, pneg, prest in sides[0]:
        for npos, nneg, nrest in sides[1]:
            lits_pos = ppos | npos
            lits_neg = pneg | nneg
            if lits_pos & lits_neg:
                continue  # tautology
            if lits_pos.bit_count() + lits_neg.bit_count() > len_limit:
                return None
            pairs.append((prest, nrest))
            if len(pairs) > budget:
                return None
    resolvents = []
    for prest, nrest in pairs:
        seen = set(prest)
        resolvents.append(tuple(prest + [lit for lit in nrest if lit not in seen]))
    return resolvents
