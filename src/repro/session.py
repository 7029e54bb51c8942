"""A user-facing deductive-database session.

:class:`DeductiveDatabase` ties the whole library together the way an
application would use it: load a program (rules and facts), ask
queries, and let the classification decide how each recursive
predicate is evaluated.

Programs may define *several* IDB predicates — non-recursive views and
linear recursion systems — as long as distinct predicates are not
mutually recursive (the paper's single-recursion setting).  The
predicates below a queried one are derived bottom-up in dependency
order, each once per version of its rules and of what it reads, and
kept on the fact store as derived relations; the *queried* predicate
is evaluated with the compiled engine so query constants are pushed
into the recursion whenever its class allows.

>>> ddb = DeductiveDatabase()
>>> program = ddb.load('''
...     anc(x, y) :- parent(x, z), anc(z, y).
...     anc(x, y) :- parent(x, y).
...     parent(ann, bea).
...     parent(bea, cal).
... ''')
>>> len(program.rules), len(program.facts)
(2, 2)
>>> sorted(ddb.query("anc(ann, Y)"))
[('ann', 'bea'), ('ann', 'cal')]
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from time import perf_counter
from typing import Iterable, Mapping

from .core.advisor import capability_table
from .core.classifier import Classification, classify
from .core.compile import (CompiledFormula, SystemCompilation,
                           compile_query, compile_system)
from .datalog.errors import EvaluationError, RuleValidationError
from .datalog.parser import parse_program, parse_rule
from .datalog.program import Program, RecursionSystem
from .datalog.rules import RecursiveRule, Rule
from .datalog.terms import Constant
from .engine import ENGINES
from .engine.compiled import CompiledEngine
from .engine.query import Query
from .engine.seminaive import derive
from .engine.stats import EvaluationStats, delta_between, open_stats
from .engine.trace import Tracer
from .logutil import new_query_id
from .ra.answers import AnswerSet
from .ra.database import Database


def _as_query(query: Query | str) -> Query:
    """*query*, parsed when it is text."""
    return Query.parse(query) if isinstance(query, str) else query


class _RuleSet:
    """One version of a session's rules and what they alone decide,
    per derived predicate: its rules, then, each on first read, its
    recursion system (None for a view), the order of the predicates
    below it, its classification and system compilation, and each
    query form's compiled formula.  A derivation that raises stores
    nothing."""

    def __init__(self, rules: tuple[Rule, ...]) -> None:
        self.program = Program(rules)
        self.rules = {predicate: self.program.rules_for(predicate)
                      for predicate in self.program.idb_predicates}
        self.systems: dict[str, RecursionSystem | None] = {}
        self.below: dict[str, tuple[str, ...]] = {}
        self.classifications: dict[str, Classification] = {}
        self.compilations: dict[str, SystemCompilation] = {}
        self.formulas: dict[tuple, CompiledFormula] = {}


class DeductiveDatabase:
    """A mutable session over rules and facts with compiled queries."""

    #: answer-cache capacity (least recently used entries go first);
    #: stale entries from old database versions age out through it
    _ANSWER_CACHE_LIMIT = 1024

    def __init__(self, metrics=None, query_log=None) -> None:
        self._rules: list[Rule] = []
        self._edb = Database()
        #: None until the first read after a rule change (_rules_now)
        self._rule_set: _RuleSet | None = None
        #: full answer sets keyed by (predicate, pattern, engine,
        #: database epoch) — any fact mutation moves the
        #: epoch, so entries self-invalidate; rule changes clear it.
        #: The cached object is the *lazy* columnar
        #: :class:`~repro.ra.answers.AnswerSet` — codes plus the
        #: shared symbol table, not materialised value tuples — so a
        #: cached large enumeration costs one row set, not two, and a
        #: hit decodes only if the caller reads the values (the decode,
        #: once forced, is cached on the entry: this cache doubles as
        #: the LRU of decoded columns, keyed by database epoch).
        #: Concurrent readers of a fork share it, so every access
        #: holds :attr:`_answer_lock`.
        self._answer_cache: OrderedDict[
            tuple, tuple[AnswerSet, str, str]] = OrderedDict()
        self._answer_lock = threading.Lock()
        #: the arity of every predicate the rules use; every write is
        #: checked against it and the store before anything is written
        self._arities: dict[str, int] = {}
        #: optional :class:`~repro.metrics.MetricsRegistry`; when None
        #: (the default) :meth:`query` emits nothing — bit-identical
        #: answers and stats, no added work
        self.metrics = metrics
        #: optional :class:`~repro.logutil.QueryLogger` — one JSON
        #: line per query when installed
        self.query_log = query_log

    # -- loading -------------------------------------------------------

    def load(self, text: str) -> Program:
        """Parse a program fragment and write its rules and facts as
        one :meth:`write_batch`, all of it or nothing; the parsed
        :class:`Program` (its ``?-`` goals too) is returned."""
        program = parse_program(text)
        rows: dict[str, list[tuple]] = {}
        for fact in program.facts:
            rows.setdefault(fact.predicate, []).append(
                tuple(term.value for term in fact.args))
        self.write_batch(add=rows, rules=program.rules)
        return program

    def add_rule(self, rule: Rule | str) -> None:
        """Add one rule (text or object); invalidates materialisation.

        Raises :class:`~repro.datalog.errors.RuleValidationError` for
        a rule that is not range restricted (a head variable missing
        from the body has no value to take bottom-up), that uses a
        predicate with another arity than the rules and facts already
        give it, or that derives a predicate holding stored facts.
        """
        rule = self._checked_rule(rule)
        self._arities = self._rule_arities([rule])
        self._rules.append(rule)
        # Intern the rule's constants up front: afterwards, "constant
        # not in the symbol table" means "constant appears in no fact
        # and no rule", which is what licenses the unseen-constant
        # short-circuit (range restriction: every answer value comes
        # from a fact or a rule constant).  It also keeps the symbol
        # table from growing mid-evaluation, so each probe table is
        # built exactly once per fixpoint.
        for atom in (rule.head, *rule.body):
            for term in atom.args:
                if isinstance(term, Constant):
                    self._edb.encode_const(term.value)
        self._invalidate(rules_changed=True)

    @staticmethod
    def _checked_rule(rule: Rule | str) -> Rule:
        """*rule* parsed, once it is known to be range restricted."""
        if isinstance(rule, str):
            rule = parse_rule(rule)
        if not rule.is_range_restricted():
            raise RuleValidationError(
                f"rule is not range restricted (a head variable does "
                f"not occur in the body): {rule}")
        return rule

    def _rule_arities(self, rules: Iterable[Rule] = (),
                      relations: Mapping[str, int] | None = None
                      ) -> dict[str, int]:
        """The rules' arities once *rules* join them, checked against
        each other, the fact store and *relations* (name → row width
        of facts about to be stored) before anything is written.

        Raises :class:`~repro.datalog.errors.RuleValidationError` at
        the first predicate that would be used with two arities (the
        engines would misread an atom of any other width), and then at
        the first that would be both stored and derived: a stored
        relation, even one whose facts were all removed, shadows the
        derived relation of the same name.
        """
        arities = dict(self._arities)
        relations = relations or {}
        for predicate, width in relations.items():
            self._check_relation(predicate, width)
        for rule in rules:
            for atom in (rule.head, *rule.body):
                known = arities.get(atom.predicate)
                if known is None:
                    known = relations.get(atom.predicate,
                                          self._edb.arity(atom.predicate))
                if known is not None and known != atom.arity:
                    raise RuleValidationError(
                        f"{atom.predicate!r} has arity {known}, but "
                        f"{rule} uses it with {atom.arity} argument(s)")
                arities[atom.predicate] = atom.arity
        stored = self._edb.relation_names  # never a derived relation
        for rule in rules:
            predicate = rule.head.predicate
            if predicate in relations or predicate in stored:
                raise RuleValidationError(
                    f"{predicate!r} holds stored facts (or held them), so "
                    f"no rule may derive it: {rule}")
        return arities

    def _check_relation(self, predicate: str, width: int) -> None:
        """Raise unless facts *width* wide fit the rules' use of
        *predicate*, which no rule derives (the store checks them
        against its own rows)."""
        known = self._arities.get(predicate)
        if known is not None and known != width:
            raise RuleValidationError(
                f"{predicate!r} has arity {known} in the rules, but a "
                f"fact for it has {width} argument(s)")
        if any(rule.head.predicate == predicate for rule in self._rules):
            raise RuleValidationError(
                f"{predicate!r} is derived by a rule, so no fact may be "
                f"stored for it")

    def write_batch(self, *,
                    add: Mapping[str, Iterable[tuple]] | None = None,
                    remove: Mapping[str, Iterable[tuple]] | None = None,
                    rules: Iterable[Rule | str] | None = None) -> None:
        """Remove facts, add facts, add rules: all of it or nothing.

        Every rule is parsed and checked, every added row's arity is
        checked against its relation and the rules, old and new, and
        no predicate may end up both stored and derived, before the
        first write, so a batch that raises leaves the session as it
        was.
        """
        removals = {predicate: [tuple(row) for row in rows]
                    for predicate, rows in (remove or {}).items()}
        additions = {predicate: [tuple(row) for row in rows]
                     for predicate, rows in (add or {}).items()}
        checked = [self._checked_rule(rule) for rule in rules or ()]
        for predicate, rows in additions.items():
            self._edb.check_arity(predicate, rows)
        self._rule_arities(checked, {predicate: len(rows[0])
                                     for predicate, rows in additions.items()
                                     if rows})
        for predicate, rows in removals.items():
            self.remove_facts(predicate, rows)
        for predicate, rows in additions.items():
            self.add_facts(predicate, rows)
        for rule in checked:
            self.add_rule(rule)

    def add_fact(self, predicate: str, *values: object) -> None:
        """Add one ground fact."""
        self._check_relation(predicate, len(values))
        self._edb.add(predicate, tuple(values))
        self._invalidate(rules_changed=False)

    def add_facts(self, predicate: str,
                  rows: Iterable[tuple]) -> None:
        """Add many ground facts for one predicate."""
        # the store checks every row against the first, and that
        # against its stored rows
        rows = list(rows)
        if rows:
            self._check_relation(predicate, len(rows[0]))
        self._edb.bulk(predicate, rows)
        self._invalidate(rules_changed=False)

    def remove_fact(self, predicate: str, *values: object) -> bool:
        """Delete one ground fact; True when it was present."""
        removed = self._edb.remove(predicate, tuple(values))
        self._invalidate(rules_changed=False)
        return removed

    def remove_facts(self, predicate: str,
                     rows: Iterable[tuple]) -> int:
        """Delete many ground facts; number actually removed."""
        removed = self._edb.bulk_remove(predicate, rows)
        self._invalidate(rules_changed=False)
        return removed

    def _invalidate(self, rules_changed: bool) -> None:
        if rules_changed:
            # dropped, not cleared: a fork shares it (:meth:`fork_reader`)
            # and keeps its rules' entries
            self._rule_set = None
            # fact changes are covered by the epoch in the cache key;
            # rule changes alter derivations at the same epoch
            with self._answer_lock:
                self._answer_cache.clear()

    # -- snapshot forking ------------------------------------------------

    def fork_reader(self) -> "DeductiveDatabase":
        """An immutable snapshot of this session for concurrent reads.

        The fork is what the epoch manager publishes after each write
        batch: its database is an independent :meth:`Database.copy`
        (row sets copied, symbol table and version-tagged join caches
        shared) marked **read-only**, so a reader that would mutate
        shared state raises instead of corrupting other requests.
        The rules and the answer cache are carried over by value, so
        the fork answers exactly what the base would have answered at
        this instant — later mutations of the base are invisible to
        it.  What the rules decide (:class:`_RuleSet`) is *shared*
        with the base and every fork taken since its last rule change:
        one classification and one compile per query form serve every
        epoch of a fact-only write stream, and a rule change drops the
        base's, leaving the forks theirs.

        Concurrency contract of a fork: any number of threads may call
        :meth:`query` on it simultaneously.  Every fixpoint keeps its
        derived rows in private sets, so per-request evaluation state
        is private; what *is* shared between the fork's readers — the
        rule set's derivations (with the base and its other forks,
        too), and the read-only database's lazily built join tables
        and derived relations (those built before the fork are shared
        with the base, those built after are the fork's own) — is
        filled with deterministic, interchangeable values under single
        dict-slot assignments (atomic under the GIL), so a race costs
        at most a duplicated computation, never a wrong answer.  The
        answer cache, whose LRU bookkeeping is not a single
        assignment, is lock-guarded.
        """
        clone = object.__new__(DeductiveDatabase)
        clone._rules = list(self._rules)
        clone._edb = self._edb.copy()
        clone._edb.read_only = True
        clone._rule_set = self._rules_now()
        clone._arities = self._arities
        with self._answer_lock:
            clone._answer_cache = OrderedDict(self._answer_cache)
        clone._answer_lock = threading.Lock()
        clone.metrics = self.metrics
        clone.query_log = self.query_log
        return clone

    # -- structure -------------------------------------------------------

    def _rules_now(self) -> _RuleSet:
        """What the current rules decide (built on first read)."""
        rule_set = self._rule_set
        if rule_set is None:
            rule_set = self._rule_set = _RuleSet(tuple(self._rules))
        return rule_set

    @property
    def program(self) -> Program:
        """The current rule set as a :class:`Program` (facts excluded —
        they live in the fact store)."""
        return self._rules_now().program

    @property
    def idb_predicates(self) -> frozenset[str]:
        """Predicates defined by rules."""
        return frozenset(self._rules_now().rules)

    def rules_for(self, predicate: str) -> tuple[Rule, ...]:
        """The rules defining *predicate*."""
        return self._rules_now().rules.get(predicate, ())

    def system_for(self, predicate: str) -> RecursionSystem | None:
        """The recursion system of *predicate*, or None for a
        non-recursive view."""
        rule_set = self._rules_now()
        if predicate not in rule_set.systems:
            rules = rule_set.rules.get(predicate, ())
            recursive = [r for r in rules if r.is_recursive()]
            exits = tuple(r for r in rules if not r.is_recursive())
            if len(recursive) > 1:
                raise RuleValidationError(
                    f"{predicate!r} has {len(recursive)} recursive rules; "
                    f"the paper's setting is single recursion")
            if recursive and not exits:
                raise RuleValidationError(
                    f"recursive predicate {predicate!r} has no exit rule")
            rule_set.systems[predicate] = (RecursionSystem(
                RecursiveRule(recursive[0]), exits) if recursive else None)
        return rule_set.systems[predicate]

    def classification(self, predicate: str) -> Classification:
        """Classification of a recursive predicate (cached)."""
        classifications = self._rules_now().classifications
        cached = classifications.get(predicate)
        if cached is None:
            system = self.system_for(predicate)
            if system is None:
                raise EvaluationError(
                    f"{predicate!r} is not a recursive predicate")
            cached = classifications[predicate] = classify(system)
        return cached

    # -- derived relations ---------------------------------------------

    def _derive_below(self, target: str, stats: EvaluationStats) -> Database:
        """The session's EDB, once every IDB predicate strictly below
        *target* is derived on it, bottom-up (a mutual recursion or a
        broken predicate raises only when *target* reads it)."""
        rule_set = self._rules_now()
        order = rule_set.below.get(target)
        if order is None:
            graph = rule_set.program.dependency_graph()
            closure, stack = {target}, [target]
            while stack:
                reached = graph[stack.pop()] - closure
                closure |= reached
                stack.extend(reached)
            reads = Program(sum((rule_set.rules[p] for p in closure), ()))
            order = rule_set.below[target] = tuple(
                predicate for predicate in reads.evaluation_order()
                if predicate != target)
        for predicate in order:
            self._derive(predicate, stats)
        return self._edb

    def _derive(self, predicate: str, stats: EvaluationStats) -> tuple:
        """The storage-space rows of the IDB *predicate*, whose inputs
        are derived already: a derived relation of the session's EDB
        (:func:`~repro.engine.seminaive.derive`), keyed by the rules
        that define it and built once per version of what it reads,
        under the query's clock, counted in its ``hash_builds``
        alone."""
        rules = self.rules_for(predicate)
        system = self.system_for(predicate)
        exits, recursive = ((rules, None) if system is None
                            else (system.exits, system.recursive))
        return derive(self._edb, predicate, exits, recursive, stats,
                      key=rules)[0]

    def materialise(self) -> Database:
        """A copy of the fact store with every IDB predicate stored
        beside the facts, each derived through the session's cache."""
        stats = EvaluationStats()
        db = self._edb.copy()
        for predicate in self.program.evaluation_order():
            rows = self._derive(predicate, stats)
            db.declare(predicate, self.rules_for(predicate)[0].head.arity)
            # storage-space rows: bulk_encoded keeps them out of the
            # encoder (a value-space ``bulk`` would re-encode int codes)
            db.bulk_encoded(predicate, rows)
        return db

    # -- querying --------------------------------------------------------

    def query(self, query: Query | str,
              stats: EvaluationStats | None = None,
              engine: str = "compiled",
              trace: Tracer | None = None,
              query_id: str | None = None) -> AnswerSet:
        """Answer a query, choosing the evaluation by classification.

        EDB predicates are looked up directly; non-recursive views are
        derived and looked up; recursive predicates go through the chosen
        *engine* (default: the compiled engine, with a cached plan so
        the constants are pushed into the recursion).  Passing a
        :class:`~repro.engine.trace.Tracer` as *trace* records the
        execution; the finished :class:`~repro.engine.trace.Trace` is
        available as ``trace.trace`` afterwards.

        Every call, answered or failed (query text that does not parse
        included), leaves the query's labels on *stats* (when given):
        ``engine`` — the engine that answered, ``edb``/``view`` for a
        relation lookup, the one asked for when the query failed —
        ``formula_class`` — ``A1``…``F``, ``view``, ``edb``, or
        ``unknown`` before the predicate resolved — and
        the ``strategy`` and ``backend`` that ran.  Every signal reads
        them there.  With a metrics registry and/or query log
        installed, the close also records latency, answer count and
        work counters (the snapshot delta of the stats, so registry
        totals reconcile with per-query stats exactly) and emits one
        structured log line; with neither, it emits nothing.

        *query_id* names the query in the log line and the metrics
        exemplar; ``repro serve`` passes the request-scoped id so the
        response envelope, log, trace and metrics all correlate.  When
        ``None`` a fresh id is minted per instrumented call.
        """
        stats = open_stats(stats, engine)
        stats.formula_class = "unknown"
        if self.metrics is None and self.query_log is None:
            return self._evaluate_query(_as_query(query), stats, engine,
                                        trace)
        before = stats.to_dict()
        started = perf_counter()
        try:
            query = _as_query(query)
            answers = self._evaluate_query(query, stats, engine, trace)
        except Exception as error:  # *query* is text if it did not parse
            self._emit(query, stats, before, perf_counter() - started,
                       query_id, error=error)
            raise
        self._emit(query, stats, before, perf_counter() - started,
                   query_id, answers=answers)
        return answers

    def _evaluate_query(self, query: Query, stats: EvaluationStats,
                        engine: str, trace: Tracer | None) -> AnswerSet:
        """Answer-cache wrapper around the evaluation proper.

        Successful answer sets are memoised on (query pattern, engine,
        database epoch) in a lock-guarded LRU of
        :attr:`_ANSWER_CACHE_LIMIT` entries, with the engine and class
        labels of the run: re-asking an unchanged session the same
        question is a dict lookup.  A hit ran no strategy and no
        backend.  *Active* traced runs bypass
        the cache — the caller asked to watch the evaluation happen —
        and error paths never populate it.  A **passive** tracer
        (serve-mode sampling) keeps the cache enabled: a hit records a
        one-span trace with ``cache_hit=true`` instead of silently
        disabling capture, so sampled requests stay answer- and
        stats-identical to unsampled ones.
        """
        if trace is not None and not trace.passive:
            return self._evaluate_query_uncached(query, stats, engine,
                                                 trace)
        key = (query.predicate, query.pattern, engine,
               self._edb.global_version())
        with self._answer_lock:
            hit = self._answer_cache.get(key)
            if hit is not None:
                self._answer_cache.move_to_end(key)
        if hit is not None:
            answers, stats.engine, stats.formula_class = hit
            stats.answer_cache_hits += 1
            stats.answers = len(answers)
            if trace is not None:
                trace.begin(stats.engine, predicate=query.predicate,
                            query=query, cache_hit=True)
                trace.begin_round("cache", 0, stats)
                trace.end_round(len(answers), stats)
                trace.finish(len(answers), stats)
            return answers
        answers = self._evaluate_query_uncached(query, stats, engine,
                                                trace)
        if stats.truncated:
            # a row-budget abort returned a sound but *partial* set;
            # caching it would serve incomplete answers to later
            # callers with laxer (or no) budgets
            return answers
        with self._answer_lock:
            self._answer_cache[key] = (answers, stats.engine,
                                       stats.formula_class)
            self._answer_cache.move_to_end(key)
            while len(self._answer_cache) > self._ANSWER_CACHE_LIMIT:
                self._answer_cache.popitem(last=False)
        return answers

    def _evaluate_query_uncached(self, query: Query,
                                 stats: EvaluationStats,
                                 engine: str, trace: Tracer | None
                                 ) -> AnswerSet:
        """The evaluation itself: it labels *stats* with the class of
        the predicate as soon as that resolves."""
        if engine not in ENGINES:
            raise EvaluationError(
                f"unknown engine {engine!r}; valid engines: "
                f"{', '.join(sorted(ENGINES))}")
        predicate = query.predicate
        stats.formula_class, arity = self._resolve(predicate)
        self._check_query_arity(query, arity)
        if stats.formula_class == "edb":
            return self._lookup("edb", self._edb.rows_encoded(predicate),
                                query, stats, trace)
        if stats.formula_class == "view":
            self._derive_below(predicate, stats)
            return self._lookup("view", self._derive(predicate, stats),
                                query, stats, trace)

        if trace is None or trace.passive:
            # A query constant the symbol table has never seen occurs
            # in no fact and no rule (rule constants are interned at
            # add_rule time), so by range restriction it can appear in
            # no answer: skip materialisation and the fixpoint
            # entirely.  Actively traced runs take the full path — the
            # caller asked to watch the evaluation; a passive tracer
            # (serve-mode sampling) keeps the shortcut and records it.
            lookup = self._edb.symbols.lookup
            if any(value is not None and lookup(value) is None
                   for value in query.pattern):
                stats.answers = 0
                if trace is not None:
                    trace.begin(engine, predicate=predicate,
                                query=query, unseen_constant=True)
                    trace.finish(0, stats)
                return AnswerSet(frozenset(), self._edb.symbols)

        base = self._derive_below(predicate, stats)
        if engine != "compiled":
            return ENGINES[engine]().evaluate(
                self.system_for(predicate), base, query, stats,
                trace=trace)
        compiled = self._compiled(query)
        return CompiledEngine().evaluate(
            compiled.system, base, query, stats, compiled=compiled,
            trace=trace)

    def _resolve(self, predicate: str) -> tuple[str, int]:
        """The label (``edb``, ``view`` or the formula class) and the
        arity of *predicate*; :class:`EvaluationError` when neither a
        rule nor a fact defines it."""
        rules = self.rules_for(predicate)
        if not rules:
            arity = self._edb.arity(predicate)
            if arity is None:
                raise EvaluationError(
                    f"unknown predicate {predicate!r}: no rule defines "
                    f"it and no facts were loaded for it")
            return "edb", arity
        label = ("view" if self.system_for(predicate) is None
                 else str(self.classification(predicate).formula_class))
        return label, rules[0].head.arity

    def _compiled(self, query: Query) -> CompiledFormula:
        """The compiled formula of *query*'s recursive predicate for
        its query form, compiled on the form's first query."""
        formulas = self._rules_now().formulas
        key = (query.predicate, query.adornment)
        compiled = formulas.get(key)
        if compiled is None:
            shared = self._system_compilation(query.predicate)
            compiled = formulas[key] = compile_query(
                shared.system, query.adornment, shared)
        return compiled

    def _system_compilation(self, predicate: str) -> SystemCompilation:
        """What every query form of *predicate* shares (compiled once)."""
        compilations = self._rules_now().compilations
        shared = compilations.get(predicate)
        if shared is None:
            shared = compilations[predicate] = compile_system(
                self.system_for(predicate), self.classification(predicate))
        return shared

    def _lookup(self, label: str, rows, query: Query,
                stats: EvaluationStats, trace: Tracer | None
                ) -> AnswerSet:
        """The storage-space *rows* of a stored relation or a view that
        match *query*, answered as engine *label* (``edb`` or
        ``view``).

        The filter runs over encoded rows (the query's constants are
        *looked up*, never interned — an unseen constant matches
        nothing) and the result is a lazy
        :class:`~repro.ra.answers.AnswerSet`.
        """
        if trace is not None:
            trace.begin(label, predicate=query.predicate, query=query)
        pattern = self._edb._lookup_pattern(query.pattern)
        rows = (frozenset() if pattern is None else
                Query(query.predicate, pattern).filter(rows))
        answers = AnswerSet(rows, self._edb.symbols)
        stats.engine = label
        stats.answers = len(answers)
        if trace is not None:
            trace.finish(len(answers), stats)
        return answers

    # -- telemetry -------------------------------------------------------

    def _emit(self, query: Query | str, stats: EvaluationStats,
              before: dict, duration_s: float, query_id: str | None, *,
              answers: AnswerSet | None = None,
              error: Exception | None = None) -> None:
        """Feed one closed query to the registry and the log, labelled
        from *stats*: the snapshot *delta* since *before*, so a stats
        object reused across queries is never double counted.  A
        *query* that is still text did not parse: it logs as sent,
        with no predicate."""
        # looked up per call: benchmarks/e2e/spans.py wraps them
        from .metrics.instrument import observe_query, observe_query_error

        if query_id is None:
            query_id = new_query_id()
        labels = {"engine": stats.engine,
                  "formula_class": stats.formula_class}
        if error is not None:
            from .service import failure_outcome
            # A deadline expiry (and likewise a cooperative
            # cancellation) is its own outcome in
            # ``repro_queries_total`` (the admission layer budgets on
            # it), distinct from genuine evaluation errors; the log
            # line carries the same label.
            outcome, _ = failure_outcome(error)
            if self.metrics is not None:
                observe_query_error(self.metrics, **labels,
                                    error=type(error).__name__,
                                    outcome=outcome)
            detail = {"error": f"{type(error).__name__}: {error}"}
        else:
            outcome = stats.outcome
            delta = delta_between(before, stats.to_dict())
            if self.metrics is not None:
                # Answers that leave the query boundary still encoded:
                # the decode counter (repro_answers_decoded_total)
                # ticks only where materialisation is later forced, so
                # the gap between the two is the decode work laziness
                # saved.
                lazy = not answers.is_decoded
                observe_query(self.metrics, **labels,
                              duration_s=duration_s,
                              answers=len(answers), stats_delta=delta,
                              lazy_answers=len(answers) if lazy else 0,
                              outcome=outcome, query_id=query_id)
            detail = {"rounds": delta["rounds"], "answers": len(answers)}
        if self.query_log is not None:
            self.query_log.log(
                event="query", query_id=query_id, query=str(query),
                predicate=(query.predicate if isinstance(query, Query)
                           else None), **labels,
                strategy=stats.strategy, backend=stats.backend,
                duration_s=round(duration_s, 6), outcome=outcome,
                **detail)

    def collect_gauges(self) -> None:
        """Refresh the database/plan-cache gauges on the installed
        registry (a no-op without one).  Scrape-time only: the server
        calls this before rendering ``/metrics`` and ``/stats``."""
        if self.metrics is None:
            return
        from .metrics.instrument import export_database_gauges
        export_database_gauges(self.metrics, self._edb)

    @staticmethod
    def _check_query_arity(query: Query, arity: int) -> None:
        if query.arity != arity:
            raise EvaluationError(
                f"{query.predicate!r} has arity {arity}, but the "
                f"query {query} has {query.arity} argument(s)")

    def prove(self, query: Query | str,
              limit: int | None = None) -> list:
        """Derivation trees for the answers of a recursive query.

        Returns :class:`~repro.engine.provenance.Derivation` objects,
        sorted by answer, at most *limit* of them.  The predicate is
        resolved as in :meth:`explain`: an unknown one or a wrong arity
        raises :meth:`query`'s :class:`EvaluationError`, and a stored
        relation or a view is not a recursive predicate.
        """
        from .engine.provenance import _tuple_depths, explain_answer
        query = _as_query(query)
        label, arity = self._resolve(query.predicate)
        self._check_query_arity(query, arity)
        if label in ("edb", "view"):
            raise EvaluationError(
                f"{query.predicate!r} is not a recursive predicate")
        system = self.system_for(query.predicate)
        base = self._derive_below(query.predicate, EvaluationStats())
        answers = self.query(query).sorted_rows()
        if limit is not None:
            answers = answers[:limit]
        depths = _tuple_depths(system, base)
        return [explain_answer(system, base, answer, depths)
                for answer in answers]

    def explain(self, query: Query | str) -> str:
        """The compiled formula and strategy for a query, as text: the
        one :meth:`query` runs.  An unknown predicate or a
        wrong arity raises :meth:`query`'s :class:`EvaluationError`."""
        query = _as_query(query)
        label, arity = self._resolve(query.predicate)
        self._check_query_arity(query, arity)
        return (self._not_recursive(query.predicate, label)
                or self._compiled(query).describe())

    def advise(self, predicate: str) -> str:
        """The pushdown capability matrix of a recursive predicate
        (:func:`~repro.core.advisor.capability_table`), as text.  A
        stored relation or a view says what it is, as in
        :meth:`explain`; an unknown predicate raises :meth:`query`'s
        :class:`EvaluationError`."""
        label, _ = self._resolve(predicate)
        return (self._not_recursive(predicate, label) or capability_table(
            self.system_for(predicate), self._system_compilation(predicate)))

    @staticmethod
    def _not_recursive(predicate: str, label: str) -> str | None:
        """How a stored relation or a view is answered; None for a
        recursive predicate (resolved as *label*)."""
        if label == "edb":
            return f"{predicate} is a stored relation; answered by lookup"
        if label == "view":
            return (f"{predicate} is not recursive; evaluated by "
                    f"materialisation")
        return None

    def explain_analyze(self, query: Query | str,
                        engine: str = "compiled") -> str:
        """EXPLAIN ANALYZE: run the query traced, render what happened.

        For the compiled engine the output leads with the compiled
        formula (what :meth:`explain` shows) followed by the observed
        per-round cardinalities, join fan-outs, hash-table reuse and
        timings; other engines render the trace alone.  The underlying
        :class:`~repro.engine.trace.Trace` is available through
        :meth:`query` with ``trace=``.
        """
        query = _as_query(query)
        tracer = Tracer()
        self.query(query, engine=engine, trace=tracer)
        assert tracer.trace is not None
        header = ""
        if engine == "compiled" and self.system_for(query.predicate):
            header = self.explain(query) + "\n\n"
        return header + tracer.trace.render()

    def __repr__(self) -> str:
        return (f"DeductiveDatabase({len(self._rules)} rules, "
                f"{self._edb.total_facts()} facts)")
