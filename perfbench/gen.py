"""Seeded input generators for the three workloads.

Everything here is deterministic: a run's inputs derive from its integer
seed, and they are only source text and criteria, which is all the
program under test ever sees:

* :func:`corpus_program` is a fixed population of generated TinyC
  programs, each with its own size knobs (the cold_corpus programs,
  and the store_reopen repository);
* :data:`MUTATORS` are the five one-procedure edit kinds (rename local,
  add dead statement, change constant, duplicate call, remove call),
  written against the AST so every edit is syntactic and checkable;
* :class:`EditDealer` deals edits of a starting text, and
  :func:`edit_population` is a fixed population of such edits of the
  wc subject (the edit_stream edits);
* :class:`CommitWalk` is the store_reopen history: a fixed repository
  of corpus programs, and a fixed population of commits, each editing
  one procedure of one of them, in an order the seed deals.

Mixes that must not differ between seeds (edit kinds, edited
procedures, which program a commit edits) are dealt from a
:class:`Deck` rather than drawn independently.  The seed deals only the
order in which each workload meets its fixed population of programs,
edits or commits.

:class:`Digest` hashes the inputs and the rendered answers of the first
:data:`DIGEST_OPS` ops, which every run issues, so two runs (or two
commits) on one seed can be compared for identical inputs and
byte-identical outputs.
"""

import copy
import hashlib
import random

from repro.lang import ast_nodes as A
from repro.lang import parse, pretty
from repro.workloads.generator import GenConfig, generate_program

#: ops covered by the input and answer digests; every run issues at
#: least this many (see ``run.MIN_OPS``)
DIGEST_OPS = 100


class Digest(object):
    """sha256 over the first :data:`DIGEST_OPS` ops' items."""

    def __init__(self):
        self.ops = 0
        self._hash = hashlib.sha256()

    def add(self, text):
        if self.ops < DIGEST_OPS:
            self._hash.update(text.encode("utf-8"))
            self._hash.update(b"\0")

    def end_op(self):
        self.ops += 1

    def hexdigest(self):
        return self._hash.hexdigest()[:16]


# -- the corpus ----------------------------------------------------------------


#: procedure counts of the corpus programs, cycled through by index
PROC_COUNTS = tuple(range(3, 10))

#: the corpus is a fixed population of this many programs (fifteen of
#: each size); a run's seed deals their order, and each program's
#: feature seeds are its own.  A cold_corpus round is one pass over the
#: whole population, so two seeds see the same programs: drawing fresh
#: programs per seed made their runs disagree by a quarter on
#: ``queries_per_s``.
CORPUS_SIZE = 15 * len(PROC_COUNTS)


def corpus_config(rng, n_procs):
    """One program's knobs: ``n_procs`` procedures, 4-10 globals,
    recursion probability 0.05-0.2, 2-5 prints in ``main``.  The fixed
    knobs keep procedures small and modular (two globals each, at most
    five statements, no nested control flow, a shallow call graph), as
    the Fig. 17 stand-ins in :mod:`repro.workloads.suite` do.  Without
    them a few draws are combinatorially polyvariant: one program can
    take longer than a whole run."""
    return GenConfig(
        seed=rng.randrange(1 << 30),
        n_procs=n_procs,
        n_globals=rng.randint(4, 10),
        recursion_prob=rng.uniform(0.05, 0.2),
        main_prints=rng.randint(2, 5),
        globals_per_proc=2,
        print_prob=0.0,
        stmts_high=5,
        max_depth=1,
        call_depth=3,
    )


_corpus = {}


def corpus_program(index):
    """The source text of corpus program ``index`` (generated once)."""
    if index not in _corpus:
        rng = random.Random("corpus-%d" % index)
        config = corpus_config(rng, PROC_COUNTS[index % len(PROC_COUNTS)])
        program, _info = generate_program(config)
        _corpus[index] = pretty(program)
    return _corpus[index]


class Deck(object):
    """Draws without replacement from a shuffled deck of ``cards``,
    reshuffling when it runs out: every stretch of ``len(cards)`` draws
    holds each card exactly once, so two seeds see the same mix."""

    def __init__(self, rng, cards):
        self.rng = rng
        self.cards = list(cards)
        self.left = []

    def draw(self, usable=lambda card: True):
        """The next card that is ``usable``; unusable ones stay for
        later draws.  Reshuffles when no remaining card is usable, and
        returns None when no card is."""
        for _attempt in range(2):
            if not self.left:
                self.left = list(self.cards)
                self.rng.shuffle(self.left)
            for index, card in enumerate(self.left):
                if usable(card):
                    return self.left.pop(index)
            self.left = []
        return None


# -- the edit mutators -----------------------------------------------------------
#
# Each takes a freshly parsed (unchecked) AST, the procedure to edit and
# an rng, edits that procedure in place and returns True, or returns
# False, leaving the AST untouched, when the edit does not apply there.
# The caller renders the AST back to text.


def _idents(program):
    names = set(decl.name for decl in program.globals)
    for proc in program.procs:
        names.add(proc.name)
        names.update(param.name for param in proc.params)
        for stmt in A.walk_stmts(proc.body):
            if isinstance(stmt, (A.Assign, A.LocalDecl)):
                names.add(stmt.name)
            for expr in A.stmt_exprs(stmt):
                names.update(A.expr_vars(expr))
    return names


def _fresh_name(program, base):
    names = _idents(program)
    candidate, index = base, 0
    while candidate in names:
        index += 1
        candidate = "%s%d" % (base, index)
    return candidate


def _call_positions(block):
    """``(block, index)`` of every call statement under ``block``."""
    positions = []
    stack = [block]
    while stack:
        current = stack.pop()
        for index, stmt in enumerate(current.stmts):
            if isinstance(stmt, A.CallStmt):
                positions.append((current, index))
            elif isinstance(stmt, A.If):
                stack.append(stmt.then)
                if stmt.els is not None:
                    stack.append(stmt.els)
            elif isinstance(stmt, A.While):
                stack.append(stmt.body)
    return positions


def rename_local(program, proc, rng):
    decls = [
        stmt
        for stmt in A.walk_stmts(proc.body)
        if isinstance(stmt, A.LocalDecl) and not stmt.is_fnptr
    ]
    if not decls:
        return False
    old = rng.choice(decls).name
    new = _fresh_name(program, old.split("_r")[0] + "_r")
    for stmt in A.walk_stmts(proc.body):
        if isinstance(stmt, (A.Assign, A.LocalDecl)) and stmt.name == old:
            stmt.name = new
        for expr in A.stmt_exprs(stmt):
            for sub in A.walk_exprs(expr):
                if isinstance(sub, A.Var) and sub.name == old:
                    sub.name = new
    return True


def add_dead_statement(program, proc, rng):
    proc.body.stmts.insert(0, A.LocalDecl(_fresh_name(program, "dead"), A.Num(7), False))
    return True


def _constants(expr):
    """The constants of ``expr`` outside call arguments."""
    if isinstance(expr, A.Num):
        return [expr]
    if isinstance(expr, A.Bin):
        return _constants(expr.left) + _constants(expr.right)
    if isinstance(expr, A.Un):
        return _constants(expr.operand)
    return []


def change_constant(program, proc, rng):
    """Nudge one constant by one.  Constants that drive termination are
    left alone -- loop conditions, updates of loop variables, and call
    arguments (recursion counters) -- so an edit never makes the program
    run into the oracle's step limit on every input."""
    loop_vars = set()
    for stmt in A.walk_stmts(proc.body):
        if isinstance(stmt, A.While):
            loop_vars |= A.expr_vars(stmt.cond)
    numbers = [
        num
        for stmt in A.walk_stmts(proc.body)
        if not isinstance(stmt, A.While)
        and not (isinstance(stmt, A.Assign) and stmt.name in loop_vars)
        for expr in A.stmt_exprs(stmt)
        for num in _constants(expr)
    ]
    if not numbers:
        return False
    rng.choice(numbers).value += rng.choice((-1, 1))
    return True


def duplicate_call(program, proc, rng):
    """Duplicate one call statement; recursive self-calls are left alone
    (doubling one makes the recursion exponential)."""
    calls = [
        (block, index)
        for block, index in _call_positions(proc.body)
        if block.stmts[index].call.callee != proc.name
    ]
    if not calls:
        return False
    block, index = rng.choice(calls)
    block.stmts.insert(index + 1, copy.deepcopy(block.stmts[index]))
    return True


def remove_call(program, proc, rng):
    """Remove one call statement whose callee keeps another call site,
    so no procedure is orphaned."""
    sites = {}
    for other in program.procs:
        for block, index in _call_positions(other.body):
            callee = block.stmts[index].call.callee
            sites[callee] = sites.get(callee, 0) + 1
    calls = [
        (block, index)
        for block, index in _call_positions(proc.body)
        if sites[block.stmts[index].call.callee] > 1
    ]
    if not calls:
        return False
    block, index = rng.choice(calls)
    del block.stmts[index]
    return True


#: (name, mutator, cards per deck).  Rename and constant changes are
#: label-only (the PDS keeps its shape: the engine's fast path); the
#: other three are structural (PDGs change shape and saturations rerun).
#: The mix is a design choice, not a measurement of real editing: it is
#: the smallest deck holding every kind once in which label-only edits
#: are a clear majority (7 of 10), so the latency median is a label-only
#: edit, and structural ones a clear tenth and more (3 of 10), so the
#: p90 lies inside them.  Dealing kinds from a deck keeps the mix
#: identical across seeds.  A kind that applies to no procedure of a
#: text (remove call, on a text in which every callee has one call
#: site) gives its card to the next kind in the deck.
MUTATORS = (
    ("change_constant", change_constant, 6),
    ("rename_local", rename_local, 1),
    ("add_dead_statement", add_dead_statement, 1),
    ("duplicate_call", duplicate_call, 1),
    ("remove_call", remove_call, 1),
)


#: the edit kinds that keep every PDG's shape
LABEL_ONLY = frozenset(["change_constant", "rename_local"])


def kind_deck(rng):
    """A :class:`Deck` of edit kinds, :data:`MUTATORS` cards each."""
    return Deck(rng, [name for name, _fn, cards in MUTATORS for _ in range(cards)])


class EditDealer(object):
    """Deals one-procedure edits of a fixed starting text.  The kind is
    dealt from ``kinds`` (a :func:`kind_deck`, which dealers may share)
    and the procedure from a per-kind deck of the procedures, skipping
    those the kind does not apply to."""

    def __init__(self, source, rng, kinds):
        self.source = source
        self.rng = rng
        self.kinds = kinds
        names = [proc.name for proc in parse(source).procs]
        self.procs = {name: Deck(rng, names) for name, _fn, _cards in MUTATORS}

    def edit(self):
        """One edit of the starting text: ``(kind, procedure, edited
        text)``."""
        program = parse(self.source)
        mutators = {name: fn for name, fn, _cards in MUTATORS}
        applied = []

        def usable(kind):
            name = self.procs[kind].draw(
                lambda name: mutators[kind](program, program.proc(name), self.rng)
            )
            applied.append(name)
            return name is not None

        kind = self.kinds.draw(usable)
        return kind, applied[-1], pretty(program)


#: edits in the edit_stream population: five passes through the kind
#: deck
EDIT_POPULATION = 5 * sum(cards for _name, _fn, cards in MUTATORS)

_edits = {}


def edit_population(source):
    """The edit_stream population: :data:`EDIT_POPULATION` one-procedure
    edits of ``source`` itself, ``(kind, procedure, edited text)``, from
    a fixed rng (so the population does not depend on the run's seed,
    only its order does).  Generated once per source."""
    if source not in _edits:
        rng = random.Random("edits")
        dealer = EditDealer(source, rng, kind_deck(rng))
        _edits[source] = [dealer.edit() for _ in range(EDIT_POPULATION)]
    return _edits[source]


def commit_population(sources, n_commits):
    """The store_reopen commits: ``n_commits`` one-procedure edits
    ``(program index, kind, edited text)``, each of one program's
    starting text, from a fixed rng.  The program is dealt from a deck
    of all programs and the kind from one :func:`kind_deck` shared by
    all of them."""
    rng = random.Random("commits")
    kinds = kind_deck(rng)
    dealers = [EditDealer(source, rng, kinds) for source in sources]
    programs = Deck(rng, range(len(sources)))
    commits = []
    for _ in range(n_commits):
        index = programs.draw()
        kind, _proc, edited = dealers[index].edit()
        commits.append((index, kind, edited))
    return commits


class CommitWalk(object):
    """The store_reopen history: a fixed repository, the first
    ``n_programs`` corpus programs, and a fixed population of
    ``n_commits`` commits (:func:`commit_population`) whose order
    ``rng`` deals.  Every commit branches off the starting repository: it
    replaces one program's text with its edit, and the next commit
    restores that program first.  So an edited reopen costs what its own
    edit costs, whatever came before it.  Neither the repository nor
    the population depends on the seed, as the wc subject of edit_stream
    does not: drawing them per seed made two seeds' runs disagree by up
    to 40% on ``queries_per_s``."""

    def __init__(self, rng, n_programs, n_commits):
        self.base = [corpus_program(index) for index in range(n_programs)]
        self.sources = list(self.base)
        self.commits = commit_population(self.base, n_commits)
        self.order = Deck(rng, range(n_commits))
        self.edited = None

    def next_commit(self):
        """Restore the previous commit's program and apply the next
        commit; returns its index in the population."""
        if self.edited is not None:
            self.sources[self.edited] = self.base[self.edited]
        commit = self.order.draw()
        index, _kind, edited = self.commits[commit]
        self.sources[index] = edited
        self.edited = index
        return commit
