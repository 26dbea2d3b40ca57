"""The three workloads and the closed-loop runner that times them.

One client issues each op only after the previous one returned, as an
editor or a CI job waits for its answer.  Every session runs on the
``csr`` kernel, passed explicitly; backend, batch mode and pool size
stay at their defaults.

* ``cold_corpus`` -- an op is the next program of the generated corpus:
  a fresh storeless session, ``slice_many`` over every print,
  ``remove_features_many`` over one or two non-``main`` statements, and
  ``executable()`` of every answer.  Every layer works on every op.
* ``edit_stream`` -- one long-lived session on ``scaled_wc_source(32)``;
  an op is a one-procedure edit, or its undo (``update_source``), then
  ``slice_many`` over every print and ``executable()`` of each.  The
  incremental layer does most of the work.
* ``store_reopen`` -- a shared ``SliceStore``; each commit edits one
  procedure of one program, then every program is reopened (one op
  each) in a brand-new session with a new store handle, sliced on every
  print and rendered.  The store does most of the work.

Each op is checked by the answer oracle (:mod:`perfbench.oracle`) and,
in a traced pass, replayed layer by layer (:mod:`perfbench.tracing`),
both outside the op's timing.

A workload meets a fixed population of ops (programs, edits, commit
sweeps), and its seed deals their order.  A *round* is a fresh
workload, its set-up and one pass over the population, ``ops_per_round``
ops, each with a *key* that names it in every round.  An untraced run
makes several rounds, each in its own order, and times each op as the
mean over its rounds of its latency scaled to the host's speed
(:func:`run_rounds`, :func:`summarize`).
"""

import contextlib
import gc
import hashlib
import os
import random
import shutil
import statistics
import tempfile
import time

from repro.core import executable_program
from repro.engine import (
    REACHABLE_KEY,
    SlicingSession,
    saturation_key,
    stable_key_digest,
)
from repro.engine.canonical import SAT_PRESTAR
from repro.lang import ast_nodes as A
from repro.lang import parse, pretty
from repro.sdg import VertexKind
from repro.store import SliceStore
from repro.workloads.wc import scaled_wc_source

from perfbench import gen, oracle, tracing

KERNEL = tracing.KERNEL

#: an untraced run repeats its round at least this many times
MIN_ROUNDS = 2

#: scaled_wc categories of the edit_stream subject (38 procedures, 35
#: print criteria: the ROADMAP baseline subject)
WC_CATEGORIES = 32

#: programs in the store_reopen commit walk, one of each procedure count
#: in ``gen.PROC_COUNTS``.  A commit comes before every sweep of
#: reopens, so one reopen in seven is of the edited program.  The rate is a
#: design choice, not a measurement of real commit traffic: it keeps
#: most reopens warm, so the median is a warm reopen, and puts the p90
#: among the edited ones.
STORE_PROGRAMS = len(gen.PROC_COUNTS)

#: commits in the store_reopen population, each met once per round
STORE_COMMITS = 30


class Outcome(object):
    """What an op returned: the session, its slice results and
    executables, and (cold_corpus) the feature removals."""

    def __init__(self, session, results, executables):
        self.session = session
        self.results = results
        self.executables = executables
        self.seeds = []
        self.removals = []


class Workload(object):
    """Base: subclasses define ``prepare``, ``next_item``, ``op``,
    and (for the traced pass) ``replay``."""

    name = None
    #: ops in one round; at least ``run.MIN_OPS``, so the p90 has ten
    #: samples beyond it
    ops_per_round = None
    #: replayed front halves kept for later ops (warm reopens, donors)
    replay_keep = 1

    def __init__(self, seed, recorder, store_dir, round_index=0):
        self.seed = seed
        #: deals this round's order: round 0 on the seed itself, later
        #: rounds on the seed and their number
        self.order_rng = random.Random(
            seed if round_index == 0 else "%d/%d" % (seed, round_index)
        )
        #: the key of the op :meth:`next_item` returned last
        self.key = None
        self.rec = recorder
        self.traced = isinstance(recorder, tracing.Recorder)
        self.store_dir = store_dir
        self.store_class = tracing.traced_store(recorder) if self.traced else SliceStore
        self.inputs = gen.Digest()
        self.answers = gen.Digest()
        #: op key -> digest of the op's rendered answers, compared
        #: across a run's rounds
        self.op_answers = {}
        #: whether :meth:`check` runs the oracle (the first round does;
        #: later rounds must render the same answers)
        self.use_oracle = True
        self.replayer = (
            tracing.Replay(recorder, self.replay_keep) if self.traced else None
        )
        self.ratio_counts = {}
        self.store_bytes = 0
        self.stale_maps = 0
        self.op_classes = {}  # traced op id -> class (see op_class)

    def setup(self):
        """Run the set-up from a collected heap and return its duration,
        scaled as an op's latency is (:func:`scale`)."""
        gc.collect()
        before = probe()
        start = time.perf_counter()
        self.prepare()
        elapsed = time.perf_counter() - start
        return scale(elapsed, before, probe())

    def prepare(self):
        pass

    def drop_setup(self):
        """Release the set-up's state: a finished round keeps only its
        counts and digests."""

    def before_op(self):
        pass

    def op_class(self, item, outcome):
        """The kind of op, for the traced run's per-class table."""
        return self.name

    def source_of(self, item):
        """The source text an op on ``item`` opens."""
        return item

    def queries_of(self, item):
        """The queries an op on ``item`` is meant to answer: one slice
        per print (and, in cold_corpus, one removal per feature seed).
        An op that raises fails all of them."""
        program = parse(self.source_of(item))
        return sum(
            isinstance(stmt, A.Print)
            for proc in program.procs
            for stmt in A.walk_stmts(proc.body)
        )

    def _session_op(self, session_factory):
        """Open (or update) a session, slice every print, render each."""
        rec = self.rec
        session = session_factory()
        criteria = [
            ("print", index)
            for index in range(len(session.sdg.print_call_vertices()))
        ]
        with rec.span("engine.slice_many", anchor=True):
            results = session.slice_many(criteria)
        executables = []
        for criterion in criteria:
            with rec.span("engine.executable", anchor=True):
                executables.append(session.executable(criterion))
        return Outcome(session, results, executables)

    def check(self, item, outcome):
        """Oracle + answer digests; returns ``(attempted, failed)`` queries."""
        session = outcome.session
        checker = None
        if self.use_oracle:
            checker = oracle.Oracle(session.sdg, self.seed ^ hash_text(session.source))
        failed = 0
        op_answers = hashlib.sha256()
        for index, executable in enumerate(outcome.executables):
            self._digest(executable, op_answers)
            if checker is not None:
                failed += not checker.slice_ok(index, executable)
                self.stale_maps += checker.stale_map(executable)
        for seed_vid, executable in zip(outcome.seeds, outcome.removals):
            self._digest(executable, op_answers)
            if checker is not None:
                failed += not checker.removal_ok([seed_vid], executable)
        self.answers.end_op()
        self.op_answers[self.key] = op_answers.hexdigest()
        return len(outcome.executables) + len(outcome.removals), failed

    def _digest(self, executable, op_answers):
        text = pretty(executable.program)
        self.answers.add(text)
        op_answers.update(text.encode("utf-8") + b"\0")

    def texts(self, outcome):
        return {
            index: pretty(executable.program)
            for index, executable in enumerate(outcome.executables)
        }

    def count_ratios(self, before, after, names):
        for name in names:
            self.ratio_counts[name] = self.ratio_counts.get(name, 0) + (
                after.get(name, 0) - before.get(name, 0)
            )

    def count_engine(self, before, after):
        """Per-op engine counter deltas for the traced pass."""
        self.count_ratios(
            before,
            after,
            (
                "slice_hits",
                "slice_misses",
                "saturation_hits",
                "saturation_misses",
                "procs_reused",
                "procs_rebuilt",
                "saturations_kept",
                "saturations_dropped",
                "results_kept",
                "results_dropped",
            ),
        )
        for counter, metric in (
            ("sats_adopted", "engine.sats_adopted"),
            ("fused_criteria", "engine.fused_criteria"),
            ("discovery_seconds", "engine.discovery_s"),
        ):
            self.rec.count(metric, after.get(counter, 0) - before.get(counter, 0))

    def expect(self, actual, expected):
        """A replay plan that disagrees with the session's own counters
        is a replay mismatch."""
        if actual != expected:
            self.replayer.mismatches += 1

    def close(self):
        pass


def hash_text(text):
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:8], 16)


class ColdCorpus(Workload):
    name = "cold_corpus"
    #: a round is one pass over the whole corpus, in the seed's order
    ops_per_round = gen.CORPUS_SIZE

    def __init__(self, seed, recorder, store_dir, round_index=0):
        Workload.__init__(self, seed, recorder, store_dir, round_index)
        self.order = gen.Deck(self.order_rng, range(gen.CORPUS_SIZE))

    def prepare(self):
        # One warm-up op on a program outside the population, so the
        # first timed op does not pay for first-call imports.
        self.op((gen.corpus_program(gen.CORPUS_SIZE), random.Random(0), 2))

    def next_item(self):
        index = self.key = self.order.draw()
        source = gen.corpus_program(index)
        self.inputs.add("%d:%s" % (index, source))
        self.inputs.end_op()
        # The feature seeds belong to the program, not to the run: a
        # removal's cost depends steeply on its seed's forward cone, so
        # run-seeded picks would make two seeds' runs disagree.
        feature_rng = random.Random("features-%d" % index)
        return source, feature_rng, feature_rng.randint(1, 2)

    def source_of(self, item):
        return item[0]

    def queries_of(self, item):
        return Workload.queries_of(self, item) + item[2]

    def op(self, item):
        source, feature_rng, features = item
        rec = self.rec
        with rec.span("engine.open", anchor=True):
            session = SlicingSession(source, kernel=KERNEL)
        outcome = self._session_op(lambda: session)
        statements = sorted(
            vid
            for vid, vertex in session.sdg.vertices.items()
            if vertex.kind == VertexKind.STATEMENT and vertex.proc != "main"
        )
        seeds = feature_rng.sample(statements, min(len(statements), features))
        with rec.span("engine.remove_features_many", anchor=True):
            removed = session.remove_features_many(seeds)
        for result in removed:
            with rec.span("engine.executable", anchor=True):
                outcome.removals.append(executable_program(result))
        outcome.seeds = seeds
        return outcome

    def replay(self, item, outcome):
        source = item[0]
        stats = outcome.session.stats
        self.count_engine({}, stats)
        indices = list(range(len(outcome.results)))
        replay = self.replayer
        front = replay.front(source)
        replay.answers(
            front,
            indices,
            criteria=indices,
            prestars=indices,
            poststar=True,
            expected=self.texts(outcome),
        )
        replay.removals(
            front,
            outcome.seeds,
            [pretty(executable.program) for executable in outcome.removals],
        )
        self.expect(
            stats["saturation_misses"], 1 + len(indices) + len(outcome.seeds)
        )


class EditStream(Workload):
    """Each edit of the population, in the seed's order, is followed by
    its undo (an ``update_source`` back to the starting text).  So every
    op starts from the same program, and its cost depends on its edit
    alone, not on the edits before it."""

    name = "edit_stream"
    #: every edit of the population, and its undo
    ops_per_round = 2 * gen.EDIT_POPULATION
    replay_keep = 2

    def __init__(self, seed, recorder, store_dir, round_index=0):
        Workload.__init__(self, seed, recorder, store_dir, round_index)
        self.base = scaled_wc_source(WC_CATEGORIES)
        self.edits = gen.edit_population(self.base)
        self.order = gen.Deck(self.order_rng, range(len(self.edits)))
        self.undo = None

    def drop_setup(self):
        self.session = self.results = None

    def prepare(self):
        source = self.base
        with self.rec.span("engine.open", anchor=True):
            self.session = SlicingSession(source, kernel=KERNEL)
        outcome = self._session_op(lambda: self.session)
        self.results = outcome.results
        if self.traced:
            self.front = self.replayer.front(source, charge=False, keyed=True)
            self.poststar_footprint = self._poststar_footprint()

    def _poststar_footprint(self):
        """The shared Poststar's footprint, read (outside any op's
        counters) for the next op's replay plan."""
        return self.session.reachable_configs_artifact().footprint

    def op_class(self, item, outcome):
        return "label-only" if item[0] in gen.LABEL_ONLY else "structural"

    def source_of(self, item):
        return item[2]

    def next_item(self):
        """An edit, or the undo of the previous one: the same kind and
        procedure, back to the starting text."""
        if self.undo is None:
            index = self.order.draw()
            item = self.edits[index]
            self.key = (index, "edit")
            self.undo = (item[0], item[1], self.base)
        else:
            item, self.undo = self.undo, None
            self.key = (self.key[0], "undo")
        self.inputs.add(item[2])
        self.inputs.end_op()
        return item

    def op(self, item):
        _kind, _proc, edited = item

        def update():
            with self.rec.span("engine.update_source", anchor=True):
                self.session.update_source(edited)
            return self.session

        return self._session_op(update)

    def replay(self, item, outcome):
        _kind, _proc, edited = item
        session = outcome.session
        before = self.stats_before
        after = session.stats
        self.count_engine(before, after)
        fast = session.last_update["fast_path"]
        old = self.front
        front = self.replayer.front(
            edited,
            reused=frozenset(old.keys.values()),
            charge_encode=not fast,
            keyed=True,
        )
        changed = frozenset(
            key for name, key in old.keys.items() if front.keys.get(name) != key
        )
        recomputed = [
            index
            for index, result in enumerate(outcome.results)
            if index >= len(self.results) or result is not self.results[index]
        ]
        poststar = not fast and not _survives(self.poststar_footprint, changed)
        prestars = []
        if not fast:
            prestars = [
                index
                for index in recomputed
                if poststar
                or index >= len(self.results)
                or not _survives(self.results[index].footprint, changed)
            ]
        self.expect(
            after["saturation_misses"] - before["saturation_misses"],
            len(prestars) + poststar,
        )
        self.replayer.answers(
            front,
            recomputed,
            criteria=recomputed,
            prestars=prestars,
            poststar=poststar,
            expected=self.texts(outcome),
        )
        self.front = front
        self.results = outcome.results
        self.poststar_footprint = self._poststar_footprint()

    def before_op(self):
        if self.traced:
            self.stats_before = self.session.stats


def _survives(footprint, changed):
    return footprint is not None and footprint.isdisjoint(changed)


class StoreReopen(Workload):
    name = "store_reopen"
    #: every commit of the population, each followed by a sweep of
    #: reopens of every program
    ops_per_round = STORE_COMMITS * STORE_PROGRAMS
    replay_keep = 2 * STORE_PROGRAMS

    def __init__(self, seed, recorder, store_dir, round_index=0):
        Workload.__init__(self, seed, recorder, store_dir, round_index)
        self.walk = gen.CommitWalk(self.order_rng, STORE_PROGRAMS, STORE_COMMITS)
        self.position = 0
        self.commit = None

    def prepare(self):
        self.cache_dir = os.path.join(self.store_dir, "store")
        for source in self.walk.sources:
            self._open(source)
        if self.traced:
            for source in self.walk.sources:
                self.replayer.front(source, charge=False, keyed=True)

    def _open(self, source):
        rec = self.rec

        def open_session():
            with rec.span("engine.open", anchor=True):
                self.store = self.store_class(self.cache_dir)
                return SlicingSession(source, store=self.store, kernel=KERNEL)

        return self._session_op(open_session)

    def next_item(self):
        if self.position % STORE_PROGRAMS == 0:
            self.commit = self.walk.next_commit()
        index = self.position % STORE_PROGRAMS
        self.key = (self.commit, index)
        self.position += 1
        source = self.walk.sources[index]
        self.inputs.add("%d:%s" % (index, source))
        self.inputs.end_op()
        return source

    def op(self, source):
        return self._open(source)

    def op_class(self, item, outcome):
        return "warm" if outcome.session.stats["front_half_from_store"] else "edited"

    def before_op(self):
        self.first_span = len(self.rec.spans) if self.traced else 0

    def replay(self, source, outcome):
        session = outcome.session
        stats = session.stats
        self.count_engine({}, stats)
        if not stats["front_half_from_store"]:
            hits = stats["front_half_parts_hits"]
            self.count_ratios(
                {},
                {
                    "procs_reused": hits,
                    "procs_rebuilt": stats["front_half_parts_total"] - hits,
                },
                ("procs_reused", "procs_rebuilt"),
            )
        counters = self.store.stats()
        for counter, metric in (
            ("stores", "store.writes"),
            ("evictions", "store.evictions"),
            ("invalid_dropped", "store.invalid_dropped"),
            ("write_errors", "store.write_errors"),
        ):
            self.rec.count(metric, counters[counter])
        self.store_bytes = counters["total_bytes"]

        spans = self.rec.spans
        proc_hits, pds_missed = set(), False
        sat_keys, result_digests = set(), set()
        for sid in range(self.first_span, len(spans)):
            name, _start, _end, parent, _op, attrs = spans[sid]
            if name == "store.get_proc" and attrs["hit"]:
                proc_hits.add(attrs["content_key"])
            elif name == "store.get_pds" and not attrs["hit"]:
                pds_missed = True
            elif _anchor_name(spans, parent) == "engine.slice_many":
                if name == "store.put_sat":
                    sat_keys.add(attrs["key"])
                elif name == "store.put" and attrs["result_table"] == "slice":
                    result_digests.add(attrs["digest"])

        replay = self.replayer
        front = None
        if stats["front_half_from_store"]:
            front = replay.cached(source)
        if front is None:
            front = replay.front(
                source,
                charge=not stats["front_half_from_store"],
                reused=proc_hits,
                charge_compile=pds_missed,
                keyed=True,
            )
        indices = list(range(len(outcome.results)))
        keys = {index: front.criterion(index)[1] for index in indices}
        criteria = [
            index for index in indices if stable_key_digest(keys[index]) in result_digests
        ]
        prestars = [
            index
            for index in indices
            if saturation_key(SAT_PRESTAR, keys[index]) in sat_keys
        ]
        poststar = REACHABLE_KEY in sat_keys
        self.expect(stats["sat_persist_misses"], len(prestars) + poststar)
        replay.answers(
            front,
            indices,
            criteria=criteria,
            prestars=prestars,
            poststar=poststar,
            expected=self.texts(outcome),
        )


def _anchor_name(spans, sid):
    """The name of the nearest non-store ancestor of span ``sid``."""
    while sid is not None and spans[sid][0].startswith("store."):
        sid = spans[sid][3]
    return spans[sid][0] if sid is not None else None


WORKLOADS = {cls.name: cls for cls in (ColdCorpus, EditStream, StoreReopen)}


# -- the host-speed probe -------------------------------------------------------
#
# The benchmark runs on shared hosts whose neighbours slow every op by
# half or more, for seconds to minutes at a time, in CPU time as much as
# in wall time.  Each op is therefore bracketed by a probe: a fixed
# pure-Python loop, timed just before and just after the op.  An op's
# *scaled* latency is its wall time times PROBE_NOMINAL_S over the mean
# of its two probe times: what the op would have taken at the speed the
# host had when the probe ran in PROBE_NOMINAL_S.  The probe uses no
# ``repro`` code, so a change to the program cannot move it.

#: loop steps of one probe
PROBE_STEPS = 6000

#: the probe's time on a quiet host (a 2-vCPU Xeon VM, neighbours idle);
#: scaled latencies read as milliseconds on that host
PROBE_NOMINAL_S = 0.0011


def probe():
    """The wall time of :data:`PROBE_STEPS` steps of a fixed loop.  It
    allocates no container, so it neither runs nor feeds the garbage
    collector, and its state fits in the first-level cache."""
    counts = dict.fromkeys(range(256), 0)
    total = 0
    start = time.perf_counter()
    for step in range(PROBE_STEPS):
        key = step & 255
        counts[key] = (counts[key] + step) & 0xFFFF
        total ^= counts[key]
    return time.perf_counter() - start


def scale(seconds, before, after):
    """``seconds`` of wall time at the nominal host speed, given the
    probe times just before and just after them."""
    return seconds * PROBE_NOMINAL_S * 2.0 / (before + after)


class Pass(object):
    """One pass (a round) of a workload: per-op latencies, the probe
    times around each op, and query counts."""

    def __init__(self, workload, setup_s):
        self.workload = workload
        self.setup_s = setup_s
        self.keys = []
        self.latencies = []
        self.probes = []  # (before, after) per op
        self.attempted = 0
        self.failed = 0

    def scaled(self):
        """Each op's latency at the nominal host speed (see
        :data:`PROBE_NOMINAL_S`)."""
        return [
            scale(latency, before, after)
            for latency, (before, after) in zip(self.latencies, self.probes)
        ]


def run_pass(name, seed, ops, recorder, store_root, round_index=0):
    """Set up ``name`` and issue ``ops`` ops (its ``ops_per_round`` when
    ``ops`` is None), in the order of round ``round_index``.  The oracle
    checks round 0 only."""
    with _fresh(name, seed, recorder, store_root, round_index) as workload:
        workload.use_oracle = round_index == 0
        result = Pass(workload, workload.setup())
        for op_id in range(workload.ops_per_round if ops is None else ops):
            _issue(workload, result, op_id)
        return result


def run_rounds(name, seed, seconds, store_root):
    """Run rounds of ``name`` on ``seed`` until about ``seconds`` of op
    time have passed, and at least :data:`MIN_ROUNDS` rounds.  The
    first round's op time sets the number of rounds.  The oracle checks
    the first round; every later one must render the same answers for
    each op (see ``op_answers``).  The collector is run between rounds,
    so each round starts from the same heap."""
    rounds = []
    planned = MIN_ROUNDS
    while len(rounds) < planned:
        gc.collect()
        rounds.append(run_pass(
            name, seed, None, tracing.NullRecorder(), store_root, len(rounds)
        ))
        if len(rounds) == 1:
            planned = max(MIN_ROUNDS, int(seconds / sum(rounds[0].latencies) + 0.5))
        # Only the latencies and counts are needed from a finished round.
        rounds[-1].workload.drop_setup()
    return rounds


@contextlib.contextmanager
def _fresh(name, seed, recorder, store_root, round_index=0):
    """A new ``name`` workload with its own store directory, removed
    when the workload is done."""
    store_dir = tempfile.mkdtemp(prefix="store-", dir=store_root)
    workload = WORKLOADS[name](seed, recorder, store_dir, round_index)
    try:
        yield workload
    finally:
        workload.close()
        shutil.rmtree(store_dir, ignore_errors=True)


def _issue(workload, result, op_id):
    """Generate, time, check and (traced) replay one op.  The collector
    runs when it would in a service: the cyclic garbage an op leaves
    behind is collected, and timed, during whichever later op the
    collector's thresholds pick."""
    recorder = workload.rec
    item = workload.next_item()
    result.keys.append(workload.key)
    workload.before_op()
    recorder.op = op_id
    before = probe()
    start = time.perf_counter()
    try:
        with recorder.span("op", anchor=True):
            outcome = workload.op(item)
    except Exception:  # a failed op counts; the loop goes on
        outcome = None
    result.latencies.append(time.perf_counter() - start)
    result.probes.append((before, probe()))
    try:
        checked = None
        if outcome is not None:
            try:
                checked = workload.check(item, outcome)
            except Exception:  # a check that breaks fails the op's queries
                pass
        if checked is None:
            workload.answers.end_op()
            queries = workload.queries_of(item)
            result.attempted += queries
            result.failed += queries
            return
        attempted, failed = checked
        result.attempted += attempted
        result.failed += failed
        if workload.traced:
            workload.op_classes[op_id] = workload.op_class(item, outcome)
            try:
                with recorder.span("replay"):
                    workload.replay(item, outcome)
            except Exception:  # a replay that breaks is a mismatch
                workload.replayer.mismatches += 1
    finally:
        recorder.op = None


def op_latencies(rounds, scaled=True):
    """Each op's scaled (or wall) latency, as the mean over its rounds,
    in the first round's order.  Every round issues the same ops, each
    in its own order; an op's key names it in all of them.  So the
    collector's passes, which fall on whichever op crosses its
    allocation thresholds, land on different ops in different rounds,
    and the mean charges each op its average share of them, whatever
    the number of rounds.  (A median would drop them from every op
    once a run makes three rounds, and keep half of them at two.)"""
    times = {}
    for result in rounds:
        latencies = result.scaled() if scaled else result.latencies
        for key, latency in zip(result.keys, latencies):
            times.setdefault(key, []).append(latency)
    return [statistics.mean(times[key]) for key in rounds[0].keys]


def summarize(rounds, import_seconds, rss_mb):
    """The end-to-end metrics of an untraced run's rounds."""
    latencies = op_latencies(rounds)
    attempted = sum(r.attempted for r in rounds)
    answered = attempted - sum(r.failed for r in rounds)
    setups = [r.setup_s for r in rounds]
    return {
        "setup_s": import_seconds + statistics.median(setups),
        "queries_per_s": answered / len(rounds) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000.0,
        "peak_rss_mb": rss_mb,
        "answered_frac": answered / attempted,
    }
