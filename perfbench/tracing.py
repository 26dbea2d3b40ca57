"""The traced run: spans, an instrumented store, and the layer replay.

Everything here observes the program from outside, through its public
functions; nothing in ``src/`` is patched.

* :class:`Recorder` keeps spans (name, start, end, parent, op id) in
  memory and writes them out as JSON when the run ends.  Session-level
  calls are *anchor* spans: store calls made by the session's pool
  threads hang under the anchor that is open on the main thread.
* :func:`traced_store` builds a :class:`repro.store.SliceStore` subclass
  that opens a child span for each public read and write, tagged with
  its table; the session receives it through its public ``store=``
  parameter.
* :class:`Replay` re-runs an op's inputs through each layer's entry
  point (``parse``/``check``, ``build_call_graph``/``compute_modref``,
  ``assemble_sdg``, ``compute_summary_edges``, ``encode_sdg``,
  ``compiled_pds``, ``reachable_query_view``,
  ``reachable_contexts_criterion``, ``prestar``/``prestar_many``,
  ``poststar``/``poststar_many``, ``mrd_int``, ``read_out_sdg``,
  ``remove_feature``, ``executable_program``) after the op, outside its
  timing.  A layer is *charged* (timed into its metric) only for the
  work the session itself had to do in that op, as the workload reads
  it off the session's counters, its result objects and the store
  spans; the rest of the replay is uncharged set-up for the charged
  calls.  Every charged answer is rendered and must equal the
  session's, byte for byte.
* :func:`layer_metrics` folds the spans and counters into the per-layer
  metrics of ``BENCHMARK.json``.
"""

import contextlib
import json
import threading
import time

from repro import kernelcfg
from repro.analysis.callgraph import build_call_graph
from repro.analysis.modref import compute_modref
from repro.core import (
    SpecializationResult,
    executable_program,
    lower_indirect_calls,
    remove_feature,
)
from repro.core.criteria import (
    as_query_view,
    reachable_contexts_criterion,
    reachable_query_view,
)
from repro.core.readout import read_out_sdg
from repro.engine import canonical_key, procedure_keys, resolve_criterion_spec
from repro.fsa.intops import mrd_int
from repro.lang import check, parse, pretty
from repro.pds import encode_sdg, poststar, poststar_many, prestar, prestar_many
from repro.pds.kernel import compiled_pds
from repro.sdg.parts import extract_part
from repro.sdg.sdg_builder import assemble_sdg
from repro.sdg.summary import compute_summary_edges
from repro.store import SliceStore

KERNEL = kernelcfg.CSR

#: store tables as the per-layer metrics name them
STORE_TABLES = ("fronthalf", "proc", "sat", "idx", "pds", "result")

#: public SliceStore methods -> (table, read or write, counts a lookup)
STORE_METHODS = {
    "get": ("result", "read", True),
    "has": ("result", "read", False),
    "put": ("result", "write", False),
    "get_program": ("fronthalf", "read", True),
    "has_program": ("fronthalf", "read", False),
    "put_program": ("fronthalf", "write", False),
    "get_proc": ("proc", "read", True),
    "put_proc": ("proc", "write", False),
    "get_sat": ("sat", "read", True),
    "has_sat": ("sat", "read", False),
    "put_sat": ("sat", "write", False),
    "get_pds": ("pds", "read", True),
    "has_pds": ("pds", "read", False),
    "put_pds": ("pds", "write", False),
    "get_sat_index": ("idx", "read", True),
    "sat_indexes": ("idx", "read", False),
    "sat_indexes_for": ("idx", "read", False),
    "merge_sat_index": ("idx", "write", False),
}

#: the replayed layer calls, as span names (each metric is ``<name>_s``)
LAYER_SPANS = (
    "lang.parse",
    "lang.check",
    "analysis.call_graph",
    "analysis.modref",
    "sdg.assemble",
    "sdg.summary",
    "pds.encode",
    "pds.compile",
    "pds.poststar",
    "pds.prestar_many",
    "pds.poststar_many",
    "core.criteria",
    "fsa.mrd",
    "core.readout",
    "core.executable",
    "core.feature_removal",
)

#: the session-level calls the workloads time as anchor spans
ENGINE_SPANS = (
    "engine.open",
    "engine.slice_many",
    "engine.remove_features_many",
    "engine.update_source",
    "engine.executable",
)

#: per-op counts the replay and the workloads accumulate
COUNTS = (
    "lang.source_bytes",
    "sdg.vertices",
    "sdg.edges",
    "pds.rules",
    "pds.worklist_pops",
    "core.criteria_count",
    "fsa.mrd_states_in",
    "fsa.mrd_states_out",
    "engine.sats_adopted",
    "engine.fused_criteria",
    "engine.discovery_s",
    "store.writes",
    "store.evictions",
    "store.invalid_dropped",
    "store.write_errors",
)

#: ratio metrics: name -> (numerator counter, denominator counters)
RATIOS = {
    "engine.slice_hit_ratio": ("slice_hits", ("slice_hits", "slice_misses")),
    "engine.saturation_hit_ratio": (
        "saturation_hits",
        ("saturation_hits", "saturation_misses"),
    ),
    "engine.procs_reused_ratio": ("procs_reused", ("procs_reused", "procs_rebuilt")),
    "engine.saturations_kept_ratio": (
        "saturations_kept",
        ("saturations_kept", "saturations_dropped"),
    ),
    "engine.results_kept_ratio": (
        "results_kept",
        ("results_kept", "results_dropped"),
    ),
}


def per_layer_spec():
    """``[(name, unit), ...]`` for every per-layer metric, in the order
    ``BENCHMARK.json`` lists them."""
    spec = [(name + "_s", "s/op") for name in LAYER_SPANS]
    spec += [(name + "_s", "s/op") for name in ENGINE_SPANS]
    spec.append(("engine.overhead_s", "s/op"))
    spec += [
        (name, "s/op" if name.endswith("_s") else "count/op") for name in COUNTS
    ]
    spec += [(name, "ratio") for name in RATIOS]
    for table in STORE_TABLES:
        spec += [
            ("store.read_s." + table, "s/op"),
            ("store.write_s." + table, "s/op"),
            ("store.hit_ratio." + table, "ratio"),
        ]
    spec += [
        ("store.bytes", "B"),
        ("trace.overhead_s", "s/op"),
        ("trace.replay_mismatches", "count"),
    ]
    return spec


class Recorder(object):
    """In-memory span recorder (thread-safe)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, attrs]
        self.op = None
        self.counts = {}
        self._anchor = None
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name, anchor=False, **attrs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._anchor
        record = [name, 0.0, 0.0, parent, self.op, attrs]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(record)
        if anchor:
            saved, self._anchor = self._anchor, sid
        stack.append(sid)
        record[1] = time.perf_counter()
        try:
            yield attrs
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            if anchor:
                self._anchor = saved

    def count(self, name, value):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def write(self, path, meta):
        spans = [
            dict(
                id=sid,
                name=name,
                start=start,
                end=end,
                parent=parent,
                op=op,
                **{key: _jsonable(value) for key, value in attrs.items()}
            )
            for sid, (name, start, end, parent, op, attrs) in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"meta": meta, "spans": spans}, handle)


class NullRecorder(object):
    """The untraced run's recorder: spans cost one call and a no-op
    context manager."""

    op = None
    _null = contextlib.nullcontext()

    def span(self, name, anchor=False, **attrs):
        return self._null


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def traced_store(recorder):
    """A :class:`SliceStore` subclass whose public reads and writes each
    open a child span ``store.<method>`` tagged with table, direction
    and (for lookups) hit."""

    def wrap(method, table, direction, lookup):
        base = getattr(SliceStore, method)

        def traced(self, *args, **kwargs):
            with recorder.span(
                "store." + method, table=table, direction=direction
            ) as attrs:
                value = base(self, *args, **kwargs)
                if lookup:
                    attrs["hit"] = value is not None
                if method == "put_sat":
                    attrs["key"] = args[2].key
                elif method == "put":
                    attrs["result_table"], attrs["digest"] = args[1], args[2]
                elif method == "get_proc":
                    attrs["content_key"] = args[0]
                return value

        traced.__name__ = method
        return traced

    namespace = {
        method: wrap(method, *spec) for method, spec in STORE_METHODS.items()
    }
    return type("TracedStore", (SliceStore,), namespace)


# -- the layer replay ----------------------------------------------------------------


class Front(object):
    """One replayed front half."""

    def __init__(self, source):
        self.source = source
        self.program = self.info = self.sdg = self.encoding = None
        self.keys = None
        self.view = None  # the reachable-configuration query view
        self.answers = {}  # print index -> replayed SpecializationResult

    def criterion(self, index):
        """``(vertex ids, memo key)`` of print ``index``."""
        kind, payload = resolve_criterion_spec(self.sdg, ("print", index))
        return payload, canonical_key(kind, payload, "reachable")


class Replay(object):
    """Replays ops layer by layer; charged calls become spans."""

    def __init__(self, recorder, keep):
        self.rec = recorder
        self.keep = keep
        self._fronts = {}  # source -> Front, insertion-ordered
        self._donors = {}  # content key -> (Front, procedure name)
        self.mismatches = 0

    def _layer(self, name, charged):
        if charged:
            return self.rec.span(name)
        return contextlib.nullcontext()

    def cached(self, source):
        return self._fronts.get(source)

    def front(
        self,
        source,
        charge=True,
        reused=(),
        charge_encode=None,
        charge_compile=None,
        keyed=False,
    ):
        """Build the front half of ``source``.  ``reused`` names the
        content keys whose PDGs the session relocated instead of
        rebuilding; those are relocated here too, from earlier replays.
        Encoding and compilation default to ``charge``."""
        if charge_encode is None:
            charge_encode = charge
        if charge_compile is None:
            charge_compile = charge
        front = Front(source)
        with self._layer("lang.parse", charge):
            program = parse(source)
        with self._layer("lang.check", charge):
            info = check(program)
            if info.has_indirect_calls:
                program, info = lower_indirect_calls(program, info)
        with self._layer("analysis.call_graph", charge):
            call_graph = build_call_graph(program)
        with self._layer("analysis.modref", charge):
            modref = compute_modref(program, info, call_graph)
        parts = {}
        if keyed or reused:
            front.keys = procedure_keys(program, info, call_graph, modref)
            for proc in program.procs:
                key = front.keys[proc.name]
                donor = self._donors.get(key) if key in reused else None
                if donor is not None:
                    parts[proc.name] = extract_part(donor[0].sdg, donor[1]).retarget_uids(
                        proc
                    )
        with self._layer("sdg.assemble", charge):
            sdg, _relocations = assemble_sdg(
                program,
                info,
                parts,
                with_summary=False,
                call_graph=call_graph,
                modref=modref,
            )
        with self._layer("sdg.summary", charge):
            compute_summary_edges(sdg)
        with self._layer("pds.encode", charge_encode):
            encoding = encode_sdg(sdg)
        sink = {}
        with self._layer("pds.compile", charge_compile):
            compiled_pds(encoding.pds, sink)
        if charge:
            self.rec.count("lang.source_bytes", len(source.encode("utf-8")))
            self.rec.count("sdg.vertices", sdg.vertex_count())
            self.rec.count("sdg.edges", sdg.edge_count())
        if charge_encode:
            self.rec.count("pds.rules", encoding.pds.rule_count())
        front.program, front.info, front.sdg, front.encoding = (
            program,
            info,
            sdg,
            encoding,
        )
        if front.keys is not None:
            for name, key in front.keys.items():
                self._donors[key] = (front, name)
        self._fronts.pop(source, None)
        self._fronts[source] = front
        while len(self._fronts) > self.keep:
            evicted = self._fronts.pop(next(iter(self._fronts)))
            for key in list(evicted.keys or ()):
                if self._donors.get(key, (None,))[0] is evicted:
                    del self._donors[key]
        return front

    def _view(self, front, charged):
        """The shared Poststar's query view, saturated once per front.
        A charge for a view an earlier replay already built cannot be
        timed; it counts as a replay mismatch."""
        if front.view is None:
            sink = {}
            with self._layer("pds.poststar", charged):
                front.view = reachable_query_view(
                    front.encoding, kernel=KERNEL, stats=sink
                )
            if charged:
                self.rec.count("pds.worklist_pops", sink.get("kernel_worklist_pops", 0))
        elif charged:
            self.mismatches += 1
        return front.view

    def _saturate(self, front, queries, charged, single, many):
        """Saturate ``queries`` the way the session does: one fused
        pass for two or more, the single-query entry point for one."""
        if not queries:
            return []
        sink = {}
        pds = front.encoding.pds
        with self._layer("pds.%s_many" % single.__name__, charged):
            if len(queries) == 1:
                saturated = [single(pds, queries[0], trim=True, kernel=KERNEL, stats=sink)]
            else:
                saturated = many(pds, queries, trim=True, kernel=KERNEL, stats=sink)
        if charged:
            self.rec.count("pds.worklist_pops", sink.get("kernel_worklist_pops", 0))
        return saturated

    def _criterion(self, front, vids, charged):
        self._view(front, False)
        with self._layer("core.criteria", charged):
            query = reachable_contexts_criterion(front.encoding, vids, kernel=KERNEL)
        if charged:
            self.rec.count("core.criteria_count", 1)
        return query

    def _render(self, result, charged):
        with self._layer("core.executable", charged):
            executable = executable_program(result)
        return pretty(executable.program)

    def answers(self, front, indices, criteria=(), prestars=(), poststar=False, expected=None):
        """Replay the slices of prints ``indices`` (all rendered, with
        ``core.executable`` charged), charging criterion construction,
        MRD and read-out for ``criteria`` and the Prestar pass for
        ``prestars``; ``poststar`` charges the shared Poststar.
        ``expected`` maps index -> the session's rendered text."""
        self._view(front, poststar)
        todo = [index for index in indices if index not in front.answers]
        recompute = sorted(set(todo) | set(criteria))
        queries = {}
        for index in recompute:
            vids, _key = front.criterion(index)
            queries[index] = self._criterion(front, vids, index in criteria)
        charged = [index for index in recompute if index in prestars]
        shadow = [index for index in recompute if index not in prestars]
        a1 = {}
        for group, is_charged in ((charged, True), (shadow, False)):
            automata = self._saturate(
                front, [queries[i] for i in group], is_charged, prestar, prestar_many
            )
            a1.update(zip(group, automata))
        for index in recompute:
            front.answers[index] = self._slice(
                front, queries[index], a1[index], index in criteria
            )
        for index in indices:
            result = front.answers[index]
            text = self._render(result, True)
            if expected is not None and expected.get(index) != text:
                self.mismatches += 1

    def _slice(self, front, query, a1, charged):
        encoding = front.encoding
        with self._layer("fsa.mrd", charged):
            view = as_query_view(a1, encoding, kernel=KERNEL)
            a6, _a3_states, _a4_states = mrd_int(view)
        with self._layer("core.readout", charged):
            readout = read_out_sdg(front.sdg, a6, encoding, kernel=KERNEL)
        if charged:
            self.rec.count("fsa.mrd_states_in", len(view.states))
            self.rec.count("fsa.mrd_states_out", len(a6.states))
        result = SpecializationResult()
        result.source_sdg = front.sdg
        result.criterion = query
        result.encoding = encoding
        result.a1 = a1
        result.a6 = a6
        (
            result.sdg,
            result.pdgs,
            result.bindings,
            result.map_back_vertex,
            result.map_back_site,
        ) = readout
        return result

    def removals(self, front, seeds, expected):
        """Replay feature removals (all charged) of the single-vertex
        features ``seeds``; ``expected`` is the session's rendered
        texts, in order."""
        self._view(front, False)
        queries = [self._criterion(front, [vid], True) for vid in seeds]
        cones = self._saturate(front, queries, True, poststar, poststar_many)
        for query, cone, text in zip(queries, cones, expected):
            with self._layer("core.feature_removal", True):
                result = remove_feature(front.sdg, query, a0=cone)
            if self._render(result, True) != text:
                self.mismatches += 1


# -- folding spans into metrics ------------------------------------------------------


def layer_metrics(recorder, ops, ratio_counts, store_bytes, overhead_s, mismatches):
    """The per-layer metric values of a traced pass of ``ops`` ops."""
    values = {name: 0.0 for name, _unit in per_layer_spec()}
    spans = recorder.spans
    children = [0.0] * len(spans)
    for name, start, end, parent, _op, _attrs in spans:
        if parent is not None:
            children[parent] += end - start
    engine_by_op, store_by_op, layer_by_op = {}, {}, {}
    lookups = {table: [0, 0] for table in STORE_TABLES}
    for sid, (name, start, end, parent, op, attrs) in enumerate(spans):
        if op is None:
            continue  # set-up, outside every op
        duration = end - start
        if name.startswith("store."):
            own = max(0.0, duration - children[sid])
            prefix = "store.read_s." if attrs["direction"] == "read" else "store.write_s."
            values[prefix + attrs["table"]] += own
            store_by_op[op] = store_by_op.get(op, 0.0) + own
            if "hit" in attrs:
                lookups[attrs["table"]][0] += attrs["hit"]
                lookups[attrs["table"]][1] += 1
        elif name in ENGINE_SPANS:
            values[name + "_s"] += duration
            engine_by_op[op] = engine_by_op.get(op, 0.0) + duration
        elif name in LAYER_SPANS:
            values[name + "_s"] += duration
            layer_by_op[op] = layer_by_op.get(op, 0.0) + duration
    values["engine.overhead_s"] = sum(
        engine - store_by_op.get(op, 0.0) - layer_by_op.get(op, 0.0)
        for op, engine in engine_by_op.items()
    )
    for name, value in recorder.counts.items():
        values[name] += value
    for name, unit in per_layer_spec():
        if unit.endswith("/op"):
            values[name] /= ops
    for name, (numerator, denominator) in RATIOS.items():
        total = sum(ratio_counts.get(part, 0) for part in denominator)
        values[name] = ratio_counts.get(numerator, 0) / total if total else 0.0
    for table, (hits, total) in lookups.items():
        values["store.hit_ratio." + table] = hits / total if total else 0.0
    values["store.bytes"] = store_bytes
    values["trace.overhead_s"] = overhead_s
    values["trace.replay_mismatches"] = mismatches
    return values


#: the saturation layers, for the per-class table
SATURATION_SPANS = ("pds.poststar", "pds.prestar_many", "pds.poststar_many")


def class_table(recorder, latencies, op_classes):
    """``{class: (ops, mean op latency, mean saturation seconds)}`` of a
    traced pass: the designed contrast between op kinds."""
    saturation = {}
    for name, start, end, _parent, op, _attrs in recorder.spans:
        if op is not None and name in SATURATION_SPANS:
            saturation[op] = saturation.get(op, 0.0) + end - start
    table = {}
    for op, op_class in op_classes.items():
        ops, latency, saturated = table.get(op_class, (0, 0.0, 0.0))
        table[op_class] = (
            ops + 1,
            latency + latencies[op],
            saturated + saturation.get(op, 0.0),
        )
    return {
        op_class: (ops, latency / ops, saturated / ops)
        for op_class, (ops, latency, saturated) in table.items()
    }
