"""Relocatable compiled-PDS payloads and store-backed batches.

``compiled_payload``/``compiled_from_payload`` promise a deterministic
flat-array form of :class:`repro.pds.kernel.CompiledPDS` that crosses
process boundaries and survives the store's ``__pds__`` table, and
that a session adopting a stored payload computes *exactly* what it
would have computed by recompiling.  A store-backed fused batch
promises results and persisted ``__sats__`` bytes identical to
per-criterion slicing.  This suite pins both plus the degrade paths
(corrupt payloads recompile, never crash; a failing
``slice_many_programs`` job names itself after its siblings settle).

``repro.open_session`` memoizes sessions by source hash; every test
here builds :class:`SlicingSession` directly so nothing is memo-warm.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.engine import ProgramSliceError, SlicingSession, slice_many_programs
from repro.fsa.serialize import automaton_to_payload
from repro.lang import pretty
from repro.pds.kernel import (
    PAYLOAD_VERSION,
    adopt_payload,
    compiled_from_payload,
    compiled_payload,
    compiled_pds,
    payload_digest,
    prestar_many_csr,
)
from repro.store import SliceStore
from repro.workloads.generator import GenConfig, generate_program

N_PROGRAMS = 26
MAX_CRITERIA = 4


def _source(seed):
    program, _info = generate_program(GenConfig(seed=seed, n_procs=3))
    return pretty(program)


def _criteria(session):
    prints = len(session.sdg.print_call_vertices())
    criteria = [("print", index) for index in range(min(prints, MAX_CRITERIA))]
    criteria.append("prints")
    return criteria


def _queries(session, contexts="reachable"):
    from repro.engine.canonical import resolve_criterion_spec

    automata = []
    for criterion in _criteria(session):
        kind, payload = resolve_criterion_spec(session.sdg, criterion)
        automata.append(session._query_automaton(kind, payload, contexts))
    return automata


def _payloads(automata):
    return [automaton_to_payload(a) for a in automata]


def _session_payload(session):
    return compiled_payload(compiled_pds(session.encoding.pds))


def _sat_bytes(root):
    """The persisted ``__sats__`` entries of a store, name -> bytes
    (the index sidecar rides under ``idx-`` names and is excluded)."""
    found = {}
    sats = os.path.join(root, "__sats__")
    if not os.path.isdir(sats):
        return found
    for name in sorted(os.listdir(sats)):
        if not name.endswith(".slc") or name.startswith("idx-"):
            continue
        with open(os.path.join(sats, name), "rb") as handle:
            found[name] = handle.read()
    return found


# -- payload round-trip properties -------------------------------------------------


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_payload_round_trip_behavioral_on_corpus(seed):
    """``compiled_from_payload(compiled_payload(c))`` is behaviorally
    identical: a session that adopted the payload saturates every
    criterion to the same bytes as the session that compiled."""
    source = _source(seed)
    compiler = SlicingSession(source, kernel="csr")
    payload = _session_payload(compiler)

    # The payload is a fixed point of its own codec...
    rebuilt = compiled_from_payload(payload)
    assert compiled_payload(rebuilt) == payload

    # ...and adopting it onto an independently built (but equal) PDS
    # replaces that session's compile wholesale.
    adopter = SlicingSession(source, kernel="csr")
    sink = {}
    assert adopt_payload(adopter.encoding.pds, payload, sink)
    assert sink == {"pds_payload_hits": 1}
    assert compiled_pds(adopter.encoding.pds) is not None
    assert _payloads(
        prestar_many_csr(adopter.encoding.pds, _queries(adopter), trim=True)
    ) == _payloads(
        prestar_many_csr(compiler.encoding.pds, _queries(compiler), trim=True)
    )


@pytest.mark.parametrize("seed", range(0, N_PROGRAMS, 5))
def test_payload_digest_stable_across_processes(seed):
    """Two interpreters compute the same payload digest for the same
    source, one of them after slicing another program first.  Both run
    under one fixed hash seed: the encoder emits rules in edge-set
    order, which follows string hashing, so the digest is stable per
    hash seed, not across seeds."""
    source = _source(seed)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    script = (
        "import sys\n"
        "from repro.engine import SlicingSession\n"
        "if len(sys.argv) > 1:\n"
        "    SlicingSession(sys.argv[1], kernel='csr').slice_many(['prints'])\n"
        "from repro.pds.kernel import compiled_payload, compiled_pds, payload_digest\n"
        "session = SlicingSession(sys.stdin.read(), kernel='csr')\n"
        "print(payload_digest(compiled_payload(compiled_pds(session.encoding.pds))))\n"
    )
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="4242")
    first, second = (
        subprocess.check_output(
            [sys.executable, "-c", script] + history,
            input=source,
            env=env,
            text=True,
        )
        for history in ([], [_source(seed + 1)])
    )
    assert first.strip() and first == second


def test_payload_digest_separates_programs():
    digests = {
        payload_digest(_session_payload(SlicingSession(_source(seed), kernel="csr")))
        for seed in range(4)
    }
    assert len(digests) == 4


# -- degrade to recompile ----------------------------------------------------------


def _corruptions(payload):
    tag, version, loc_codes, loc_strs, sym_codes, sym_strs, rule_ints = payload
    return {
        "not-a-tuple": list(payload),
        "short-tuple": payload[:6],
        "wrong-tag": ("cpsd",) + payload[1:],
        "wrong-version": (tag, version + 1) + payload[2:],
        "truncated-rules": payload[:6] + (rule_ints[:-1],),
        "loc-code-out-of-range": (
            tag, version, loc_codes + (-len(loc_strs) - 7,),
            loc_strs, sym_codes, sym_strs, rule_ints,
        ),
        "duplicate-locations": (
            tag, version, loc_codes + (loc_codes[0],),
            loc_strs, sym_codes, sym_strs, rule_ints,
        ),
        "rule-target-out-of-range": payload[:6]
        + ((len(loc_codes) + 9,) + rule_ints[1:],),
        "stray-string": (tag, version, loc_codes, loc_strs + (7,),
                         sym_codes, sym_strs, rule_ints),
    }


@pytest.mark.smoke
def test_corrupt_payloads_degrade_to_recompile():
    """Every malformed payload is rejected (counted, never raised) and
    the session recompiles to the same answer."""
    source = _source(1)
    payload = _session_payload(SlicingSession(source, kernel="csr"))
    for name, corrupt in _corruptions(payload).items():
        with pytest.raises(ValueError):
            compiled_from_payload(corrupt)
        victim = SlicingSession(source, kernel="csr")
        sink = {}
        assert not adopt_payload(victim.encoding.pds, corrupt, sink), name
        assert sink == {"pds_payload_misses": 1}, name


def test_corrupt_store_payload_recompiles_and_heals(tmp_path):
    """A corrupt ``__pds__`` entry costs one payload miss, the session
    recompiles (same slice bytes as storeless), and re-persists a good
    payload that the next session adopts."""
    source = _source(2)
    cache = str(tmp_path / "cache")
    good = _session_payload(SlicingSession(source, kernel="csr"))
    seeder = SliceStore(cache)
    src_hash = hashlib.sha256(source.encode("utf-8")).hexdigest()
    seeder.put_pds(src_hash, _corruptions(good)["truncated-rules"])

    victim = SlicingSession(source, store=SliceStore(cache), kernel="csr")
    assert victim.source_hash == src_hash
    assert victim.stats["pds_payload_misses"] == 1
    assert victim.stats["pds_payload_hits"] == 0
    reference = SlicingSession(source, kernel="csr")
    assert automaton_to_payload(
        victim.slice(("print", 0)).a6
    ) == automaton_to_payload(reference.slice(("print", 0)).a6)

    # The recompile healed the entry in place.
    healed = SlicingSession(source, store=SliceStore(cache), kernel="csr")
    assert healed.stats["pds_payload_hits"] == 1
    assert healed.stats["pds_payload_misses"] == 0


# -- store-backed adoption ---------------------------------------------------------


def test_store_persists_and_adopts_payload(tmp_path):
    source = _source(3)
    cache = str(tmp_path / "cache")
    writer = SlicingSession(source, store=SliceStore(cache), kernel="csr")
    # A fresh store has no payload: one consult-miss, one compile-miss,
    # then the compile is persisted under the front-half hash.
    assert writer.stats["pds_payload_misses"] == 1
    assert writer.stats["kernel_compile_misses"] == 1
    assert writer.store.has_pds(writer.source_hash)
    assert writer.store.stats()["tables"].get("pds") == 1

    reader_store = SliceStore(cache)
    reader = SlicingSession(source, store=reader_store, kernel="csr")
    assert reader.stats["pds_payload_hits"] == 1
    assert reader.stats["pds_payload_misses"] == 0
    # Adoption *replaces* the compile: the session's compiled PDS is a
    # cache hit on the adopted object, never a recompile.
    assert reader.stats["kernel_compile_misses"] == 0
    assert reader.stats["kernel_compile_hits"] >= 1
    assert reader_store._counters["pds_hits"] == 1
    assert automaton_to_payload(
        reader.slice(("print", 0)).a6
    ) == automaton_to_payload(writer.slice(("print", 0)).a6)


@pytest.mark.smoke
def test_object_kernel_never_touches_payloads(tmp_path):
    session = SlicingSession(
        _source(4), store=SliceStore(str(tmp_path / "cache")), kernel="object"
    )
    assert session.stats["pds_payload_hits"] == 0
    assert session.stats["pds_payload_misses"] == 0
    assert not session.store.has_pds(session.source_hash)


# -- store-backed fused batches: byte identity ----------------------------------


def _rendered(results):
    return [
        (
            automaton_to_payload(r.a1),
            automaton_to_payload(r.a6),
            r.closure_elems(),
            r.version_counts(),
            r.footprint,
        )
        for r in results
    ]


@pytest.mark.parametrize("seed", range(0, N_PROGRAMS, 3))
def test_store_backed_fused_batch_byte_identical(seed, tmp_path):
    """A fused ``slice_many`` batch and per-criterion ``slice`` calls
    render identical slices and persist identical ``__sats__`` bytes."""
    source = _source(seed)
    fused_cache = str(tmp_path / "fused")
    plain_cache = str(tmp_path / "plain")
    fused = SlicingSession(source, store=SliceStore(fused_cache), kernel="csr")
    plain = SlicingSession(source, store=SliceStore(plain_cache), kernel="csr")
    criteria = _criteria(fused)
    rendered = _rendered(fused.slice_many(criteria, max_workers=2))
    reference = _rendered([plain.slice(criterion) for criterion in criteria])
    assert rendered == reference, seed
    assert _sat_bytes(plain_cache)
    assert _sat_bytes(fused_cache) == _sat_bytes(plain_cache), seed


# -- slice_many_programs error handling --------------------------------------------


@pytest.mark.smoke
def test_failing_job_names_itself_after_siblings_settle(tmp_path):
    good = _source(7)
    bad = "int main() { this is not tinyc"
    cache = str(tmp_path / "cache")
    jobs = [
        (good, [("print", 0)]),
        (bad, [("print", 0)]),
        (_source(8), [("print", 0)]),
    ]
    with pytest.raises(ProgramSliceError) as info:
        slice_many_programs(jobs, cache_dir=cache)
    error = info.value
    assert error.job_index == 1
    digest = hashlib.sha256(bad.encode("utf-8")).hexdigest()[:12]
    assert error.source_digest == digest
    assert "job 1" in str(error) and digest in str(error)
    assert error.__cause__ is not None
    # The siblings settled: their work reached the shared store even
    # though the batch as a whole raised.
    survivor = SlicingSession(good, store=SliceStore(cache), kernel="csr")
    assert survivor.stats["front_half_from_store"]


@pytest.mark.smoke
def test_first_failing_job_wins_in_input_order():
    jobs = [
        ("int main() { broken", [("print", 0)]),
        ("also broken(", [("print", 0)]),
    ]
    with pytest.raises(ProgramSliceError) as info:
        slice_many_programs(jobs)
    assert info.value.job_index == 0


def test_largest_first_scheduling_preserves_result_order(tmp_path):
    """Jobs are submitted largest-source-first; results still come back
    in input order, byte-identical to one-at-a-time runs."""
    sources = sorted((_source(seed) for seed in range(9, 13)), key=len)
    jobs = [(source, [("print", 0), "prints"]) for source in sources]
    batch = slice_many_programs(jobs, kernel="csr")
    for (source, criteria), results in zip(jobs, batch):
        solo = SlicingSession(source, kernel="csr")
        for criterion, result in zip(criteria, results):
            assert automaton_to_payload(result.a6) == automaton_to_payload(
                solo.slice(criterion).a6
            ), (len(source), criterion)


# -- payload versioning ------------------------------------------------------------


@pytest.mark.smoke
def test_payload_version_is_pinned():
    """Bump ``PAYLOAD_VERSION`` whenever the payload layout changes —
    old store entries must be rejected, not misread."""
    assert PAYLOAD_VERSION == 1
    payload = _session_payload(SlicingSession(_source(0), kernel="csr"))
    assert payload[0] == "cpds" and payload[1] == PAYLOAD_VERSION
