"""The answer oracle, run after each op and outside its timing.

Two properties, each checked by running programs in
:mod:`repro.lang.interp` on seeded inputs:

* an executable slice prints exactly the values the original program
  prints at the criterion print, in order (the Weiser correctness
  condition ``tests/test_differential_baselines.py`` checks);
* a feature removal keeps the values and relative order of every print
  the feature's seeds cannot reach.  Reachability here is
  context-insensitive :func:`repro.sdg.slice_ops.forward_reach`, a code
  path independent of the pushdown machinery under test, and an
  over-approximation of the feature, so every print outside it must
  survive unchanged (the property ``tests/test_properties_extra.py``
  checks).

Inputs on which the original program exceeds the interpreter's step
limit are skipped, not failed.  An answer that exceeds the step limit
or raises where the original did not fails its check.
"""

import random

from repro.lang.interp import ExecutionLimitExceeded, run_program
from repro.sdg.slice_ops import forward_reach

#: input vectors per program, and their length
VECTORS = 2
VECTOR_LEN = 20
MAX_STEPS = 500_000


class Oracle(object):
    """Checks the answers of one original program."""

    def __init__(self, sdg, seed):
        self.sdg = sdg
        rng = random.Random(seed)
        self.runs = []  # (inputs, original RunResult)
        for _ in range(VECTORS):
            inputs = [rng.randint(-4, 9) for _ in range(VECTOR_LEN)]
            try:
                self.runs.append((inputs, run_program(sdg.program, inputs, MAX_STEPS)))
            except ExecutionLimitExceeded:
                continue
        self.prints = sdg.print_call_vertices()
        self._uids = None

    def _uid(self, vid):
        return self.sdg.vertices[vid].stmt_uid

    def _run(self, executable, inputs):
        """The executable's prints on ``inputs``, or None if it runs
        out of steps or raises."""
        try:
            return run_program(executable.program, inputs, MAX_STEPS).prints
        except Exception:
            return None

    def slice_ok(self, index, executable):
        """Whether the executable slice for print ``index`` prints, in
        order, exactly the values the original prints there.  A
        backward slice from one print keeps no other print, so the
        slice's whole output is compared."""
        uid = self._uid(self.prints[index])
        for inputs, original in self.runs:
            printed = self._run(executable, inputs)
            if printed is None:
                return False
            got = [values for _uid, _fmt, values in printed]
            expected = [values for at, _fmt, values in original.prints if at == uid]
            if got != expected:
                return False
        return True

    def removal_ok(self, seeds, executable):
        """Whether removing the forward cone of ``seeds`` kept every
        print outside the context-insensitive forward reach, with its
        values and relative order."""
        reach = forward_reach(self.sdg, seeds)
        surviving = {self._uid(vid) for vid in self.prints if vid not in reach}
        for inputs, original in self.runs:
            printed = self._run(executable, inputs)
            if printed is None:
                return False
            got = [(executable.stmt_map.get(uid), values) for uid, _fmt, values in printed]
            expected = [
                (uid, values) for uid, _fmt, values in original.prints if uid in surviving
            ]
            if [item for item in got if item[0] in surviving] != expected:
                return False
        return True

    def stale_map(self, executable):
        """Whether the executable's ``stmt_map`` names statements that
        are not in the original program (statement uids are fresh per
        parse).  Reported, not failed: the rendered answer is what the
        oracle judges."""
        if self._uids is None:
            self._uids = {vertex.stmt_uid for vertex in self.sdg.vertices.values()}
        return not set(executable.stmt_map.values()) <= self._uids
