"""Saturation-kernel selection.

Two interchangeable kernels compute every PDS saturation and the hot
FSA operations behind them:

* ``object`` — the original dict-of-sets implementations
  (:mod:`repro.pds.poststar`, :mod:`repro.pds.prestar`,
  :mod:`repro.fsa.determinize`, :mod:`repro.fsa.minimize`,
  :func:`repro.fsa.ops.remove_epsilon`), states and symbols as
  arbitrary hashable objects.
* ``csr`` — the flat integer kernel (:mod:`repro.pds.kernel`,
  :mod:`repro.fsa.intops`): PDS rules compiled once per
  :class:`~repro.pds.system.PushdownSystem` into CSR-style arrays
  indexed by packed ``(control state, stack symbol)`` codes, automaton
  transitions as packed int triples, successor/state sets as int
  bitsets, and the worklists running entirely over machine ints.  The
  decoded results are *structurally identical* to the object kernel's
  (same state objects, same transition sets), so everything downstream
  — serialization, store digests, artifact footprints, rendered slices
  — is byte-for-byte unchanged.  The equivalence is pinned by
  ``tests/test_kernel_differential.py`` and the property suite.

Selection: the ``REPRO_KERNEL`` environment variable (read per call, so
tests can flip it), overridden per session by
``repro.open_session(source, kernel=...)``.  This module is a leaf —
no repro imports — so both :mod:`repro.fsa` and :mod:`repro.pds` can
consult it without cycles.

The kernel is the only choice here.  On ``csr``,
``SlicingSession.slice_many`` (and ``remove_features_many``) always
fuse two or more cold criteria into one multi-criterion kernel pass
(:func:`repro.pds.kernel.prestar_many_csr`) and run a single cold
criterion through the solo entry point; fused projections are
byte-identical to sequential runs.
"""

import os

OBJECT = "object"
CSR = "csr"
KERNELS = (OBJECT, CSR)

#: environment knob consulted when no explicit kernel is passed
ENV_VAR = "REPRO_KERNEL"


def current_kernel():
    """The kernel selected by the environment (``object`` when unset)."""
    return resolve_kernel(None)


def resolve_kernel(kernel):
    """Validate an explicit kernel name, or fall back to the
    environment default.  Raises ``ValueError`` on unknown names so a
    typo in ``REPRO_KERNEL`` fails loudly instead of silently running
    the wrong kernel."""
    if kernel is None:
        kernel = os.environ.get(ENV_VAR) or OBJECT
    if kernel not in KERNELS:
        raise ValueError(
            "unknown saturation kernel %r (expected one of %s)"
            % (kernel, ", ".join(KERNELS))
        )
    return kernel
