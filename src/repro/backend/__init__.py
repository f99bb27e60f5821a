"""Simulation backends for the crossbar pulse-train model.

The behavioural model of the paper (Eqs. 2-4) is defined as a sequence of
noisy analog reads: one read per input pulse, one partial sum per physical
tile.  *How* those reads are executed is an implementation choice, and this
subpackage isolates it behind the :class:`SimulationEngine` interface:

* :class:`ReferenceEngine` — executes the model literally: one crossbar read
  per pulse, one partial sum per tile.  ``O(num_pulses x num_tiles)`` numpy
  calls; the ground truth the fast path is validated against.
* :class:`VectorizedEngine` — batches pulses x tiles x batch into a handful
  of matmul/tensordot calls with one batched noise draw, exploiting that the
  paper's Gaussian read noise is i.i.d. across pulses and tiles.  The default
  engine for every experiment and benchmark.

The same split covers the GBO training stage (Eq. 5): the engines'
``gbo_mixture_read`` evaluates the softmax mixture over the candidate
encoding space Omega either as one literal crossbar read per candidate
(reference) or as a single batched read plus one Gaussian draw whose
deviation folds the candidates' weighted scales in quadrature (vectorized;
equal in distribution, not sample for sample).

Engine selection: pin an engine in a :class:`repro.sim.SimConfig` (or pass
one explicitly to :func:`repro.crossbar.mvm.pulsed_mvm`).  Resolution
follows the one precedence rule of :func:`repro.sim.resolve_engine_name`:
explicit pin, then a profile's ``backend`` field, then ``"vectorized"``.
"""

from repro.backend.engine import (
    SimulationEngine,
    available_engines,
    get_engine,
    register_engine,
    resolve_engine,
)
from repro.backend.reference import ReferenceEngine
from repro.backend.vectorized import VectorizedEngine

__all__ = [
    "SimulationEngine",
    "ReferenceEngine",
    "VectorizedEngine",
    "available_engines",
    "get_engine",
    "register_engine",
    "resolve_engine",
]
