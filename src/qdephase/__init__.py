"""Entanglement versus mixedness for two coupled qubits under phase damping.

The library evaluates the closed-form dephasing family and its full measure
set (linear entropy, negativity, concurrence, entanglement of formation,
Uhlmann fidelity, Bures distance, relative entropy), distance-based
entanglement measures against mixed, maximally mixed and pure references,
the closest-separable-state distance of any two-qubit state in closed
form, a numerical search over the separable set that checks it (a library
and test tool; no command runs it), and an exact qubits-plus-reservoir
simulation that validates every closed form.
"""

from . import channel, matcore, measures, oracle, refsearch, states
from .channel import ChannelParams, DecoherenceFactor, decoherence_factor, evolve, kraus_factor
from .measures import (
    bures_distance,
    concurrence_family,
    concurrence_wootters,
    eof,
    linear_entropy,
    negativity,
    pure_fidelity,
    relative_entropy_exact,
    relative_entropy_linearized,
    uhlmann_fidelity,
)
from .refsearch import CssResult, closest_separable_bures, css_closed
from .states import initial_pure, maximally_mixed, mixed_reference, validate

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "CssResult",
    "DecoherenceFactor",
    "bures_distance",
    "channel",
    "closest_separable_bures",
    "concurrence_family",
    "concurrence_wootters",
    "css_closed",
    "decoherence_factor",
    "eof",
    "evolve",
    "initial_pure",
    "kraus_factor",
    "linear_entropy",
    "matcore",
    "maximally_mixed",
    "measures",
    "mixed_reference",
    "negativity",
    "oracle",
    "pure_fidelity",
    "refsearch",
    "relative_entropy_exact",
    "relative_entropy_linearized",
    "states",
    "uhlmann_fidelity",
    "validate",
]
