"""Agreement substrates: approximate and exact.

* :class:`ApproximateAgreement` — synchronous Byzantine AA (DLPSW [7]), the
  primitive under Alg. 1's voting phase.
* :class:`EIGInteractiveConsistency` — ``t+1``-round interactive consistency
  (identified model).
* :class:`EIGBroadcast` — single-source EIG subtree; N of them behind a
  :class:`~repro.sim.compose.Multiplexer` form the consensus-renaming
  baseline.
* :func:`make_identified_factory` — bridge for the identified-model
  protocols.
"""

from .approximate import ApproximateAgreement, ValueMessage, initial_values_factory
from .eig import DEFAULT_VALUE, EIGBroadcast, EIGInteractiveConsistency, RelayMessage
from .identity import make_identified_factory

__all__ = [
    "ApproximateAgreement",
    "DEFAULT_VALUE",
    "EIGBroadcast",
    "EIGInteractiveConsistency",
    "RelayMessage",
    "ValueMessage",
    "initial_values_factory",
    "make_identified_factory",
]
