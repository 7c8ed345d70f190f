"""Message base types and the bit-size accounting model.

The paper reports message complexity in *bits* (Sections IV-D and VI-B), so
every message carries an explicit :meth:`Message.bit_size` estimate. The
model is deliberately simple and uniform across protocols:

* a message *kind* tag costs :data:`KIND_BITS`;
* an original id costs ``ceil(log2 N_max)`` bits (``N_max`` is the size of
  the original namespace, fixed per run);
* a rank / new name costs ``ceil(log2 N)`` bits plus :data:`RANK_FRACTION_BITS`
  fractional bits when it is a real-valued approximate-agreement rank;
* containers cost the sum of their elements.

Protocols define their concrete message dataclasses on top of
:class:`Message`; the simulator only ever relies on the base interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

#: Bits charged for the message-kind tag.
KIND_BITS = 8

#: Fractional bits charged for a real-valued rank in AA messages.
RANK_FRACTION_BITS = 32


def int_bits(namespace_size: int) -> int:
    """Bits needed to encode one value from a namespace of the given size."""
    if namespace_size <= 1:
        return 1
    return int(math.ceil(math.log2(namespace_size)))


@dataclass(frozen=True)
class Message:
    """Base class for everything that travels over a link.

    Subclasses are frozen dataclasses; freezing makes accidental aliasing
    between the sender's and receivers' copies harmless, which matters because
    the simulator delivers the *same object* to every recipient of a
    broadcast.
    """

    def bit_size(self, id_bits: int = 64, rank_bits: int = 16) -> int:
        """Estimated wire size in bits.

        ``id_bits`` is the cost of one original id (``log2 N_max``);
        ``rank_bits`` the integral cost of one rank (``log2 N``). The default
        implementation charges the kind tag plus ``id_bits`` per field, which
        is right for the common "tag + one id" control messages; richer
        messages override this.
        """
        return KIND_BITS + id_bits * len(fields(self))

    @property
    def kind(self) -> str:
        """Human-readable message kind (the class name)."""
        return type(self).__name__
