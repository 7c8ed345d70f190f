"""Fully-connected topology with per-process link labelling.

Section II of the paper: processes are arranged in a fully connected
synchronous network; the links of each process are labelled ``1..N`` where
``1..N-1`` go to the other processes and link ``N`` is a self-loop. Crucially,
a receiver learns only the *label of the link* a message arrived on — link
labels are private to each endpoint and carry no global identity. This class
realises that model: each process gets an independent random permutation
mapping its local labels to peers, so nothing about a peer's identity can be
inferred from a label.

The wiring is stored as one *port row* per process: ``row[label - 1]`` is
the peer behind ``label``, and the last entry is the process itself. A row
is the other processes shuffled by the process's own
``derive_rng(seed, "topology", p)`` stream, then the self-loop. The shuffle
is written out inline, but it draws exactly what :meth:`random.Random.shuffle`
draws (a Fisher–Yates pass taking each index by ``getrandbits`` rejection),
so every run keeps the labelling it has always had. A row, and its inverse
label row, is built the first time it is read: each row draws only from its
own stream, so rows built in any order, or never, leave the others' bits
unchanged, and a run whose receivers never read their inboxes builds none.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .errors import ConfigurationError
from .rng import derive_rng


class FullMeshTopology:
    """Link-labelled full mesh over ``n`` processes (global indices ``0..n-1``).

    The labelling is fixed for the lifetime of a run: messages sent by ``p``
    on a given label always reach the same peer, and all messages from a given
    peer arrive at ``q`` on the same label — the standard "ports" model.

    Construction draws nothing: each port row is drawn on first use.
    :meth:`port_row` and :meth:`label_row` hand out one process's row and
    its inverse as tuples, for consumers that route every message (the
    batched engine); :attr:`port_rows` builds every row.
    Per-label queries should use :meth:`peer_of` / :meth:`label_of`, which
    validate their arguments.
    """

    def __init__(self, n: int, seed: int = 0) -> None:
        if n < 1:
            raise ConfigurationError(f"topology needs at least one process, got n={n}")
        self._n = n
        self._seed = seed
        self._rows: List[Optional[Tuple[int, ...]]] = [None] * n
        self._labels: List[Optional[Tuple[int, ...]]] = [None] * n
        # random.shuffle's steps: swap slot i with a draw below i + 1, taken
        # as getrandbits(k) with rejection; the same for every row.
        self._steps = [(i, i + 1, (i + 1).bit_length()) for i in reversed(range(1, n - 1))]

    @property
    def n(self) -> int:
        """Number of processes."""
        return self._n

    @property
    def self_link(self) -> int:
        """The self-loop label (always ``n``)."""
        return self._n

    def labels(self) -> Sequence[int]:
        """All valid link labels, ``1..n`` (``n`` being the self-loop)."""
        return range(1, self._n + 1)

    def port_row(self, process: int) -> Tuple[int, ...]:
        """``port_row(p)[label - 1]`` is the peer ``p`` reaches via ``label``.

        Drawn on first use; a read of a built row skips validation.
        """
        row = self._rows[process]
        if row is None:
            self._check_process(process)  # a negative index must not wrap
            n = self._n
            row = [*range(process), *range(process + 1, n)]
            getrandbits = derive_rng(self._seed, "topology", process).getrandbits
            for i, size, k in self._steps:
                j = getrandbits(k)
                while j >= size:
                    j = getrandbits(k)
                row[i], row[j] = row[j], row[i]
            row.append(process)  # self-loop, per the paper's model
            row = self._rows[process] = tuple(row)
        return row

    def label_row(self, process: int) -> Tuple[int, ...]:
        """``label_row(p)[q]`` is the label at ``p`` of traffic to/from ``q``.

        The inverse of :meth:`port_row`, built on first use; a read of a
        built row skips validation.
        """
        labels = self._labels[process]
        if labels is None:
            inverse = [0] * self._n
            for label, peer in enumerate(self.port_row(process), 1):
                inverse[peer] = label
            labels = self._labels[process] = tuple(inverse)
        return labels

    @property
    def port_rows(self) -> Tuple[Tuple[int, ...], ...]:
        """``port_rows[p][label - 1]`` is the peer ``p`` reaches via ``label``.

        Builds every row not built yet.
        """
        return tuple(map(self.port_row, range(self._n)))

    def _check_process(self, process: int) -> None:
        if not 0 <= process < self._n:
            raise ConfigurationError(f"invalid process index {process} (n={self._n})")

    def peer_of(self, process: int, label: int) -> int:
        """Global index of the peer that ``process`` reaches via ``label``."""
        self._check_process(process)
        if not 1 <= label <= self._n:
            raise ConfigurationError(
                f"invalid link label {label} at process {process} (n={self._n})"
            )
        return self.port_row(process)[label - 1]

    def label_of(self, process: int, peer: int) -> int:
        """Label at ``process`` on which traffic to/from ``peer`` travels."""
        self._check_process(process)
        if not 0 <= peer < self._n:
            raise ConfigurationError(
                f"no link between process {process} and peer {peer} (n={self._n})"
            )
        return self.label_row(process)[peer]
