"""Identified-model bridge: give protocols a global process index.

The paper's model deliberately withholds sender identities (receivers see
only link labels) — that is what makes Byzantine renaming non-trivial.
Classical consensus protocols such as EIG are instead stated in the
*identified* model where every process knows its index and the index behind
every link. The consensus-based renaming baseline therefore runs in a
strictly **stronger** model than Algorithm 1; the comparison in experiment E7
is conservative — the baseline gets help Algorithm 1 does not get, and still
loses on round complexity.

:func:`make_identified_factory` reconstructs the run's topology (it is a pure
function of ``n`` and the labelling seed) and hands each process its global
index plus the link→index mapping.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from ..sim.process import Process, ProcessContext
from ..sim.topology import FullMeshTopology

#: Builder signature: (ctx, my_index, link_to_index) -> Process.
IdentifiedBuilder = Callable[[ProcessContext, int, Dict[int, int]], Process]


def make_identified_factory(
    n: int, ids: Sequence[int], seed: int, build: IdentifiedBuilder
):
    """Factory for :func:`repro.sim.run_protocol` injecting identity info.

    ``ids`` must match the ``ids`` later passed to ``run_protocol``, and
    ``seed`` its labelling seed — ``topology_seed`` when the run is given
    one, else ``seed``. The topology is re-derived from them.
    """
    topology = FullMeshTopology(n, seed=seed)
    index_of_id = {identifier: index for index, identifier in enumerate(ids)}

    def factory(ctx: ProcessContext) -> Process:
        me = index_of_id[ctx.my_id]
        link_to_index = {
            topology.label_of(me, peer): peer for peer in range(n) if peer != me
        }
        link_to_index[topology.self_link] = me
        return build(ctx, me, link_to_index)

    return factory
