"""LINE embeddings of the bipartite graph (Tang et al., WWW 2015).

Included primarily as the baseline that E-LINE improves on (paper Fig. 13 and
the Section VI-C ablation on proximity orders).  Three variants are exposed:

* ``order="second"`` — second-order proximity only (the variant the paper
  reports for GRAFICS-with-LINE, since first-order proximity is meaningless
  on a bipartite graph where edges only connect nodes of different types);
* ``order="first"``  — first-order proximity only;
* ``order="combined"`` — both terms jointly (the paper trains them jointly in
  its comparison rather than concatenating, which is what we do here too).
"""

from __future__ import annotations

from ..graph import BipartiteGraph
from .base import EmbeddingConfig, GraphEmbedder, GraphEmbedding
from .trainer import EdgeSamplingTrainer, ObjectiveTerms

__all__ = ["LINEEmbedder"]

_ORDERS = {
    "first": ObjectiveTerms(first_order=True, second_order=False),
    "second": ObjectiveTerms(first_order=False, second_order=True),
    "combined": ObjectiveTerms(first_order=True, second_order=True),
}


class LINEEmbedder(GraphEmbedder):
    """LINE graph embedding with selectable proximity order."""

    def __init__(self, config: EmbeddingConfig | None = None,
                 order: str = "second") -> None:
        super().__init__(config)
        if order not in _ORDERS:
            known = ", ".join(sorted(_ORDERS))
            raise ValueError(f"unknown LINE order {order!r}; known: {known}")
        self.order = order

    def fit(self, graph: BipartiteGraph,
            warm_start: GraphEmbedding | None = None) -> GraphEmbedding:
        """Learn LINE embeddings for every node of ``graph``."""
        trainer = EdgeSamplingTrainer(graph, self.config, _ORDERS[self.order])
        ego, context = trainer.initial_embeddings(warm_start=warm_start)
        losses = trainer.train(ego, context)
        record_index, mac_index = self._index_maps(graph)
        return GraphEmbedding(ego=ego, context=context,
                              record_index=record_index, mac_index=mac_index,
                              config=self.config, training_loss=losses)
