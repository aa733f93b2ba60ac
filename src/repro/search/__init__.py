"""Search algorithms: RS and its model-based/model-free variants.

* :func:`random_search` — random search without replacement (RS), the
  paper's baseline (Section II).
* :func:`pruned_search` — RS with the surrogate pruning strategy
  (Algorithm 1, RSp).
* :func:`biased_search` — RS with the surrogate biasing strategy
  (Algorithm 2, RSb).
* :func:`hybrid_search` — the prune-then-bias hybrid (RSpb): the
  biased pool gated by the pruning cutoff ``∆``.
* :func:`model_free_pruned_search` / :func:`model_free_biased_search` —
  the model-free controls RSpf / RSbf (Section IV-D).
* :class:`SharedStream` — the common-random-numbers protocol: RS on the
  source, RS on the target, and RSp on the target all walk the same
  configuration sequence.

All variants are thin factories over one :class:`SearchEngine`
evaluation loop, composed from a Proposer (candidate source) crossed
with a Gate (admission test) — see ``docs/architecture.md`` for
building new combinations.  The model-guided
variants additionally take ``guard=`` (a
:class:`repro.transfer.guard.GuardPolicy`), arming
:class:`GuardedProposer`/:class:`GuardedGate` negative-transfer
monitoring with graceful fallback to plain RS.
"""

from repro.search.result import EvaluationRecord, SearchTrace
from repro.search.stream import SharedStream
from repro.search.protocols import SurrogateModel
from repro.search.engine import SearchEngine
from repro.search.guarded import GuardedGate, GuardedProposer
from repro.search.random_search import random_search
from repro.search.pruning import pruned_search
from repro.search.biasing import biased_search, hybrid_search
from repro.search.model_free import model_free_biased_search, model_free_pruned_search

__all__ = [
    "EvaluationRecord",
    "SearchTrace",
    "SharedStream",
    "SurrogateModel",
    "SearchEngine",
    "GuardedProposer",
    "GuardedGate",
    "random_search",
    "pruned_search",
    "biased_search",
    "hybrid_search",
    "model_free_pruned_search",
    "model_free_biased_search",
]
