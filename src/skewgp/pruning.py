"""Lottery-ticket-style pruning of kernel components.

Each round trains the GP for a fixed iteration budget, removes components
whose weight (in original target-variance units) falls below the threshold,
rewinds the survivors to their recorded initial values, and retrains.  The
largest-weight component is never pruned, so at least one survives.  The
per-round report is the returned model's ``prune_report`` dict, which
``model_to_dict`` also writes to the model record.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError
from .gp import Dataset, TrainedModel, _model_from_params, fit
from .kernels import BASELINE_KERNELS
from .optimize import OptConfig


@dataclass(frozen=True)
class PruneConfig:
    threshold: float = 1.0         # applied to denormalized weights
    rounds: int = 2
    opt: OptConfig = field(default_factory=lambda: OptConfig(max_iters=100))

    def __post_init__(self):
        if not (self.threshold >= 0.0):
            raise DataError(f"threshold must be >= 0, got {self.threshold}")
        if self.rounds < 1:
            raise DataError("rounds must be >= 1")


@dataclass
class PruneRound:
    round: int
    nlml_before_prune: float
    pruned_indices: list[int]
    pruned_weights: list[float]
    surviving_q: int
    nlml_after_prune: float


def _denorm_weights(model: TrainedModel) -> np.ndarray:
    return np.array([c.w for c in model.denormalized_params().components])


def lth_fit(data: Dataset, init_params, kind: str,
            cfg: PruneConfig | None = None) -> TrainedModel:
    """Train with iterative component pruning and rewind-to-initialization.

    ``init_params`` is the recorded round-0 initialization of a mixture
    kernel in raw target units.  Returns the final retrained (and, if the
    last round pruned, reduced) model, whose ``prune_report`` holds the
    threshold and one :class:`PruneRound` dict per round and whose
    ``opt_result`` is the last round's optimization.  The noise
    variance is global state and is never rewound.
    """
    if kind in BASELINE_KERNELS:
        raise DataError(f"pruning needs a mixture kernel, got {kind!r}")
    cfg = cfg or PruneConfig()
    initial_components = tuple(init_params.components)
    surviving = list(range(len(initial_components)))
    rounds = []

    round_init = init_params
    model = None
    for rnd in range(1, cfg.rounds + 1):
        model = fit(data, round_init, kind, cfg.opt)
        nlml_before = model.nlml_internal
        weights = _denorm_weights(model)
        keep_mask = weights >= cfg.threshold
        keep_mask[int(np.argmax(weights))] = True   # largest weight always survives
        pruned_local = [i for i, k in enumerate(keep_mask) if not k]
        pruned_global = [surviving[i] for i in pruned_local]
        pruned_weights = [float(weights[i]) for i in pruned_local]
        surviving = [surviving[i] for i, k in enumerate(keep_mask) if k]

        trained = model.params
        if pruned_local:
            kept_trained = tuple(c for c, k in zip(trained.components, keep_mask) if k)
            pruned_params = trained.with_components(kept_trained)
            model = _model_from_params(kind, pruned_params, model.data,
                                       model.normalization, model.train_fingerprint,
                                       opt_result=model.opt_result)
        rounds.append(PruneRound(
            round=rnd,
            nlml_before_prune=nlml_before,
            pruned_indices=pruned_global,
            pruned_weights=pruned_weights,
            surviving_q=len(surviving),
            nlml_after_prune=model.nlml_internal,
        ))

        if rnd < cfg.rounds:
            comps = tuple(initial_components[g] for g in surviving)
            noise_var = model.denormalized_params().noise_var
            round_init = init_params.__class__(comps, noise_var=noise_var)

    model.prune_report = {"threshold": cfg.threshold,
                          "rounds": [asdict(r) for r in rounds]}
    return model
