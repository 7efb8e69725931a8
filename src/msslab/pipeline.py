"""The five-step investigation pipeline over a declarative config.

Clustering computation is deliberately external: step three ingests a
clustering produced elsewhere, keeping the laboratory algorithm-agnostic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .report import axioms_section, cluster_names, structure_summary, validation_section
from .laws import SIGNATURE_SLOTS
from .verdicts import document, run_seed

if TYPE_CHECKING:  # annotations only
    from .config import LabConfig


def run_pipeline(cfg: LabConfig, *, seed: Optional[int] = None, jobs: int = 1) -> dict:
    """Assemble, reduce, ingest a clustering, bind membership, investigate.

    ``jobs`` is accepted and ignored; it stays only because
    ``bench/traced.py`` passes ``jobs=1``.
    """
    validation = validation_section(cfg)  # refuses a config with no clustering
    bound = cfg.base
    seed = run_seed(seed, cfg.seed)

    skeleton = bound._replace(kept=frozenset(SIGNATURE_SLOTS))
    step1 = {
        "structure": structure_summary(cfg),
        "bound_slots": sorted(skeleton.bound_slots() - {"kappa"}),
        "deferred_slots": sorted(
            set(SIGNATURE_SLOTS) - skeleton.bound_slots() - {"kappa"}
        ),
    }

    if cfg.reduct_keep is None:
        step2 = {"applied": False, "note": "no reduct requested"}
    else:
        step2 = {
            "applied": True,
            "kept": sorted(cfg.reduct_keep),
            "bound_slots": sorted(bound.bound_slots() - {"kappa"}),
        }

    step3 = {
        "source": "external clustering ingested",
        "clusters": cluster_names(cfg),
    }

    step4 = {
        "kappa_bound": "kappa" in bound.bound_slots(),
        "cluster_count": len(bound.kappa),
    }

    step5 = {
        "axioms": axioms_section(cfg, seed=seed),
        "validation": validation,
    }

    return document(
        "pipeline",
        seed,
        steps={
            "step1_assemble": step1,
            "step2_reduct": step2,
            "step3_clustering": step3,
            "step4_bind": step4,
            "step5_investigate": step5,
        },
    )
