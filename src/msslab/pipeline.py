"""The five-step investigation pipeline over a declarative config.

Clustering computation is deliberately external: step three ingests a
clustering produced elsewhere, keeping the laboratory algorithm-agnostic.
"""

from __future__ import annotations

from typing import Optional

from .config import LabConfig, parse_config
from .errors import ParseError
from .report import (
    axioms_section,
    provenance,
    structure_summary,
    validation_section,
)
from .structure import SIGNATURE_SLOTS


def run_pipeline(
    config: LabConfig | dict, *, seed: Optional[int] = None, jobs: int = 1
) -> dict:
    """Assemble, reduce, ingest a clustering, bind membership, investigate.

    ``jobs`` is accepted and ignored; it stays only because
    ``bench/traced.py`` passes ``jobs=1``.
    """
    cfg = parse_config(config) if isinstance(config, dict) else config
    if cfg.clustering_lists is None:
        raise ParseError("missing clustering input", "clustering")
    seed = seed if seed is not None else cfg.seed

    skeleton = cfg.structure(None, bind_kappa=False, apply_reduct=False)
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
        reduced = cfg.structure(None, bind_kappa=False)
        step2 = {
            "applied": True,
            "kept": sorted(cfg.reduct_keep),
            "bound_slots": sorted(reduced.bound_slots() - {"kappa"}),
        }

    step3 = {
        "source": "external clustering ingested",
        "clusters": [list(names) for names in cfg.clustering_lists],
    }

    bound = cfg.structure(None)
    step4 = {
        "kappa_bound": "kappa" in bound.bound_slots(),
        "cluster_count": len(cfg.clustering_lists),
    }

    step5 = {
        "axioms": axioms_section(cfg, seed=seed),
        "validation": validation_section(cfg, seed=seed),
    }

    return {
        "command": "pipeline",
        "provenance": provenance(seed),
        "steps": {
            "step1_assemble": step1,
            "step2_reduct": step2,
            "step3_clustering": step3,
            "step4_bind": step4,
            "step5_investigate": step5,
        },
    }
