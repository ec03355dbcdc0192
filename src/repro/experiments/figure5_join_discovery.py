"""Figure 5 — join discovery precision / recall / F1 vs. decision threshold.

Both methods produce a joinability *score* per column pair; sweeping the
decision threshold from 0.4 to 0.9 traces the curves of Figure 5.  WarpGate's
score is the cosine similarity of column embeddings, so it only reflects
surface value overlap; UniDM's score is the fraction of repeated pipeline runs
(over different sampled column values) that answer "joinable", which also
captures semantic links (abbreviations, codes) the LLM knows about — the
source of its advantage at every threshold.
"""

from __future__ import annotations

import numpy as np

from ..baselines import WarpGateJoinDiscovery
from ..core.config import UniDMConfig
from ..core.tasks.join_discovery import JoinDiscoveryTask
from ..datasets import load_dataset
from ..eval import confusion, format_table
from .common import make_llm
from ..core.pipeline import UniDM

#: Thresholds swept in the paper's Figure 5.
THRESHOLDS = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

#: Qualitative reference from Figure 5: UniDM's F1 stays in the high 0.8s
#: across thresholds while WarpGate degrades, especially at high thresholds.
PAPER_REFERENCE = {
    "UniDM": "F1 ~0.85-0.90 across thresholds",
    "WarpGate": "F1 ~0.75-0.85, dropping as the threshold rises",
}

DATASET = "nextiajd"


def unidm_scores(
    dataset, seed: int = 0, n_probes: int = 3, max_tasks: int | None = None
) -> tuple[list[float], list[bool]]:
    """Joinability scores: fraction of probe runs answering "joinable"."""
    tasks = dataset.tasks if max_tasks is None else dataset.tasks[:max_tasks]
    labels = dataset.ground_truth if max_tasks is None else dataset.ground_truth[:max_tasks]
    scores: list[float] = []
    llm = make_llm(dataset, seed=seed + 2)
    pipeline = UniDM(llm, UniDMConfig.full(seed=seed))
    for index, task in enumerate(tasks):
        votes = 0
        for probe in range(n_probes):
            probe_task = JoinDiscoveryTask(
                task.table_a,
                task.column_a,
                task.table_b,
                task.column_b,
                n_sample_values=task.n_sample_values,
                n_sample_records=task.n_sample_records,
                seed=task.seed + 7919 * probe,
            )
            if pipeline.run(probe_task).value:
                votes += 1
        scores.append(votes / n_probes)
        _ = index
    return scores, list(labels)


def warpgate_scores(
    dataset, seed: int = 0, max_tasks: int | None = None
) -> tuple[list[float], list[bool]]:
    method = WarpGateJoinDiscovery(seed=seed)
    bench = dataset if max_tasks is None else dataset.subset(max_tasks, seed=0)
    return method.score_dataset(bench), list(bench.ground_truth)


def curve_rows(method: str, scores: list[float], labels: list[bool]) -> list[dict]:
    rows = []
    scores_array = np.asarray(scores, dtype=float)
    for threshold in THRESHOLDS:
        predictions = (scores_array >= threshold).tolist()
        matrix = confusion(predictions, labels)
        rows.append(
            {
                "method": method,
                "threshold": threshold,
                "precision": 100 * matrix.precision,
                "recall": 100 * matrix.recall,
                "f1": 100 * matrix.f1,
            }
        )
    return rows


def run(seed: int = 0, max_tasks: int | None = None, n_probes: int = 3) -> list[dict]:
    dataset = load_dataset(DATASET, seed=seed)
    rows: list[dict] = []
    uni_scores, uni_labels = unidm_scores(
        dataset, seed=seed, n_probes=n_probes, max_tasks=max_tasks
    )
    rows.extend(curve_rows("UniDM", uni_scores, uni_labels))
    wg_scores, wg_labels = warpgate_scores(dataset, seed=seed, max_tasks=max_tasks)
    rows.extend(curve_rows("WarpGate", wg_scores, wg_labels))
    return rows


def main(seed: int = 0, max_tasks: int | None = None) -> str:
    table = format_table(
        run(seed=seed, max_tasks=max_tasks),
        columns=["method", "threshold", "precision", "recall", "f1"],
        title="Figure 5 — Join discovery precision/recall/F1 vs threshold (%)",
    )
    print(table)
    return table


if __name__ == "__main__":  # pragma: no cover
    main()
