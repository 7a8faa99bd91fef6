"""Correlation-aware ensembling of reranker runs, and the evaluation harness.

When two systems rank nearly identically, averaging them adds little; the
ensemble damps each system's weight by its mean Spearman correlation with
the rest (w = base * (1 - lambda * corr), renormalized) so diverse systems
keep more influence.
"""
import numpy as np

from rankpipe import (
    EnsembleConfig,
    Run,
    adjust_weights,
    correlation_matrix,
    ensemble_runs,
    macro_average,
    ndcg_at_k,
    recall_at_k,
)

rng = np.random.default_rng(1)
docs = [f"d{i}" for i in range(8)]
relevant = {"d0", "d3"}

# systems A and B are near clones; C is just as good but errs differently
def noisy_scores(noise: float) -> dict[str, float]:
    return {d: (0.8 if d in relevant else 0.2) + float(rng.normal(scale=noise)) for d in docs}

base_scores = noisy_scores(0.25)
run_a = Run.from_scores({"q1": base_scores}, tag="model-a")
run_b = Run.from_scores({"q1": {d: s + rng.normal(scale=0.01) for d, s in base_scores.items()}}, tag="model-b")
run_c = Run.from_scores({"q1": noisy_scores(0.25)}, tag="model-c")

corr = correlation_matrix([run_a, run_b, run_c])
print("correlation matrix:\n", np.round(corr, 3))

# base weights reflect each system's standalone quality
config = EnsembleConfig(base_weights=[0.802, 0.792, 0.730], lam=0.5)
weights = adjust_weights(config, corr)
print("adjusted weights:", [round(w, 4) for w in weights])
# the clone pair is damped; the diverse system keeps more than its base share

combined = ensemble_runs([run_a, run_b, run_c], weights)
print("ensemble top-3:", combined.docids("q1")[:3])

# --- the evaluation harness ---------------------------------------------------
qrels = {"q1": {"d0": 1, "d3": 1, "d5": 0}}
for tag, run in (("A", run_a), ("ensemble", combined)):
    ndcg = ndcg_at_k(run, qrels, k=5)
    recall = recall_at_k(run, qrels, k=5)
    print(f"{tag}: ndcg@5={ndcg.mean:.4f} recall@5={recall.mean:.4f} "
          f"({ndcg.evaluated_queries} evaluated, {ndcg.skipped_queries} skipped)")

# per-language reports combine into one unweighted macro average
macro = macro_average([ndcg_at_k(combined, qrels, 5), ndcg_at_k(run_a, qrels, 5)])
print("macro average over two 'languages':", round(macro, 4))
