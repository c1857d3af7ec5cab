#!/usr/bin/env python3
"""Diff-check served /link AUC between two aglserve backends.

    quant_auc.py <nodes.tsv> <edges.tsv> <float_url> <quant_url> <budget_pct>

Builds a balanced pair set (positives sampled from the edge table,
negatives from non-edges), scores every pair through GET /link on both
servers, computes the rank-sum ROC-AUC of each, and fails when the
quantized backend's AUC regret relative to the float backend exceeds
budget_pct percent.
"""
import json
import random
import sys
import urllib.request


def served_score(url: str, src: int, dst: int) -> float:
    with urllib.request.urlopen(f"{url}/link?src={src}&dst={dst}", timeout=30) as r:
        return float(json.load(r)["score"])


def auc(labeled):
    """Rank-sum ROC-AUC with midranks for ties."""
    ranked = sorted(labeled, key=lambda p: p[1])
    ranks, i = {}, 0
    while i < len(ranked):
        j = i
        while j < len(ranked) and ranked[j][1] == ranked[i][1]:
            j += 1
        mid = (i + j + 1) / 2  # 1-based midrank of the tie group
        for k in range(i, j):
            ranks[id(ranked[k])] = mid
        i = j
    pos = [p for p in labeled if p[0] == 1]
    neg = [p for p in labeled if p[0] == 0]
    rank_sum = sum(ranks[id(p)] for p in pos)
    return (rank_sum - len(pos) * (len(pos) + 1) / 2) / (len(pos) * len(neg))


def main() -> int:
    nodes_path, edges_path, float_url, quant_url = sys.argv[1:5]
    budget = float(sys.argv[5])
    ids = [int(line.split("\t")[0]) for line in open(nodes_path) if line.strip()]
    edges = set()
    for line in open(edges_path):
        if line.strip():
            f = line.split("\t")
            edges.add((int(f[0]), int(f[1])))

    rng = random.Random(7)
    pos = rng.sample(sorted(edges), min(40, len(edges)))
    neg = []
    while len(neg) < len(pos):
        a, b = rng.choice(ids), rng.choice(ids)
        if a != b and (a, b) not in edges and (b, a) not in edges:
            neg.append((a, b))
    pairs = [(1, s, d) for s, d in pos] + [(0, s, d) for s, d in neg]

    auc_by_url = {}
    for url in (float_url, quant_url):
        labeled = [(label, served_score(url, s, d)) for label, s, d in pairs]
        auc_by_url[url] = auc(labeled)

    a_f, a_q = auc_by_url[float_url], auc_by_url[quant_url]
    regret = max(0.0, (a_f - a_q) / a_f * 100) if a_f > 0 else 0.0
    print(f"served /link AUC: float {a_f:.4f}, quant {a_q:.4f}, "
          f"regret {regret:.2f}% (budget {budget:g}%)")
    if regret > budget:
        print(f"quantized serving regressed AUC past the budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
