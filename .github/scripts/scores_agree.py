#!/usr/bin/env python3
"""Fail unless two graphinfer scores.tsv files score the same nodes alike.

    scores_agree.py <a.tsv> <b.tsv> [tolerance=1e-9]
"""
import sys


def load(path):
    with open(path) as f:
        return {int(i): [float(x) for x in s.split(",")] for i, s in (line.split("\t") for line in f if line.strip())}


a, b = load(sys.argv[1]), load(sys.argv[2])
tol = float(sys.argv[3]) if len(sys.argv) > 3 else 1e-9
if not a or a.keys() != b.keys():
    sys.exit(f"node sets differ: {len(a)} vs {len(b)} nodes, {len(a.keys() ^ b.keys())} in only one file")
bad = [i for i in a if len(a[i]) != len(b[i]) or any(abs(x - y) > tol for x, y in zip(a[i], b[i]))]
if bad:
    sys.exit(f"{len(bad)} of {len(a)} nodes differ by more than {tol}, e.g. node {bad[0]}: {a[bad[0]]} vs {b[bad[0]]}")
print(f"{len(a)} nodes agree within {tol}")
