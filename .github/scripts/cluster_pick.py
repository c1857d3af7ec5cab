#!/usr/bin/env python3
"""Pick probe nodes for the e2e-cluster job by hash-slot ownership.

Mirrors internal/placement.SlotOf (Fibonacci hashing) so the shell side of
the CI job can reason about slot ownership without an extra Go binary:

    cluster_pick.py pair <nodes.tsv> <slots> <replicas>
        -> "SRC DST", two node ids owned by different replicas (for the
           cross-shard /link assert)
    cluster_pick.py slot <nodes.tsv> <slots> <slot>
        -> one node id hashing into the given slot (the migration probe)
    cluster_pick.py spread <nodes.tsv> <slots> <replicas> <n>
        -> "ID,ID,...", n node ids dealt evenly over the owning replicas
           (the routed POST /scores assert)
"""
import sys

GOLDEN = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def slot_of(node_id: int, slots: int) -> int:
    return ((node_id * GOLDEN) & MASK) % slots


def main() -> int:
    mode, path, slots = sys.argv[1], sys.argv[2], int(sys.argv[3])
    ids = [int(line.split("\t")[0]) for line in open(path) if line.strip()]
    if mode == "pair":
        replicas = int(sys.argv[4])
        owner = lambda i: slot_of(i, slots) % replicas  # even table: round-robin
        a = ids[0]
        b = next(i for i in ids[1:] if owner(i) != owner(a))
        print(a, b)
    elif mode == "spread":
        replicas, n = int(sys.argv[4]), int(sys.argv[5])
        by_owner = [[i for i in ids if slot_of(i, slots) % replicas == r] for r in range(replicas)]
        print(",".join(str(by_owner[k % replicas][k // replicas]) for k in range(n)))
    elif mode == "slot":
        want = int(sys.argv[4])
        print(next(i for i in ids if slot_of(i, slots) == want))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
