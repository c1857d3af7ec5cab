package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"

	"agl/internal/graph"
	"agl/internal/placement"
)

// scoresPerBulk is the number of ids in every POST /scores.
const scoresPerBulk = 32

// poolSize is the length of the cyclic read schedule; long enough that no
// phase of a run wraps around it at the frozen rates.
const poolSize = 1 << 16

// call is the structured form of a request, for the in-process replay and
// for building the expected answer.
type call struct {
	kind reqKind
	ids  []int64          // score: [id]; link: [src, dst]; scores: the ids
	muts []graph.Mutation // update only
}

// nonOwnedIDs returns the ids the placement table does not assign to
// replica: sent to that replica, each costs exactly one proxy hop.
func nonOwnedIDs(ids []int64, table *placement.Table, replica int) []int64 {
	var out []int64
	for _, id := range ids {
		if table.OwnerOf(id) != replica {
			out = append(out, id)
		}
	}
	return out
}

// readMix generates n read calls over ids: 80% GET /score uniform over the
// ids (the working set dwarfs the cache, so these take the store path), 10%
// GET /link over uniform pairs, 10% POST /scores of 32 Zipf-skewed ids
// (the hot ids recur, so these hit the cache). With writeFrac above 0, every
// 1/writeFrac-th position is a write marker: evenly spaced, so that two
// windows of the schedule hold the same number of writes and differ only in
// what the writes are.
func readMix(rng *rand.Rand, ids []int64, n int, writeFrac float64) []call {
	hot := append([]int64(nil), ids...)
	rng.Shuffle(len(hot), func(a, b int) { hot[a], hot[b] = hot[b], hot[a] })
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(hot)-1))
	every, phase := 0, 0
	if writeFrac > 0 {
		every = int(math.Round(1 / writeFrac))
		phase = rng.Intn(every)
	}
	calls := make([]call, n)
	for i := range calls {
		if every > 0 && i%every == phase {
			calls[i] = call{kind: kindUpdate}
			continue
		}
		switch r := rng.Float64(); {
		case r < 0.8:
			calls[i] = call{kind: kindScore, ids: []int64{ids[rng.Intn(len(ids))]}}
		case r < 0.9:
			src := ids[rng.Intn(len(ids))]
			dst := ids[rng.Intn(len(ids))]
			for dst == src {
				dst = ids[rng.Intn(len(ids))]
			}
			calls[i] = call{kind: kindLink, ids: []int64{src, dst}}
		default:
			seen := make(map[int64]bool, scoresPerBulk)
			bulk := make([]int64, 0, scoresPerBulk)
			for len(bulk) < scoresPerBulk {
				if id := hot[zipf.Uint64()]; !seen[id] {
					seen[id] = true
					bulk = append(bulk, id)
				}
			}
			calls[i] = call{kind: kindScores, ids: bulk}
		}
	}
	return calls
}

// mutationStream generates one batch per entry of sizes, of that many
// mutations spread over the id space: edge inserts, removals of edges of the
// original graph (each at most once, so a removal never fails whatever order
// concurrent batches land in) and feature updates.
func mutationStream(rng *rand.Rand, g *graph.Graph, sizes []int) ([]call, error) {
	ids := g.SortedIDs()
	removable := rng.Perm(len(g.Edges))
	total := 0
	for _, n := range sizes {
		total += n
	}
	if len(removable) < total {
		return nil, fmt.Errorf("graph has %d edges, the mutation stream may need %d removals", len(removable), total)
	}
	calls := make([]call, len(sizes))
	for i := range calls {
		muts := make([]graph.Mutation, sizes[i])
		for j := range muts {
			switch r := rng.Float64(); {
			case r < 0.4:
				src := ids[rng.Intn(len(ids))]
				dst := ids[rng.Intn(len(ids))]
				for dst == src {
					dst = ids[rng.Intn(len(ids))]
				}
				muts[j] = graph.AddEdge(src, dst, float64(1+rng.Intn(5)))
			case r < 0.6:
				e := g.Edges[removable[0]]
				removable = removable[1:]
				muts[j] = graph.RemoveEdge(e.Src, e.Dst)
			default:
				node := g.Nodes[rng.Intn(len(g.Nodes))]
				feat := make([]float64, len(node.Feat))
				for k, v := range node.Feat {
					feat[k] = v + rng.NormFloat64()
				}
				muts[j] = graph.UpdateNodeFeat(node.ID, feat)
			}
		}
		calls[i] = call{kind: kindUpdate, muts: muts}
	}
	return calls, nil
}

// wireOf formats a call as HTTP request bytes.
func wireOf(c *call) ([]byte, error) {
	switch c.kind {
	case kindScore:
		return getRequest("/score?node=" + strconv.FormatInt(c.ids[0], 10)), nil
	case kindLink:
		return getRequest("/link?src=" + strconv.FormatInt(c.ids[0], 10) + "&dst=" + strconv.FormatInt(c.ids[1], 10)), nil
	case kindScores:
		body, err := json.Marshal(map[string][]int64{"nodes": c.ids})
		return postRequest("/scores", body), err
	case kindUpdate:
		body, err := json.Marshal(map[string][]graph.Mutation{"mutations": c.muts})
		return postRequest("/update", body), err
	}
	return nil, fmt.Errorf("unknown request kind %d", c.kind)
}

// encodeBody renders v the way aglserve's handlers do, so the expected and
// the served body can be compared as bytes.
func encodeBody(v any) []byte {
	var b bytes.Buffer
	json.NewEncoder(&b).Encode(v) // maps of numbers and strings cannot fail to encode
	return b.Bytes()
}

// sameAnswer reports whether the served body is the expected answer:
// byte-equal, or, should a later change re-order or re-space the JSON,
// equal as decoded values with every float bit-exact.
func sameAnswer(got, want []byte) bool {
	if bytes.Equal(got, want) {
		return true
	}
	var g, w any
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(want, &w) != nil {
		return false
	}
	return reflect.DeepEqual(g, w)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// repeated returns n copies of v.
func repeated(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}
