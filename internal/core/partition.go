package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"agl/internal/dfs"
	"agl/internal/gnn"
	"agl/internal/mapreduce"
	"agl/internal/sampling"
)

// This file is GraphFlat's one output-dataset layout and the bounded-memory
// train/infer loops over it. With FlatConfig.Output set, the final round's
// records are hash-partitioned by target id into FlatConfig.Partitions part
// files (one by default) plus a manifest instead of being materialized in
// FlatResult.Records, and TrainPartitions / ScorePartitions stream them back
// one partition at a time — peak resident memory is the largest partition
// plus the training workspaces, not the dataset.

// partitionManifestName is the manifest file written next to the part
// files; dfs readers ignore it (they only list part-* files).
const partitionManifestName = "partitions.json"

// PartitionManifest describes a GraphFlat output dataset: part-NNNNN holds
// exactly the records whose target id hashes to partition NNNNN.
type PartitionManifest struct {
	// Partitions is the partition count; part files are part-00000 ..
	// part-(Partitions-1).
	Partitions int `json:"partitions"`
	// Link marks LinkRecord partitions (FlatConfig.EdgeTargets mode,
	// partitioned by the pair's source endpoint); false means per-node
	// TrainRecords partitioned by target node id.
	Link bool `json:"link"`
	// Records is the total record count across all partitions.
	Records int `json:"records"`
	// Counts is the per-partition record count, len == Partitions.
	Counts []int `json:"counts"`
}

// partitionOf maps a target id to its partition — the same Fibonacci hash
// as the serving tier's shards, well-mixed even for sequential ids.
func partitionOf(id int64, partitions int) int {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return int(h % uint64(partitions))
}

// writePartitionedOutput streams the final round's keyed records into
// cfg.Partitions hash-partitioned part files under cfg.Output, plus the
// manifest. In node mode the shuffle key is the target node id; in link
// mode (pairs non-nil) it is the pair index, and the pair's source
// endpoint picks the partition. The final round's output is read in
// order, so every partition keeps the order of the in-memory
// FlatResult.Records, and with SpillRounds set the records stream from disk
// to disk without ever being resident at once.
func writePartitionedOutput(cfg FlatConfig, finalRound mapreduce.Input, pairs []EdgeTarget) (*PartitionManifest, error) {
	writers := make([]*dfs.PartWriter, cfg.Partitions)
	abort := func() {
		for _, w := range writers {
			if w != nil {
				w.Abort()
			}
		}
	}
	for i := range writers {
		w, err := cfg.Output.Writer(i)
		if err != nil {
			abort()
			return nil, err
		}
		writers[i] = w
	}
	man := &PartitionManifest{
		Partitions: cfg.Partitions,
		Link:       pairs != nil,
		Counts:     make([]int, cfg.Partitions),
	}
	if err := scanPairs(finalRound, func(kv mapreduce.KeyValue) error {
		key, err := strconv.ParseInt(kv.Key, 10, 64)
		if err != nil {
			return fmt.Errorf("bad final-round key %q: %w", kv.Key, err)
		}
		target := key
		if pairs != nil {
			if key < 0 || key >= int64(len(pairs)) {
				return fmt.Errorf("pair index %d out of range (have %d pairs)", key, len(pairs))
			}
			target = pairs[key].Src
		}
		p := partitionOf(target, cfg.Partitions)
		man.Counts[p]++
		man.Records++
		return writers[p].Append(kv.Value)
	}); err != nil {
		abort()
		return nil, err
	}
	for _, w := range writers {
		if err := w.Close(); err != nil {
			return nil, err
		}
	}
	if err := dfs.WriteFile(filepath.Join(cfg.Output.Path(), partitionManifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(man)
	}); err != nil {
		return nil, err
	}
	return man, nil
}

// PartitionSet is a reader over a GraphFlat output dataset: the manifest
// plus lazy per-partition loading. Load materializes exactly one
// partition's records; dropping the returned slice releases them.
type PartitionSet struct {
	dir *dfs.Dir
	man PartitionManifest
}

// OpenPartitions opens a dataset Flatten wrote to FlatConfig.Output — every
// GraphFlat output dataset. A directory without a manifest (not a GraphFlat
// output, or one in the retired manifest-less layout) is refused with a
// message saying to regenerate it; so is a manifest whose counts are
// negative or do not sum to its record total.
func OpenPartitions(path string) (*PartitionSet, error) {
	dir, err := dfs.Open(path)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(path, partitionManifestName))
	if err != nil {
		return nil, fmt.Errorf("core: %s is not a graphflat dataset, or one in the retired layout without %s; regenerate it with graphflat: %w",
			path, partitionManifestName, err)
	}
	var man PartitionManifest
	if err := json.Unmarshal(b, &man); err != nil {
		return nil, fmt.Errorf("core: bad partition manifest in %s: %w", path, err)
	}
	if err := man.check(); err != nil {
		return nil, fmt.Errorf("core: implausible partition manifest in %s: %w", path, err)
	}
	return &PartitionSet{dir: dir, man: man}, nil
}

// check holds a manifest to what writePartitionedOutput writes: one
// non-negative count per partition, summing to Records.
func (m PartitionManifest) check() error {
	if m.Partitions < 1 || len(m.Counts) != m.Partitions {
		return fmt.Errorf("partitions=%d with %d counts", m.Partitions, len(m.Counts))
	}
	left := m.Records
	for i, c := range m.Counts {
		// c > left also catches a negative Records, and keeps the sum from
		// overflowing.
		if c < 0 || c > left {
			return fmt.Errorf("count %d of partition %d does not fit records=%d", c, i, m.Records)
		}
		left -= c
	}
	if left != 0 {
		return fmt.Errorf("counts sum to %d, records=%d", m.Records-left, m.Records)
	}
	return nil
}

// NumPartitions returns the partition count.
func (p *PartitionSet) NumPartitions() int { return p.man.Partitions }

// Link reports whether the partitions hold LinkRecords.
func (p *PartitionSet) Link() bool { return p.man.Link }

// Records returns the total record count.
func (p *PartitionSet) Records() int { return p.man.Records }

// Load materializes partition i's records. The allocation grows with the
// records actually read, never with the manifest's count, which only
// checks the result.
func (p *PartitionSet) Load(i int) ([][]byte, error) {
	if i < 0 || i >= p.man.Partitions {
		return nil, fmt.Errorf("core: partition %d out of range [0,%d)", i, p.man.Partitions)
	}
	path := filepath.Join(p.dir.Path(), fmt.Sprintf("part-%05d", i))
	var out [][]byte
	if err := dfs.ScanParts([]string{path}, func(rec []byte) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("core: partition %d: %w", i, err)
	}
	if len(out) != p.man.Counts[i] {
		return nil, fmt.Errorf("core: partition %d holds %d records, manifest says %d", i, len(out), p.man.Counts[i])
	}
	return out, nil
}

// First returns the first record of the first non-empty partition —
// enough to sniff the feature dimension without loading a partition.
func (p *PartitionSet) First() ([]byte, error) {
	for i := 0; i < p.man.Partitions; i++ {
		if p.man.Counts[i] == 0 {
			continue
		}
		path := filepath.Join(p.dir.Path(), fmt.Sprintf("part-%05d", i))
		r, err := dfs.OpenPart(path)
		if err != nil {
			return nil, err
		}
		rec, err := r.Next()
		r.Close()
		if err != nil {
			return nil, err
		}
		return rec, nil
	}
	return nil, fmt.Errorf("core: dataset is empty")
}

// each streams the partitions through fn in the given order, skipping empty
// ones. A side goroutine loads ahead of fn, so partition N+1's disk read and
// record framing overlap partition N's compute. The first error, from a
// load or from fn, ends the scan.
func (p *PartitionSet) each(order []int, fn func(part int, recs [][]byte) error) error {
	type loaded struct {
		part int
		recs [][]byte
		err  error
	}
	feed := make(chan loaded, 1)
	go func() {
		defer close(feed)
		for _, pi := range order {
			recs, err := p.Load(pi)
			feed <- loaded{pi, recs, err}
			if err != nil {
				return
			}
		}
	}()
	for lp := range feed {
		err := lp.err
		if err == nil && len(lp.recs) > 0 {
			err = fn(lp.part, lp.recs)
		}
		if err != nil {
			// Drain the prefetcher so it never parks on its send.
			go func() {
				for range feed {
				}
			}()
			return err
		}
	}
	return nil
}

// TrainPartitions is Train over a GraphFlat output dataset with bounded
// resident memory: epoch e streams the partitions, in the order keyed
// (cfg.Seed, e), through one pass each of the same workers and the same
// parameter servers, holding one partition's records while the next loads.
// Convergence matches Train over the concatenated records up to batch
// ordering, and over a single partition (GraphFlat's default) the two
// return the same model.
//
// cfg.Eval, cfg.EvalEvery and cfg.Patience work as in Train.
func TrainPartitions(cfg TrainConfig, parts *PartitionSet) (*TrainResult, error) {
	if link := cfg.Model.EdgeHead != ""; link != parts.Link() {
		return nil, fmt.Errorf("core: dataset link=%v does not match model edge head %q",
			parts.Link(), cfg.Model.EdgeHead)
	}
	return train(cfg, parts.Records(), func(e int, pass func(int, [][]byte) error) error {
		return parts.each(sampling.Perm(sampling.Key(uint64(cfg.Seed), uint64(e)), parts.NumPartitions()), pass)
	})
}

// ScorePartitions runs batched node inference over a GraphFlat output
// dataset one partition at a time (prefetching the next while the current
// one scores), streaming each partition's (ids, score vectors) to fn.
// Resident memory is bounded by one partition plus the inference
// workspace. Link partitions are rejected — use PredictLinks over
// PartitionSet.Load for pair scoring.
func ScorePartitions(model *gnn.Model, parts *PartitionSet, batchSize int, opt gnn.RunOptions,
	fn func(part int, ids []int64, scores [][]float64) error) error {
	if parts.Link() {
		return fmt.Errorf("core: ScorePartitions needs node partitions (this dataset holds LinkRecords)")
	}
	order := make([]int, parts.NumPartitions())
	for i := range order {
		order[i] = i
	}
	return parts.each(order, func(part int, recs [][]byte) error {
		ids, logits, _, _, err := Predict(model, recs, batchSize, opt)
		if err != nil {
			return err
		}
		scores := make([][]float64, logits.Rows)
		for i := range scores {
			scores[i] = ScoresFromLogits(logits.Row(i))
		}
		return fn(part, ids, scores)
	})
}
