package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agl/internal/datagen"
	"agl/internal/dfs"
	"agl/internal/gnn"
	"agl/internal/mapreduce"
	"agl/internal/nn"
	"agl/internal/wire"
)

// flattenPartitioned runs the miniCora train flatten into an output dataset
// of the given partition count and opens it.
func flattenPartitioned(t testing.TB, partitions int) (*PartitionSet, *datagen.Dataset, string) {
	t.Helper()
	ds, err := datagen.Cora(datagen.CoraConfig{
		Nodes: 240, Edges: 700, FeatDim: 48, Classes: 4, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	targets := map[int64]Target{}
	for _, id := range ds.Train {
		targets[id] = Target{Label: int64(ds.LabelOf(id))}
	}
	outPath := filepath.Join(t.TempDir(), "flat")
	out, err := dfs.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Flatten(FlatConfig{
		Hops: 2, Seed: 5, TempDir: t.TempDir(),
		Output: out, Partitions: partitions,
	}, mapreduce.MemInput(TableRecords(ds.G)), targets)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != nil {
		t.Fatal("partitioned flatten materialized Records")
	}
	if res.Partitioned == nil || res.Partitioned.Partitions != partitions {
		t.Fatalf("manifest %+v", res.Partitioned)
	}
	parts, err := OpenPartitions(outPath)
	if err != nil {
		t.Fatal(err)
	}
	return parts, ds, outPath
}

// TestPartitionedFlattenMatchesUnpartitioned: partitioning must be a pure
// re-bucketing — the union of all partitions equals the unpartitioned
// flatten's records as a multiset, and every record sits in the partition
// its target id hashes to.
func TestPartitionedFlattenMatchesUnpartitioned(t *testing.T) {
	want, _, _ := miniCora(t, 2)
	parts, _, _ := flattenPartitioned(t, 4)

	wantSet := map[string]int{}
	for _, rec := range want {
		wantSet[string(rec)]++
	}
	total := 0
	for i := 0; i < parts.NumPartitions(); i++ {
		recs, err := parts.Load(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != parts.man.Counts[i] {
			t.Fatalf("partition %d: %d records, manifest says %d", i, len(recs), parts.man.Counts[i])
		}
		for _, rec := range recs {
			tr, err := wire.DecodeTrainRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			if p := partitionOf(tr.TargetID, parts.NumPartitions()); p != i {
				t.Fatalf("target %d landed in partition %d, hashes to %d", tr.TargetID, i, p)
			}
			wantSet[string(rec)]--
			total++
		}
	}
	if total != len(want) || total != parts.Records() {
		t.Fatalf("partitions hold %d records, unpartitioned %d, manifest %d", total, len(want), parts.Records())
	}
	for _, n := range wantSet {
		if n != 0 {
			t.Fatal("partitioned records are not the same multiset as unpartitioned")
		}
	}
}

// TestOpenPartitionsRejectsUnpartitioned: a directory of part files without
// a manifest — the retired manifest-less layout — must not open, and the
// error must say how to get a readable dataset.
func TestOpenPartitionsRejectsUnpartitioned(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "plain")
	out, err := dfs.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := out.Writer(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPartitions(dir); err == nil || !strings.Contains(err.Error(), "regenerate it with graphflat") {
		t.Fatalf("OpenPartitions on a dataset without a manifest: %v", err)
	}
}

// FuzzOpenPartitions: any manifest next to real part files either is
// refused or opens with non-negative counts summing to Records, and
// loading its partitions never panics and returns exactly the counted
// records.
func FuzzOpenPartitions(f *testing.F) {
	_, _, src := flattenPartitioned(f, 3)
	names, err := filepath.Glob(filepath.Join(src, "part-*"))
	if err != nil || len(names) != 3 {
		f.Fatalf("part files %v: %v", names, err)
	}
	written, err := os.ReadFile(filepath.Join(src, partitionManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(written)
	f.Add([]byte(`{"partitions":1,"link":false,"records":0,"counts":[0]}`))
	f.Add([]byte(`{"partitions":1,"link":false,"records":-1,"counts":[-1]}`))
	f.Add([]byte(`{"partitions":1,"link":false,"records":0,"counts":[-1]}`))
	f.Add([]byte(`{"partitions":1,"link":false,"records":4611686018427387904,"counts":[4611686018427387904]}`))
	f.Add([]byte(`{"partitions":2,"link":true,"records":0,"counts":[4611686018427387904,-4611686018427387904]}`))
	f.Fuzz(func(t *testing.T, manifest []byte) {
		dir := t.TempDir()
		for _, name := range names {
			if err := os.Symlink(name, filepath.Join(dir, filepath.Base(name))); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, partitionManifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		parts, err := OpenPartitions(dir)
		if err != nil {
			return
		}
		man := parts.man
		left := man.Records
		for i, c := range man.Counts {
			if c < 0 || c > left {
				t.Fatalf("accepted count %d of partition %d with records=%d", c, i, man.Records)
			}
			left -= c
		}
		if left != 0 {
			t.Fatalf("accepted counts %v that do not sum to records=%d", man.Counts, man.Records)
		}
		for i := 0; i < parts.NumPartitions(); i++ {
			if recs, err := parts.Load(i); err == nil && len(recs) != man.Counts[i] {
				t.Fatalf("partition %d: loaded %d records, manifest says %d", i, len(recs), man.Counts[i])
			}
		}
		parts.First()
	})
}

// TestTrainPartitionsLearns: streaming one partition at a time through the
// shared parameter server must still converge — loss decreases and the
// final model reaches the same accuracy band as in-memory Train on the
// identical dataset.
func TestTrainPartitionsLearns(t *testing.T) {
	_, test, _ := miniCora(t, 2)
	parts, _, _ := flattenPartitioned(t, 3)
	res, err := TrainPartitions(TrainConfig{
		Model: gnn.Config{
			Kind: gnn.KindGCN, InDim: 48, Hidden: 16, Classes: 4, Layers: 2,
			Act: nn.ActReLU, Seed: 1,
		},
		Loss: LossCE, BatchSize: 32, Epochs: 25, LR: 0.02,
		Eval: test, EvalMetric: MetricAccuracy, Seed: 2,
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 25 {
		t.Fatalf("history has %d epochs, want 25", len(res.History))
	}
	first, last := res.History[0].Loss, res.History[len(res.History)-1].Loss
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	final := res.History[len(res.History)-1]
	if !final.HasMetric || final.Metric < 0.55 {
		t.Fatalf("test accuracy %v too low (random = 0.25)", final.Metric)
	}
	if res.PSBytesOut == 0 || res.PSBytesIn == 0 {
		t.Fatalf("no PS traffic recorded: %+v", res)
	}
}

// TestTrainPartitionsMultiWorker: the per-partition worker fan-out must
// hold up with several workers sharing the PS cluster.
func TestTrainPartitionsMultiWorker(t *testing.T) {
	parts, _, _ := flattenPartitioned(t, 4)
	res, err := TrainPartitions(TrainConfig{
		Model: gnn.Config{
			Kind: gnn.KindGCN, InDim: 48, Hidden: 8, Classes: 4, Layers: 1,
			Act: nn.ActReLU, Seed: 1,
		},
		Loss: LossCE, BatchSize: 16, Epochs: 6, LR: 0.02,
		Workers: 3, PSShards: 2, Seed: 3,
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	if res.History[len(res.History)-1].Loss >= res.History[0].Loss {
		t.Fatal("multi-worker partition training did not learn")
	}
}

// TestTrainPartitionsValidation pins the config cross-checks.
func TestTrainPartitionsValidation(t *testing.T) {
	parts, _, _ := flattenPartitioned(t, 2)
	// Node partitions + link model: rejected.
	_, err := TrainPartitions(TrainConfig{
		Model: gnn.Config{
			Kind: gnn.KindGCN, InDim: 48, Hidden: 8, Classes: 1, Layers: 1,
			Act: nn.ActReLU, Seed: 1, EdgeHead: gnn.EdgeHeadDot,
		},
		Loss: LossBCE, Epochs: 1,
	}, parts)
	if err == nil || !strings.Contains(err.Error(), "does not match model edge head") {
		t.Fatalf("link-mode mismatch: %v", err)
	}
	// FlatConfig validation: Partitions counts Output's part files, so it
	// needs Output, and must be >= 0.
	if err := (FlatConfig{Partitions: 2}).Validate(); err == nil {
		t.Fatal("Partitions without Output accepted")
	}
	if err := (FlatConfig{Partitions: -1}).Validate(); err == nil {
		t.Fatal("negative Partitions accepted")
	}
}

// TestScorePartitionsMatchesPredict: the streaming scorer must reproduce
// the direct Predict logits partition by partition.
func TestScorePartitionsMatchesPredict(t *testing.T) {
	parts, _, _ := flattenPartitioned(t, 3)
	model, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindGCN, InDim: 48, Hidden: 8, Classes: 4, Layers: 2,
		Act: nn.ActReLU, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	const bs = 32
	seen := 0
	err = ScorePartitions(model, parts, bs, gnn.RunOptions{},
		func(part int, ids []int64, scores [][]float64) error {
			recs, err := parts.Load(part)
			if err != nil {
				t.Fatal(err)
			}
			wantIDs, logits, _, _, err := Predict(model, recs, bs, gnn.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != len(wantIDs) {
				t.Fatalf("partition %d: %d ids, Predict %d", part, len(ids), len(wantIDs))
			}
			for i := range ids {
				if ids[i] != wantIDs[i] {
					t.Fatalf("partition %d row %d: id %d, Predict %d", part, i, ids[i], wantIDs[i])
				}
				want := ScoresFromLogits(logits.Row(i))
				for j := range want {
					if scores[i][j] != want[j] {
						t.Fatalf("partition %d id %d dim %d: %v vs %v", part, ids[i], j, scores[i][j], want[j])
					}
				}
				seen++
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if seen != parts.Records() {
		t.Fatalf("scored %d records, dataset has %d", seen, parts.Records())
	}
}

// TestFlattenLinkPartitioned: edge-target mode partitions the pair records
// by source endpoint and round-trips the unpartitioned multiset.
func TestFlattenLinkPartitioned(t *testing.T) {
	ds, err := datagen.Cora(datagen.CoraConfig{
		Nodes: 120, Edges: 350, FeatDim: 12, Classes: 3, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var pairs []EdgeTarget
	for i, e := range ds.G.Edges {
		if i%4 == 0 && len(pairs) < 40 && e.Src != e.Dst {
			pairs = append(pairs, EdgeTarget{Src: e.Src, Dst: e.Dst, Label: 1})
		}
	}
	base := FlatConfig{Hops: 2, Seed: 5, EdgeTargets: pairs}

	cfg := base
	cfg.TempDir = t.TempDir()
	plain, err := Flatten(cfg, mapreduce.MemInput(TableRecords(ds.G)), nil)
	if err != nil {
		t.Fatal(err)
	}

	outPath := filepath.Join(t.TempDir(), "flat")
	out, err := dfs.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg = base
	cfg.TempDir = t.TempDir()
	cfg.Output, cfg.Partitions = out, 3
	res, err := Flatten(cfg, mapreduce.MemInput(TableRecords(ds.G)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitioned == nil || !res.Partitioned.Link {
		t.Fatalf("manifest %+v, want link partitions", res.Partitioned)
	}

	parts, err := OpenPartitions(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !parts.Link() {
		t.Fatal("PartitionSet lost the link flag")
	}
	wantSet := map[string]int{}
	for _, rec := range plain.Records {
		wantSet[string(rec)]++
	}
	total := 0
	for i := 0; i < parts.NumPartitions(); i++ {
		recs, err := parts.Load(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			lr, err := wire.DecodeLinkRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			if p := partitionOf(lr.Src, parts.NumPartitions()); p != i {
				t.Fatalf("pair src %d landed in partition %d, hashes to %d", lr.Src, i, p)
			}
			wantSet[string(rec)]--
			total++
		}
	}
	if total != len(plain.Records) {
		t.Fatalf("partitions hold %d link records, unpartitioned %d", total, len(plain.Records))
	}
	for _, n := range wantSet {
		if n != 0 {
			t.Fatal("partitioned link records differ from unpartitioned")
		}
	}
	// ScorePartitions refuses link partitions.
	model, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindGCN, InDim: 12, Hidden: 4, Classes: 1, Layers: 1,
		Act: nn.ActReLU, Seed: 2, EdgeHead: gnn.EdgeHeadDot,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = ScorePartitions(model, parts, 8, gnn.RunOptions{}, func(int, []int64, [][]float64) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "LinkRecords") {
		t.Fatalf("ScorePartitions on link partitions: %v", err)
	}
}

// TestTrainPartitionsSurfacesLoadErrors: a partition file going missing
// mid-run must surface as an error, not a hang (the prefetch goroutine is
// drained on the error path).
func TestTrainPartitionsSurfacesLoadErrors(t *testing.T) {
	parts, _, path := flattenPartitioned(t, 3)
	if err := os.Remove(filepath.Join(path, "part-00001")); err != nil {
		t.Fatal(err)
	}
	_, err := TrainPartitions(TrainConfig{
		Model: gnn.Config{
			Kind: gnn.KindGCN, InDim: 48, Hidden: 8, Classes: 4, Layers: 1,
			Act: nn.ActReLU, Seed: 1,
		},
		Loss: LossCE, Epochs: 2, Seed: 3,
	}, parts)
	if err == nil {
		t.Fatal("missing partition file went unnoticed")
	}
}

// TestPartitionSetFirstAndLoadBounds: First sniffs the first record of
// the first non-empty partition without materializing it, and Load
// rejects out-of-range indices.
func TestPartitionSetFirstAndLoadBounds(t *testing.T) {
	parts, _, _ := flattenPartitioned(t, 3)
	first, err := parts.First()
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < parts.NumPartitions(); i++ {
		if parts.man.Counts[i] == 0 {
			continue
		}
		recs, err := parts.Load(i)
		if err != nil {
			t.Fatal(err)
		}
		want = recs[0]
		break
	}
	if string(first) != string(want) {
		t.Fatal("First does not match the first record of the first non-empty partition")
	}
	if _, err := parts.Load(-1); err == nil {
		t.Fatal("Load(-1) accepted")
	}
	if _, err := parts.Load(parts.NumPartitions()); err == nil {
		t.Fatal("Load past the end accepted")
	}
}

// TestScorePartitionsPropagatesCallbackError: an error returned from the
// per-partition callback must stop the scan (draining the prefetcher,
// not deadlocking it) and surface to the caller.
func TestScorePartitionsPropagatesCallbackError(t *testing.T) {
	parts, _, _ := flattenPartitioned(t, 3)
	model, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindGCN, InDim: 48, Hidden: 4, Classes: 4, Layers: 1,
		Act: nn.ActReLU, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	err = ScorePartitions(model, parts, 16, gnn.RunOptions{},
		func(int, []int64, [][]float64) error {
			calls++
			return fmt.Errorf("sink full")
		})
	if err == nil || !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("callback error lost: %v", err)
	}
	if calls != 1 {
		t.Fatalf("scan continued past the failing callback: %d calls", calls)
	}
}
