package mapreduce

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// hubInput builds records that all shuffle to one hub key plus a sprinkle
// of normal keys, the skew pattern AGL's re-indexing exists for.
func hubInput(hubValues, valueSize int) MemInput {
	var in MemInput
	payload := strings.Repeat("x", valueSize)
	for i := 0; i < hubValues; i++ {
		in = append(in, []byte(fmt.Sprintf("hub %s", payload)))
	}
	for i := 0; i < 50; i++ {
		in = append(in, []byte(fmt.Sprintf("cold%02d %s", i%10, payload)))
	}
	return in
}

var hubMapper = MapperFunc(func(rec []byte, emit Emit) error {
	parts := strings.SplitN(string(rec), " ", 2)
	return emit(KeyValue{Key: parts[0], Value: []byte(parts[1])})
})

// groupDigest summarizes a value stream order-sensitively, so the streamed
// and collected paths can be compared exactly.
func groupDigest(vals ...[]byte) (count int64, bytes int64, sum uint64) {
	h := fnv.New64a()
	for _, v := range vals {
		count++
		bytes += int64(len(v))
		h.Write(v)
	}
	return count, bytes, h.Sum64()
}

// TestHubKeyStreamsBoundedMemory pushes ~100k values through a single hub
// key and proves the engine never materializes the group: every value the
// iterator yields aliases one of a handful of reusable reader buffers
// (distinct backing arrays ≈ spill-reader count, not value count), and the
// reduce phase's heap stays far below the group's total size.
func TestHubKeyStreamsBoundedMemory(t *testing.T) {
	const hubValues = 100_000
	const valueSize = 200 // 20 MB hub group in total
	in := hubInput(hubValues, valueSize)

	var baseline runtime.MemStats
	backing := map[uintptr]bool{}
	var hubCount, hubBytes int64
	var heapChecked bool
	var heapDelta uint64
	reducer := ReducerFunc(func(key string, values ValueIter, emit Emit) error {
		if key != "hub" {
			return nil // the engine skips the rest of a group
		}
		for {
			v, ok := values.Next()
			if !ok {
				break
			}
			hubCount++
			hubBytes += int64(len(v))
			backing[reflect.ValueOf(v).Pointer()] = true
			if hubCount == hubValues/2 && !heapChecked {
				heapChecked = true
				runtime.GC()
				var mid runtime.MemStats
				runtime.ReadMemStats(&mid)
				if mid.HeapAlloc > baseline.HeapAlloc {
					heapDelta = mid.HeapAlloc - baseline.HeapAlloc
				}
			}
		}
		return values.Err()
	})

	runtime.GC()
	runtime.ReadMemStats(&baseline)
	stats, err := Run(Config{
		Name: "hub", TempDir: t.TempDir(), NumMappers: 4, NumReducers: 2,
	}, hubMapper, reducer, in, NewMemOutput())
	if err != nil {
		t.Fatal(err)
	}
	if hubCount != hubValues || hubBytes != int64(hubValues*valueSize) {
		t.Fatalf("hub group: count=%d bytes=%d", hubCount, hubBytes)
	}
	// Every value of equal size reuses a reader's buffer, so the distinct
	// backing arrays are bounded by the spill-reader (map task) count plus
	// slack for initial growth — nowhere near 100k per-value allocations.
	if len(backing) > 16 {
		t.Fatalf("engine materialized values: %d distinct backing arrays for %d values", len(backing), hubValues)
	}
	if !heapChecked {
		t.Fatal("heap checkpoint never ran")
	}
	if limit := uint64(hubValues * valueSize / 2); heapDelta > limit {
		t.Fatalf("reduce-phase heap grew %d bytes mid-group (limit %d): group is being held in memory", heapDelta, limit)
	}
	if stats.PeakGroupBytes != int64(hubValues*valueSize) {
		t.Fatalf("PeakGroupBytes=%d want %d", stats.PeakGroupBytes, hubValues*valueSize)
	}
}

// TestStreamedMatchesCollected asserts the streaming path is observationally
// identical to materializing the group: same values, same order, same
// per-key digests.
func TestStreamedMatchesCollected(t *testing.T) {
	in := hubInput(5_000, 32)
	type digest struct {
		count, bytes int64
		sum          uint64
	}
	runWith := func(reducer Reducer) map[string]digest {
		t.Helper()
		out := map[string]digest{}
		collect := NewMemOutput()
		_, err := Run(Config{Name: "eq", TempDir: t.TempDir(), NumMappers: 3, NumReducers: 3},
			hubMapper, reducer, in, collect)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range collect.Pairs() {
			var d digest
			fmt.Sscanf(string(kv.Value), "%d/%d/%d", &d.count, &d.bytes, &d.sum)
			out[kv.Key] = d
		}
		return out
	}

	streaming := runWith(ReducerFunc(func(key string, values ValueIter, emit Emit) error {
		h := fnv.New64a()
		var count, bytes int64
		for {
			v, ok := values.Next()
			if !ok {
				break
			}
			count++
			bytes += int64(len(v))
			h.Write(v)
		}
		if err := values.Err(); err != nil {
			return err
		}
		return emit(KeyValue{Key: key, Value: []byte(fmt.Sprintf("%d/%d/%d", count, bytes, h.Sum64()))})
	}))
	collected := runWith(ReducerFunc(func(key string, values ValueIter, emit Emit) error {
		var vals [][]byte
		for {
			v, ok := values.Next()
			if !ok {
				break
			}
			vals = append(vals, append([]byte(nil), v...))
		}
		if err := values.Err(); err != nil {
			return err
		}
		count, bytes, sum := groupDigest(vals...)
		return emit(KeyValue{Key: key, Value: []byte(fmt.Sprintf("%d/%d/%d", count, bytes, sum))})
	}))

	if len(streaming) != len(collected) {
		t.Fatalf("key sets differ: %d vs %d", len(streaming), len(collected))
	}
	for k, d := range streaming {
		if collected[k] != d {
			t.Fatalf("key %s: streamed %+v collected %+v", k, d, collected[k])
		}
	}
}

// TestEmptyReduceGroupNeverHappens documents the invariant that reducers
// are only invoked for keys with at least one value, streaming included.
func TestEmptyReduceGroupNeverHappens(t *testing.T) {
	reducer := ReducerFunc(func(key string, values ValueIter, emit Emit) error {
		if _, ok := values.Next(); !ok {
			t.Errorf("key %s delivered an empty group", key)
		}
		for {
			if _, ok := values.Next(); !ok {
				return values.Err()
			}
		}
	})
	if _, err := Run(Config{Name: "nonempty", TempDir: t.TempDir()},
		wcMapper, reducer, wcInput(), NewMemOutput()); err != nil {
		t.Fatal(err)
	}
}
