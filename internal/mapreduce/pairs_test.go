package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"agl/internal/dfs"
)

// joinReducer emits each group's values joined in arrival order, so any
// change in the order a key's values reach the reducer shows.
var joinReducer = ReducerFunc(func(key string, values ValueIter, emit Emit) error {
	var parts []string
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		parts = append(parts, string(v))
	}
	if err := values.Err(); err != nil {
		return err
	}
	return emit(KeyValue{Key: key, Value: []byte(strings.Join(parts, ","))})
})

// testPairs is 120 pairs over 17 keys, each value naming its position.
func testPairs() Pairs {
	var in Pairs
	for i := 0; i < 120; i++ {
		in = append(in, KeyValue{Key: fmt.Sprintf("k%02d", i*7%17), Value: []byte(fmt.Sprintf("v%03d", i))})
	}
	return in
}

func runJoin(t *testing.T, mapper Mapper, in Input) ([]KeyValue, *Stats) {
	t.Helper()
	out := NewMemOutput()
	stats, err := Run(Config{Name: "pairs", TempDir: t.TempDir(), NumMappers: 3, NumReducers: 4},
		mapper, joinReducer, in, out)
	if err != nil {
		t.Fatal(err)
	}
	return out.Pairs(), stats
}

func samePairs(a, b []KeyValue) bool {
	return slices.EqualFunc(a, b, func(x, y KeyValue) bool { return x.Key == y.Key && bytes.Equal(x.Value, y.Value) })
}

// TestPairsMatchFramedRecords: a job over pairs produces the same output,
// in the same order, as the same job over their EncodeKV records, in
// memory and read back from disk.
func TestPairsMatchFramedRecords(t *testing.T) {
	in := testPairs()
	var framed MemInput
	dir, err := dfs.Create(filepath.Join(t.TempDir(), "framed"))
	if err != nil {
		t.Fatal(err)
	}
	// Three contiguous part files, read back in order as splits.
	for p := 0; p < 3; p++ {
		w, err := dir.Writer(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range in[p*40 : (p+1)*40] {
			framed = append(framed, EncodeKV(kv))
			if err := w.Append(EncodeKV(kv)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	decode := MapperFunc(func(rec []byte, emit Emit) error {
		kv, err := DecodeKV(rec)
		if err != nil {
			return err
		}
		return emit(kv)
	})
	want, _ := runJoin(t, decode, framed)
	got, _ := runJoin(t, IdentityMapper, in)
	if !samePairs(got, want) {
		t.Fatalf("pairs gave\n%v\nframed records gave\n%v", got, want)
	}
	fromDisk, _ := runJoin(t, IdentityMapper, DFSPairs{Dir: dir})
	if !samePairs(fromDisk, want) {
		t.Fatalf("DFSPairs gave\n%v\nframed records gave\n%v", fromDisk, want)
	}
}

// TestPairMapRetryReadsSameInput: a map attempt that fails after emitting
// part of its split is retried to the same committed output, and the input
// pairs are left as they were.
func TestPairMapRetryReadsSameInput(t *testing.T) {
	in := testPairs()
	before := slices.Clone(in)
	for i := range before {
		before[i].Value = slices.Clone(in[i].Value)
	}
	want, _ := runJoin(t, IdentityMapper, in)
	var failed atomic.Bool
	failing := PairMapperFunc(func(kv KeyValue, emit Emit) error {
		if err := emit(kv); err != nil {
			return err
		}
		// v050 sits mid-split: the attempt has emitted part of it by now.
		if string(kv.Value) == "v050" && failed.CompareAndSwap(false, true) {
			return errors.New("injected mid-split failure")
		}
		return nil
	})
	got, stats := runJoin(t, failing, in)
	if !failed.Load() || stats.Retries != 1 {
		t.Fatalf("failed=%v retries=%d, want one failed attempt", failed.Load(), stats.Retries)
	}
	if !samePairs(got, want) {
		t.Fatalf("retried job gave\n%v\nwant\n%v", got, want)
	}
	if !samePairs(in, before) {
		t.Fatal("the job modified its input pairs")
	}
}

// TestFilterConcatKeepOrder: a Concat of two Filter views of one input
// delivers each key's values in Concat order, each view in input order.
func TestFilterConcatKeepOrder(t *testing.T) {
	in := testPairs()
	odd := func(kv KeyValue) bool { return kv.Value[len(kv.Value)-1]%2 == 1 }
	even := func(kv KeyValue) bool { return !odd(kv) }
	got, stats := runJoin(t, IdentityMapper, Concat{Filter{In: in, Keep: odd}, Filter{In: in, Keep: even}})
	if stats.MapRecordsIn != int64(len(in)) {
		t.Fatalf("read %d pairs, want %d", stats.MapRecordsIn, len(in))
	}
	wantOf := map[string][]string{}
	for _, keep := range []func(KeyValue) bool{odd, even} {
		for _, kv := range in {
			if keep(kv) {
				wantOf[kv.Key] = append(wantOf[kv.Key], string(kv.Value))
			}
		}
	}
	if len(got) != len(wantOf) {
		t.Fatalf("%d keys, want %d", len(got), len(wantOf))
	}
	for _, kv := range got {
		if want := strings.Join(wantOf[kv.Key], ","); string(kv.Value) != want {
			t.Fatalf("key %s: values %s, want %s", kv.Key, kv.Value, want)
		}
	}
	onlyOdd, stats := runJoin(t, IdentityMapper, Filter{In: in, Keep: odd})
	if stats.MapRecordsIn != int64(len(in)/2) || len(onlyOdd) != len(wantOf) {
		t.Fatalf("filtered job read %d pairs into %d keys", stats.MapRecordsIn, len(onlyOdd))
	}
}
