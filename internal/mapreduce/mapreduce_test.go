package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"agl/internal/dfs"
)

// wordCount pieces shared by several tests.
var wcMapper = MapperFunc(func(rec []byte, emit Emit) error {
	for _, w := range strings.Fields(string(rec)) {
		if err := emit(KeyValue{Key: w, Value: []byte("1")}); err != nil {
			return err
		}
	}
	return nil
})

var wcReducer = ReducerFunc(func(key string, values ValueIter, emit Emit) error {
	total := 0
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		n, err := strconv.Atoi(string(v))
		if err != nil {
			return err
		}
		total += n
	}
	if err := values.Err(); err != nil {
		return err
	}
	return emit(KeyValue{Key: key, Value: []byte(strconv.Itoa(total))})
})

func wcInput() MemInput {
	return MemInput{
		[]byte("the quick brown fox"),
		[]byte("the lazy dog"),
		[]byte("the quick dog"),
	}
}

func countsOf(pairs []KeyValue) map[string]int {
	out := map[string]int{}
	for _, kv := range pairs {
		n, _ := strconv.Atoi(string(kv.Value))
		out[kv.Key] = n
	}
	return out
}

func TestWordCount(t *testing.T) {
	out := NewMemOutput()
	stats, err := Run(Config{Name: "wc", TempDir: t.TempDir(), NumReducers: 3},
		wcMapper, wcReducer, wcInput(), out)
	if err != nil {
		t.Fatal(err)
	}
	got := countsOf(out.Pairs())
	want := map[string]int{"the": 3, "quick": 2, "brown": 1, "fox": 1, "lazy": 1, "dog": 2}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%s]=%d want %d (all: %v)", k, got[k], v, got)
		}
	}
	if stats.MapRecordsIn != 3 || stats.ReduceKeys != 6 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestMapTaskRetrySucceeds(t *testing.T) {
	var failed int32
	faults := func(kind string, idx, attempt int) error {
		if kind == "map" && idx == 0 && attempt == 0 && atomic.CompareAndSwapInt32(&failed, 0, 1) {
			return errors.New("injected map failure")
		}
		return nil
	}
	out := NewMemOutput()
	stats, err := Run(Config{Name: "retry", TempDir: t.TempDir(), Faults: faults},
		wcMapper, wcReducer, wcInput(), out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries != 1 {
		t.Fatalf("retries=%d", stats.Retries)
	}
	if got := countsOf(out.Pairs()); got["the"] != 3 {
		t.Fatalf("retry corrupted output: %v", got)
	}
}

func TestReduceTaskRetryDoesNotDuplicateOutput(t *testing.T) {
	// Fail every reduce task once *after* it has written some output; the
	// abort+retry must not duplicate records.
	attempts := map[string]*int32{}
	for i := 0; i < 4; i++ {
		attempts[fmt.Sprintf("r%d", i)] = new(int32)
	}
	faults := func(kind string, idx, attempt int) error {
		if kind != "reduce" {
			return nil
		}
		if atomic.AddInt32(attempts[fmt.Sprintf("r%d", idx)], 1) == 1 {
			return errors.New("injected reduce failure")
		}
		return nil
	}
	out := NewMemOutput()
	stats, err := Run(Config{Name: "rretry", TempDir: t.TempDir(), Faults: faults},
		wcMapper, wcReducer, wcInput(), out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries != 4 {
		t.Fatalf("retries=%d want 4", stats.Retries)
	}
	got := countsOf(out.Pairs())
	if got["the"] != 3 || len(got) != 6 {
		t.Fatalf("retry duplicated or lost output: %v", got)
	}
}

func TestPermanentFailureSurfaces(t *testing.T) {
	faults := func(kind string, idx, attempt int) error {
		if kind == "map" && idx == 0 {
			return errors.New("hard failure")
		}
		return nil
	}
	_, err := Run(Config{Name: "fail", TempDir: t.TempDir(), MaxAttempts: 2, Faults: faults},
		wcMapper, wcReducer, wcInput(), NewMemOutput())
	if err == nil || !strings.Contains(err.Error(), "hard failure") {
		t.Fatalf("err=%v", err)
	}
}

func TestPanicInUserCodeIsARetryableFailure(t *testing.T) {
	var fired int32
	panicMapper := MapperFunc(func(rec []byte, emit Emit) error {
		if atomic.CompareAndSwapInt32(&fired, 0, 1) {
			panic("mapper bug")
		}
		return wcMapper(rec, emit)
	})
	out := NewMemOutput()
	stats, err := Run(Config{Name: "panic", TempDir: t.TempDir(), NumMappers: 1},
		panicMapper, wcReducer, wcInput(), out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries == 0 {
		t.Fatal("panic did not trigger retry")
	}
	if got := countsOf(out.Pairs()); got["the"] != 3 {
		t.Fatalf("output wrong after panic retry: %v", got)
	}
}

func TestValuesGroupedAndOrderedDeterministically(t *testing.T) {
	// Each mapper emits under one key; values must arrive grouped, ordered
	// by map task then emit order.
	input := MemInput{[]byte("a:1 a:2"), []byte("a:3 a:4")}
	mapper := MapperFunc(func(rec []byte, emit Emit) error {
		for _, tok := range strings.Fields(string(rec)) {
			parts := strings.Split(tok, ":")
			if err := emit(KeyValue{Key: parts[0], Value: []byte(parts[1])}); err != nil {
				return err
			}
		}
		return nil
	})
	var got []string
	reducer := ReducerFunc(func(key string, values ValueIter, emit Emit) error {
		for {
			v, ok := values.Next()
			if !ok {
				return values.Err()
			}
			got = append(got, string(v))
		}
	})
	_, err := Run(Config{Name: "order", TempDir: t.TempDir(), NumMappers: 1, NumReducers: 1},
		mapper, reducer, input, NewMemOutput())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "1,2,3,4" {
		t.Fatalf("value order: %v", got)
	}
}

// TestPartitionIsFNV1a pins partition to the 32-bit FNV-1a hash of the key
// modulo the reducer count, so spill layouts stay what they were.
func TestPartitionIsFNV1a(t *testing.T) {
	keys := []string{"", "a", "the", "node:12345", "\x00\xff\x80", strings.Repeat("k", 300)}
	for i := 0; i < 200; i++ {
		keys = append(keys, strconv.Itoa(i*7919))
	}
	for _, k := range keys {
		h := fnv.New32a()
		h.Write([]byte(k))
		for _, n := range []int{1, 2, 3, 7, 64} {
			if got, want := partition(k, n), int(h.Sum32()%uint32(n)); got != want {
				t.Fatalf("partition(%q, %d) = %d want %d", k, n, got, want)
			}
		}
	}
}

// TestSortByKeyIsStable holds the map-side sort to a stable sort by key:
// equal keys keep their emit order, so spills stay byte-identical.
func TestSortByKeyIsStable(t *testing.T) {
	var idx []int32
	for _, n := range []int{0, 1, 2, 3, 17, 1000} {
		kvs := make([]KeyValue, n)
		for i := range kvs {
			kvs[i] = KeyValue{Key: strconv.Itoa((i * 7919) % (n/3 + 1)), Value: []byte(strconv.Itoa(i))}
		}
		want := slices.Clone(kvs)
		slices.SortStableFunc(want, func(a, b KeyValue) int { return strings.Compare(a.Key, b.Key) })
		idx = sortByKey(kvs, idx)
		for i := range want {
			if kvs[i].Key != want[i].Key || !bytes.Equal(kvs[i].Value, want[i].Value) {
				t.Fatalf("n=%d: position %d holds %s/%s want %s/%s", n, i, kvs[i].Key, kvs[i].Value, want[i].Key, want[i].Value)
			}
		}
	}
}

func TestDFSInputOutputRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in, err := dfs.Create(filepath.Join(dir, "in"))
	if err != nil {
		t.Fatal(err)
	}
	for i, recs := range [][]string{{"x y", "x x"}, {"y z"}, {"z x"}} {
		w, err := in.Writer(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Append([]byte(r)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	outDir, err := dfs.Create(filepath.Join(dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{Name: "dfs", TempDir: dir, NumReducers: 2},
		wcMapper, wcReducer, DFSInput{Dir: in}, DFSOutput{Dir: outDir})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := outDir.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, rec := range recs {
		kv, err := DecodeKV(rec)
		if err != nil {
			t.Fatal(err)
		}
		got[kv.Key], _ = strconv.Atoi(string(kv.Value))
	}
	if got["x"] != 4 || got["y"] != 2 || got["z"] != 2 {
		t.Fatalf("dfs round trip: %v", got)
	}
}

func TestEncodeDecodeKV(t *testing.T) {
	kv := KeyValue{Key: "node/42", Value: []byte{0, 1, 2}}
	got, err := DecodeKV(EncodeKV(kv))
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != kv.Key || !bytes.Equal(got.Value, kv.Value) {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := DecodeKV([]byte{200}); err == nil {
		t.Fatal("expected malformed record error")
	}
	// Empty value allowed.
	got2, err := DecodeKV(EncodeKV(KeyValue{Key: "k"}))
	if err != nil || got2.Key != "k" || len(got2.Value) != 0 {
		t.Fatalf("empty value: %+v err=%v", got2, err)
	}
}

func TestEmptyInput(t *testing.T) {
	out := NewMemOutput()
	stats, err := Run(Config{Name: "empty", TempDir: t.TempDir()},
		wcMapper, wcReducer, MemInput{}, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Pairs()) != 0 || stats.MapRecordsIn != 0 {
		t.Fatal("empty input produced output")
	}
}

func TestLargeShuffleManyKeys(t *testing.T) {
	var input MemInput
	for i := 0; i < 200; i++ {
		input = append(input, []byte(fmt.Sprintf("k%03d v", i%50)))
	}
	mapper := MapperFunc(func(rec []byte, emit Emit) error {
		k := strings.Fields(string(rec))[0]
		return emit(KeyValue{Key: k, Value: []byte("1")})
	})
	out := NewMemOutput()
	stats, err := Run(Config{Name: "many", TempDir: t.TempDir(), NumMappers: 8, NumReducers: 7},
		mapper, wcReducer, input, out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReduceKeys != 50 {
		t.Fatalf("keys=%d want 50", stats.ReduceKeys)
	}
	pairs := out.Pairs()
	keys := make([]string, 0, len(pairs))
	total := 0
	for _, kv := range pairs {
		keys = append(keys, kv.Key)
		n, _ := strconv.Atoi(string(kv.Value))
		total += n
	}
	sort.Strings(keys)
	if total != 200 || len(keys) != 50 {
		t.Fatalf("total=%d keys=%d", total, len(keys))
	}
}

// blockCounter is a PerTask word counter that holds its groups back and
// emits their counts three at a time, the rest at Flush. With failed set,
// the first Flush of each task emits one held count, if it holds any, and
// fails with the rest still held; a task is known by the first key its
// attempts see.
type blockCounter struct {
	held   []KeyValue
	first  string
	failed *sync.Map
}

func (c *blockCounter) Reduce(key string, values ValueIter, emit Emit) error {
	if c.first == "" {
		c.first = key
	}
	hold := func(kv KeyValue) error {
		c.held = append(c.held, kv)
		return nil
	}
	if err := wcReducer.Reduce(key, values, hold); err != nil {
		return err
	}
	if len(c.held) < 3 {
		return nil
	}
	return c.emitHeld(emit)
}

func (c *blockCounter) emitHeld(emit Emit) error {
	for _, kv := range c.held {
		if err := emit(kv); err != nil {
			return err
		}
	}
	c.held = c.held[:0]
	return nil
}

func (c *blockCounter) Flush(emit Emit) error {
	if c.failed != nil {
		if _, again := c.failed.LoadOrStore(c.first, true); !again {
			if len(c.held) > 0 {
				_ = emit(c.held[0]) // the attempt fails, so the error is the one to report
			}
			return errors.New("injected flush failure")
		}
	}
	return c.emitHeld(emit)
}

// TestHeldGroupsSurviveFailedFlush: a PerTask reducer that holds groups
// back gets a fresh instance per attempt and is flushed before commit, so
// its output equals the plain reducer's byte for byte, and when the first
// attempt of every task fails in Flush, after emitting, none of that
// attempt's records survive.
func TestHeldGroupsSurviveFailedFlush(t *testing.T) {
	var input MemInput
	for i := 0; i < 300; i++ {
		input = append(input, []byte(fmt.Sprintf("k%03d k%03d", i%61, i%7)))
	}
	run := func(reducer Reducer) ([]KeyValue, *Stats) {
		t.Helper()
		out := NewMemOutput()
		stats, err := Run(Config{Name: "held", TempDir: t.TempDir(), NumMappers: 3, NumReducers: 4},
			wcMapper, reducer, input, out)
		if err != nil {
			t.Fatal(err)
		}
		return out.Pairs(), stats
	}
	blocks := func(failed *sync.Map) PerTask {
		return func() (Holder, error) { return &blockCounter{failed: failed}, nil }
	}
	plain, _ := run(wcReducer)
	clean, _ := run(blocks(nil))
	faulty, stats := run(blocks(new(sync.Map)))
	same := func(a, b KeyValue) bool { return a.Key == b.Key && bytes.Equal(a.Value, b.Value) }
	if !slices.EqualFunc(clean, plain, same) {
		t.Fatalf("holding groups changed the output:\n%v\n%v", clean, plain)
	}
	if !slices.EqualFunc(faulty, clean, same) {
		t.Fatalf("a failed flush leaked into the output:\n%v\n%v", faulty, clean)
	}
	if stats.Retries != 4 {
		t.Fatalf("retries=%d want 4, one per task", stats.Retries)
	}
}
