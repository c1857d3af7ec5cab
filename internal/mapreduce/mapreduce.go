// Package mapreduce is an in-process MapReduce engine with the semantics
// AGL's pipelines assume from production infrastructure: hash-partitioned
// shuffle with sorted spills and merged, grouped reduce calls; parallel map
// and reduce task executors; bounded task retry with atomic (all-or-
// nothing) task output, so a failed attempt never contaminates the shuffle;
// and counters plus resource accounting for the cost comparisons in the
// paper's Table 5.
//
// A job reads pairs. Rounds chain without framing: one round's MemOutput
// is the next round's Pairs input as it stands, and only pairs that go to
// disk (DFSOutput) are framed with EncodeKV, to be read back by DFSPairs.
// Filter and Concat compose inputs as views, so a job can read part of one
// round's output together with another job's.
//
// The shuffle is streaming end to end: reducers receive their value groups
// as pull-based ValueIter iterators fed directly from the k-way merge of
// sorted spill files, so a single hub key whose fan-in exceeds RAM still
// reduces in O(buffer) memory.
package mapreduce

import (
	"cmp"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// KeyValue is the unit of the shuffle.
type KeyValue struct {
	Key   string
	Value []byte
}

// Emit receives key/value pairs from mappers and reducers.
type Emit func(kv KeyValue) error

// Mapper transforms one input pair into zero or more key/value pairs. It
// must not modify the pair's value: a failed attempt's retry reads the same
// input.
type Mapper interface {
	Map(in KeyValue, emit Emit) error
}

// ValueIter streams the values of one reduce group in deterministic order
// (spill/map-task index first, then emit order within the task).
//
// Next returns the next value and true, or nil and false once the group is
// exhausted or an error occurred; Err reports that error. The returned
// slice aliases a buffer the engine reuses for the following value: it is
// valid only until the next Next call, so a consumer that retains raw bytes
// past that point must copy them (decoding into an owned structure, as all
// AGL reducers do, is naturally safe).
type ValueIter interface {
	Next() ([]byte, bool)
	Err() error
}

// Reducer receives every value that shares a key within its partition as a
// streaming iterator. A Reducer need not drain the iterator; the engine
// skips whatever remains of the group. Concurrent reduce tasks share one
// Reducer, unless it is a PerTask.
type Reducer interface {
	Reduce(key string, values ValueIter, emit Emit) error
}

// Holder is a Reducer that may hold groups back across Reduce calls and
// emit their output later; Flush emits whatever it still holds.
type Holder interface {
	Reducer
	Flush(emit Emit) error
}

// PerTask is a Reducer built fresh for every reduce-task attempt, so it may
// carry state from one group to the next. The engine calls the constructor
// at the start of each attempt, feeds that instance the attempt's groups in
// key order, and calls its Flush after the last group and before the task's
// output commits. A failed attempt's instance is dropped with whatever it
// held: none of its output survives, and the retry starts from nothing.
type PerTask func() (Holder, error)

// Reduce implements Reducer, so a PerTask goes wherever a Reducer does. A
// reduce task never calls it (it builds one instance per attempt); called
// directly, a fresh instance reduces the one group and is flushed at once.
func (f PerTask) Reduce(key string, values ValueIter, emit Emit) error {
	h, err := f()
	if err == nil {
		err = h.Reduce(key, values, emit)
	}
	if err == nil {
		err = h.Flush(emit)
	}
	return err
}

// MapperFunc adapts a function of a raw record, the input pair's value, to
// the Mapper interface.
type MapperFunc func(record []byte, emit Emit) error

// Map implements Mapper.
func (f MapperFunc) Map(in KeyValue, emit Emit) error { return f(in.Value, emit) }

// PairMapperFunc adapts a function of the whole input pair to the Mapper
// interface.
type PairMapperFunc func(in KeyValue, emit Emit) error

// Map implements Mapper.
func (f PairMapperFunc) Map(in KeyValue, emit Emit) error { return f(in, emit) }

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key string, values ValueIter, emit Emit) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key string, values ValueIter, emit Emit) error {
	return f(key, values, emit)
}

// FaultInjector lets tests simulate task failures. It is consulted at the
// start of each task attempt; a non-nil error fails that attempt.
type FaultInjector func(taskKind string, taskIndex, attempt int) error

// Config controls one job execution.
type Config struct {
	Name        string
	NumMappers  int    // parallel map tasks; default GOMAXPROCS
	NumReducers int    // shuffle partitions; default 4, GOMAXPROCS reduce at once
	TempDir     string // spill directory; default os.TempDir()
	MaxAttempts int    // attempts per task; default 3
	// Faults is the test-only failure hook.
	Faults FaultInjector
}

func (c Config) withDefaults() Config {
	if c.NumMappers <= 0 {
		c.NumMappers = runtime.GOMAXPROCS(0)
	}
	if c.NumReducers <= 0 {
		c.NumReducers = 4
	}
	if c.TempDir == "" {
		c.TempDir = os.TempDir()
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	return c
}

// Stats aggregates job-level accounting. Busy durations are summed across
// tasks (they exceed wall time under parallelism); the cluster cost model
// converts them to core·min.
type Stats struct {
	MapTasks, ReduceTasks int
	MapRecordsIn          int64
	MapRecordsOut         int64
	ReduceKeys            int64
	ReduceRecordsOut      int64
	BytesShuffled         int64
	Retries               int64
	MapBusy, ReduceBusy   time.Duration
	Wall                  time.Duration
	// PeakGroupBytes is the largest single reduce group that streamed
	// through the merge, in value bytes. Groups are never materialized by
	// the engine, so this measures skew, not resident memory.
	PeakGroupBytes int64
}

// Run executes a full map/shuffle/reduce cycle. Reduce tasks are scheduled
// up front and begin merging the moment the last map task commits its
// spills (event-driven handoff rather than a second scheduling phase), so
// the reduce side's semaphore waits overlap the map tail.
func Run(cfg Config, mapper Mapper, reducer Reducer, input Input, output Output) (*Stats, error) {
	cfg = cfg.withDefaults()
	stats := &Stats{}
	start := time.Now()

	splits, err := input.Splits(cfg.NumMappers)
	if err != nil {
		return nil, fmt.Errorf("mapreduce %s: input: %w", cfg.Name, err)
	}
	stats.MapTasks = len(splits)
	stats.ReduceTasks = cfg.NumReducers

	spillDir, err := os.MkdirTemp(cfg.TempDir, "mr-"+sanitize(cfg.Name)+"-")
	if err != nil {
		return nil, fmt.Errorf("mapreduce %s: spill dir: %w", cfg.Name, err)
	}
	defer os.RemoveAll(spillDir)

	// ---- Map phase ----
	// spills[m][r] is the spill file of map task m for reduce partition r.
	// mapsDone closes when every map task has committed, releasing the
	// already-scheduled reduce tasks; mapFailed closes on the first
	// permanent map failure so reduce tasks abort instead of waiting.
	spills := make([][]string, len(splits))
	mapsDone := make(chan struct{})
	mapFailed := make(chan struct{})
	var mapsLeft = int64(len(splits))
	var mapErr error
	var mapErrOnce sync.Once
	sem := make(chan struct{}, cfg.NumMappers)
	var wg sync.WaitGroup
	if len(splits) == 0 {
		close(mapsDone)
	}
	for m := range splits {
		wg.Add(1)
		sem <- struct{}{}
		go func(m int) {
			defer wg.Done()
			defer func() { <-sem }()
			files, err := runMapTask(cfg, stats, spillDir, m, splits[m], mapper)
			if err != nil {
				mapErrOnce.Do(func() {
					mapErr = err
					close(mapFailed)
				})
				return
			}
			spills[m] = files
			if atomic.AddInt64(&mapsLeft, -1) == 0 {
				close(mapsDone)
			}
		}(m)
	}

	// ---- Reduce phase ----
	var redErr error
	var redErrOnce sync.Once
	sem2 := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg2 sync.WaitGroup
	for r := 0; r < cfg.NumReducers; r++ {
		wg2.Add(1)
		go func(r int) {
			defer wg2.Done()
			select {
			case <-mapsDone:
			case <-mapFailed:
				return
			}
			sem2 <- struct{}{}
			defer func() { <-sem2 }()
			files := make([]string, 0, len(spills))
			for m := range spills {
				files = append(files, spills[m][r])
			}
			if err := runReduceTask(cfg, stats, r, files, reducer, output); err != nil {
				redErrOnce.Do(func() { redErr = err })
			}
		}(r)
	}
	wg.Wait()
	wg2.Wait()
	if mapErr != nil {
		return stats, fmt.Errorf("mapreduce %s: map: %w", cfg.Name, mapErr)
	}
	if redErr != nil {
		return stats, fmt.Errorf("mapreduce %s: reduce: %w", cfg.Name, redErr)
	}
	stats.Wall = time.Since(start)
	return stats, nil
}

// runMapTask executes one map task with retry; on success it returns one
// committed spill file per reduce partition.
func runMapTask(cfg Config, stats *Stats, spillDir string, idx int, split Split, mapper Mapper) ([]string, error) {
	var lastErr error
	for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			atomic.AddInt64(&stats.Retries, 1)
		}
		files, err := tryMapTask(cfg, stats, spillDir, idx, attempt, split, mapper)
		if err == nil {
			return files, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("map task %d failed after %d attempts: %w", idx, cfg.MaxAttempts, lastErr)
}

func tryMapTask(cfg Config, stats *Stats, spillDir string, idx, attempt int, split Split, mapper Mapper) (files []string, err error) {
	begin := time.Now()
	defer func() { atomic.AddInt64((*int64)(&stats.MapBusy), int64(time.Since(begin))) }()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("map task %d panicked: %v", idx, p)
		}
	}()
	if cfg.Faults != nil {
		if err := cfg.Faults("map", idx, attempt); err != nil {
			return nil, err
		}
	}
	// Buffer per partition, then sort and stream to the spill.
	buckets := make([][]KeyValue, cfg.NumReducers)
	var recordsIn, recordsOut int64
	emit := func(kv KeyValue) error {
		p := partition(kv.Key, cfg.NumReducers)
		buckets[p] = append(buckets[p], kv)
		recordsOut++
		return nil
	}
	if err := split(func(kv KeyValue) error {
		recordsIn++
		return mapper.Map(kv, emit)
	}); err != nil {
		return nil, err
	}

	out := make([]string, cfg.NumReducers)
	var shuffled int64
	var order []int32
	for p, kvs := range buckets {
		order = sortByKey(kvs, order)
		path := fmt.Sprintf("%s/m%05d-r%05d-a%d", spillDir, idx, p, attempt)
		n, err := spillPartition(path, kvs)
		if err != nil {
			return nil, err
		}
		shuffled += n
		out[p] = path
	}
	atomic.AddInt64(&stats.MapRecordsIn, recordsIn)
	atomic.AddInt64(&stats.MapRecordsOut, recordsOut)
	atomic.AddInt64(&stats.BytesShuffled, shuffled)
	return out, nil
}

// sortByKey sorts kvs by key, stably: it sorts the pairs' positions by
// (key, position), which an unstable sort does in fewer moves than a stable
// sort of the pairs themselves, then permutes kvs in place by following the
// permutation's cycles. idx is scratch, returned for reuse.
func sortByKey(kvs []KeyValue, idx []int32) []int32 {
	idx = idx[:0]
	for i := range kvs {
		idx = append(idx, int32(i))
	}
	slices.SortFunc(idx, func(a, b int32) int {
		if c := strings.Compare(kvs[a].Key, kvs[b].Key); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// Position j takes the pair at idx[j]; a placed position is marked -1.
	for start := range idx {
		if idx[start] < 0 {
			continue
		}
		held := kvs[start]
		for j := start; ; {
			k := int(idx[j])
			idx[j] = -1
			if k == start {
				kvs[j] = held
				break
			}
			kvs[j] = kvs[k]
			j = k
		}
	}
	return idx
}

// spillPartition writes one partition's sorted pairs to a spill file.
func spillPartition(path string, kvs []KeyValue) (int64, error) {
	w, err := newSpillWriter(path)
	if err != nil {
		return 0, err
	}
	for _, kv := range kvs {
		if err := w.append(kv); err != nil {
			w.abort()
			return 0, err
		}
	}
	return w.close()
}

// runReduceTask merges this partition's sorted spills, groups by key, and
// feeds the reducer, with retry. Output is staged per attempt and committed
// atomically by the Output implementation.
func runReduceTask(cfg Config, stats *Stats, idx int, files []string, reducer Reducer, output Output) error {
	var lastErr error
	for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			atomic.AddInt64(&stats.Retries, 1)
		}
		if lastErr = tryReduceTask(cfg, stats, idx, attempt, files, reducer, output); lastErr == nil {
			return nil
		}
	}
	return fmt.Errorf("reduce task %d failed after %d attempts: %w", idx, cfg.MaxAttempts, lastErr)
}

func tryReduceTask(cfg Config, stats *Stats, idx, attempt int, files []string, reducer Reducer, output Output) (err error) {
	begin := time.Now()
	defer func() { atomic.AddInt64((*int64)(&stats.ReduceBusy), int64(time.Since(begin))) }()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("reduce task %d panicked: %v", idx, p)
		}
	}()
	if cfg.Faults != nil {
		if err := cfg.Faults("reduce", idx, attempt); err != nil {
			return err
		}
	}
	var held Holder
	if newTask, ok := reducer.(PerTask); ok {
		if held, err = newTask(); err != nil {
			return err
		}
		reducer = held
	}
	merged, err := mergeSpills(files)
	if err != nil {
		return err
	}
	merged.onGroupDone = func(groupBytes int64) {
		for {
			peak := atomic.LoadInt64(&stats.PeakGroupBytes)
			if groupBytes <= peak || atomic.CompareAndSwapInt64(&stats.PeakGroupBytes, peak, groupBytes) {
				break
			}
		}
	}
	w, err := output.PartWriter(idx)
	if err != nil {
		return err
	}
	committed := false
	defer func() {
		if !committed {
			w.Abort()
		}
	}()
	var keys, recsOut int64
	emit := func(kv KeyValue) error {
		recsOut++
		return w.Write(kv)
	}
	err = merged.forEachGroup(func(key string, values ValueIter) error {
		keys++
		return reducer.Reduce(key, values, emit)
	})
	if err == nil && held != nil {
		err = held.Flush(emit)
	}
	if err != nil {
		return err
	}
	if err := w.Commit(); err != nil {
		return err
	}
	committed = true
	atomic.AddInt64(&stats.ReduceKeys, keys)
	atomic.AddInt64(&stats.ReduceRecordsOut, recsOut)
	return nil
}

// partition assigns key to one of n reducers by its 32-bit FNV-1a hash,
// computed in place over the string's bytes.
func partition(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '/' || c == ' ' {
			c = '_'
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return "job"
	}
	return string(out)
}

// IdentityMapper emits each input pair as it is: a round that reads a
// previous round's output (Pairs, DFSPairs) shuffles it by that round's
// keys.
var IdentityMapper = PairMapperFunc(func(kv KeyValue, emit Emit) error { return emit(kv) })
