package placement

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestEvenTotalFunction: the boot table owns every slot exactly once and
// spreads them within one slot across replicas.
func TestEvenTotalFunction(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		reps := make([]string, n)
		for i := range reps {
			reps[i] = fmt.Sprintf("127.0.0.1:%d", 7000+i)
		}
		tab, err := Even(reps, 0)
		if err != nil {
			t.Fatalf("Even(%d replicas): %v", n, err)
		}
		if tab.Slots() != DefaultSlots {
			t.Fatalf("slots = %d, want %d", tab.Slots(), DefaultSlots)
		}
		if tab.Epoch != 1 {
			t.Fatalf("boot epoch = %d, want 1", tab.Epoch)
		}
		counts := make([]int, n)
		for s := 0; s < tab.Slots(); s++ {
			o := tab.Owner(s)
			if o < 0 || o >= n {
				t.Fatalf("slot %d owner %d out of range", s, o)
			}
			counts[o]++
		}
		min, max := counts[0], counts[0]
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > 1 {
			t.Fatalf("uneven boot placement: counts %v", counts)
		}
	}
}

// TestOwnershipTotalAtEveryEpoch walks a long random chain of WithOwner
// derivations and checks that at every epoch, ownership stays a validated
// total function, the epoch is strictly monotone, and predecessors are
// untouched (immutability).
func TestOwnershipTotalAtEveryEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tab, err := Even([]string{"a", "b", "c"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 500; step++ {
		prev := tab.Clone()
		next, err := tab.WithOwner(rng.Intn(tab.Slots()), rng.Intn(len(tab.Replicas)))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := next.Validate(); err != nil {
			t.Fatalf("step %d: derived table invalid: %v", step, err)
		}
		if next.Epoch != tab.Epoch+1 {
			t.Fatalf("step %d: epoch %d after %d, want +1", step, next.Epoch, tab.Epoch)
		}
		// The receiver must be untouched by the derivation.
		if tab.Epoch != prev.Epoch || !bytes.Equal(int32sToBytes(tab.Owners), int32sToBytes(prev.Owners)) {
			t.Fatalf("step %d: WithOwner mutated its receiver", step)
		}
		// Every id routes to the single owner of its slot.
		for i := 0; i < 32; i++ {
			id := rng.Int63()
			if next.OwnerOf(id) != next.Owner(SlotOf(id, next.Slots())) {
				t.Fatalf("step %d: OwnerOf disagrees with Owner(SlotOf)", step)
			}
		}
		tab = next
	}
}

func int32sToBytes(xs []int32) []byte {
	b := make([]byte, 0, len(xs))
	for _, x := range xs {
		b = append(b, byte(x))
	}
	return b
}

// TestSlotsOfPartition: SlotsOf over all replicas partitions the slot space.
func TestSlotsOfPartition(t *testing.T) {
	tab, err := Even([]string{"a", "b", "c"}, 97)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for r := range tab.Replicas {
		for _, s := range tab.SlotsOf(r) {
			if seen[s] {
				t.Fatalf("slot %d listed for two replicas", s)
			}
			seen[s] = true
			if tab.Owner(s) != r {
				t.Fatalf("SlotsOf(%d) contains slot %d owned by %d", r, s, tab.Owner(s))
			}
		}
	}
	if len(seen) != tab.Slots() {
		t.Fatalf("SlotsOf covers %d slots, want %d", len(seen), tab.Slots())
	}
}

func TestValidateRejectsBadTables(t *testing.T) {
	cases := []*Table{
		nil,
		{Epoch: 1, Replicas: nil, Owners: []int32{0}},
		{Epoch: 1, Replicas: []string{"a"}, Owners: nil},
		{Epoch: 0, Replicas: []string{"a"}, Owners: []int32{0}},
		{Epoch: 1, Replicas: []string{"a"}, Owners: []int32{1}},
		{Epoch: 1, Replicas: []string{"a"}, Owners: []int32{-1}},
	}
	for i, tab := range cases {
		if err := tab.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted an invalid table", i)
		}
	}
}

func TestWithOwnerRange(t *testing.T) {
	tab, err := Even([]string{"a", "b"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.WithOwner(-1, 0); err == nil {
		t.Fatal("negative slot accepted")
	}
	if _, err := tab.WithOwner(16, 0); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if _, err := tab.WithOwner(0, 2); err == nil {
		t.Fatal("out-of-range replica accepted")
	}
}

// TestSerializationRoundTrip: WriteTo/Read and a file read back with
// ReadFile preserve the table exactly.
func TestSerializationRoundTrip(t *testing.T) {
	tab, err := Even([]string{"127.0.0.1:7101", "127.0.0.1:7102"}, 32)
	if err != nil {
		t.Fatal(err)
	}
	tab, err = tab.WithOwner(5, 1)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "placement.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, tab, got)

	got, err = ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, tab, got)
}

func assertTablesEqual(t *testing.T, want, got *Table) {
	t.Helper()
	if got.Epoch != want.Epoch || len(got.Owners) != len(want.Owners) || len(got.Replicas) != len(want.Replicas) {
		t.Fatalf("round-trip mismatch: %+v vs %+v", want, got)
	}
	for i := range want.Owners {
		if got.Owners[i] != want.Owners[i] {
			t.Fatalf("owner[%d] = %d, want %d", i, got.Owners[i], want.Owners[i])
		}
	}
	for i := range want.Replicas {
		if got.Replicas[i] != want.Replicas[i] {
			t.Fatalf("replica[%d] = %q, want %q", i, got.Replicas[i], want.Replicas[i])
		}
	}
}

func TestReadRejectsInvalid(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte(`{"epoch":0,"replicas":["a"],"owners":[0]}`))); err == nil {
		t.Fatal("Read accepted epoch-0 table")
	}
	if _, err := Read(bytes.NewReader([]byte(`not json`))); err == nil {
		t.Fatal("Read accepted garbage")
	}
}

// TestEpochErrorTyping: EpochError is retryable, unwraps to the sentinel,
// and survives the string flattening of an RPC boundary.
func TestEpochErrorTyping(t *testing.T) {
	orig := &EpochError{Have: 7, Got: 3}
	if !errors.Is(orig, ErrStaleEpoch) {
		t.Fatal("EpochError does not unwrap to ErrStaleEpoch")
	}
	if !orig.Retryable() {
		t.Fatal("EpochError not retryable")
	}

	// Simulate net/rpc: the encoded error crosses the wire as a bare string.
	wire := errors.New(EncodeError(orig).Error())
	back := DecodeError(wire)
	var ee *EpochError
	if !errors.As(back, &ee) {
		t.Fatalf("DecodeError returned %T, want *EpochError", back)
	}
	if ee.Have != 7 || ee.Got != 3 {
		t.Fatalf("decoded epochs = (%d,%d), want (7,3)", ee.Have, ee.Got)
	}
	if !errors.Is(back, ErrStaleEpoch) {
		t.Fatal("decoded error does not unwrap to sentinel")
	}

	// Non-epoch errors pass through both directions unchanged.
	plain := errors.New("boom")
	if EncodeError(plain) != plain {
		t.Fatal("EncodeError rewrote an unrelated error")
	}
	if DecodeError(plain) != plain {
		t.Fatal("DecodeError rewrote an unrelated error")
	}
	if DecodeError(nil) != nil {
		t.Fatal("DecodeError(nil) != nil")
	}
	// Malformed payloads after the prefix fall back to pass-through.
	mangled := errors.New(epochErrPrefix + "xyz")
	if DecodeError(mangled) != mangled {
		t.Fatal("DecodeError accepted a mangled payload")
	}
}

// TestSlotOfStability pins the hash: routing depends on every participant
// computing identical slots, so a change here is a wire-format break.
func TestSlotOfStability(t *testing.T) {
	pins := map[int64]int{
		0:     0,
		1:     SlotOf(1, 256),
		12345: SlotOf(12345, 256),
	}
	for id, want := range pins {
		if got := SlotOf(id, 256); got != want {
			t.Fatalf("SlotOf(%d) changed: %d != %d", id, got, want)
		}
		if got := SlotOf(id, 256); got < 0 || got >= 256 {
			t.Fatalf("SlotOf(%d) = %d out of range", id, got)
		}
	}
	// Distribution sanity: sequential ids should not pile into few slots.
	counts := make(map[int]int)
	for id := int64(0); id < 4096; id++ {
		counts[SlotOf(id, 256)]++
	}
	for s, c := range counts {
		if c > 64 { // perfectly even would be 16
			t.Fatalf("slot %d got %d of 4096 sequential ids — hash badly skewed", s, c)
		}
	}
}

// FuzzReadTable: the table reader, which decodes both table files and the
// raft entries replicas propose, never panics, accepts only tables that
// pass Validate with every owner in range, and what it accepts survives
// WriteTo→Read unchanged.
func FuzzReadTable(f *testing.F) {
	even, err := Even([]string{"a:1", "b:2", "c:3"}, 8)
	if err != nil {
		f.Fatal(err)
	}
	next, err := even.WithOwner(5, 0)
	if err != nil {
		f.Fatal(err)
	}
	for _, tab := range []*Table{
		even, next,
		{Epoch: 0, Replicas: []string{"a:1"}, Owners: []int32{0}},
		{Epoch: 3, Replicas: []string{"a:1", "b:2"}, Owners: []int32{0, 2}},
		{Epoch: 1, Replicas: []string{}, Owners: []int32{}},
	} {
		var buf bytes.Buffer
		if _, err := tab.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A raft entry: the compact json.Marshal form replicas propose.
	entry, err := json.Marshal(next)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(entry)
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tab.Validate(); err != nil {
			t.Fatalf("Read accepted an invalid table: %v", err)
		}
		for s := range tab.Owners {
			if o := tab.Owner(s); o < 0 || o >= len(tab.Replicas) {
				t.Fatalf("slot %d owned by replica %d of %d", s, o, len(tab.Replicas))
			}
		}
		var buf bytes.Buffer
		if _, err := tab.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil || !reflect.DeepEqual(back, tab) {
			t.Fatalf("WriteTo→Read gave (%+v, %v), want %+v", back, err, tab)
		}
	})
}
