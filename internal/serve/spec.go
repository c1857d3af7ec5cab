package serve

import "fmt"

// Store backend names accepted by StoreSpec.Backend. A backend is a row
// codec plus where a store opened from a file lives; all three are the
// same RowStore over the same file format.
const (
	BackendMem   = "mem"   // f64 rows on the heap
	BackendMmap  = "mmap"  // f64 rows served from an mmap of the store file
	BackendQuant = "quant" // int8-quantized rows; a store file is served mmap'd
)

// StoreSpec is the declarative description of an embedding store: which
// backend, where its file lives (or should be written), and whether to run
// the full checksum pass after opening. cmd/aglserve's flags and embedding
// API users select a store through it.
type StoreSpec struct {
	// Backend selects BackendMem (default when empty), BackendMmap, or
	// BackendQuant.
	Backend string
	// Path is an existing store file to open. Empty means build the store
	// from the embeddings passed to Open (GraphInfer output).
	Path string
	// Verify runs the full checksum verification after opening Path (one
	// sequential read of the file). The mem backend always verifies as it
	// reads; for the mmap'd backends this is the deferred O(size) half of
	// their O(1) open.
	Verify bool
	// SavePath, when non-empty, persists the opened or built store there
	// (staged and renamed, never half-written). A built mmap/quant store
	// is served FROM the saved file, so SavePath doubles as the serving
	// path for those backends.
	SavePath string
}

// Validate rejects contradictory or unknown specs with descriptive
// errors.
func (sp StoreSpec) Validate() error {
	switch sp.backend() {
	case BackendMem, BackendMmap, BackendQuant:
	default:
		return fmt.Errorf("serve: unknown store backend %q (want %q, %q, or %q)",
			sp.Backend, BackendMem, BackendMmap, BackendQuant)
	}
	if sp.Verify && sp.Path == "" {
		return fmt.Errorf("serve: store verify requested but no store path to verify")
	}
	if sp.backend() == BackendMmap && sp.Path == "" && sp.SavePath == "" {
		return fmt.Errorf("serve: mmap store backend needs a path or a save path (the mapping needs a file)")
	}
	return nil
}

func (sp StoreSpec) backend() string {
	if sp.Backend == "" {
		return BackendMem
	}
	return sp.Backend
}

// Open materializes the spec: it opens Path when set, otherwise builds the
// store from embeddings (which may be nil for an empty store), and honors
// SavePath and Verify. The returned close function releases the store —
// call it when done serving.
func (sp StoreSpec) Open(embeddings map[int64][]float64) (Store, func() error, error) {
	if err := sp.Validate(); err != nil {
		return nil, nil, err
	}
	backend := sp.backend()
	mapped := backend != BackendMem
	codec := CodecF64
	if backend == BackendQuant {
		codec = CodecQ8
	}
	var st *RowStore
	fail := func(err error) (Store, func() error, error) {
		st.Close()
		return nil, nil, err
	}
	var err error
	if sp.Path != "" {
		st, err = OpenStore(sp.Path, mapped)
	} else if st, err = NewStore(0, embeddings); err == nil && codec == CodecQ8 {
		st, err = Quantize(st)
	}
	if err != nil {
		return fail(err)
	}
	if st.RowCodec() != codec {
		return fail(fmt.Errorf("serve: store %s holds %s rows, the %s backend serves %s",
			sp.Path, st.RowCodec(), backend, codec))
	}
	if sp.SavePath != "" && sp.SavePath != sp.Path {
		if err := st.Save(sp.SavePath); err != nil {
			return fail(err)
		}
		if sp.Path == "" && mapped { // a built mmap/quant store is served from the file just saved
			if st, err = OpenStore(sp.SavePath, true); err != nil {
				return fail(err)
			}
		}
	}
	if sp.Verify && mapped { // the mem backend verified as it read
		if err := st.Verify(); err != nil {
			return fail(err)
		}
	}
	return st, st.Close, nil
}
