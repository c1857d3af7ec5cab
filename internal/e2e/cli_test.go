// Package e2e drives the built command-line binaries end to end: the
// GraphFlat → GraphTrainer → GraphInfer workflow of the paper's Figure 6
// plus the aglserve online tier, exercised exactly as an operator would
// run them.
package e2e

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"agl"
	"agl/internal/datagen"
	"agl/internal/dfs"
	"agl/internal/gnn"
	"agl/internal/graph"
	"agl/internal/nn"
	"agl/internal/serve"
)

// buildCmds compiles the offline-pipeline CLIs into dir.
func buildCmds(t *testing.T, dir string) map[string]string {
	return buildSome(t, dir, "graphflat", "graphtrainer", "graphinfer", "aglserve")
}

// buildSome compiles the named CLIs into dir.
func buildSome(t *testing.T, dir string, names ...string) map[string]string {
	t.Helper()
	bins := map[string]string{}
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "agl/cmd/"+name)
		cmd.Dir = repoRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}
	return bins
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// internal/e2e -> repo root
	return filepath.Dir(filepath.Dir(wd))
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, buf.String())
	}
	return buf.String()
}

func TestCLIPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bins := buildSome(t, dir, "graphflat", "graphtrainer", "graphinfer", "aglserve", "aglbench", "aglmetrics")

	// Materialize a small UUG-like dataset as TSV tables.
	ds, err := datagen.UUG(datagen.UUGConfig{Nodes: 400, FeatDim: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	nodePath := filepath.Join(dir, "nodes.tsv")
	edgePath := filepath.Join(dir, "edges.tsv")
	nf, err := os.Create(nodePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteNodeTable(nf, ds.G.Nodes); err != nil {
		t.Fatal(err)
	}
	nf.Close()
	ef, err := os.Create(edgePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeTable(ef, ds.G.Edges); err != nil {
		t.Fatal(err)
	}
	ef.Close()

	var targets strings.Builder
	for _, id := range ds.Train {
		fmt.Fprintf(&targets, "%d\t%d\n", id, ds.LabelOf(id))
	}
	targetPath := filepath.Join(dir, "targets.tsv")
	if err := os.WriteFile(targetPath, []byte(targets.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	// Step 1: GraphFlat.
	features := filepath.Join(dir, "features")
	out := run(t, bins["graphflat"],
		"-n", nodePath, "-e", edgePath, "-t", targetPath,
		"-hops", "2", "-s", "weighted", "-max-neighbors", "10",
		"-seed", "3", "-o", features)
	if !strings.Contains(out, "GraphFeature records") {
		t.Fatalf("graphflat output: %s", out)
	}
	// The one dataset layout: without -partitions, one part file plus the
	// manifest.
	for _, name := range []string{"partitions.json", "part-00000"} {
		if _, err := os.Stat(filepath.Join(features, name)); err != nil {
			t.Fatalf("graphflat output lacks %s: %v", name, err)
		}
	}

	// Step 2: GraphTrainer.
	modelPath := filepath.Join(dir, "model.agl")
	out = run(t, bins["graphtrainer"],
		"-m", "gat", "-i", features, "-loss", "bce", "-metric", "auc",
		"-hidden", "8", "-classes", "1", "-layers", "2",
		"-epochs", "4", "-batch", "32", "-workers", "2",
		"-t", "pipeline,pruning,partition", "-o", modelPath)
	if !strings.Contains(out, "model saved") {
		t.Fatalf("graphtrainer output: %s", out)
	}
	if _, err := os.Stat(modelPath); err != nil {
		t.Fatal("model file missing")
	}

	// Step 3: GraphInfer.
	scoresPath := filepath.Join(dir, "scores.tsv")
	out = run(t, bins["graphinfer"],
		"-m", modelPath, "-n", nodePath, "-e", edgePath,
		"-s", "weighted", "-max-neighbors", "10", "-seed", "3",
		"-o", scoresPath)
	if !strings.Contains(out, "scored 400 nodes") {
		t.Fatalf("graphinfer output: %s", out)
	}

	// The trainer flags no other run sets: a 2-head GAT with dropout,
	// trained sync on two workers against two PS shards and scored every
	// epoch on an eval dataset. graphinfer -flat must load what it saves.
	syncModel := filepath.Join(dir, "model-sync.agl")
	out = run(t, bins["graphtrainer"],
		"-m", "gat", "-heads", "2", "-dropout", "0.2", "-workers", "2", "-ps", "2",
		"-mode", "sync", "-eval", features, "-i", features, "-loss", "bce", "-metric", "auc",
		"-hidden", "8", "-classes", "1", "-epochs", "2", "-batch", "32", "-o", syncModel)
	if !strings.Contains(out, "  AUC ") || !strings.Contains(out, "model saved") {
		t.Fatalf("graphtrainer -mode sync -eval output lacks a metric or the save: %s", out)
	}
	out = run(t, bins["graphinfer"], "-m", syncModel, "-flat", features, "-o", filepath.Join(dir, "scores-sync.tsv"))
	if want := fmt.Sprintf("scored %d nodes", len(ds.Train)); !strings.Contains(out, want) {
		t.Fatalf("graphinfer -flat on the sync model: %q, want %q", out, want)
	}

	// Scores must cover every node with probabilities in [0, 1].
	data, err := os.ReadFile(scoresPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 400 {
		t.Fatalf("scored %d nodes, want 400", len(lines))
	}
	for _, line := range lines {
		parts := strings.Split(line, "\t")
		if len(parts) != 2 {
			t.Fatalf("malformed score line %q", line)
		}
		s, err := strconv.ParseFloat(strings.Split(parts[1], ",")[0], 64)
		if err != nil || s < 0 || s > 1 {
			t.Fatalf("bad score %q: %v", line, err)
		}
	}

	// Scoring the GraphFeatures graphflat wrote (the default layout) must
	// agree with message passing over the tables on every flattened id:
	// both keep the same sampled in-edges for the same flags.
	wantScores := readScores(t, scoresPath)
	flatScoresPath := filepath.Join(dir, "scores-flat.tsv")
	out = run(t, bins["graphinfer"], "-m", modelPath, "-flat", features, "-o", flatScoresPath)
	if want := fmt.Sprintf("scored %d nodes", len(ds.Train)); !strings.Contains(out, want) {
		t.Fatalf("graphinfer -flat output %q, want %q", out, want)
	}
	flatScores := readScores(t, flatScoresPath)
	if len(flatScores) != len(ds.Train) {
		t.Fatalf("graphinfer -flat scored %d ids, graphflat flattened %d", len(flatScores), len(ds.Train))
	}
	for id, v := range flatScores {
		if w, ok := wantScores[id]; !ok || abs(v-w) > 1e-9 {
			t.Fatalf("node %s: graphinfer -flat %v, graphinfer -n/-e %v", id, v, w)
		}
	}

	// Step 4: aglserve — the online tier over the same artifacts. Scores
	// served over HTTP must match GraphInfer's TSV output.
	addr := freeAddr(t)
	storePath := filepath.Join(dir, "store.agl")
	serveArgs := []string{
		"-m", modelPath, "-n", nodePath, "-e", edgePath,
		"-s", "weighted", "-max-neighbors", "10", "-seed", "3",
		"-addr", addr}
	serveCmd := exec.Command(bins["aglserve"],
		append(serveArgs, "-store-backend", "mmap", "-store-save", storePath)...)
	var serveOut bytes.Buffer
	serveCmd.Stdout = &serveOut
	serveCmd.Stderr = &serveOut
	if err := serveCmd.Start(); err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			serveCmd.Process.Kill()
			serveCmd.Wait()
		}
	}()
	waitHealthy(t, addr, &serveOut)

	var single struct {
		Node   int64     `json:"node"`
		Scores []float64 `json:"scores"`
	}
	getJSON(t, "http://"+addr+"/score?node="+strconv.FormatInt(ds.G.Nodes[0].ID, 10), &single)
	want := wantScores[strconv.FormatInt(ds.G.Nodes[0].ID, 10)]
	if len(single.Scores) != 1 || abs(single.Scores[0]-want) > 1e-6 {
		t.Fatalf("served score %v, GraphInfer TSV has %v", single.Scores, want)
	}

	ids := []int64{ds.G.Nodes[1].ID, ds.G.Nodes[2].ID, ds.G.Nodes[3].ID}
	body, _ := json.Marshal(map[string][]int64{"nodes": ids})
	resp, err := http.Post("http://"+addr+"/scores", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := bodyText(resp)
		t.Fatalf("POST /scores: status %d: %s", resp.StatusCode, msg)
	}
	var bulk struct {
		Scores map[string][]float64 `json:"scores"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&bulk); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(bulk.Scores) != len(ids) {
		t.Fatalf("bulk returned %d scores, want %d", len(bulk.Scores), len(ids))
	}
	for _, id := range ids {
		key := strconv.FormatInt(id, 10)
		if abs(bulk.Scores[key][0]-wantScores[key]) > 1e-6 {
			t.Fatalf("node %s: served %v, GraphInfer TSV has %v", key, bulk.Scores[key][0], wantScores[key])
		}
	}

	var stats struct {
		Requests int64
		Warm     int64
	}
	getJSON(t, "http://"+addr+"/stats", &stats)
	if stats.Requests != 4 || stats.Warm != 4 {
		t.Fatalf("stats after 4 precomputed-node requests: %+v\nserver log:\n%s", stats, serveOut.String())
	}

	// Unknown node -> client error, not a crash.
	r, err := http.Get("http://" + addr + "/score?node=999999999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown node returned %d", r.StatusCode)
	}

	// POST edge inputs: an empty list is an empty answer, a repeated id is
	// answered once under its key, and a body over the 64 MiB cap is
	// refused with the 413 envelope by both POST endpoints.
	oversized := `{"nodes":[1` + strings.Repeat(" ", 64<<20) + `]}`
	for _, tc := range []struct {
		path       string
		body       string
		wantStatus int
		wantBody   string
		wantKeys   int
	}{
		{"/scores", `{"nodes":[]}`, http.StatusOK, `{"scores":{}}`, 0},
		{"/scores", fmt.Sprintf(`{"nodes":[%d,%[1]d]}`, ids[0]), http.StatusOK, "", 1},
		{"/scores", oversized, http.StatusRequestEntityTooLarge, "", 0},
		{"/update", oversized, http.StatusRequestEntityTooLarge, "", 0},
	} {
		resp, err := http.Post("http://"+addr+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := bodyText(resp)
		if resp.StatusCode != tc.wantStatus || tc.wantBody != "" && strings.TrimSpace(got) != tc.wantBody {
			t.Fatalf("POST %s %.40s: status %d, body %.200s", tc.path, tc.body, resp.StatusCode, got)
		}
		switch tc.wantStatus {
		case http.StatusOK:
			var dup struct {
				Scores map[string][]float64 `json:"scores"`
			}
			if err := json.Unmarshal([]byte(got), &dup); err != nil || len(dup.Scores) != tc.wantKeys {
				t.Fatalf("POST %s %s: %v, body %s", tc.path, tc.body, err, got)
			}
		default:
			var env errEnvelope
			if err := json.Unmarshal([]byte(got), &env); err != nil || env.Error.Code != "too_large" {
				t.Fatalf("oversized POST %s: %v, body %.200s", tc.path, err, got)
			}
		}
	}

	// Step 5: POST /update — stream mutations into the serving graph.
	// Single-mutation form: a feature update must invalidate the node.
	target := ds.G.Nodes[0].ID
	feat := make([]string, ds.G.FeatureDim())
	for i := range feat {
		feat[i] = "0.5"
	}
	updBody := fmt.Sprintf(`{"op":"update_feat","id":%d,"feat":[%s]}`,
		target, strings.Join(feat, ","))
	var upd struct {
		Version     uint64            `json:"version"`
		Applied     int               `json:"applied"`
		Invalidated int               `json:"invalidated"`
		Errors      map[string]string `json:"errors"`
	}
	postJSON(t, "http://"+addr+"/update", updBody, http.StatusOK, &upd)
	if upd.Version != 1 || upd.Applied != 1 || upd.Invalidated == 0 || len(upd.Errors) != 0 {
		t.Fatalf("single update response %+v", upd)
	}

	// The mutated node must rescore (different features -> different
	// score) while an untouched far-away node stays bit-identical.
	var rescored struct {
		Scores []float64 `json:"scores"`
	}
	getJSON(t, "http://"+addr+"/score?node="+strconv.FormatInt(target, 10), &rescored)
	if abs(rescored.Scores[0]-wantScores[strconv.FormatInt(target, 10)]) < 1e-12 {
		t.Fatalf("score unchanged after feature update: %v", rescored.Scores)
	}

	// Batch form with partial failure: valid mutations land, invalid ones
	// report positionally, the response is still 200.
	a, b := ds.G.Nodes[4].ID, ds.G.Nodes[5].ID
	batchBody := fmt.Sprintf(`{"mutations":[
		{"op":"add_edge","src":%d,"dst":%d,"weight":2},
		{"op":"add_edge","src":%d,"dst":999999999}
	]}`, a, b, a)
	postJSON(t, "http://"+addr+"/update", batchBody, http.StatusOK, &upd)
	if upd.Version != 2 || upd.Applied != 1 || upd.Errors["1"] == "" {
		t.Fatalf("partial-failure update response %+v", upd)
	}

	// All-failed batch -> error status, version frozen.
	resp, err = http.Post("http://"+addr+"/update", "application/json",
		strings.NewReader(`{"op":"add_edge","src":999999998,"dst":999999999}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("all-failed update returned %d", resp.StatusCode)
	}

	var mstats struct {
		Version   uint64
		Mutations int64
		DirtyRows int64
	}
	getJSON(t, "http://"+addr+"/stats", &mstats)
	if mstats.Version != 2 || mstats.Mutations != 2 {
		t.Fatalf("mutation accounting after updates: %+v", mstats)
	}

	// A structurally malformed batch element (unknown op) must not reject
	// its valid sibling: per-element decoding reports it positionally.
	batchBody = fmt.Sprintf(`{"mutations":[
		{"op":"add_edge","src":%d,"dst":%d,"weight":1},
		{"op":"no_such_op"}
	]}`, b, a)
	postJSON(t, "http://"+addr+"/update", batchBody, http.StatusOK, &upd)
	if upd.Version != 3 || upd.Applied != 1 || upd.Errors["1"] == "" {
		t.Fatalf("malformed-element batch response %+v", upd)
	}

	// The catch-up feed replays every applied batch by version.
	var feed struct {
		Version uint64 `json:"version"`
		Entries []struct {
			Version uint64           `json:"version"`
			Muts    []map[string]any `json:"muts"`
		} `json:"entries"`
	}
	getJSON(t, "http://"+addr+"/mutations?since=0", &feed)
	if feed.Version != 3 || len(feed.Entries) != 3 {
		t.Fatalf("mutation feed %+v", feed)
	}
	if feed.Entries[2].Version != 3 || len(feed.Entries[2].Muts) != 1 ||
		feed.Entries[2].Muts[0]["op"] != "add_edge" {
		t.Fatalf("feed entry 3: %+v", feed.Entries[2])
	}
	getJSON(t, "http://"+addr+"/mutations?since=3", &feed)
	if len(feed.Entries) != 0 {
		t.Fatalf("caught-up feed should be empty: %+v", feed)
	}

	// Step 5: a container stop is SIGTERM. It must take the same graceful
	// path as SIGINT — drain, close, unmap the store — and exit 0.
	if err := serveCmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = serveCmd.Wait()
	stopped = true
	if err != nil || !strings.Contains(serveOut.String(), "shutting down") {
		t.Fatalf("SIGTERM: exit %v, want 0 after a logged shutdown; log:\n%s", err, serveOut.String())
	}

	// Step 6: what was removed fails fast and says what to do. The saved
	// store reopens through the flags that replaced the aliases; the
	// removed aliases, -hub-threshold (re-indexing only lays out the
	// precompute's shuffle), -flight-slots (the ring size is fixed) and
	// -queue (the queue is as deep as the admission cap) are unknown flags;
	// a store file in a retired format is refused with the regenerate
	// message.
	mustFailCmd := func(bin, wantSub string, args ...string) {
		t.Helper()
		out, err := exec.Command(bins[bin], args...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), wantSub) {
			t.Fatalf("%s %v: err %v, want a failure mentioning %q; output:\n%s", bin, args, err, wantSub, out)
		}
	}
	mustFail := func(wantSub string, extra ...string) {
		t.Helper()
		mustFailCmd("aglserve", wantSub, append(serveArgs, extra...)...)
	}
	// The bad backend makes a binary that still accepts a flag exit
	// instead of serving forever.
	for _, flag := range []string{"-store", "-store-mmap", "-save-store", "-save-store-mmap", "-hub-threshold", "-flight-slots", "-queue"} {
		mustFail("flag provided but not defined: "+flag, flag, "1", "-store-backend", "none")
	}
	mustFail("flag provided but not defined: -store-quant", "-store-quant")
	mustFailCmd("aglmetrics", "flag provided but not defined: -last", "-last", "5", "-i", filepath.Join(dir, "none.aglfr"))
	mustFailCmd("graphtrainer", `invalid value "bogus" for flag -mode`, "-mode", "bogus", "-i", features)
	// aglbench is the paper's tables and figures only: the in-process
	// latency experiments and the baseline-check flags are gone.
	for _, exp := range []string{"shuffle", "serve", "update", "link", "train", "oocore", "overload", "cluster", "quant", "chaos"} {
		mustFailCmd("aglbench", fmt.Sprintf("unknown experiment %q", exp), "-exp", exp, "-quick")
	}
	for _, flag := range []string{"-json", "-check", "-baseline", "-tolerance", "-cpuprofile", "-memprofile"} {
		mustFailCmd("aglbench", "flag provided but not defined: "+flag, flag, "x", "-exp", "table1")
	}
	retired := filepath.Join(dir, "old.aglmap")
	if err := os.WriteFile(retired, append([]byte("AGLMAP01"), make([]byte, 56)...), 0o644); err != nil {
		t.Fatal(err)
	}
	mustFail("format AGLMAP01 retired, regenerate with aglserve -store-save",
		"-store-backend", "mmap", "-store-path", retired)
	mustFail("holds f64 rows", "-store-backend", "quant", "-store-path", storePath)
	// A model file in the retired gob format is refused, not misread.
	var gobModel bytes.Buffer
	if err := gob.NewEncoder(&gobModel).Encode(struct{ Cfg gnn.Config }{gnn.Config{Kind: gnn.KindGCN}}); err != nil {
		t.Fatal(err)
	}
	gobPath := filepath.Join(dir, "gob-model.agl")
	if err := os.WriteFile(gobPath, gobModel.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mustFail("gob model files are retired", "-m", gobPath)
}

// readScores parses a graphinfer scores TSV into id -> first score.
func readScores(t *testing.T, path string) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	scores := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		id, cols, _ := strings.Cut(line, "\t")
		v, err := strconv.ParseFloat(strings.Split(cols, ",")[0], 64)
		if err != nil {
			t.Fatalf("%s: bad score line %q: %v", path, line, err)
		}
		scores[id] = v
	}
	return scores
}

// TestCLIRefusesRetiredDatasetLayout: a directory of part files without a
// partitions.json — what graphflat wrote by default before every output
// carried the manifest — is refused by both readers with the message that
// says how to get a readable dataset, instead of being misread.
func TestCLIRefusesRetiredDatasetLayout(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bins := buildSome(t, dir, "graphtrainer", "graphinfer")

	ds, err := datagen.UUG(datagen.UUGConfig{Nodes: 60, FeatDim: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// A real dataset with its manifest removed: part-00000 alone.
	retired, err := dfs.Create(filepath.Join(dir, "retired"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agl.Flatten(agl.FlatConfig{Hops: 1, TempDir: dir, Output: retired}, ds.G, agl.BinaryTargets(ds, ds.Train)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(retired.Path(), "partitions.json")); err != nil {
		t.Fatal(err)
	}
	model, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindGCN, InDim: 4, Hidden: 4, Classes: 1, Layers: 1, Act: nn.ActTanh, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := gnn.MarshalModel(model)
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "model.agl")
	if err := os.WriteFile(modelPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, args := range [][]string{
		{bins["graphtrainer"], "-i", retired.Path(), "-o", filepath.Join(dir, "out.agl")},
		{bins["graphinfer"], "-m", modelPath, "-flat", retired.Path(), "-o", filepath.Join(dir, "scores.tsv")},
	} {
		out, err := exec.Command(args[0], args[1:]...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "regenerate it with graphflat") {
			t.Fatalf("%s: err %v, want a failure saying to regenerate the dataset; output:\n%s",
				filepath.Base(args[0]), err, out)
		}
	}
}

// postJSON posts a JSON body, asserts the status, and decodes the response.
func postJSON(t *testing.T, url, body string, wantStatus int, v any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		msg, _ := bodyText(resp)
		t.Fatalf("POST %s: status %d (want %d): %s", url, resp.StatusCode, wantStatus, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
}

// bodyText drains a response body for an error message.
func bodyText(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.String(), err
}

// getJSON fetches url and decodes the JSON response into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// freeAddr grabs an ephemeral localhost port for the server to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// waitHealthy polls /healthz until the server is up (it precomputes the
// embedding store via GraphInfer at boot).
func waitHealthy(t *testing.T, addr string, log *bytes.Buffer) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("aglserve never became healthy; log:\n%s", log.String())
}

// TestCLILinkPipelineEndToEnd drives the edge-level workload through the
// binaries: pair targets -> graphflat -p -> graphtrainer -edge-head ->
// aglserve GET /link (warm, cold after a streamed mutation, 404/400).
func TestCLILinkPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bins := buildCmds(t, dir)

	ds, err := datagen.UUG(datagen.UUGConfig{Nodes: 300, FeatDim: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	nodePath := filepath.Join(dir, "nodes.tsv")
	edgePath := filepath.Join(dir, "edges.tsv")
	nf, err := os.Create(nodePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteNodeTable(nf, ds.G.Nodes); err != nil {
		t.Fatal(err)
	}
	nf.Close()
	ef, err := os.Create(edgePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeTable(ef, ds.G.Edges); err != nil {
		t.Fatal(err)
	}
	ef.Close()

	var pairs strings.Builder
	for i, e := range ds.G.Edges {
		if i%4 != 0 || i/4 >= 200 {
			continue
		}
		fmt.Fprintf(&pairs, "%d\t%d\t1\n", e.Src, e.Dst)
	}
	pairPath := filepath.Join(dir, "pairs.tsv")
	if err := os.WriteFile(pairPath, []byte(pairs.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	feats := filepath.Join(dir, "linkfeats")
	out := run(t, bins["graphflat"],
		"-n", nodePath, "-e", edgePath, "-p", pairPath,
		"-hops", "2", "-s", "weighted", "-max-neighbors", "10",
		"-seed", "3", "-o", feats)
	if !strings.Contains(out, "LinkRecord records") {
		t.Fatalf("graphflat -p output: %s", out)
	}

	modelPath := filepath.Join(dir, "linkmodel.agl")
	out = run(t, bins["graphtrainer"],
		"-i", feats, "-m", "gcn", "-edge-head", "bilinear",
		"-loss", "bce", "-metric", "auc", "-hidden", "8", "-classes", "1",
		"-layers", "2", "-epochs", "3", "-batch", "32", "-lr", "0.05",
		"-neg-ratio", "2", "-o", modelPath)
	if !strings.Contains(out, "model saved") {
		t.Fatalf("graphtrainer -edge-head output: %s", out)
	}

	addr := freeAddr(t)
	serveCmd := exec.Command(bins["aglserve"],
		"-m", modelPath, "-n", nodePath, "-e", edgePath,
		"-s", "weighted", "-max-neighbors", "10", "-seed", "3",
		"-addr", addr)
	var serveOut bytes.Buffer
	serveCmd.Stdout = &serveOut
	serveCmd.Stderr = &serveOut
	if err := serveCmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		serveCmd.Process.Kill()
		serveCmd.Wait()
	}()
	waitHealthy(t, addr, &serveOut)

	src := ds.G.Edges[0].Src
	dst := ds.G.Edges[0].Dst
	var link struct {
		Src   int64   `json:"src"`
		Dst   int64   `json:"dst"`
		Logit float64 `json:"logit"`
		Score float64 `json:"score"`
	}
	getJSON(t, fmt.Sprintf("http://%s/link?src=%d&dst=%d", addr, src, dst), &link)
	if link.Score < 0 || link.Score > 1 {
		t.Fatalf("warm /link score out of range: %+v", link)
	}

	// Stream in a new node; its pair score must resolve cold.
	var upd struct {
		Applied int `json:"applied"`
	}
	postJSON(t, "http://"+addr+"/update", fmt.Sprintf(
		`{"mutations":[{"op":"add_node","id":424242,"feat":[1,1,1,1,1,1,1,1]},{"op":"add_edge","src":424242,"dst":%d,"weight":2}]}`, dst),
		http.StatusOK, &upd)
	if upd.Applied != 2 {
		t.Fatalf("update applied %d, want 2", upd.Applied)
	}
	getJSON(t, fmt.Sprintf("http://%s/link?src=424242&dst=%d", addr, dst), &link)
	if link.Score < 0 || link.Score > 1 {
		t.Fatalf("cold /link score out of range: %+v", link)
	}
	var stats struct {
		LinkRequests, LinkWarm, LinkCold int64
	}
	getJSON(t, "http://"+addr+"/stats", &stats)
	if stats.LinkWarm != 1 || stats.LinkCold != 1 {
		t.Fatalf("link path accounting: %+v", stats)
	}

	// Unknown endpoint -> 404; missing parameter -> 400.
	for _, tc := range []struct {
		url  string
		want int
	}{
		{fmt.Sprintf("http://%s/link?src=999999999&dst=%d", addr, dst), http.StatusNotFound},
		{fmt.Sprintf("http://%s/link?src=%d", addr, src), http.StatusBadRequest},
	} {
		resp, err := http.Get(tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("GET %s: status %d, want %d", tc.url, resp.StatusCode, tc.want)
		}
	}
}

// errEnvelope is the stable JSON error shape every aglserve endpoint
// emits: {"error":{"code":"...","message":"..."}}.
type errEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// getEnvelope fetches url and decodes the error envelope, returning the
// raw response for header/status assertions.
func getEnvelope(t *testing.T, url string) (*http.Response, errEnvelope) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("GET %s: decode envelope: %v", url, err)
	}
	return resp, env
}

// TestCLIServeOverloadEndToEnd drives aglserve's production-hardening
// surface over real HTTP: admission control answering with the
// machine-readable 429 envelope + Retry-After, the server-wide -deadline
// expiring a request as the 408 envelope, the 400 envelope for malformed
// parameters, the live GET /metrics ring snapshot, and the post-mortem
// flight-recorder file read back with aglmetrics.
//
// Saturation is deterministic, not a timing race: with -shed 1 a single
// admitted cold request lingers in the micro-batcher for -max-wait
// waiting for companions admission control can never let in, holding the
// only admission slot while the probes arrive.
func TestCLIServeOverloadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bins := buildSome(t, dir, "aglserve", "aglmetrics")

	ds, err := datagen.UUG(datagen.UUGConfig{Nodes: 200, FeatDim: 8, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	nodePath := filepath.Join(dir, "nodes.tsv")
	edgePath := filepath.Join(dir, "edges.tsv")
	nf, err := os.Create(nodePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteNodeTable(nf, ds.G.Nodes); err != nil {
		t.Fatal(err)
	}
	nf.Close()
	ef, err := os.Create(edgePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeTable(ef, ds.G.Edges); err != nil {
		t.Fatal(err)
	}
	ef.Close()

	// An untrained model is enough: this test exercises the serving
	// control plane, not score quality.
	model, err := gnn.NewModel(gnn.Config{
		Kind: gnn.KindGCN, InDim: 8, Hidden: 8, Classes: 1, Layers: 2,
		Act: nn.ActTanh, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := gnn.MarshalModel(model)
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "model.agl")
	if err := os.WriteFile(modelPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	flightPath := filepath.Join(dir, "flight.aglfr")
	addr := freeAddr(t)
	serveCmd := exec.Command(bins["aglserve"],
		"-m", modelPath, "-n", nodePath, "-e", edgePath,
		"-seed", "3", "-precompute=false",
		"-max-batch", "2", "-max-wait", "5s", "-shed", "1",
		"-deadline", "500ms", "-cache", "8",
		"-flight", flightPath, "-flight-interval", "100ms",
		"-addr", addr)
	var serveOut bytes.Buffer
	serveCmd.Stdout = &serveOut
	serveCmd.Stderr = &serveOut
	if err := serveCmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		serveCmd.Process.Kill()
		serveCmd.Wait()
	}()
	waitHealthy(t, addr, &serveOut)

	// The hold: one cold request admits, then lingers in the batcher.
	holdURL := fmt.Sprintf("http://%s/score?node=%d", addr, ds.G.Nodes[0].ID)
	type holdResult struct {
		resp *http.Response
		env  errEnvelope
	}
	holdCh := make(chan holdResult, 1)
	go func() {
		resp, err := http.Get(holdURL)
		if err != nil {
			holdCh <- holdResult{}
			return
		}
		defer resp.Body.Close()
		var env errEnvelope
		json.NewDecoder(resp.Body).Decode(&env)
		holdCh <- holdResult{resp, env}
	}()

	// Wait until the hold owns the admission slot (ColdPending gauge).
	var pending struct{ ColdPending int64 }
	holdDeadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, "http://"+addr+"/stats", &pending)
		if pending.ColdPending >= 1 {
			break
		}
		if time.Now().After(holdDeadline) {
			t.Fatalf("hold request never admitted; server log:\n%s", serveOut.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Probe: admission control must shed with the full 429 contract.
	probeURL := fmt.Sprintf("http://%s/score?node=%d", addr, ds.G.Nodes[1].ID)
	resp, env := getEnvelope(t, probeURL)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("probe during saturation: status %d, want 429", resp.StatusCode)
	}
	if env.Error.Code != "overloaded" || env.Error.Message == "" {
		t.Fatalf("shed envelope %+v", env)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carried no Retry-After header")
	}

	// The held request must expire at the server-wide 500ms deadline and
	// come back as the 408 envelope — never as a success served late.
	hold := <-holdCh
	if hold.resp == nil {
		t.Fatal("hold request failed at transport level")
	}
	if hold.resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("held request: status %d, want 408", hold.resp.StatusCode)
	}
	if hold.env.Error.Code != "deadline_exceeded" {
		t.Fatalf("held request envelope %+v", hold.env)
	}

	// Malformed parameter: same envelope shape, stable code.
	resp, env = getEnvelope(t, "http://"+addr+"/score?node=notanumber")
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != "bad_request" {
		t.Fatalf("bad parameter: status %d, envelope %+v", resp.StatusCode, env)
	}

	// Live ring snapshot: the shed and the expiry must show up in the
	// per-interval samples once the next tick lands.
	time.Sleep(250 * time.Millisecond)
	var metrics struct {
		IntervalMs int64                `json:"interval_ms"`
		Slots      int                  `json:"slots"`
		Path       string               `json:"path"`
		Samples    []serve.FlightSample `json:"samples"`
	}
	getJSON(t, "http://"+addr+"/metrics?last=100", &metrics)
	if metrics.IntervalMs != 100 || metrics.Path != flightPath {
		t.Fatalf("metrics spec: %+v", metrics)
	}
	var liveShed uint64
	for _, s := range metrics.Samples {
		liveShed += uint64(s.Shed)
	}
	if len(metrics.Samples) == 0 || liveShed == 0 {
		t.Fatalf("live ring: %d samples, %d shed — recorder missed the overload",
			len(metrics.Samples), liveShed)
	}

	// Post-mortem: kill the server hard (no graceful close) and read the
	// flight file with aglmetrics — incident forensics must not depend on
	// a clean shutdown.
	serveCmd.Process.Kill()
	serveCmd.Wait()
	dump := run(t, bins["aglmetrics"], "-i", flightPath)
	if !strings.Contains(dump, "totals:") {
		t.Fatalf("aglmetrics table output:\n%s", dump)
	}
	jsonDump := run(t, bins["aglmetrics"], "-i", flightPath, "-json")
	var fileShed uint64
	for _, line := range strings.Split(strings.TrimSpace(jsonDump), "\n") {
		var s serve.FlightSample
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("aglmetrics -json line %q: %v", line, err)
		}
		fileShed += uint64(s.Shed)
	}
	if fileShed == 0 {
		t.Fatal("flight file recorded no shed samples")
	}
}
