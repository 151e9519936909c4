package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"policyoracle/internal/batch"
	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/diff"
	"policyoracle/internal/oracle"
	"policyoracle/internal/policy"
	"policyoracle/internal/store"
)

const (
	warmCorpora = 8  // 8 corpora x 3 libraries = 24 fingerprints
	warmCache   = 16 // polorad -cache: smaller than the 24 fingerprints
	warmExtract = 8  // extract items per batch
	warmDiff    = 8  // diff items per batch
)

// serveWarm is the warm read path: two connections to an in-process
// polorad, each running fixed 16-item batches over 24 fingerprints that
// were all extracted during set-up. No frontend or ISPA runs; the ops
// exercise store reads (memory and disk hits), policy decoding, diff,
// envelope encoding and HTTP.
type serveWarm struct {
	cfg *config

	names   []string            // library names, "c<corpus>-<impl>"
	sources []map[string]string // by library index
	corpus  []int               // corpus index by library index
	export  [][]byte            // reference ExportJSON bytes by library index
	diffRef map[[2]int][]byte   // reference EncodeJSON bytes by ordered pair
	rank    []int               // popularity rank -> library index

	d      *polorad
	fps    []string // fingerprint by library index
	staged [2][]batch.Item
	libs   [2][]int // library indices of each staged item (diff: a, b)

	mu      sync.Mutex
	opItems [][]batch.Item // every op's items in the timed phase
	stats0  store.Stats
	item0   map[string]float64
	route0  [2]float64
}

type warmOut struct {
	items []batch.Item
	res   []batch.ItemResult
}

func (w *serveWarm) clients() int { return 2 }
func (w *serveWarm) close()       { w.d.stop() }

// prepare generates the corpora and computes every payload's reference
// bytes offline, single-node: the oracle's own extraction and diff.
func (w *serveWarm) prepare() error {
	opts := oracle.DefaultOptions()
	opts.Parallel = 0
	libs := []*oracle.Library{}
	for i := 0; i < warmCorpora; i++ {
		c := gen.Generate(corpusParams(w.cfg, deriveSeed(w.cfg.seed, 100+uint64(i)), false))
		for _, impl := range []string{"jdk", "harmony", "classpath"} {
			name := fmt.Sprintf("c%d-%s", i, impl)
			lib, err := oracle.LoadLibrary(name, c.Sources[impl])
			if err != nil {
				return err
			}
			lib.Extract(opts)
			blob, err := lib.Policies.ExportJSON()
			if err != nil {
				return err
			}
			w.names = append(w.names, name)
			w.sources = append(w.sources, c.Sources[impl])
			w.corpus = append(w.corpus, i)
			w.export = append(w.export, blob)
			libs = append(libs, lib)
		}
	}
	w.diffRef = map[[2]int][]byte{}
	for a := range libs {
		for b := range libs {
			if a == b || w.corpus[a] != w.corpus[b] {
				continue
			}
			rep, err := oracle.Diff(libs[a], libs[b])
			if err != nil {
				return err
			}
			if w.diffRef[[2]int{a, b}], err = rep.EncodeJSON(); err != nil {
				return err
			}
		}
	}
	w.rank = rand.New(rand.NewSource(deriveSeed(w.cfg.seed, 199))).Perm(len(libs))
	return nil
}

// setup starts a fresh polorad, uploads the 24 libraries and extracts
// them all with one batch.
func (w *serveWarm) setup() error {
	w.d.stop()
	d, err := startPolorad(filepath.Join(w.cfg.dir, "store-serve-warm"), warmCache)
	if err != nil {
		return err
	}
	w.d = d
	w.fps = make([]string, len(w.names))
	items := make([]batch.Item, len(w.names))
	for i, name := range w.names {
		if w.fps[i], err = d.upload(name, w.sources[i]); err != nil {
			return err
		}
		items[i] = batch.Item{Op: batch.OpExtract, Fingerprint: w.fps[i]}
	}
	res, err := w.client().Run(context.Background(), items)
	if err != nil {
		return err
	}
	for i, r := range res {
		if r.Status != 200 || !bytes.Equal(r.Result, w.export[i]) {
			return fmt.Errorf("initial extraction of %s differs from the reference", w.names[i])
		}
	}
	return nil
}

func (w *serveWarm) client() *batch.Client {
	return &batch.Client{Members: []string{w.d.base}, HTTP: w.d.http}
}

// stage draws client c's op n: the same seeded items in every run,
// independent of how the two clients interleave. Popularity is Zipf
// over a seeded ranking of the 24 fingerprints; a diff pairs a drawn
// library with another implementation of its corpus.
func (w *serveWarm) stage(c, n int) error {
	rng := rand.New(rand.NewSource(deriveSeed(w.cfg.seed, uint64(c)<<40|uint64(n))))
	zipf := rand.NewZipf(rng, 1.1, 4, uint64(len(w.rank)-1))
	draw := func() int { return w.rank[zipf.Uint64()] }
	items := make([]batch.Item, 0, warmExtract+warmDiff)
	libs := make([]int, 0, warmExtract+2*warmDiff)
	for i := 0; i < warmExtract; i++ {
		a := draw()
		items = append(items, batch.Item{Op: batch.OpExtract, Fingerprint: w.fps[a]})
		libs = append(libs, a)
		a = draw()
		b := 3*w.corpus[a] + (a%3+1+rng.Intn(2))%3
		items = append(items, batch.Item{Op: batch.OpDiff, A: w.fps[a], B: w.fps[b]})
		libs = append(libs, a, b)
	}
	w.staged[c], w.libs[c] = items, libs
	return nil
}

func (w *serveWarm) op(c, n int, tr *opTrace) (any, error) {
	items := w.staged[c]
	root := tr.begin(-1, "op")
	s := tr.begin(root, "http")
	res, err := w.client().Run(context.Background(), items)
	tr.end(s)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	if w.cfg.trace {
		w.mu.Lock()
		w.opItems = append(w.opItems, items)
		w.mu.Unlock()
	}
	return &warmOut{items: items, res: res}, nil
}

// check requires every payload to be byte-identical to the offline
// reference.
func (w *serveWarm) check(c, n int, out any) error {
	o := out.(*warmOut)
	if len(o.res) != len(o.items) {
		return fmt.Errorf("%d results for %d items", len(o.res), len(o.items))
	}
	libs := w.libs[c]
	k := 0
	for i, r := range o.res {
		if r.Status != 200 || r.Error != nil {
			return fmt.Errorf("item %d: status %d: %+v", i, r.Status, r.Error)
		}
		var want []byte
		if o.items[i].Op == batch.OpExtract {
			want = w.export[libs[k]]
			k++
		} else {
			want = w.diffRef[[2]int{libs[k], libs[k+1]}]
			k += 2
		}
		if !bytes.Equal(r.Result, want) {
			return fmt.Errorf("item %d (%s): payload differs from the single-node reference", i, o.items[i].Op)
		}
	}
	return nil
}

func (w *serveWarm) itemTimes() map[string]float64 {
	return map[string]float64{
		"extract": w.d.bm.ItemDuration.With(batch.OpExtract).Sum(),
		"diff":    w.d.bm.ItemDuration.With(batch.OpDiff).Sum(),
	}
}

func (w *serveWarm) begin() {
	w.opItems = nil
	w.stats0 = w.d.st.Stats()
	w.item0 = w.itemTimes()
	w.route0[0], w.route0[1] = w.d.routeTime("/v1/batch")
}

// finish checks that the timed phase extracted nothing and, for a
// traced run, reports the busy-time rows. Items run concurrently, so
// the rows are busy time per op, reported against trace.cpu_ms_per_op:
// the replayed decode, diff and encode rows plus other_ms add up to it.
func (w *serveWarm) finish(p *phase, rows map[string]float64) error {
	st := w.d.st.Stats()
	extractions := st.Extractions - w.stats0.Extractions
	var err error
	if extractions != 0 {
		err = fmt.Errorf("serve-warm extracted %d blobs in its timed phase", extractions)
	}
	if !w.cfg.trace {
		return err
	}
	ops := float64(p.attempted)
	mem := float64(st.MemHits - w.stats0.MemHits)
	disk := float64(st.DiskHits - w.stats0.DiskHits)
	rows["store.mem_hit_ratio"] = ratio(mem, mem+disk+float64(st.Misses-w.stats0.Misses))
	rows["store.disk_hits"] = disk / ops
	rows["store.extractions"] = float64(extractions)
	items := w.itemTimes()
	rows["server.item_extract_ms"] = (items["extract"] - w.item0["extract"]) * 1e3 / ops
	rows["server.item_diff_ms"] = (items["diff"] - w.item0["diff"]) * 1e3 / ops
	sum, count := w.d.routeTime("/v1/batch")
	handler := ratio(sum-w.route0[0], count-w.route0[1]) * 1e3
	rows["server.http_ms"] = mean(append(append([]float64(nil), p.lat...), p.tracedLat...)) - handler

	cost, rerr := w.replay()
	if rerr != nil {
		return rerr
	}
	per := map[string]float64{}
	for _, items := range w.opItems {
		for _, it := range items {
			for k, v := range cost[itemKey(it)] {
				per[k] += v
			}
		}
	}
	n := float64(len(w.opItems))
	for k, v := range per {
		rows[k] = v / n
	}
	rows["policy.import_ms"] += rows["store.disk_hits"] * cost[blobImportKey]["policy.import_ms"]
	rows["other_ms"] = rows["trace.cpu_ms_per_op"] - rows["policy.import_ms"] - rows["diff.ms"] -
		rows["diff.encode_ms"] - rows["batch.envelope_ms"]
	return err
}

const blobImportKey = "disk-hit"

func itemKey(it batch.Item) string { return it.Op + ":" + it.Fingerprint + it.A + ":" + it.B }

// replay re-runs, outside the timed phase, the exported calls each
// distinct item makes on the server: policy.ImportJSON of its blobs,
// diff.Compare and Report.EncodeJSON for a diff, and the JSON envelope
// of its batch.ItemResult. Each cost is the median of three runs.
func (w *serveWarm) replay() (map[string]map[string]float64, error) {
	idx := map[string]int{}
	for i, fp := range w.fps {
		idx[fp] = i
	}
	timeIt := func(f func() error) (float64, error) {
		var xs []float64
		for r := 0; r < 3; r++ {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			xs = append(xs, ms(time.Since(start)))
		}
		return median(xs), nil
	}
	cost := map[string]map[string]float64{}
	var imports []float64
	for _, blob := range w.export {
		t, err := timeIt(func() error { _, err := policy.ImportJSON(blob); return err })
		if err != nil {
			return nil, err
		}
		imports = append(imports, t)
	}
	cost[blobImportKey] = map[string]float64{"policy.import_ms": mean(imports)}
	for _, items := range w.opItems {
		for _, it := range items {
			key := itemKey(it)
			if cost[key] != nil {
				continue
			}
			c := map[string]float64{}
			var payload []byte
			if it.Op == batch.OpExtract {
				payload = w.export[idx[it.Fingerprint]]
			} else {
				a, b := idx[it.A], idx[it.B]
				var pa, pb *policy.ProgramPolicies
				var rep *diff.Report
				var err error
				if c["policy.import_ms"], err = timeIt(func() (err error) {
					if pa, err = policy.ImportJSON(w.export[a]); err != nil {
						return err
					}
					pb, err = policy.ImportJSON(w.export[b])
					return err
				}); err != nil {
					return nil, err
				}
				c["diff.ms"], _ = timeIt(func() error { rep = diff.Compare(pa, pb); return nil })
				if c["diff.encode_ms"], err = timeIt(func() (err error) { payload, err = rep.EncodeJSON(); return err }); err != nil {
					return nil, err
				}
				c["diff.groups"] = float64(len(rep.Groups))
			}
			// The server's NDJSON encoder writes each result and a newline.
			var line []byte
			t, err := timeIt(func() (err error) {
				line, err = json.Marshal(batch.ItemResult{Op: it.Op, Status: 200, Result: payload})
				return err
			})
			if err != nil {
				return nil, err
			}
			c["batch.envelope_ms"], c["batch.bytes"] = t, float64(len(line)+1)
			cost[key] = c
		}
	}
	return cost, nil
}
