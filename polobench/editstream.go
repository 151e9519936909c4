package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/diff"
	"policyoracle/internal/metamorph"
	"policyoracle/internal/oracle"
	"policyoracle/internal/policy"
	"policyoracle/internal/secmodel"
	"policyoracle/internal/server"
	"policyoracle/internal/store"
)

// editStream is the incremental path: one connection to an in-process
// polorad; each op PUTs the next revision of one library and diffs the
// new fingerprint against another implementation of its corpus.
// Revisions are a seeded chain of single-step semantics-preserving
// mutations, so ISPA re-analyzes only the entries an edit reaches while
// the frontend reloads and re-hashes the whole library.
type editStream struct {
	cfg  *config
	corp *gen.Corpus
	// head is the newest revision of the edited library and headFP its
	// fingerprint in the current store; step counts mutation draws.
	head   map[string]string
	headFP string
	step   int64
	seen   map[[32]byte]bool
	next   map[string]string // staged revision for the coming op

	d       *polorad
	otherFP string
	acc     map[string]float64
	// discounted counts seeded issues the checks set aside as generator
	// label defects.
	discounted int
}

const (
	editLib  = "jdk"     // the edited implementation
	otherLib = "harmony" // the implementation each verdict compares against
)

type editOut struct {
	put  store.UpdateResult
	wire []byte
}

func (w *editStream) clients() int { return 1 }
func (w *editStream) close()       { w.d.stop() }
func (w *editStream) begin()       { w.acc = map[string]float64{} }

func (w *editStream) prepare() error {
	w.corp = gen.Generate(corpusParams(w.cfg, deriveSeed(w.cfg.seed, 200), false))
	w.head = w.corp.Sources[editLib]
	w.seen = map[[32]byte]bool{sourcesKey(w.head): true}
	return nil
}

func sourcesKey(src map[string]string) [32]byte {
	names := make([]string, 0, len(src))
	for n := range src {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%d:%s%d:%s", len(n), n, len(src[n]), src[n])
	}
	var k [32]byte
	copy(k[:], h.Sum(nil))
	return k
}

// setup starts a fresh polorad, uploads and extracts the comparison
// implementation, and PUTs the edited library's newest revision.
func (w *editStream) setup() error {
	w.d.stop()
	d, err := startPolorad(filepath.Join(w.cfg.dir, "store-edit-stream"), 128)
	if err != nil {
		return err
	}
	w.d = d
	if w.otherFP, err = d.upload(otherLib, w.corp.Sources[otherLib]); err != nil {
		return err
	}
	if _, err := d.call("POST", "/v1/extract", map[string]string{"fingerprint": w.otherFP}); err != nil {
		return err
	}
	res, err := w.put(w.head)
	if err != nil {
		return err
	}
	w.headFP = res.Fingerprint
	return nil
}

func (w *editStream) put(src map[string]string) (*store.UpdateResult, error) {
	out, err := w.d.call("PUT", "/v1/libraries/"+editLib, server.UpdateRequest{Sources: src})
	if err != nil {
		return nil, err
	}
	var res store.UpdateResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// stage derives the next revision: one metamorph.MutateSources step on
// the head, redrawn until it changes the sources to content the chain
// has not produced before.
func (w *editStream) stage(c, n int) error {
	for tries := 0; tries < 64; tries++ {
		w.step++
		src, applied, err := metamorph.MutateSources(w.head, deriveSeed(w.cfg.seed, 300+uint64(w.step)), 1)
		if err != nil {
			return err
		}
		if len(applied) == 0 {
			continue
		}
		if k := sourcesKey(src); !w.seen[k] {
			w.seen[k] = true
			w.next = src
			return nil
		}
	}
	return errors.New("edit chain: no new revision in 64 draws")
}

func (w *editStream) op(c, n int, tr *opTrace) (any, error) {
	// The server observes its route timers before the response
	// completes, so reading them around the op gives this op's share.
	var put0, diff0, x0 float64
	var mode0 map[string]float64
	if tr != nil {
		put0, _ = w.d.routeTime("/v1/libraries/{name}")
		diff0, _ = w.d.routeTime("/v1/diff")
		x0 = w.d.sm.ExtractDuration.Sum()
		mode0 = w.d.modeStats()
	}
	root := tr.begin(-1, "op")
	hp := tr.begin(root, "http")
	res, err := w.put(w.next)
	tr.end(hp)
	if err != nil {
		return nil, err
	}
	hd := tr.begin(root, "http")
	wire, err := w.d.call("POST", "/v1/diff", server.DiffRequest{A: res.Fingerprint, B: w.otherFP})
	tr.end(hd)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	prevFP := w.headFP
	w.head, w.headFP = w.next, res.Fingerprint
	if tr != nil {
		put1, _ := w.d.routeTime("/v1/libraries/{name}")
		diff1, _ := w.d.routeTime("/v1/diff")
		x1 := w.d.sm.ExtractDuration.Sum()
		if err := w.split(tr, hp, hd, prevFP, res, seconds(put1-put0), seconds(diff1-diff0), seconds(x1-x0), mode0); err != nil {
			return nil, err
		}
	}
	return &editOut{put: *res, wire: wire}, nil
}

// split attributes the server's time for one traced op. The handler and
// extraction durations come from the program's own timers; the layers
// inside them are probed by replaying the exported calls the store makes
// on the same inputs, with the op clock paused:
//
//	http (PUT)      server.put: Store.Update's self time
//	                  load: Put's validating oracle.LoadLibrary
//	                  store.seed: DecodeSnapshot + Snapshot.ToLibrary
//	                    policy.import: its policy.ImportJSON
//	                  store.extract: ExtractIncremental minus the rows below
//	                    load: its oracle.LoadLibrary
//	                    oracle.hash: oracle.MethodHashes
//	                  policy.export: ProgramPolicies.ExportJSON
//	http (diff)     server.diff: handler self time
//	                  policy.import x2, diff, diff.encode
func (w *editStream) split(tr *opTrace, hp, hd int, prevFP string, res *store.UpdateResult,
	hPut, hDiff, x time.Duration, mode0 map[string]float64) error {
	put := tr.attribute(hp, "server.put", kindTimer, hPut)
	ext := tr.attribute(put, "store.extract", kindTimer, x)
	var lib *oracle.Library
	var err error
	sub := newOpTrace(tr.op)
	tr.pause(func() {
		root := sub.begin(-1, "load")
		lib, err = tracedLoad(sub, root, editLib, w.head)
		sub.end(root)
	})
	if err != nil {
		return err
	}
	for _, parent := range []int{put, ext} {
		tr.graft(parent, sub)
		addLoadCounts(w.acc, lib, w.head)
	}
	var hashes map[string]string
	tr.probe(ext, "oracle.hash", func() { hashes = oracle.MethodHashes(lib.Prog, lib.Resolver, secmodel.SecurityManager()) })

	var prevHashes map[string]string
	seed := tr.probe(put, "store.seed", func() {
		var side, blob []byte
		var snap *oracle.Snapshot
		if side, err = os.ReadFile(filepath.Join(w.d.dir, "deps", prevFP+".json")); err != nil {
			return
		}
		if snap, err = oracle.DecodeSnapshot(side); err != nil {
			return
		}
		if blob, err = os.ReadFile(filepath.Join(w.d.dir, "policies", prevFP+".json")); err != nil {
			return
		}
		snap.Policies = blob
		prevHashes = snap.MethodHashes
		_, err = snap.ToLibrary()
	})
	if err != nil {
		return fmt.Errorf("seed probe: %w", err)
	}
	prevBlob, err := w.d.st.Policies(prevFP)
	if err != nil {
		return err
	}
	newBlob, err := w.d.st.Policies(res.Fingerprint)
	if err != nil {
		return err
	}
	otherBlob, err := w.d.st.Policies(w.otherFP)
	if err != nil {
		return err
	}
	var pp, pa, pb *policy.ProgramPolicies
	tr.probe(seed, "policy.import", func() { _, err = policy.ImportJSON(prevBlob) })
	if err == nil {
		pp, err = policy.ImportJSON(newBlob)
	}
	if err != nil {
		return err
	}
	tr.probe(put, "policy.export", func() { _, err = pp.ExportJSON() })

	dh := tr.attribute(hd, "server.diff", kindTimer, hDiff)
	tr.probe(dh, "policy.import", func() {
		if pa, err = policy.ImportJSON(newBlob); err == nil {
			pb, err = policy.ImportJSON(otherBlob)
		}
	})
	if err != nil {
		return err
	}
	var rep *diff.Report
	tr.probe(dh, "diff", func() { rep = diff.Compare(pa, pb) })
	tr.probe(dh, "diff.encode", func() { _, err = rep.EncodeJSON() })
	if err != nil {
		return err
	}

	changed := 0
	for sig, h := range hashes {
		if ph, ok := prevHashes[sig]; !ok || ph != h {
			changed++
		}
	}
	w.acc["oracle.changed_methods"] += float64(changed)
	w.acc["oracle.reanalyzed"] += float64(res.Reanalyzed)
	w.acc["reused"] += float64(res.Reused)
	w.acc["entries"] += float64(res.Entries)
	for k, v := range w.d.modeStats() {
		w.acc[k] += v - mode0[k]
	}
	w.acc["diff.groups"] += float64(len(rep.Groups))
	w.acc["ops"]++
	return nil
}

// check requires the update to have been incremental and the verdict to
// match the corpus's seeded labels.
func (w *editStream) check(c, n int, out any) error {
	o := out.(*editOut)
	if !o.put.Created {
		return fmt.Errorf("revision %s was already stored", o.put.Fingerprint)
	}
	if !o.put.Incremental || o.put.Reanalyzed >= o.put.Entries {
		return fmt.Errorf("update was not incremental: incremental=%v reanalyzed=%d entries=%d",
			o.put.Incremental, o.put.Reanalyzed, o.put.Entries)
	}
	var jr diff.JSONReport
	if err := json.Unmarshal(o.wire, &jr); err != nil {
		return fmt.Errorf("verdict wire bytes: %w", err)
	}
	rep := &diff.Report{LibA: jr.LibA, LibB: jr.LibB, MatchingEntries: jr.MatchingEntries}
	for _, g := range jr.Groups {
		rep.Groups = append(rep.Groups, &diff.Group{Entries: g.Entries})
	}
	d, err := verifyVerdict(w.corp, [2]string{editLib, otherLib}, rep, o.wire)
	w.discounted += d
	return err
}

func (w *editStream) finish(p *phase, rows map[string]float64) error {
	noteDiscounted(w.discounted)
	if !w.cfg.trace {
		return nil
	}
	finishFrontend(w.acc, rows)
	if ops := w.acc["ops"]; ops > 0 {
		rows["oracle.reanalyzed"] = w.acc["oracle.reanalyzed"] / ops
		rows["oracle.changed_methods"] = w.acc["oracle.changed_methods"] / ops
		rows["oracle.reused_ratio"] = ratio(w.acc["reused"], w.acc["entries"])
	}
	return nil
}
