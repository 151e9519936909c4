package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/diff"
	"policyoracle/internal/oracle"
)

var workloads = []string{"pair-cold", "serve-warm", "edit-stream"}

// smallConfig runs a handful of ops on quarter-size corpora.
func smallConfig(t *testing.T, wl string, trace bool) config {
	return config{workload: wl, seed: 1, trace: trace, dir: t.TempDir(),
		tiny: true, setups: 1, warmup: 1, maxOps: 4}
}

func runOK(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != cfg.maxOps {
		t.Fatalf("correct=%v attempted=%d failed=%d, want every one of %d ops checked and correct",
			res.Correct, res.Attempted, res.Failed, cfg.maxOps)
	}
	return res
}

func requireMetrics(t *testing.T, res *result, want []metric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := res.Metrics[m.name]
		if !ok || v.Unit != m.unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", m.name, v, ok, m.unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s is %v", m.name, v.Value)
		}
	}
}

// TestSmoke runs every workload untraced and traced for a few ops and
// checks that every metric is printed with its unit and every op passes
// its check. It asserts nothing about timings.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			res := runOK(t, smallConfig(t, wl, false))
			requireMetrics(t, res, endToEnd)
			for _, m := range endToEnd {
				if res.Metrics[m.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, res.Metrics[m.name].Value)
				}
			}
			requireMetrics(t, runOK(t, smallConfig(t, wl, true)), perLayer)
		})
	}
}

// TestTamperedOutputFails corrupts every op's output before its check and
// requires each op to count as failed.
func TestTamperedOutputFails(t *testing.T) {
	tamper := map[string]func(any){
		"pair-cold":  func(out any) { o := out.(*pairOut); o.rep.Groups = o.rep.Groups[1:] },
		"serve-warm": func(out any) { o := out.(*warmOut); o.res[3].Result = append([]byte(" "), o.res[3].Result...) },
		"edit-stream": func(out any) {
			o := out.(*editOut)
			var jr diff.JSONReport
			if json.Unmarshal(o.wire, &jr) == nil {
				jr.Groups = jr.Groups[1:]
				o.wire, _ = json.Marshal(jr)
			}
		},
	}
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			cfg := smallConfig(t, wl, false)
			cfg.maxOps = 2
			cfg.tamper = tamper[wl]
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed != res.Attempted {
				t.Fatalf("correct=%v failed=%d of %d, want every tampered op failed", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

// timeRows are the rows whose self times, with other_ms, partition a
// traced op on the single-client workloads.
var timeRows = []string{"lexer.ms", "parser.ms", "types.ms", "ir.ms", "callgraph.ms",
	"oracle.hash_ms", "analysis.ms", "store.seed_ms", "store.update_ms", "policy.import_ms",
	"policy.export_ms", "diff.ms", "diff.encode_ms", "server.http_ms", "other_ms"}

// TestTracedRowsRebuildOpTime checks the sum rule of each workload: on
// pair-cold and edit-stream the rows plus other_ms equal the traced op
// time; on serve-warm the replayed busy rows plus other_ms equal the CPU
// per op.
func TestTracedRowsRebuildOpTime(t *testing.T) {

	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			m := runOK(t, smallConfig(t, wl, true)).Metrics
			sum := 0.0
			if wl == "serve-warm" {
				for _, r := range []string{"policy.import_ms", "diff.ms", "diff.encode_ms", "batch.envelope_ms", "other_ms"} {
					sum += m[r].Value
				}
				if !approx(sum, m["trace.cpu_ms_per_op"].Value) {
					t.Fatalf("busy rows sum to %v, trace.cpu_ms_per_op is %v", sum, m["trace.cpu_ms_per_op"].Value)
				}
				return
			}
			for _, r := range timeRows {
				sum += m[r].Value
			}
			if !approx(sum, m["trace.op_ms"].Value) || sum <= 0 {
				t.Fatalf("rows sum to %v, trace.op_ms is %v", sum, m["trace.op_ms"].Value)
			}
		})
	}
}

// TestSelfTimes pins the span arithmetic on a hand-built trace: call
// children cover their parent's interval, probe and timer children are
// subtracted by duration, and the self times partition the root.
func TestSelfTimes(t *testing.T) {
	tr := &opTrace{spans: []span{
		{ID: 0, Parent: -1, Name: "op", Kind: kindCall, Start: 0, End: 10, Dur: 10},
		{ID: 1, Parent: 0, Name: "parser", Kind: kindCall, Start: 1, End: 4, Dur: 3},
		{ID: 2, Parent: 1, Name: "lexer", Kind: kindProbe, Dur: 2},
		{ID: 3, Parent: 0, Name: "http", Kind: kindCall, Start: 5, End: 9, Dur: 4},
		{ID: 4, Parent: 3, Name: "server.put", Kind: kindTimer, Dur: 3},
		{ID: 5, Parent: 4, Name: "store.extract", Kind: kindTimer, Dur: 2.5},
	}}
	want := []float64{3, 1, 2, 1, 0.5, 2.5}
	got := tr.selfTimes()
	total := 0.0
	for i := range want {
		if !approx(got[i], want[i]) {
			t.Errorf("span %s self %v, want %v", tr.spans[i].Name, got[i], want[i])
		}
		total += got[i]
	}
	if !approx(total, tr.opMS()) {
		t.Errorf("self times sum to %v, op is %v", total, tr.opMS())
	}
	rows := map[string]float64{}
	tr.addRows(rows)
	if !approx(rows["other_ms"], 3) || !approx(rows["server.http_ms"], 1) || !approx(rows["analysis.ms"], 2.5) {
		t.Errorf("rows %v", rows)
	}
	if c := covered([][2]float64{{0, 2}, {1, 3}, {5, 6}}); !approx(c, 4) {
		t.Errorf("covered = %v, want 4", c)
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// TestProbeTimeLeavesOpClock checks that a probe's run time never reaches
// the op clock.
func TestProbeTimeLeavesOpClock(t *testing.T) {
	tr := newOpTrace(1)
	root := tr.begin(-1, "op")
	tr.probe(root, "lexer", func() { time.Sleep(30 * time.Millisecond) })
	tr.end(root)
	if op := tr.opMS(); op >= 30 {
		t.Fatalf("op clock %vms includes the 30ms probe", op)
	}
	if self := tr.selfTimes(); self[1] < 30 {
		t.Fatalf("probe self time %vms, want >= 30", self[1])
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the printed metrics in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, printed %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestLabelDefect pins the generator label defect the verdict check
// discounts: on this seed the extra check planted in harmony repeats a
// check its method already makes, and the oracle rightly reports no
// difference. A report missing a real seeded issue must still fail.
func TestLabelDefect(t *testing.T) {
	p := gen.Small()
	p.Seed = 3884599111897885701
	corp := gen.Generate(p)
	opts := oracle.DefaultOptions()
	var libs [2]*oracle.Library
	pair := [2]string{"jdk", "harmony"}
	for i, name := range pair {
		lib, err := oracle.LoadLibrary(name, corp.Sources[name])
		if err != nil {
			t.Fatal(err)
		}
		lib.Extract(opts)
		libs[i] = lib
	}
	rep, err := oracle.Diff(libs[0], libs[1])
	if err != nil {
		t.Fatal(err)
	}
	wire, err := rep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(corp.VerifyReport(pair, rep)) != 1 {
		t.Fatalf("seeded labels: %v, want exactly the one extra-check label defect", corp.VerifyReport(pair, rep))
	}
	n, err := verifyVerdict(corp, pair, rep, wire)
	if err != nil || n != 1 {
		t.Fatalf("verifyVerdict = %d, %v; want the label defect discounted", n, err)
	}
	rep.Groups = rep.Groups[1:]
	if _, err := verifyVerdict(corp, pair, rep, wire); err == nil {
		t.Fatal("a report missing a seeded issue passed the check")
	}
}
