package campaign_test

import (
	"encoding/json"
	"strings"
	"testing"

	"policyoracle/internal/campaign"
	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/telemetry"
)

// testParams sizes a generated corpus small enough that a campaign
// round (parse + mutate + extract + diff) stays in the low-millisecond
// range, but with helpers, wrappers, and privileged blocks so every
// catalog mutator finds sites.
func testParams() gen.Params {
	return gen.Params{
		Seed: 401, Classes: 4, MethodsPerClass: 3, CheckFraction: 0.5,
		MaxDepth: 2, WrapperFanout: 1, ConstGuards: 1, PolymorphicNoise: 1,
	}
}

func testSources(t *testing.T) map[string]string {
	t.Helper()
	c := gen.Generate(testParams())
	src := c.Sources["jdk"]
	if len(src) == 0 {
		t.Fatal("generated corpus has no jdk sources")
	}
	return src
}

// TestCampaignDeterministic pins the scheduler-determinism contract:
// the same seed produces byte-identical merged results regardless of
// worker count, because every shard is a self-contained sequential
// feedback unit. Elapsed is excluded from the JSON encoding, so the
// comparison is over everything the campaign reports.
func TestCampaignDeterministic(t *testing.T) {
	src := testSources(t)
	opts := campaign.Options{Seed: 11, Rounds: 12, Mutations: 4, ShardRounds: 4}

	opts.Workers = 1
	a, err := campaign.Run("jdk", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	b, err := campaign.Run("jdk", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("same seed, different results:\n1 worker:  %s\n4 workers: %s", aj, bj)
	}
	if a.Rounds != 12 || a.Entries == 0 {
		t.Fatalf("bad result shape: rounds=%d entries=%d", a.Rounds, a.Entries)
	}
	if a.RawViolations != 0 || len(a.Crashers) != 0 {
		t.Fatalf("clean corpus produced violations: %s", aj)
	}
	if len(a.CoverageKeys) == 0 || a.NewCoverageRounds == 0 {
		t.Fatal("campaign discovered no coverage")
	}
}

// TestManualShardsMergeLikeRun pins that Merge over out-of-order,
// individually-run shards equals a whole local Run — the property the
// remote path depends on.
func TestManualShardsMergeLikeRun(t *testing.T) {
	src := testSources(t)
	opts := campaign.Options{Seed: 23, Rounds: 10, Mutations: 4, ShardRounds: 4}

	whole, err := campaign.Run("jdk", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := campaign.NewEngine("jdk", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() != 3 {
		t.Fatalf("10 rounds / 4 per shard = 3 shards, got %d", e.Shards())
	}
	var shards []*campaign.ShardResult
	for s := e.Shards() - 1; s >= 0; s-- { // reverse order on purpose
		sr, err := e.RunShard(s)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sr)
	}
	// The last shard covers only the tail of the round range.
	if last := shards[0]; last.Rounds != 2 || last.StartRound != 8 {
		t.Fatalf("tail shard: rounds=%d start=%d", last.Rounds, last.StartRound)
	}
	merged := e.Merge(shards)
	wj, _ := json.Marshal(whole)
	mj, _ := json.Marshal(merged)
	if string(wj) != string(mj) {
		t.Fatalf("manual merge != Run:\nrun:   %s\nmerge: %s", wj, mj)
	}
}

// TestCoverageKeyShape asserts every reported key carries all six
// signature components in order, so downstream consumers (CI jq
// queries, the nightly summary) can parse them positionally.
func TestCoverageKeyShape(t *testing.T) {
	src := testSources(t)
	res, err := campaign.Run("jdk", src, campaign.Options{Seed: 3, Rounds: 6, Mutations: 3, ShardRounds: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range res.CoverageKeys {
		idx := -1
		for _, part := range []string{"mut=", ";inv=", ";may=", ";must=", ";sc=", ";viol=", ";roots="} {
			at := strings.Index(k, part)
			if at <= idx {
				t.Fatalf("key %q: missing or out-of-order component %q", k, part)
			}
			idx = at
		}
	}
}

// TestAppliedAttemptedAccounting pins the applied-vs-attempted split:
// every draw is attempted, only successful rewrites count as applied,
// and the totals obey attempted >= applied with attempted bounded by
// rounds x mutations.
func TestAppliedAttemptedAccounting(t *testing.T) {
	src := testSources(t)
	res, err := campaign.Run("jdk", src, campaign.Options{Seed: 7, Rounds: 8, Mutations: 5, ShardRounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	var applied, attempted int
	for m, n := range res.Attempted {
		attempted += n
		if res.Applied[m] > n {
			t.Errorf("%s: applied %d > attempted %d", m, res.Applied[m], n)
		}
	}
	for _, n := range res.Applied {
		applied += n
	}
	if applied == 0 || attempted == 0 {
		t.Fatalf("no rewrites recorded: applied=%d attempted=%d", applied, attempted)
	}
	if attempted > 8*5 {
		t.Fatalf("attempted %d exceeds rounds x mutations = 40", attempted)
	}
	if applied > attempted {
		t.Fatalf("applied %d > attempted %d", applied, attempted)
	}
	for m := range res.Applied {
		if res.Attempted[m] == 0 {
			t.Errorf("%s applied without an attempted count", m)
		}
	}
}

// TestCampaignMetrics wires a real registry through a run and asserts
// the polora_campaign_* series account for every round and discovery.
func TestCampaignMetrics(t *testing.T) {
	src := testSources(t)
	reg := telemetry.New()
	m := telemetry.NewCampaignMetrics(reg)
	res, err := campaign.Run("jdk", src, campaign.Options{
		Seed: 5, Rounds: 8, Mutations: 4, ShardRounds: 4, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Rounds.Value(); got != 8 {
		t.Errorf("rounds counter = %v, want 8", got)
	}
	if got := m.NewCoverage.Value(); got != float64(res.NewCoverageRounds) {
		t.Errorf("new-coverage counter = %v, want %d", got, res.NewCoverageRounds)
	}
	if got := m.Crashers.Sum(); got != 0 {
		t.Errorf("crashers counter = %v on a clean corpus", got)
	}
	for name, e := range res.Energy {
		if got := m.Energy.With(name).Value(); got != e {
			t.Errorf("energy gauge %s = %v, want %v", name, got, e)
		}
	}
}
