package campaign_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"policyoracle/internal/campaign"
	"policyoracle/internal/metamorph"
	"policyoracle/internal/oracle"
	"policyoracle/internal/server"
	"policyoracle/internal/store"
	"policyoracle/internal/telemetry"
)

// startWorker boots a polorad-equivalent campaign worker: a real
// server.New over a fresh store with -campaigns on.
func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	st, err := store.Open(store.Config{Dir: t.TempDir(), MaxInflight: 2, Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(st, server.Options{Campaigns: true}))
	t.Cleanup(ts.Close)
	return ts
}

func remoteOpts(seed int64) campaign.Options {
	return campaign.Options{
		Seed: seed, Rounds: 10, Mutations: 4, ShardRounds: 4,
		Poll: 10 * time.Millisecond,
	}
}

// TestRemoteMatchesLocal is the distribution acceptance test: a
// campaign sharded across two polorad workers must merge to
// byte-identical results as the same campaign run locally.
func TestRemoteMatchesLocal(t *testing.T) {
	src := testSources(t)
	local, err := campaign.Run("jdk", src, remoteOpts(31))
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := startWorker(t), startWorker(t)
	remote, err := campaign.RunRemote(context.Background(), "jdk", src, remoteOpts(31),
		[]string{w1.URL, w2.URL})
	if err != nil {
		t.Fatal(err)
	}
	lj, _ := json.Marshal(local)
	rj, _ := json.Marshal(remote)
	if string(lj) != string(rj) {
		t.Fatalf("remote merge != local run:\nlocal:  %s\nremote: %s", lj, rj)
	}
}

// TestRemoteSurvivesWorkerDropout runs the same campaign against one
// healthy worker and one that fails every request: the healthy worker
// must absorb the requeued shards and the merged result must still
// equal the local run.
func TestRemoteSurvivesWorkerDropout(t *testing.T) {
	src := testSources(t)
	local, err := campaign.Run("jdk", src, remoteOpts(37))
	if err != nil {
		t.Fatal(err)
	}
	var broken atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		broken.Add(1)
		http.Error(w, "worker melted", http.StatusInternalServerError)
	}))
	t.Cleanup(bad.Close)
	good := startWorker(t)
	remote, err := campaign.RunRemote(context.Background(), "jdk", src, remoteOpts(37),
		[]string{bad.URL, good.URL})
	if err != nil {
		t.Fatal(err)
	}
	lj, _ := json.Marshal(local)
	rj, _ := json.Marshal(remote)
	if string(lj) != string(rj) {
		t.Fatalf("dropout changed the merged result:\nlocal:  %s\nremote: %s", lj, rj)
	}
	if broken.Load() == 0 {
		t.Fatal("broken worker was never offered a shard")
	}
}

// TestRemoteSurvivesFlakyStatusPolls pins the poll retry budget: a
// worker whose status GETs fail intermittently (every other poll) must
// not be declared dead — the poller retries with backoff, and no shard
// is requeued, so each shard is POSTed exactly once and the merged
// result still equals the local run. Before the budget existed, one
// dropped GET requeued a shard that was still running remotely.
func TestRemoteSurvivesFlakyStatusPolls(t *testing.T) {
	src := testSources(t)
	opts := remoteOpts(41)
	local, err := campaign.Run("jdk", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := campaign.NewEngine("jdk", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Config{Dir: t.TempDir(), MaxInflight: 2, Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	inner := server.New(st, server.Options{Campaigns: true})
	var posts, polls, dropped atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		}
		if r.Method == http.MethodGet {
			if polls.Add(1)%2 == 1 {
				dropped.Add(1)
				http.Error(w, "bad gateway", http.StatusBadGateway)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)
	remote, err := campaign.RunRemote(context.Background(), "jdk", src, opts, []string{flaky.URL})
	if err != nil {
		t.Fatalf("flaky status polls killed the campaign: %v", err)
	}
	if dropped.Load() == 0 {
		t.Fatal("no status poll was dropped; test is vacuous")
	}
	if got, want := posts.Load(), int64(e.Shards()); got != want {
		t.Fatalf("%d shard POSTs for %d shards: transient poll failures requeued running shards", got, want)
	}
	lj, _ := json.Marshal(local)
	rj, _ := json.Marshal(remote)
	if string(lj) != string(rj) {
		t.Fatalf("flaky polls changed the merged result:\nlocal:  %s\nremote: %s", lj, rj)
	}
}

// TestRemoteAllWorkersFail pins the terminal error: when every worker
// has been dropped with shards still pending, RunRemote reports it
// instead of hanging.
func TestRemoteAllWorkersFail(t *testing.T) {
	src := testSources(t)
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusInternalServerError)
	}))
	t.Cleanup(bad.Close)
	_, err := campaign.RunRemote(context.Background(), "jdk", src, remoteOpts(1), []string{bad.URL})
	if err == nil {
		t.Fatal("RunRemote succeeded against a dead worker pool")
	}
}

// TestRemoteHonorsContext pins cancellation: a cancelled context stops
// the campaign promptly with ctx.Err.
func TestRemoteHonorsContext(t *testing.T) {
	src := testSources(t)
	release := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	t.Cleanup(hang.Close)
	t.Cleanup(func() { close(release) })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := campaign.RunRemote(ctx, "jdk", src, remoteOpts(1), []string{hang.URL})
	if err == nil {
		t.Fatal("RunRemote ignored context cancellation")
	}
}

// A ShardRequest cannot carry invariant sampling rates, a mutator
// catalog or oracle options, so a campaign that sets any of them
// otherwise than a worker runs fails before any worker sees a request:
// the workers would run another campaign than the one merged.
func TestRemoteRejectsOptionsWorkersIgnore(t *testing.T) {
	var hits atomic.Int64
	w := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "no request expected", http.StatusInternalServerError)
	}))
	t.Cleanup(w.Close)
	noICP := oracle.DefaultOptions()
	noICP.ICP = false
	cases := map[string]func(*campaign.Options){
		"ParallelEvery":    func(o *campaign.Options) { o.ParallelEvery = -1 },
		"IncrementalEvery": func(o *campaign.Options) { o.IncrementalEvery = 3 },
		"Mutators":         func(o *campaign.Options) { o.Mutators = metamorph.Mutators()[:1] },
		"Oracle":           func(o *campaign.Options) { o.Oracle = &noICP },
	}
	for name, set := range cases {
		opts := remoteOpts(41)
		set(&opts)
		if _, err := campaign.RunRemote(context.Background(), "jdk", testSources(t), opts, []string{w.URL}); err == nil {
			t.Errorf("%s: remote run succeeded", name)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("the worker received %d requests, want none", n)
	}
}
