package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"policyoracle/internal/ring"
)

// Remote campaigns shard by round range: the client derives the same
// shard set a local run would, posts one /v1/campaign job per shard to
// a pool of polorad workers, and folds the returned ShardResults with
// the same Merge a local run uses. Because every shard is a
// self-contained deterministic unit (seeded RNG, private energy state),
// placement is irrelevant — a 2-worker remote campaign merges to
// byte-identical results as a local one. A worker that fails mid-shard
// gets its shard requeued for the surviving pool; a worker failing
// twice in a row is dropped.

// ShardRequest is the POST /v1/campaign body: the deterministic
// identity of one campaign plus the shard index this worker should run.
// Execution-strategy options (workers, output dir, metrics) stay
// client-side; remote extraction runs under the named domain's default
// oracle options.
type ShardRequest struct {
	Name        string            `json:"name"`
	Sources     map[string]string `json:"sources"`
	Domain      string            `json:"domain,omitempty"`
	Seed        int64             `json:"seed"`
	Rounds      int               `json:"rounds"`
	Mutations   int               `json:"mutations"`
	ShardRounds int               `json:"shard_rounds"`
	Uniform     bool              `json:"uniform"`
	Shard       int               `json:"shard"`
}

// Status values for campaign jobs.
const (
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// StatusResponse is the GET /v1/campaign/{id} body (POST returns the
// same shape with Status == "running" and no result yet).
type StatusResponse struct {
	ID     string       `json:"id"`
	Status string       `json:"status"`
	Result *ShardResult `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// shardRequest renders the wire request for one of this engine's
// shards.
func (e *Engine) shardRequest(shard int) *ShardRequest {
	return &ShardRequest{
		Name:        e.name,
		Sources:     e.sources,
		Domain:      domainID(e.serial.Domain),
		Seed:        e.opts.Seed,
		Rounds:      e.opts.Rounds,
		Mutations:   e.opts.Mutations,
		ShardRounds: e.opts.ShardRounds,
		Uniform:     e.opts.Uniform,
		Shard:       shard,
	}
}

// RunRemote executes a campaign by sharding it across polorad workers
// (each running with -campaigns) and merging client-side. The baseline
// is still extracted locally — Merge and artifact writing need it — but
// every round runs remotely. Worker dropout is survived by requeuing
// the failed shard; the campaign errors only when every worker has been
// dropped with shards still pending.
func RunRemote(ctx context.Context, name string, sources map[string]string, opts Options, workers []string) (*Result, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("campaign: remote run needs at least one worker")
	}
	e, err := NewEngine(name, sources, opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	nshards := e.Shards()
	jobs := make(chan int, nshards)
	for s := 0; s < nshards; s++ {
		jobs <- s
	}
	results := make([]*ShardResult, nshards)
	done := make(chan struct{})
	var (
		mu        sync.Mutex
		remaining = nshards
		alive     = len(workers)
		runErr    error
	)
	finish := func(err error) {
		if runErr == nil {
			runErr = err
		}
		close(done)
	}
	for _, addr := range workers {
		go func(addr string) {
			client := &http.Client{}
			consecutive := 0
			for {
				select {
				case <-done:
					return
				case <-ctx.Done():
					return
				case s := <-jobs:
					res, err := runShardOn(ctx, client, addr, e, s)
					mu.Lock()
					if err != nil {
						jobs <- s
						consecutive++
						if consecutive >= 2 {
							alive--
							if alive == 0 {
								finish(fmt.Errorf("campaign: all workers dropped with %d shard(s) pending (last error from %s: %v)", remaining, addr, err))
							}
							mu.Unlock()
							return
						}
						mu.Unlock()
						continue
					}
					consecutive = 0
					results[s] = res
					remaining--
					if remaining == 0 {
						finish(nil)
					}
					mu.Unlock()
				}
			}
		}(addr)
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-done:
	}
	mu.Lock()
	err = runErr
	mu.Unlock()
	if err != nil {
		return nil, err
	}
	res := e.Merge(results)
	res.Elapsed = time.Since(start)
	if e.opts.OutDir != "" {
		if err := WriteArtifacts(e.opts.OutDir, sources, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// pollRetryBudget is how many consecutive status-poll failures a worker
// is forgiven before runShardOn declares it gone. A shard that was
// POSTed is already running remotely: requeueing it over one dropped
// GET would re-run minutes of work (and double-run the shard), so
// transient errors back off and retry instead.
const pollRetryBudget = 3

// runShardOn submits one shard to a worker and polls its status to
// completion. Transient poll failures retry with exponential backoff up
// to pollRetryBudget consecutive misses; only an exhausted budget (or a
// failed/malformed job) reports the worker as dropped.
func runShardOn(ctx context.Context, client *http.Client, addr string, e *Engine, shard int) (*ShardResult, error) {
	base := ring.BaseURL(addr)
	body, err := json.Marshal(e.shardRequest(shard))
	if err != nil {
		return nil, err
	}
	var st StatusResponse
	if err := doJSON(ctx, client, http.MethodPost, base+"/v1/campaign", bytes.NewReader(body), &st); err != nil {
		return nil, err
	}
	failures := 0
	timer := time.NewTimer(e.opts.Poll)
	defer timer.Stop()
	for {
		switch st.Status {
		case StatusDone:
			if st.Result == nil {
				return nil, fmt.Errorf("campaign: worker %s reported done without a result", addr)
			}
			return st.Result, nil
		case StatusFailed:
			return nil, fmt.Errorf("campaign: worker %s failed shard %d: %s", addr, shard, st.Error)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-timer.C:
		}
		delay := e.opts.Poll
		if err := doJSON(ctx, client, http.MethodGet, base+"/v1/campaign/"+st.ID, nil, &st); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			failures++
			if failures > pollRetryBudget {
				return nil, fmt.Errorf("campaign: worker %s unreachable after %d status retries: %w",
					addr, pollRetryBudget, err)
			}
			// Exponential backoff over the poll period: Poll, 2*Poll,
			// 4*Poll... while the failure streak lasts.
			delay = e.opts.Poll << failures
		} else {
			failures = 0
		}
		timer.Reset(delay)
	}
}

// doJSON performs one request and decodes a JSON response, folding
// non-2xx statuses (including the server's error envelope) into errors.
func doJSON(ctx context.Context, client *http.Client, method, url string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, truncate(string(data), 200))
	}
	return json.Unmarshal(data, out)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
