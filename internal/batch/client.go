package batch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"policyoracle/internal/ring"
	"policyoracle/internal/telemetry"
)

// Client executes a batch of items against a sharded polorad tier: each
// item is routed to the replica that owns its fingerprint on the
// consistent-hash ring (the same ring the replicas' peer tier uses, so
// most items hit a warm owner), chunked under the server's per-request
// item cap, and executed concurrently. A replica that exhausts its
// retry budget is declared dead and removed from the ring; its pending
// items reroute to the members that inherit its arc. Results come back
// merged in input order.
type Client struct {
	// Members is the replica set, in the exact strings the replicas were
	// started with (polorad -peers): member identity is what the ring
	// hashes, so client and servers must agree on it.
	Members []string
	// Workers bounds concurrent chunk requests (<= 0 means 4).
	Workers int
	// Retries is the per-chunk transport-failure retry budget before the
	// target member is declared dead (<= 0 means 3). Item-level errors
	// (an unknown fingerprint, a domain mismatch) are results, never
	// retried.
	Retries int
	// Backoff is the initial retry delay, doubled per retry
	// (<= 0 means 200ms).
	Backoff time.Duration
	// HTTP is the client used for requests; nil uses a default with a
	// 5-minute timeout (a batch may extract many blobs on demand).
	HTTP *http.Client
	// Logger receives dropout and retry warnings. Nil discards them.
	Logger *slog.Logger
}

// errFatal wraps a request-level rejection that no retry or reroute can
// fix (a 4xx envelope: the batch itself is malformed or over the cap).
type errFatal struct{ err error }

func (e errFatal) Error() string { return e.err.Error() }
func (e errFatal) Unwrap() error { return e.err }

// Run executes items and returns one ItemResult per item, in input
// order. It fails only when the request itself is invalid or every
// replica is unreachable; per-item failures are carried in the results.
func (c *Client) Run(ctx context.Context, items []Item) ([]ItemResult, error) {
	if len(c.Members) == 0 {
		return nil, errors.New("batch: no replica addresses")
	}
	log := c.Logger
	if log == nil {
		log = telemetry.NopLogger()
	}
	httpc := c.HTTP
	if httpc == nil {
		httpc = &http.Client{Timeout: 5 * time.Minute}
	}
	workers := c.Workers
	if workers <= 0 {
		workers = 4
	}

	results := make([]ItemResult, len(items))
	filled := make([]bool, len(items))
	pending := make([]int, len(items))
	for i := range pending {
		pending[i] = i
	}
	r := ring.New(c.Members, 0)

	// Round loop: route pending items to owners, execute the round's
	// chunks concurrently, shrink the ring by the members that dropped
	// out, reroute what they left behind. A healthy tier finishes in one
	// round; each extra round costs one ring rebuild, bounded by the
	// member count.
	for len(pending) > 0 {
		if r.Len() == 0 {
			return nil, fmt.Errorf("batch: all %d replicas unreachable with %d items unfinished",
				len(c.Members), len(pending))
		}
		byOwner := make(map[string][]int)
		for _, i := range pending {
			owner := r.Owner(items[i].RouteKey())
			byOwner[owner] = append(byOwner[owner], i)
		}
		type chunk struct {
			member  string
			indices []int
		}
		var chunks []chunk
		for member, idxs := range byOwner {
			for len(idxs) > DefaultMaxItems {
				chunks = append(chunks, chunk{member, idxs[:DefaultMaxItems]})
				idxs = idxs[DefaultMaxItems:]
			}
			chunks = append(chunks, chunk{member, idxs})
		}

		var (
			mu    sync.Mutex
			dead  = map[string]bool{}
			fatal error
			sem   = make(chan struct{}, workers)
			wg    sync.WaitGroup
		)
		for _, ch := range chunks {
			wg.Add(1)
			go func(ch chunk) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				mu.Lock()
				skip := dead[ch.member] || fatal != nil
				mu.Unlock()
				if skip {
					return // owner already declared dead this round; reroute next round
				}
				err := c.runChunk(ctx, httpc, ch.member, items, ch.indices, results, filled, &mu)
				if err == nil {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				var fe errFatal
				if errors.As(err, &fe) || ctx.Err() != nil {
					if fatal == nil {
						fatal = err
					}
					return
				}
				dead[ch.member] = true
				log.Warn("batch: replica dropped out, rerouting its items",
					"member", ch.member, "items", len(ch.indices), "err", err)
			}(ch)
		}
		wg.Wait()
		if fatal != nil {
			return nil, fatal
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for m := range dead {
			r = r.Without(m)
		}
		pending = pending[:0]
		for i := range items {
			if !filled[i] {
				pending = append(pending, i)
			}
		}
	}
	return results, nil
}

// runChunk posts one chunk to member with the retry budget, writing the
// streamed results into the shared results slice under mu. A chunk that
// partially streamed before a transport failure keeps what arrived;
// only the unfilled remainder is retried or rerouted.
func (c *Client) runChunk(ctx context.Context, httpc *http.Client, member string,
	items []Item, indices []int, results []ItemResult, filled []bool, mu *sync.Mutex) error {
	retries := c.Retries
	if retries <= 0 {
		retries = 3
	}
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 200 * time.Millisecond
	}
	var err error
	for attempt := 0; ; attempt++ {
		// Re-chunk to what is still missing: a stream that died half-way
		// already delivered (and recorded) its earlier items.
		mu.Lock()
		todo := indices[:0:0]
		for _, i := range indices {
			if !filled[i] {
				todo = append(todo, i)
			}
		}
		mu.Unlock()
		if len(todo) == 0 {
			return nil
		}
		err = c.postChunk(ctx, httpc, member, items, todo, results, filled, mu)
		if err == nil {
			return nil
		}
		var fe errFatal
		if errors.As(err, &fe) || ctx.Err() != nil || attempt >= retries {
			return err
		}
		if c.Logger != nil {
			c.Logger.Warn("batch: chunk failed, retrying",
				"member", member, "attempt", attempt+1, "backoff", backoff, "err", err)
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
		backoff *= 2
	}
}

// postChunk performs one POST /v1/batch and reads its NDJSON stream to
// the end, so the connection goes back to the transport's pool.
func (c *Client) postChunk(ctx context.Context, httpc *http.Client, member string,
	items []Item, indices []int, results []ItemResult, filled []bool, mu *sync.Mutex) error {
	req := Request{Items: make([]Item, len(indices))}
	for k, i := range indices {
		req.Items[k] = items[i]
	}
	body, err := json.Marshal(req)
	if err != nil {
		return errFatal{err}
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ring.BaseURL(member)+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return errFatal{err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := httpc.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("batch: %s answered %s: %s", member, resp.Status, bytes.TrimSpace(msg))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			// The request itself was rejected (malformed, over the cap):
			// another replica would reject it identically.
			return errFatal{err}
		}
		return err
	}
	st := newStream(resp.Body)
	for got := 0; got < len(indices); got++ {
		res, err := st.next()
		if err != nil {
			return fmt.Errorf("batch: stream from %s ended after %d of %d items: %w",
				member, got, len(indices), err)
		}
		if res.Index < 0 || res.Index >= len(indices) {
			return errFatal{fmt.Errorf("batch: %s returned out-of-range item index %d", member, res.Index)}
		}
		global := indices[res.Index]
		res.Index = global
		mu.Lock()
		results[global] = res
		filled[global] = true
		mu.Unlock()
	}
	st.drain()
	return nil
}
