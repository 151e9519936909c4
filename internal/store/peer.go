package store

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"policyoracle/internal/ring"
	"policyoracle/internal/telemetry"
)

// maxPeerBlobBytes bounds one peer blob response; policy blobs for
// paper-scale libraries are well under a megabyte, so 64 MiB is a
// runaway guard, not a tuning knob.
const maxPeerBlobBytes = 64 << 20

// PeerConfig configures a PeerBackend.
type PeerConfig struct {
	// Members is the full replica set, including this node's own
	// address (polorad -peers). The member strings are the ring's
	// identity: every replica and every batch client must be configured
	// with the same strings (modulo order) to derive the same ownership.
	Members []string
	// Self is this replica's own address within Members; it is skipped
	// when fetching so a node never asks itself.
	Self string
	// VirtualNodes is the ring's per-member point count (<= 0 means
	// ring.DefaultVirtualNodes). All replicas and clients must agree.
	VirtualNodes int
	// Client is the HTTP client used for peer fetches; nil uses a
	// default with a 2-minute overall timeout (a peer may extract on
	// demand before responding).
	Client *http.Client
	// Registry receives polora_peer_fetch_* metrics; nil disables them.
	Registry *telemetry.Registry
	// Logger receives per-attempt fetch warnings. Nil discards them.
	Logger *slog.Logger
}

// PeerBackend fetches policy blobs from the other replicas of a
// polorad tier over GET /v1/blob/{fp}, walking the fingerprint's ring
// preference order: the owner first, then its successors, skipping this
// node itself. A member that is unreachable or does not hold the blob
// is skipped — owner dropout degrades to the next member and finally to
// local extraction, never to a failed read.
type PeerBackend struct {
	client *http.Client
	pm     *telemetry.PeerMetrics
	log    *slog.Logger

	mu   sync.Mutex
	ring *ring.Ring
	self string
}

// NewPeerBackend builds a peer backend over the configured member set.
// Members may be empty at construction and installed later with
// SetMembers (the backend misses until then), which is how a process
// that learns its own address only after binding wires itself up.
func NewPeerBackend(cfg PeerConfig) *PeerBackend {
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Minute}
	}
	log := cfg.Logger
	if log == nil {
		log = telemetry.NopLogger()
	}
	p := &PeerBackend{
		client: client,
		pm:     telemetry.NewPeerMetrics(cfg.Registry),
		log:    log,
	}
	p.SetMembers(cfg.Members, cfg.Self)
	if cfg.VirtualNodes > 0 {
		p.mu.Lock()
		p.ring = ring.New(cfg.Members, cfg.VirtualNodes)
		p.mu.Unlock()
	}
	return p
}

// SetMembers replaces the replica set and this node's own address.
func (p *PeerBackend) SetMembers(members []string, self string) {
	r := ring.New(members, 0)
	p.mu.Lock()
	p.ring, p.self = r, self
	p.mu.Unlock()
}

// Name implements Backend.
func (p *PeerBackend) Name() string { return "peer" }

// Fetch implements Backend: it walks the fingerprint's preference order
// asking each peer for the blob, returning the first 200 response's
// bytes. Every peer skipped, missing, or unreachable ends in
// ErrBackendMiss so the store falls back to local extraction.
func (p *PeerBackend) Fetch(ctx context.Context, fp string) ([]byte, error) {
	p.mu.Lock()
	r, self := p.ring, p.self
	p.mu.Unlock()
	if r == nil || r.Len() == 0 {
		return nil, ErrBackendMiss
	}
	for _, member := range r.Owners(fp, 0) {
		if member == self {
			continue
		}
		start := time.Now()
		blob, status, err := p.get(ctx, member, fp)
		p.pm.Duration.ObserveDuration(time.Since(start))
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			p.pm.Fetches.With("error").Inc()
			p.log.Warn("store: peer fetch failed", "peer", member, "fingerprint", fp, "err", err)
		case status == http.StatusOK:
			p.pm.Fetches.With("hit").Inc()
			p.log.Info("store: peer fetch hit", "peer", member, "fingerprint", fp, "bytes", len(blob))
			return blob, nil
		default:
			// The peer answered but does not have the blob (or refuses):
			// not an error, just a miss on this member.
			p.pm.Fetches.With("miss").Inc()
		}
	}
	return nil, ErrBackendMiss
}

// get performs one GET /v1/blob/{fp} against member.
func (p *PeerBackend) get(ctx context.Context, member, fp string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ring.BaseURL(member)+"/v1/blob/"+fp, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Drain a bounded amount so the connection can be reused.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, resp.StatusCode, nil
	}
	blob, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBlobBytes+1))
	if err != nil {
		return nil, 0, err
	}
	if len(blob) > maxPeerBlobBytes {
		return nil, 0, fmt.Errorf("peer blob exceeds %d bytes", maxPeerBlobBytes)
	}
	return blob, resp.StatusCode, nil
}
