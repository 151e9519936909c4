package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"policyoracle/internal/batch"
	"policyoracle/internal/store"
)

// MaxBatchItems is the per-request item cap of POST /v1/batch. Requests
// over the cap fail whole with 413 batch_too_large before any item runs.
const MaxBatchItems = batch.DefaultMaxItems

// DefaultBatchWorkers is the per-request execution concurrency of
// /v1/batch when Options.BatchWorkers is unset.
const DefaultBatchWorkers = 4

// handleBlob serves one fingerprint's policy blob from this replica
// only: cache, disk, or extraction from a locally held bundle — never a
// peer fetch. It is the supplier side of the peer tier; the local-only
// read is what makes peer fetching loop-free even when two replicas'
// ring views disagree.
func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	blob, err := s.st.PoliciesContext(store.LocalOnly(r.Context()), r.PathValue("fp"))
	if err != nil {
		s.failStore(w, err)
		return
	}
	s.writePayload(w, blob, nil)
}

// handleBatch executes a mixed array of extract/diff items under a
// bounded worker pool, streaming one batch frame per item in input
// order, flushed as each becomes available: a JSON header line, then on
// success the blob or report bytes as the store holds them. Item
// failures travel in per-item envelopes with the same stable codes as
// the single-item endpoints; the stream itself stays 200.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batch.Request
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Items) > MaxBatchItems {
		s.fail(w, http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
			fmt.Errorf("%d items exceed the per-request cap of %d", len(req.Items), MaxBatchItems))
		return
	}
	s.bm.Requests.Inc()

	// Workers execute out of order; the writer drains slots in input
	// order so the stream is deterministic. Each slot is buffered so a
	// worker never blocks on the writer.
	slots := make([]chan batch.ItemResult, len(req.Items))
	for i := range slots {
		slots[i] = make(chan batch.ItemResult, 1)
	}
	jobs := make(chan int)
	workers := s.batchWorkers
	if workers > len(req.Items) {
		workers = len(req.Items)
	}
	ctx := r.Context()
	for range workers {
		go func() {
			for i := range jobs {
				slots[i] <- s.runBatchItem(ctx, i, req.Items[i])
			}
		}()
	}
	go func() {
		defer close(jobs)
		for i := range req.Items {
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	w.Header().Set("Content-Type", batch.ContentType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for i := range slots {
		select {
		case res := <-slots[i]:
			if err := batch.WriteItem(w, res); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-ctx.Done():
			// Client gone or server draining: the stream is already
			// committed, so just stop emitting.
			return
		}
	}
}

// runBatchItem executes one batch item, reproducing the corresponding
// single-item handler's bytes and error mapping exactly.
func (s *Server) runBatchItem(ctx context.Context, index int, it batch.Item) batch.ItemResult {
	start := time.Now()
	res := s.execBatchItem(ctx, index, it)
	op := it.Op
	if op != batch.OpExtract && op != batch.OpDiff {
		op = "invalid"
	}
	outcome := "ok"
	if res.Error != nil {
		outcome = "error"
	}
	s.bm.Items.With(op, outcome).Inc()
	s.bm.ItemDuration.With(op).ObserveDuration(time.Since(start))
	return res
}

func (s *Server) execBatchItem(ctx context.Context, index int, it batch.Item) batch.ItemResult {
	if err := it.Validate(); err != nil {
		return batchError(index, it, &failure{http.StatusBadRequest, CodeBadRequest, err})
	}
	var payload []byte
	var f *failure
	if it.Op == batch.OpExtract {
		payload, f = s.extract(ctx, it.Fingerprint, it.Domain)
	} else {
		payload, f = s.diff(ctx, it.A, it.B, it.Domain)
	}
	if f != nil {
		return batchError(index, it, f)
	}
	return batch.ItemResult{Index: index, Op: it.Op, Status: http.StatusOK, Result: payload}
}

func batchError(index int, it batch.Item, f *failure) batch.ItemResult {
	return batch.ItemResult{
		Index:  index,
		Op:     it.Op,
		Status: f.status,
		Error:  &batch.ItemError{Code: f.code, Message: codeMessages[f.code], Detail: f.err.Error()},
	}
}
