package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// This file is the system's metric surface: every instrument the
// extractor, the store, and the service record, with its canonical name,
// label schema, and buckets. DESIGN.md's Observability section documents
// the same names for operators; keep the two in sync.

// DefBuckets are the default latency buckets in seconds, spanning
// sub-millisecond intraprocedural solves to ten-second paper-scale
// extractions.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// QueueBuckets resolve queue/semaphore waits, which are usually zero and
// occasionally the full length of someone else's extraction.
var QueueBuckets = []float64{
	0.0001, 0.001, 0.01, 0.1, 0.5, 1, 5, 15, 60,
}

// HTTPMetrics is the service-layer instrument set.
type HTTPMetrics struct {
	// Requests counts completed requests:
	// polorad_http_requests_total{method,route,code}.
	Requests *CounterVec
	// Duration is the request latency histogram:
	// polorad_http_request_duration_seconds{route}.
	Duration *HistogramVec
	// Inflight is the number of requests currently being served:
	// polorad_http_inflight_requests.
	Inflight *Gauge
}

// NewHTTPMetrics registers the HTTP instrument set on r (nil-safe: a nil
// registry yields no-op instruments).
func NewHTTPMetrics(r *Registry) *HTTPMetrics {
	return &HTTPMetrics{
		Requests: r.CounterVec("polorad_http_requests_total",
			"Completed HTTP requests by method, route, and status code.",
			"method", "route", "code"),
		Duration: r.HistogramVec("polorad_http_request_duration_seconds",
			"HTTP request latency in seconds by route.",
			DefBuckets, "route"),
		Inflight: r.Gauge("polorad_http_inflight_requests",
			"Requests currently being served."),
	}
}

// StoreMetrics is the policy-store instrument set.
type StoreMetrics struct {
	// CacheHits counts blob reads served without extraction:
	// polorad_store_cache_hits_total{tier="mem"|"disk"}.
	CacheHits *CounterVec
	// CacheMisses counts blob reads that required extraction.
	CacheMisses *Counter
	// Evictions counts blobs dropped from the in-memory LRU.
	Evictions *Counter
	// Coalesced counts requests that waited on an identical in-flight
	// request (single-flight dedup saves).
	Coalesced *Counter
	// Extractions counts extractions performed; ExtractFailures the
	// subset that errored (including cancellations).
	Extractions     *Counter
	ExtractFailures *Counter
	// CorruptBlobs counts persisted blobs that failed validation and
	// were re-extracted.
	CorruptBlobs *Counter
	// Bundles counts newly created bundle uploads; Diffs counts diff
	// reports computed.
	Bundles *Counter
	Diffs   *Counter
	// QueueWait is the time a cache-missing request waited for an
	// extraction slot: polorad_store_extract_queue_wait_seconds.
	QueueWait *Histogram
	// ExtractDuration is wall time of one bundle extraction:
	// polorad_store_extract_duration_seconds.
	ExtractDuration *Histogram
	// CachedBlobs is the current LRU occupancy.
	CachedBlobs *Gauge
}

// NewStoreMetrics registers the store instrument set on r (nil-safe).
func NewStoreMetrics(r *Registry) *StoreMetrics {
	return &StoreMetrics{
		CacheHits: r.CounterVec("polorad_store_cache_hits_total",
			"Policy-blob reads served from cache by tier (mem, disk).", "tier"),
		CacheMisses: r.Counter("polorad_store_cache_misses_total",
			"Policy-blob reads that required extraction."),
		Evictions: r.Counter("polorad_store_cache_evictions_total",
			"Policy blobs evicted from the in-memory LRU."),
		Coalesced: r.Counter("polorad_store_coalesced_requests_total",
			"Requests coalesced onto an identical in-flight request."),
		Extractions: r.Counter("polorad_store_extractions_total",
			"Bundle extractions performed."),
		ExtractFailures: r.Counter("polorad_store_extract_failures_total",
			"Bundle extractions that failed or were cancelled."),
		CorruptBlobs: r.Counter("polorad_store_corrupt_blobs_total",
			"Persisted blobs that failed validation and were re-extracted."),
		Bundles: r.Counter("polorad_store_bundles_created_total",
			"Newly created bundle uploads."),
		Diffs: r.Counter("polorad_store_diffs_total",
			"Diff reports computed."),
		QueueWait: r.Histogram("polorad_store_extract_queue_wait_seconds",
			"Time spent waiting for an extraction slot.", QueueBuckets),
		ExtractDuration: r.Histogram("polorad_store_extract_duration_seconds",
			"Wall time of one bundle extraction.", DefBuckets),
		CachedBlobs: r.Gauge("polorad_store_cached_blobs",
			"Policy blobs currently in the in-memory LRU."),
	}
}

// PeerMetrics is the distributed-tier peer-fetch instrument set, fed by
// the store's peer backend (polorad -peers): blob fetches attempted
// against other replicas before falling back to local extraction.
type PeerMetrics struct {
	// Fetches counts peer blob-fetch attempts by outcome:
	// polora_peer_fetch_total{outcome="hit"|"miss"|"error"}. One fetch
	// may record several attempts as it walks the ring's fallback order.
	Fetches *CounterVec
	// Duration is the wall time of one peer fetch attempt:
	// polora_peer_fetch_duration_seconds.
	Duration *Histogram
}

// NewPeerMetrics registers the peer-backend instrument set on r
// (nil-safe).
func NewPeerMetrics(r *Registry) *PeerMetrics {
	return &PeerMetrics{
		Fetches: r.CounterVec("polora_peer_fetch_total",
			"Peer blob-fetch attempts by outcome (hit, miss, error).", "outcome"),
		Duration: r.Histogram("polora_peer_fetch_duration_seconds",
			"Wall time of one peer blob-fetch attempt.", DefBuckets),
	}
}

// BatchMetrics is the batched-oracle instrument set, fed by the
// server's POST /v1/batch handler.
type BatchMetrics struct {
	// Requests counts batch requests accepted for execution:
	// polora_batch_requests_total.
	Requests *Counter
	// Items counts executed batch items by operation and outcome:
	// polora_batch_items_total{op="extract"|"diff",outcome="ok"|"error"}.
	Items *CounterVec
	// ItemDuration is the per-item execution latency:
	// polora_batch_item_duration_seconds{op}.
	ItemDuration *HistogramVec
}

// NewBatchMetrics registers the batch instrument set on r (nil-safe).
func NewBatchMetrics(r *Registry) *BatchMetrics {
	return &BatchMetrics{
		Requests: r.Counter("polora_batch_requests_total",
			"Batch requests accepted for execution."),
		Items: r.CounterVec("polora_batch_items_total",
			"Executed batch items by operation and outcome.", "op", "outcome"),
		ItemDuration: r.HistogramVec("polora_batch_item_duration_seconds",
			"Per-item batch execution latency by operation.", DefBuckets, "op"),
	}
}

// CampaignMetrics is the coverage-guided campaign instrument set, fed by
// internal/campaign behind `polora fuzz` and polorad's /v1/campaign.
type CampaignMetrics struct {
	// Rounds counts completed campaign rounds:
	// polora_campaign_rounds_total.
	Rounds *Counter
	// NewCoverage counts rounds that produced a coverage key not seen
	// before in their shard: polora_campaign_new_coverage_total.
	NewCoverage *Counter
	// Crashers counts triaged crashers by kind:
	// polora_campaign_crashers_total{kind="unique"|"duplicate"}.
	Crashers *CounterVec
	// MinimizerSteps counts re-verification extractions spent shrinking
	// crasher traces: polora_campaign_minimizer_steps_total.
	MinimizerSteps *Counter
	// Energy is the merged per-mutator scheduling energy after a
	// campaign: polora_campaign_mutator_energy{mutator}.
	Energy *GaugeVec
}

// NewCampaignMetrics registers the campaign instrument set on r
// (nil-safe).
func NewCampaignMetrics(r *Registry) *CampaignMetrics {
	return &CampaignMetrics{
		Rounds: r.Counter("polora_campaign_rounds_total",
			"Completed coverage-guided campaign rounds."),
		NewCoverage: r.Counter("polora_campaign_new_coverage_total",
			"Campaign rounds that discovered a new coverage key in their shard."),
		Crashers: r.CounterVec("polora_campaign_crashers_total",
			"Triaged crashers by kind (unique, duplicate).", "kind"),
		MinimizerSteps: r.Counter("polora_campaign_minimizer_steps_total",
			"Re-verification extractions spent minimizing crasher traces."),
		Energy: r.GaugeVec("polora_campaign_mutator_energy",
			"Merged per-mutator scheduling energy after a campaign.", "mutator"),
	}
}

// ReconcileMetrics is the continuous-watch controller's instrument set,
// fed by internal/reconcile behind `polorad -watch`. The pair label is
// the canonical drift pair key ("a~b", names sorted), bounded by the
// number of registered library pairs.
type ReconcileMetrics struct {
	// Runs counts completed reconcile cycles (source→plan→apply):
	// polora_reconcile_runs_total.
	Runs *Counter
	// Errors counts pair reconciliations that failed (and cycle-level
	// failures such as an unreadable registry):
	// polora_reconcile_errors_total.
	Errors *Counter
	// Requeues counts enqueues coalesced onto an already-pending
	// reconciliation of the same library:
	// polora_reconcile_requeues_total.
	Requeues *Counter
	// PairsReconciled counts per-pair timeline appends:
	// polora_reconcile_pairs_total.
	PairsReconciled *Counter
	// Duration is the wall time of one reconcile cycle:
	// polora_reconcile_duration_seconds.
	Duration *Histogram
	// Pending is the number of libraries currently awaiting
	// reconciliation: polora_reconcile_pending_libraries.
	Pending *Gauge
	// Drift is the latest distinct-deviation count per pair:
	// polora_drift_deviations{pair}.
	Drift *GaugeVec
	// Alert is 1 while a pair's drift alert is firing:
	// polora_drift_alert{pair}.
	Alert *GaugeVec
	// TimelineEntries is the persisted drift-timeline length:
	// polora_drift_timeline_entries.
	TimelineEntries *Gauge
}

// NewReconcileMetrics registers the reconcile instrument set on r
// (nil-safe).
func NewReconcileMetrics(r *Registry) *ReconcileMetrics {
	return &ReconcileMetrics{
		Runs: r.Counter("polora_reconcile_runs_total",
			"Completed reconcile cycles (source, plan, apply)."),
		Errors: r.Counter("polora_reconcile_errors_total",
			"Reconcile failures (per pair, plus cycle-level errors)."),
		Requeues: r.Counter("polora_reconcile_requeues_total",
			"Enqueues coalesced onto an already-pending reconciliation."),
		PairsReconciled: r.Counter("polora_reconcile_pairs_total",
			"Pair reconciliations that appended a drift-timeline entry."),
		Duration: r.Histogram("polora_reconcile_duration_seconds",
			"Wall time of one reconcile cycle.", DefBuckets),
		Pending: r.Gauge("polora_reconcile_pending_libraries",
			"Libraries currently awaiting reconciliation."),
		Drift: r.GaugeVec("polora_drift_deviations",
			"Latest distinct policy deviations by library pair.", "pair"),
		Alert: r.GaugeVec("polora_drift_alert",
			"1 while the pair's drift alert is firing.", "pair"),
		TimelineEntries: r.Gauge("polora_drift_timeline_entries",
			"Persisted drift-timeline entries."),
	}
}

// ExtractMetrics is the extractor instrument set, fed by oracle.Extract
// and the analyzer. The mode label is "may" or "must"; the domain label
// is the ID of the check domain the extraction ran under (e.g.
// "securitymanager", "cryptoapi"), so one process serving several
// domains exposes per-domain extraction series.
type ExtractMetrics struct {
	// Extractions counts Extract calls by check domain:
	// policyoracle_extractions_total{domain}.
	Extractions *CounterVec
	// ModeDuration is the wall time of one full analysis pass:
	// policyoracle_extract_mode_duration_seconds{mode,domain}.
	ModeDuration *HistogramVec
	// EntryDuration is the per-entry-point analysis latency:
	// policyoracle_extract_entry_duration_seconds{mode,domain}.
	EntryDuration *HistogramVec
	// WorkerBusy accumulates per-entry analysis time:
	// policyoracle_extract_worker_busy_seconds_total{mode,domain}.
	// Worker-pool utilization over a window is
	// rate(worker_busy) / (rate(mode_duration_sum) * workers).
	WorkerBusy *CounterVec
	// Workers is the configured per-mode worker count:
	// policyoracle_extract_workers.
	Workers *Gauge
	// Per-phase analysis work counters, the telemetry form of
	// analysis.Stats: policyoracle_analysis_*_total{mode,domain}.
	MethodAnalyses *CounterVec
	MemoHits       *CounterVec
	CPRuns         *CounterVec
	CPHits         *CounterVec
	EntryPoints    *CounterVec
	// Incremental-extraction instruments, fed by
	// oracle.ExtractIncremental: entry policies spliced from the
	// previous extraction (polora_incremental_reused_total), entries
	// re-analyzed (polora_incremental_reanalyzed_total), methods
	// content-hashed (polora_incremental_hash_total), and the per-entry
	// dependency-set size (polora_incremental_depset_size).
	IncrementalReused     *Counter
	IncrementalReanalyzed *Counter
	IncrementalHashed     *Counter
	DepSetSize            *Histogram
	// Cross-library summary-cache instruments, fed by extraction when an
	// oracle.SummaryCache is attached: entry policies spliced from a
	// previous extraction of any library in the process
	// (polora_summary_cache_hit_total{domain}) and entries that had to be
	// analyzed (polora_summary_cache_miss_total{domain}). Cache keys
	// include the domain ID, so hits never cross domains and the label
	// attributes each lookup to the domain whose key it used.
	SummaryCacheHits   *CounterVec
	SummaryCacheMisses *CounterVec
}

// DepSetBuckets size the dependency-set histogram: most entries reach a
// handful of methods, deep API facades reach hundreds.
var DepSetBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// NewExtractMetrics registers the extractor instrument set on r
// (nil-safe).
func NewExtractMetrics(r *Registry) *ExtractMetrics {
	return &ExtractMetrics{
		Extractions: r.CounterVec("policyoracle_extractions_total",
			"Full policy extractions performed by check domain.", "domain"),
		ModeDuration: r.HistogramVec("policyoracle_extract_mode_duration_seconds",
			"Wall time of one analysis pass by mode and check domain.", DefBuckets, "mode", "domain"),
		EntryDuration: r.HistogramVec("policyoracle_extract_entry_duration_seconds",
			"Per-entry-point analysis latency by mode and check domain.", DefBuckets, "mode", "domain"),
		WorkerBusy: r.CounterVec("policyoracle_extract_worker_busy_seconds_total",
			"Cumulative per-entry analysis time by mode and check domain.", "mode", "domain"),
		Workers: r.Gauge("policyoracle_extract_workers",
			"Configured entry-point workers per analysis mode."),
		MethodAnalyses: r.CounterVec("policyoracle_analysis_method_analyses_total",
			"SPDA solves (summary-cache misses) by mode and check domain.", "mode", "domain"),
		MemoHits: r.CounterVec("policyoracle_analysis_memo_hits_total",
			"Summary-cache hits by mode and check domain.", "mode", "domain"),
		CPRuns: r.CounterVec("policyoracle_analysis_cp_runs_total",
			"Constant-propagation solves by mode and check domain.", "mode", "domain"),
		CPHits: r.CounterVec("policyoracle_analysis_cp_hits_total",
			"Constant-propagation cache hits by mode and check domain.", "mode", "domain"),
		EntryPoints: r.CounterVec("policyoracle_analysis_entry_points_total",
			"Entry points analyzed by mode and check domain.", "mode", "domain"),
		IncrementalReused: r.Counter("polora_incremental_reused_total",
			"Entry policies spliced unchanged from the previous extraction."),
		IncrementalReanalyzed: r.Counter("polora_incremental_reanalyzed_total",
			"Entry points re-analyzed by incremental extractions."),
		IncrementalHashed: r.Counter("polora_incremental_hash_total",
			"Methods content-hashed by incremental extractions."),
		DepSetSize: r.Histogram("polora_incremental_depset_size",
			"Per-entry dependency-set size (methods reached by one entry analysis).",
			DepSetBuckets),
		SummaryCacheHits: r.CounterVec("polora_summary_cache_hit_total",
			"Entry policies spliced from the cross-library summary cache, by check domain.", "domain"),
		SummaryCacheMisses: r.CounterVec("polora_summary_cache_miss_total",
			"Entry points analyzed because no valid summary-cache entry existed, by check domain.", "domain"),
	}
}

// ObserveEntry records one entry-point analysis: its latency histogram
// sample and its contribution to worker busy time. Nil-safe.
func (m *ExtractMetrics) ObserveEntry(mode, domain string, d time.Duration) {
	if m == nil {
		return
	}
	m.EntryDuration.With(mode, domain).ObserveDuration(d)
	m.WorkerBusy.With(mode, domain).Add(d.Seconds())
}

// Summary renders the collected extraction metrics as a human-readable
// phase-timing table, the body of the CLIs' -timings output. Rows are
// per mode; when passes ran under more than one check domain the mode is
// qualified as "mode@domain" so the rows stay attributable. Nil-safe
// (returns "").
func (m *ExtractMetrics) Summary() string {
	if m == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "phase timings (%.0f extraction(s)):\n", m.Extractions.Sum())
	var domains []string
	for _, ls := range m.ModeDuration.LabelSets() {
		if len(ls) == 2 && !contains(domains, ls[1]) {
			domains = append(domains, ls[1])
		}
	}
	sort.Strings(domains)
	for _, domain := range domains {
		for _, mode := range []string{"may", "must"} {
			h := m.ModeDuration.With(mode, domain)
			if h.Count() == 0 {
				continue
			}
			row := mode
			if len(domains) > 1 {
				row = mode + "@" + domain
			}
			wall := time.Duration(h.Sum() * float64(time.Second)).Round(time.Millisecond)
			busy := time.Duration(m.WorkerBusy.With(mode, domain).Value() * float64(time.Second)).Round(time.Millisecond)
			fmt.Fprintf(&b, "  %-4s passes %.0f  wall %v  busy %v  entries %.0f  solves %.0f  memo hits %.0f  cp runs %.0f  cp hits %.0f\n",
				row, h.Count(), wall, busy,
				m.EntryPoints.With(mode, domain).Value(), m.MethodAnalyses.With(mode, domain).Value(),
				m.MemoHits.With(mode, domain).Value(), m.CPRuns.With(mode, domain).Value(), m.CPHits.With(mode, domain).Value())
		}
	}
	return b.String()
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// ObserveMode records one completed analysis pass: its wall time and the
// per-phase work counters accumulated by the analyzer. Nil-safe.
func (m *ExtractMetrics) ObserveMode(mode, domain string, d time.Duration, methodAnalyses, memoHits, cpRuns, cpHits, entryPoints int) {
	if m == nil {
		return
	}
	m.ModeDuration.With(mode, domain).ObserveDuration(d)
	m.MethodAnalyses.With(mode, domain).Add(float64(methodAnalyses))
	m.MemoHits.With(mode, domain).Add(float64(memoHits))
	m.CPRuns.With(mode, domain).Add(float64(cpRuns))
	m.CPHits.With(mode, domain).Add(float64(cpHits))
	m.EntryPoints.With(mode, domain).Add(float64(entryPoints))
}
