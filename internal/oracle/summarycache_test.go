package oracle

import (
	"bytes"
	"strings"
	"testing"

	"policyoracle/internal/corpus"
	"policyoracle/internal/secmodel"
	"policyoracle/internal/telemetry"
)

// TestSummaryCacheByteIdentity proves the cache cannot perturb output:
// cold (populating) and warm (fully spliced) extractions produce bytes
// identical to an uncached extraction.
func TestSummaryCacheByteIdentity(t *testing.T) {
	srcs := corpus.JDKSources()
	opts := DefaultOptions()

	plain := loadTestLib(t, "jdk", srcs)
	plain.Extract(opts)
	want := exportBytes(t, plain)

	cache := NewSummaryCache(0)
	opts.Summaries = cache

	cold := loadTestLib(t, "jdk", srcs)
	cold.Extract(opts)
	if got := exportBytes(t, cold); !bytes.Equal(got, want) {
		t.Error("cold cached extraction differs from uncached")
	}
	hits, misses := cache.Stats()
	if hits != 0 || misses == 0 {
		t.Errorf("cold stats: hits=%d misses=%d", hits, misses)
	}
	if cachedEntries(cache) == 0 {
		t.Error("cold extraction populated nothing")
	}

	warm := loadTestLib(t, "jdk", srcs)
	warm.Extract(opts)
	if got := exportBytes(t, warm); !bytes.Equal(got, want) {
		t.Error("warm cached extraction differs from uncached")
	}
	if hits, _ = cache.Stats(); hits != uint64(len(plain.Policies.Entries)) {
		t.Errorf("warm extraction hit %d of %d entries", hits, len(plain.Policies.Entries))
	}
	if warm.EntryDeps == nil || len(warm.EntryDeps) != len(plain.EntryDeps) {
		t.Errorf("warm EntryDeps size = %d, want %d", len(warm.EntryDeps), len(plain.EntryDeps))
	}
}

// TestSummaryCacheCrossLibrary extracts two different implementations of
// the same API through one cache: the second library's output must be
// byte-identical to its uncached extraction (a stale splice would show up
// here, since many signatures coincide while bodies differ).
func TestSummaryCacheCrossLibrary(t *testing.T) {
	opts := DefaultOptions()

	harmonyPlain := loadTestLib(t, "harmony", corpus.HarmonySources())
	harmonyPlain.Extract(opts)
	want := exportBytes(t, harmonyPlain)

	cache := NewSummaryCache(0)
	opts.Summaries = cache
	jdk := loadTestLib(t, "jdk", corpus.JDKSources())
	jdk.Extract(opts)

	harmony := loadTestLib(t, "harmony", corpus.HarmonySources())
	harmony.Extract(opts)
	if got := exportBytes(t, harmony); !bytes.Equal(got, want) {
		t.Error("cross-library cached extraction differs from uncached")
	}
}

// TestSummaryCacheInvalidation changes one dependency body between two
// same-signature libraries: the changed entry must be re-analyzed, not
// spliced.
func TestSummaryCacheInvalidation(t *testing.T) {
	libB := strings.Replace(libMJ, "sm.checkWrite(key);", "sm.checkRead(key);", 1)
	if libB == libMJ {
		t.Fatal("source rewrite failed")
	}
	opts := DefaultOptions()
	cache := NewSummaryCache(0)
	opts.Summaries = cache

	a := loadTestLib(t, "a", map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJ})
	a.Extract(opts)

	b := loadTestLib(t, "b", map[string]string{"rt.mj": runtimeMJ, "lib.mj": libB})
	b.Extract(opts)

	plainOpts := DefaultOptions()
	plainB := loadTestLib(t, "b", map[string]string{"rt.mj": runtimeMJ, "lib.mj": libB})
	plainB.Extract(plainOpts)
	if !bytes.Equal(exportBytes(t, b), exportBytes(t, plainB)) {
		t.Error("cached extraction of changed library differs from uncached")
	}
}

// TestSummaryCacheTelemetry checks the hit/miss counters reach the
// Prometheus exposition.
func TestSummaryCacheTelemetry(t *testing.T) {
	reg := telemetry.New()
	opts := DefaultOptions()
	opts.Telemetry = telemetry.NewExtractMetrics(reg)
	opts.Summaries = NewSummaryCache(0)

	for i := 0; i < 2; i++ {
		l := loadTestLib(t, "a", map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJ})
		l.Extract(opts)
	}
	text := reg.Text()
	if !strings.Contains(text, "polora_summary_cache_hit_total") ||
		!strings.Contains(text, "polora_summary_cache_miss_total") {
		t.Fatalf("summary-cache counters missing from exposition:\n%s", text)
	}
	if opts.Telemetry.SummaryCacheHits.With(secmodel.DefaultDomainID).Value() == 0 {
		t.Error("warm extraction recorded no hits")
	}
	if opts.Telemetry.SummaryCacheMisses.With(secmodel.DefaultDomainID).Value() == 0 {
		t.Error("cold extraction recorded no misses")
	}
}

// TestSummaryCacheEviction fills a tiny cache past its cap and checks it
// flushes rather than grows.
func TestSummaryCacheEviction(t *testing.T) {
	opts := DefaultOptions()
	cache := NewSummaryCache(2)
	opts.Summaries = cache
	l := loadTestLib(t, "a", map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJ})
	l.Extract(opts)
	if n := cachedEntries(cache); n > 2+1 {
		t.Errorf("cache grew past cap: %d entries", n)
	}
}

// cachedEntries reports how many entries c holds.
func cachedEntries(c *SummaryCache) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
