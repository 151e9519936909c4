package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"

	"policyoracle/internal/campaign"
	"policyoracle/internal/oracle"
	"policyoracle/internal/telemetry"
)

// Campaign endpoints turn a polorad process into one worker of a
// distributed coverage-guided campaign (see internal/campaign):
//
//	POST /v1/campaign      campaign.ShardRequest → 202 campaign.StatusResponse (running)
//	GET  /v1/campaign/{id}                       → campaign.StatusResponse
//
// A job runs one shard asynchronously; because shards are
// self-contained deterministic units, the worker needs no coordination
// beyond the request itself. Engines (validated options + extracted
// baseline) are cached across requests keyed by the campaign's
// deterministic identity, so a client fanning N shards at one worker
// pays for one baseline extraction, not N. Completed shard results are
// persisted to the store's campaigns/ directory.

// maxCampaignJobs bounds the in-memory job table; the oldest finished
// jobs are evicted first. A client that polls promptly (RunRemote
// polls every 200ms) never observes an eviction.
const maxCampaignJobs = 256

// maxCampaignEngines bounds cached baselines.
const maxCampaignEngines = 4

type campaignJob struct {
	mu     sync.Mutex
	id     string
	status string
	result *campaign.ShardResult
	err    string
}

func (j *campaignJob) response() campaign.StatusResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	return campaign.StatusResponse{ID: j.id, Status: j.status, Result: j.result, Error: j.err}
}

// campaignRunner owns the job table and the engine cache.
type campaignRunner struct {
	log     *slog.Logger
	metrics *telemetry.CampaignMetrics

	mu       sync.Mutex
	nextID   int
	jobs     map[string]*campaignJob
	jobOrder []string
	engines  map[string]*campaign.Engine
	engOrder []string
}

func newCampaignRunner(log *slog.Logger, reg *telemetry.Registry) *campaignRunner {
	return &campaignRunner{
		log:     log,
		metrics: telemetry.NewCampaignMetrics(reg),
		jobs:    map[string]*campaignJob{},
		engines: map[string]*campaign.Engine{},
	}
}

// engine returns a cached engine for the request's deterministic
// identity, building (and caching) one when absent.
func (c *campaignRunner) engine(req *campaign.ShardRequest, opts campaign.Options) (*campaign.Engine, error) {
	oopts := oracle.DefaultOptions()
	if opts.Oracle != nil {
		oopts = *opts.Oracle
	}
	key := fmt.Sprintf("%s|%d|%d|%d|%d|%v",
		oracle.Fingerprint(req.Name, req.Sources, oopts),
		req.Seed, req.Rounds, req.Mutations, req.ShardRounds, req.Uniform)
	c.mu.Lock()
	if e := c.engines[key]; e != nil {
		c.mu.Unlock()
		return e, nil
	}
	c.mu.Unlock()
	// Build outside the lock: baseline extraction is the expensive part
	// and concurrent first-shards for distinct campaigns shouldn't
	// serialize. Two racing builds of the same key cost one redundant
	// extraction, nothing more.
	e, err := campaign.NewEngine(req.Name, req.Sources, opts)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cached := c.engines[key]; cached != nil {
		return cached, nil
	}
	c.engines[key] = e
	c.engOrder = append(c.engOrder, key)
	if len(c.engOrder) > maxCampaignEngines {
		delete(c.engines, c.engOrder[0])
		c.engOrder = c.engOrder[1:]
	}
	return e, nil
}

// add registers a new running job, evicting the oldest finished job
// when the table is full.
func (c *campaignRunner) add() *campaignJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	j := &campaignJob{id: "c" + strconv.Itoa(c.nextID), status: campaign.StatusRunning}
	if len(c.jobOrder) >= maxCampaignJobs {
		for i, id := range c.jobOrder {
			old := c.jobs[id]
			old.mu.Lock()
			finished := old.status != campaign.StatusRunning
			old.mu.Unlock()
			if finished {
				delete(c.jobs, id)
				c.jobOrder = append(c.jobOrder[:i], c.jobOrder[i+1:]...)
				break
			}
		}
	}
	c.jobs[j.id] = j
	c.jobOrder = append(c.jobOrder, j.id)
	return j
}

func (c *campaignRunner) get(id string) *campaignJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[id]
}

// handleCampaignPost accepts one shard job, synchronously validating
// the bundle and options (a bad campaign fails the POST, not the poll)
// and running the rounds asynchronously.
func (s *Server) handleCampaignPost(w http.ResponseWriter, r *http.Request) {
	if s.campaigns == nil {
		s.fail(w, http.StatusNotImplemented, CodeCampaignsDisabled,
			errors.New("campaign execution requires -campaigns"))
		return
	}
	var req campaign.ShardRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Name == "" || len(req.Sources) == 0 {
		s.fail(w, http.StatusBadRequest, CodeBadRequest,
			errors.New("campaign request needs a name and sources"))
		return
	}
	d, err := s.resolveDomain(req.Domain)
	if err != nil {
		s.fail(w, http.StatusBadRequest, CodeUnknownDomain, err)
		return
	}
	oopts := oracle.DefaultOptions()
	oopts.Domain = d
	opts := campaign.Options{
		Seed:        req.Seed,
		Rounds:      req.Rounds,
		Mutations:   req.Mutations,
		ShardRounds: req.ShardRounds,
		Uniform:     req.Uniform,
		Oracle:      &oopts,
		Metrics:     s.campaigns.metrics,
	}
	e, err := s.campaigns.engine(&req, opts)
	if err != nil {
		s.fail(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	if req.Shard < 0 || req.Shard >= e.Shards() {
		s.fail(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("shard %d out of range [0,%d)", req.Shard, e.Shards()))
		return
	}
	j := s.campaigns.add()
	go s.runCampaignJob(j, e, req.Shard)
	s.writeJSON(w, http.StatusAccepted, j.response())
}

func (s *Server) runCampaignJob(j *campaignJob, e *campaign.Engine, shard int) {
	res, err := e.RunShard(shard)
	if err != nil {
		j.mu.Lock()
		j.status = campaign.StatusFailed
		j.err = err.Error()
		j.mu.Unlock()
		s.log.Error("campaign shard failed", "job", j.id, "shard", shard, "err", err)
		return
	}
	// Persist before the poll can report done, so a client that saw the
	// result also finds it under campaigns/.
	buf, merr := json.Marshal(res)
	if merr == nil {
		_, merr = s.st.SaveCampaign(j.id, append(buf, '\n'))
	}
	if merr != nil {
		// Persistence is best-effort bookkeeping; the client gets the
		// result from the poll either way.
		s.log.Error("campaign shard persist failed", "job", j.id, "err", merr)
	}
	j.mu.Lock()
	j.status = campaign.StatusDone
	j.result = res
	j.mu.Unlock()
	s.log.Info("campaign shard done", "job", j.id, "shard", shard,
		"rounds", res.Rounds, "keys", len(res.Keys), "crashers", len(res.Crashers))
}

// handleCampaignGet serves one job's status.
func (s *Server) handleCampaignGet(w http.ResponseWriter, r *http.Request) {
	if s.campaigns == nil {
		s.fail(w, http.StatusNotImplemented, CodeCampaignsDisabled,
			errors.New("campaign execution requires -campaigns"))
		return
	}
	id := r.PathValue("id")
	j := s.campaigns.get(id)
	if j == nil {
		s.fail(w, http.StatusNotFound, CodeUnknownCampaign,
			fmt.Errorf("no campaign job %q", id))
		return
	}
	s.writeJSON(w, http.StatusOK, j.response())
}
