// Command ffdl-server boots a complete in-process FfDL platform (etcd
// cluster, metadata store, object storage, kube-like orchestrator, API
// and LCM replicas) plus a synthetic GPU cluster, and serves the
// training API over REST — the shape a self-hosted deployment of the
// paper's system exposes.
//
//	ffdl-server -listen :8080 -k80 4 -v100 2
//
// Endpoints:
//
//	POST /v1/jobs                submit a job (JSON manifest)
//	GET  /v1/jobs                list jobs (?user=)
//	GET  /v1/jobs/{id}           job status + history
//	GET  /v1/jobs/{id}/watch     stream status transitions (NDJSON, ends at terminal)
//	GET  /v1/jobs/{id}/logs      collected logs (?search=), or a live
//	                             NDJSON stream with ?follow=1&from=<offset>
//	                             (resumable by LogLine offset)
//	GET  /v1/jobs/{id}/trace     job trace span tree (JSON; ?format=chrome
//	                             emits Chrome trace-event JSON for
//	                             chrome://tracing / Perfetto)
//	POST /v1/jobs/{id}/halt      HALT (checkpoint + release GPUs)
//	POST /v1/jobs/{id}/resume    RESUME from latest checkpoint
//	POST /v1/jobs/{id}/terminate cancel
//	GET  /v1/metrics             platform metrics (Prometheus text exposition)
//	GET  /v1/cluster             GPU utilization
//	GET  /v1/tenants             list tenant quotas (with -tenancy)
//	GET  /v1/tenants/{user}      one tenant's quota + live GPU usage
//	PUT  /v1/tenants/{user}      set a quota: {"tier":"paid","gpus":8}
//
// With -tenancy, submissions from registered tenants are queued and
// admitted by the tenant dispatcher instead of being rejected at
// capacity; seed quotas with -quotas user:tier:gpus[,...] or set them
// at runtime over PUT /v1/tenants/{user}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/ffdl/ffdl"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
		k80     = flag.Int("k80", 4, "number of 4-GPU K80 nodes")
		p100    = flag.Int("p100", 0, "number of 4-GPU P100 nodes")
		v100    = flag.Int("v100", 0, "number of 4-GPU V100 nodes")
		speedup = flag.Float64("time-compression", 1e-3, "modeled-seconds to real-seconds factor for training")
		dataDir = flag.String("data-dir", "", "persist the metadata oplog and learner logs under this directory (empty = in-memory only); restarting with the same directory recovers jobs and logs")
		tenancy = flag.Bool("tenancy", false, "enable the multi-tenant subsystem (queued admission + preemption)")
		quotas  = flag.String("quotas", "", "seed tenant quotas, user:tier:gpus[,...] (implies -tenancy)")
	)
	flag.Parse()

	cfg := ffdl.Config{TimeCompression: *speedup, DataDir: *dataDir}
	if *tenancy || *quotas != "" {
		tc := &ffdl.TenancyConfig{}
		for _, spec := range strings.Split(*quotas, ",") {
			if spec = strings.TrimSpace(spec); spec == "" {
				continue
			}
			rec, err := parseQuotaSpec(spec)
			if err != nil {
				log.Fatalf("ffdl-server: -quotas: %v", err)
			}
			tc.Quotas = append(tc.Quotas, rec)
		}
		cfg.Tenancy = tc
	}
	p, err := ffdl.New(cfg)
	if err != nil {
		log.Fatalf("ffdl-server: %v", err)
	}
	defer p.Stop()
	if *k80 > 0 {
		p.AddNodes("k80", ffdl.K80, *k80, 4)
	}
	if *p100 > 0 {
		p.AddNodes("p100", ffdl.P100, *p100, 4)
	}
	if *v100 > 0 {
		p.AddNodes("v100", ffdl.V100, *v100, 4)
	}
	if err := p.SeedDataset("datasets", "demo/", 8<<20); err != nil {
		log.Fatalf("ffdl-server: seed dataset: %v", err)
	}
	client := p.Client()

	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(v) //nolint:errcheck
	}
	fail := func(w http.ResponseWriter, code int, err error) {
		if ffdl.IsDegraded(err) {
			// Degraded mode: the metadata store is unavailable and the
			// request was shed, not rejected. Tell the client to retry.
			w.Header().Set("Retry-After", "1")
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, map[string]string{"error": err.Error()})
	}

	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
		defer cancel()
		switch r.Method {
		case http.MethodPost:
			var m ffdl.Manifest
			if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
				fail(w, http.StatusBadRequest, err)
				return
			}
			id, err := client.Submit(ctx, m)
			if err != nil {
				fail(w, http.StatusUnprocessableEntity, err)
				return
			}
			writeJSON(w, http.StatusCreated, map[string]string{"jobId": id})
		case http.MethodGet:
			jobs, err := client.List(ctx, r.URL.Query().Get("user"))
			if err != nil {
				fail(w, http.StatusInternalServerError, err)
				return
			}
			writeJSON(w, http.StatusOK, jobs)
		default:
			w.WriteHeader(http.StatusMethodNotAllowed)
		}
	})

	mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		parts := strings.SplitN(rest, "/", 2)
		jobID := parts[0]
		action := ""
		if len(parts) == 2 {
			action = parts[1]
		}
		if action == "watch" && r.Method == http.MethodGet {
			// Event-driven follow: transitions are pushed as they
			// happen (no poll loop); the stream ends when the job
			// reaches a terminal status or the client disconnects.
			ch, cancel, err := client.WatchStatus(r.Context(), jobID)
			if err != nil {
				fail(w, http.StatusNotFound, err)
				return
			}
			defer cancel()
			writeLine := ndjson(w)
			for e := range ch {
				if !writeLine(e) {
					return
				}
			}
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
		defer cancel()
		switch {
		case action == "" && r.Method == http.MethodGet:
			reply, err := client.Status(ctx, jobID)
			if err != nil {
				fail(w, http.StatusNotFound, err)
				return
			}
			writeJSON(w, http.StatusOK, reply)
		case action == "trace" && r.Method == http.MethodGet:
			tr, err := client.Trace(ctx, jobID)
			if err != nil {
				fail(w, http.StatusNotFound, err)
				return
			}
			if r.URL.Query().Get("format") == "chrome" {
				buf, cerr := tr.ChromeTrace()
				if cerr != nil {
					fail(w, http.StatusInternalServerError, cerr)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusOK)
				w.Write(buf) //nolint:errcheck
				return
			}
			writeJSON(w, http.StatusOK, tr)
		case action == "logs" && r.Method == http.MethodGet:
			if r.URL.Query().Get("follow") != "" {
				// Live follow: lines are pushed as NDJSON as learners
				// emit them. Each line carries its commit-log offset, so
				// a disconnected client resumes with ?from=<offset+1>
				// and misses nothing — the job's log outlives any API
				// replica. The stream runs until the client disconnects.
				var from uint64
				if s := r.URL.Query().Get("from"); s != "" {
					v, perr := strconv.ParseUint(s, 10, 64)
					if perr != nil {
						fail(w, http.StatusBadRequest, fmt.Errorf("bad from offset %q", s))
						return
					}
					from = v
				}
				writeLine := ndjson(w)
				client.FollowLogsFrom(r.Context(), jobID, from, func(l ffdl.LogLine) { //nolint:errcheck
					writeLine(l)
				})
				return
			}
			var lines []ffdl.LogLine
			var err error
			if q := r.URL.Query().Get("search"); q != "" {
				lines, err = client.SearchLogs(ctx, jobID, q)
			} else {
				lines, err = client.Logs(ctx, jobID)
			}
			if err != nil {
				fail(w, http.StatusInternalServerError, err)
				return
			}
			writeJSON(w, http.StatusOK, lines)
		case r.Method == http.MethodPost:
			var err error
			switch action {
			case "halt":
				err = client.Halt(ctx, jobID)
			case "resume":
				err = client.Resume(ctx, jobID)
			case "terminate":
				err = client.Terminate(ctx, jobID)
			default:
				w.WriteHeader(http.StatusNotFound)
				return
			}
			if err != nil {
				fail(w, http.StatusConflict, err)
				return
			}
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		default:
			w.WriteHeader(http.StatusMethodNotAllowed)
		}
	})

	mux.HandleFunc("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
		defer cancel()
		snap, err := client.Metrics(ctx)
		if err != nil {
			fail(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, snap.Prom()) //nolint:errcheck
	})

	mux.HandleFunc("/v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		alloc, capacity := p.GPUUtilization()
		writeJSON(w, http.StatusOK, map[string]int{"allocatedGPUs": alloc, "capacityGPUs": capacity})
	})

	mux.HandleFunc("/v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.WriteHeader(http.StatusMethodNotAllowed)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
		defer cancel()
		recs, err := client.Tenants(ctx)
		if err != nil {
			fail(w, http.StatusConflict, err)
			return
		}
		out := make([]tenantWire, 0, len(recs))
		for _, rec := range recs {
			out = append(out, toWire(rec, -1))
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("/v1/tenants/", func(w http.ResponseWriter, r *http.Request) {
		user := strings.TrimPrefix(r.URL.Path, "/v1/tenants/")
		if user == "" {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
		defer cancel()
		switch r.Method {
		case http.MethodGet:
			rec, inUse, err := client.Quota(ctx, user)
			if err != nil {
				fail(w, http.StatusNotFound, err)
				return
			}
			writeJSON(w, http.StatusOK, toWire(rec, inUse))
		case http.MethodPut:
			// Partial update: an omitted field keeps the tenant's
			// current value, so concurrent single-field updates (one
			// admin bumping -gpus, another changing -tier) cannot
			// silently revert each other through a client-side
			// read-modify-write.
			var in struct {
				Tier *string `json:"tier"`
				GPUs *int    `json:"gpus"`
			}
			if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
				fail(w, http.StatusBadRequest, err)
				return
			}
			rec, _, err := client.Quota(ctx, user)
			if err != nil {
				// New tenant: both fields are required.
				if in.Tier == nil || in.GPUs == nil {
					fail(w, http.StatusBadRequest,
						fmt.Errorf("new tenant %q needs both tier and gpus", user))
					return
				}
				rec = ffdl.Tenant{User: user}
			}
			if in.Tier != nil {
				tier, err := ffdl.ParseTier(*in.Tier)
				if err != nil {
					fail(w, http.StatusBadRequest, err)
					return
				}
				rec.Tier = tier
			}
			if in.GPUs != nil {
				rec.GPUs = *in.GPUs
			}
			rec.User = user
			if err := client.SetQuota(ctx, rec); err != nil {
				fail(w, http.StatusConflict, err)
				return
			}
			writeJSON(w, http.StatusOK, toWire(rec, -1))
		default:
			w.WriteHeader(http.StatusMethodNotAllowed)
		}
	})

	fmt.Printf("ffdl-server listening on http://%s (GPUs: %d K80-node, %d P100-node, %d V100-node; dataset bucket \"datasets\" prefix \"demo/\"; tenancy %v)\n",
		*listen, *k80, *p100, *v100, cfg.Tenancy != nil)
	log.Fatal(http.ListenAndServe(*listen, mux))
}

// ndjson starts a 200 NDJSON stream response and returns its line
// writer, which flushes each line to the client as it is written and
// reports whether the write succeeded.
func ndjson(w http.ResponseWriter) func(v any) bool {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	return func(v any) bool {
		if err := enc.Encode(v); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
}

// tenantWire is the JSON shape of a tenant record on the REST surface.
type tenantWire struct {
	User string `json:"user"`
	Tier string `json:"tier"`
	GPUs int    `json:"gpus"`
	// InUse is the tenant's live admitted GPU footprint (omitted where
	// not applicable, e.g. list responses).
	InUse *int `json:"inUse,omitempty"`
}

func toWire(rec ffdl.Tenant, inUse int) tenantWire {
	w := tenantWire{User: rec.User, Tier: ffdl.TierName(rec.Tier), GPUs: rec.GPUs}
	if inUse >= 0 {
		w.InUse = &inUse
	}
	return w
}

// parseQuotaSpec parses one -quotas entry of the form user:tier:gpus.
func parseQuotaSpec(spec string) (ffdl.Tenant, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return ffdl.Tenant{}, fmt.Errorf("bad quota %q (want user:tier:gpus)", spec)
	}
	tier, err := ffdl.ParseTier(parts[1])
	if err != nil {
		return ffdl.Tenant{}, err
	}
	gpus, err := strconv.Atoi(parts[2])
	if err != nil || gpus < 0 {
		return ffdl.Tenant{}, fmt.Errorf("bad GPU count in quota %q", spec)
	}
	return ffdl.Tenant{User: parts[0], Tier: tier, GPUs: gpus}, nil
}
