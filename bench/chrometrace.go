package main

import (
	"encoding/json"
	"os"
	"time"
)

// traceEvent is one Chrome trace-event ("X" complete event); ts and dur
// are microseconds from the start of the measured phase.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChromeTrace writes the traced run's client spans, and the
// lifecycle phases of the same jobs from their history timestamps, in
// Chrome trace-event format (chrome://tracing, Perfetto). pid 1 holds
// the client calls, one thread per client; pid 2 holds the platform-side
// phases of the same jobs. Every traceEvery-th job is written, which
// keeps the file a few megabytes.
func writeChromeTrace(path string, r *run) error {
	if len(r.samples) == 0 {
		return nil
	}
	origin := r.samples[0].submit
	for i := range r.samples {
		if s := r.samples[i].submit; !s.IsZero() && s.Before(origin) {
			origin = s
		}
	}
	us := func(t time.Time) float64 { return float64(t.Sub(origin)) / 1e3 }
	var events []traceEvent
	for i := 0; i < len(r.samples); i += traceEvery {
		s := &r.samples[i]
		if s.failure != "" {
			continue
		}
		for _, sp := range []struct {
			name       string
			start, end time.Time
		}{
			{"submit", s.submit, s.submitDone},
			{"watch_open", s.watchStart, s.watchOpen},
			{"watch", s.watchOpen, s.seenEnd},
		} {
			events = append(events, traceEvent{
				Name: sp.name, Ph: "X", Ts: us(sp.start), Dur: us(sp.end) - us(sp.start),
				Pid: 1, Tid: s.client + 1, Args: map[string]string{"job": s.id},
			})
		}
		h := s.history()
		for k := 0; k+1 < len(h); k++ {
			events = append(events, traceEvent{
				Name: string(h[k].status), Ph: "X", Ts: us(h[k].at), Dur: us(h[k+1].at) - us(h[k].at),
				Pid: 2, Tid: s.client + 1, Args: map[string]string{"job": s.id},
			})
		}
	}
	data, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
