package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"hilight"
)

// This file is the live defect feed: POST /v1/defects announces the
// hardware's current defect map, and the server sweeps its schedule
// cache for entries whose schedules geometrically conflict with it —
// a braid path through a newly dead vertex or channel, a braid endpoint
// or placed qubit on a dead tile. Conflicting entries are evicted and,
// when their originating request was recorded, recompiled warm against
// the new map: the stale schedule becomes its own session parent, so
// the unaffected prefix replays and only the suffix re-routes.

// defectsRequest is the JSON body of POST /v1/defects. Defects is the
// full replacement map (absent or empty heals everything) — the feed is
// level-triggered, not edge-triggered, so a lost update is repaired by
// the next one.
type defectsRequest struct {
	Defects *hilight.DefectMap `json:"defects"`
}

// defectsResponse reports the sweep: how many cached schedules were
// checked, how many conflicted (and were evicted), how many were
// recompiled under the new map, and the old→new fingerprint mapping
// (empty string when the entry could only be evicted).
type defectsResponse struct {
	Checked      int               `json:"checked"`
	Conflicting  int               `json:"conflicting"`
	Evicted      int               `json:"evicted"`
	Recompiled   int               `json:"recompiled"`
	Failed       int               `json:"failed,omitempty"`
	Fingerprints map[string]string `json:"fingerprints,omitempty"`
}

// handleDefects serves POST /v1/defects.
func (s *Server) handleDefects(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	s.defectFeeds.Inc()
	var req defectsRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	dm := req.Defects
	if dm == nil {
		dm = &hilight.DefectMap{}
	}
	snapshot := s.cache.Snapshot()
	resp := defectsResponse{Checked: len(snapshot)}

	var stale []*storedResult
	if !dm.Empty() {
		for _, sr := range snapshot {
			conflict, err := scheduleConflicts(sr, dm)
			if err != nil || conflict {
				// An undecodable entry is treated as conflicting: evicting a
				// corrupt schedule is strictly safer than serving it.
				stale = append(stale, sr)
			}
		}
	}
	if len(stale) == 0 {
		s.succeeded.Inc()
		WriteJSON(w, http.StatusOK, &resp)
		return
	}

	// The recompiles run under one admission ticket at batch priority:
	// the feed is maintenance traffic and must not starve interactive
	// compiles of workers.
	release, err := s.admit.acquireFor(r.Context(), tenantOf(r), priorityBatch)
	if err != nil {
		s.failAdmission(w, r, err)
		return
	}
	defer release()

	resp.Fingerprints = make(map[string]string, len(stale))
	for _, sr := range stale {
		resp.Conflicting++
		if s.cache.Remove(sr.Fingerprint) {
			resp.Evicted++
			s.defectEvicted.Inc()
		}
		newFP, err := s.recompileStale(r.Context(), sr, dm)
		if err != nil {
			resp.Failed++
			resp.Fingerprints[sr.Fingerprint] = ""
			continue
		}
		resp.Recompiled++
		s.defectRecompiled.Inc()
		resp.Fingerprints[sr.Fingerprint] = newFP
	}
	s.succeeded.Inc()
	WriteJSON(w, http.StatusOK, &resp)
}

// recompileStale re-issues a stale entry's recorded request under the
// new defect map, warm-starting from the stale schedule itself, and
// installs the result under its new fingerprint.
func (s *Server) recompileStale(ctx context.Context, sr *storedResult, dm *hilight.DefectMap) (string, error) {
	if len(sr.ReqJSON) == 0 {
		return "", fmt.Errorf("entry %q has no recorded request", sr.Fingerprint)
	}
	var req compileRequest
	if err := json.Unmarshal(sr.ReqJSON, &req); err != nil {
		return "", fmt.Errorf("entry %q request corrupt: %w", sr.Fingerprint, err)
	}
	if dm.Empty() {
		req.Defects = nil
	} else {
		req.Defects = dm
	}
	c, g, opts, err := req.build()
	if err != nil {
		return "", err
	}
	fp, err := hilight.Fingerprint(c, g, opts...)
	if err != nil {
		return "", err
	}
	if _, ok := s.cache.Get(fp); ok {
		return fp, nil // an earlier feed (or request) already compiled it
	}
	// Only the defect map changed, so the stale entry's input circuit is
	// exactly the circuit the rebuilt request produced.
	parentC := c
	parentSched, err := hilight.DecodeScheduleBinary(sr.ScheduleBin)
	if err != nil {
		return "", fmt.Errorf("entry %q schedule corrupt: %w", sr.Fingerprint, err)
	}

	wctx, progress, stopWd := s.watchdog.guard(ctx, "POST /v1/defects")
	defer stopWd()
	opts = append(opts,
		hilight.WithContext(wctx),
		hilight.WithTimeout(s.cfg.DefaultTimeout),
		hilight.WithMetrics(s.cfg.Metrics),
		hilight.WithObserver(func(cs hilight.CycleStats) {
			progress()
			routeCycleHook(cs)
		}),
	)
	res, err := hilight.RecompileFrom(parentC, parentSched, c, g, opts...)
	if err != nil {
		return "", err
	}
	nsr, err := newStoredResult(fp, res)
	if err != nil {
		return "", err
	}
	nsr.Parent = sr.Fingerprint
	nsr.ReqJSON, _ = json.Marshal(&req)
	s.cache.Put(fp, nsr)
	if s.jobs.journal != nil {
		nsrJSON, _ := json.Marshal(nsr)
		if err := s.jobs.journal.appendSession(fp, sr.Fingerprint, nsrJSON); err != nil {
			return "", fmt.Errorf("journal session: %w", err)
		}
	}
	return fp, nil
}

// scheduleConflicts reports whether a stored schedule geometrically
// conflicts with the defect map: any braid path visiting a dead vertex
// or crossing a dead channel, any braid endpoint on a dead tile, or a
// placed qubit's tile going dead.
func scheduleConflicts(sr *storedResult, dm *hilight.DefectMap) (bool, error) {
	schd, err := hilight.DecodeScheduleBinary(sr.ScheduleBin)
	if err != nil {
		return true, err
	}
	deadTile := make(map[int]bool, len(dm.Tiles))
	for _, t := range dm.Tiles {
		deadTile[t] = true
	}
	deadVertex := make(map[int]bool, len(dm.Vertices))
	for _, v := range dm.Vertices {
		deadVertex[v] = true
	}
	deadChannel := make(map[[2]int]bool, len(dm.Channels))
	for _, ch := range dm.Channels {
		deadChannel[[2]int{ch[0], ch[1]}] = true
		deadChannel[[2]int{ch[1], ch[0]}] = true
	}
	if schd.Initial != nil {
		for _, t := range schd.Initial.QubitTile {
			if deadTile[t] {
				return true, nil
			}
		}
	}
	for _, layer := range schd.Layers {
		for _, b := range layer {
			if deadTile[b.CtlTile] || deadTile[b.TgtTile] {
				return true, nil
			}
			for i, v := range b.Path {
				if deadVertex[v] {
					return true, nil
				}
				if i > 0 && deadChannel[[2]int{b.Path[i-1], v}] {
					return true, nil
				}
			}
		}
	}
	return false, nil
}
