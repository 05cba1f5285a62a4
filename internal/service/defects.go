package service

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	"hilight"
	"hilight/internal/sched"
)

// This file is the live defect feed: POST /v1/defects announces the
// hardware's current defect map, and the server sweeps its schedule
// cache for entries whose schedules fail on the hardware it describes —
// a placed qubit on a dead tile, or a braid that sched.CheckBraid no
// longer passes. Conflicting entries are evicted and,
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

// DefectsResponse reports the sweep: how many cached schedules were
// checked, how many conflicted (and were evicted), how many were
// recompiled under the new map, and the old→new fingerprint mapping
// (empty string when the entry could only be evicted). A coordinator
// decodes each worker's sweep into it and answers their sum.
type DefectsResponse struct {
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
	resp := DefectsResponse{Checked: len(snapshot)}

	var stale []*storedResult
	var dead *deadSets
	if !dm.Empty() {
		dead = newDeadSets(dm)
		for _, sr := range snapshot {
			conflict, err := scheduleConflicts(sr, dead)
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
		newFP, err := s.recompileStale(r.Context(), sr, dm, dead)
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
// installs the result under its new fingerprint. A feed that names ids
// off the entry's grid (a feed for a larger chip) recompiles it under the
// part of the feed that lands on its grid, the map the sweep judged it
// by; a feed wholly on the grid keeps its own map, and so its
// fingerprint.
func (s *Server) recompileStale(ctx context.Context, sr *storedResult, dm *hilight.DefectMap, dead *deadSets) (string, error) {
	if len(sr.ReqJSON) == 0 {
		return "", fmt.Errorf("entry %q has no recorded request", sr.Fingerprint)
	}
	var req compileRequest
	if err := json.Unmarshal(sr.ReqJSON, &req); err != nil {
		return "", fmt.Errorf("entry %q request corrupt: %w", sr.Fingerprint, err)
	}
	parentSched, err := hilight.DecodeScheduleBinary(sr.ScheduleBin)
	if err != nil {
		return "", fmt.Errorf("entry %q schedule corrupt: %w", sr.Fingerprint, err)
	}
	if onGrid, whole := dead.on(parentSched.Grid); !whole {
		dm = onGrid
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

	_, opts, stopWd := s.guard(ctx, "POST /v1/defects", s.cfg.DefaultTimeout, opts)
	defer stopWd()
	res, err := hilight.RecompileFrom(parentC, parentSched, c, g, opts...)
	if err != nil {
		return "", err
	}
	if _, err := s.keep(fp, res, &req, sr.Fingerprint); err != nil {
		return "", err
	}
	return fp, nil
}

// deadSets is a defect map as sorted, deduplicated id lists. A feed
// builds them once and slices them by binary search to each cached
// schedule's grid, so its cost follows the feed, not the feed times the
// cache; and they hold one copy of the feed's ids, where hash sets took
// several times their bytes.
type deadSets struct {
	tile, vertex []int
	channel      [][2]int // each channel once, lower vertex first
}

func newDeadSets(dm *hilight.DefectMap) *deadSets {
	d := &deadSets{
		tile:    sortedSet(slices.Clone(dm.Tiles)),
		vertex:  sortedSet(slices.Clone(dm.Vertices)),
		channel: make([][2]int, len(dm.Channels)),
	}
	for i, ch := range dm.Channels {
		d.channel[i] = [2]int{min(ch[0], ch[1]), max(ch[0], ch[1])}
	}
	slices.SortFunc(d.channel, comparePairs)
	d.channel = slices.Compact(d.channel)
	return d
}

func sortedSet(ids []int) []int {
	slices.Sort(ids)
	return slices.Compact(ids)
}

func comparePairs(a, b [2]int) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// on returns the part of the feed that lands on g, nil when none does:
// its tiles and vertices in range and its channels between adjacent
// vertices. whole reports that this is every id of the feed. Channels are
// looked up per lower vertex, so stray channels cost each cached entry a
// search, not a scan.
func (d *deadSets) on(g *hilight.Grid) (dm *hilight.DefectMap, whole bool) {
	nv := g.NumVertices()
	dm = &hilight.DefectMap{Tiles: inRange(d.tile, g.Tiles()), Vertices: inRange(d.vertex, nv)}
	lo, _ := slices.BinarySearchFunc(d.channel, [2]int{0, 0}, comparePairs)
	hi, _ := slices.BinarySearchFunc(d.channel, [2]int{nv, 0}, comparePairs)
	for chs := d.channel[lo:hi]; len(chs) > 0; {
		u := chs[0][0]
		for _, v := range [2]int{u + 1, u + g.VW()} {
			_, ok := slices.BinarySearchFunc(chs, [2]int{u, v}, comparePairs)
			if ok && v < nv && g.VertexDist(u, v) == 1 {
				dm.Channels = append(dm.Channels, [2]int{u, v})
			}
		}
		next, _ := slices.BinarySearchFunc(chs, [2]int{u + 1, 0}, comparePairs)
		chs = chs[next:]
	}
	whole = len(dm.Tiles) == len(d.tile) && len(dm.Vertices) == len(d.vertex) && len(dm.Channels) == len(d.channel)
	if dm.Empty() {
		return nil, whole
	}
	return dm, whole
}

// inRange returns the ids of the sorted set ids in [0, n).
func inRange(ids []int, n int) []int {
	lo, _ := slices.BinarySearch(ids, 0)
	hi, _ := slices.BinarySearch(ids, n)
	return ids[lo:hi]
}

// scheduleConflicts reports whether a stored schedule fails on the grid
// its recompile would use: its grid's shape and reserved tiles under the
// part of the feed that lands on it (deadSets.on). A feed changes no
// circuit and moves no braid, so only the initial layout and
// sched.CheckBraid can fail there.
func scheduleConflicts(sr *storedResult, dead *deadSets) (bool, error) {
	schd, err := hilight.DecodeScheduleBinary(sr.ScheduleBin)
	if err != nil {
		return true, err
	}
	dm, _ := dead.on(schd.Grid)
	if dm == nil {
		return false, nil
	}
	g := schd.Grid.Healed()
	if err := g.ApplyDefects(dm); err != nil {
		return true, err
	}
	if schd.Initial.Validate(g) != nil {
		return true, nil
	}
	for _, layer := range schd.Layers {
		for _, b := range layer {
			if sched.CheckBraid(g, b) != nil {
				return true, nil
			}
		}
	}
	return false, nil
}
