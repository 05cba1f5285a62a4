// Defect-churn session soak: one logical editing session — a client
// appending gates and streaming full-replacement defect maps — runs
// against a live daemon across kill -9 crashes over one shared journal.
// The invariants are the session engine's promises:
//
//   - every recompiled schedule validates against the circuit the
//     client actually sent (rebuilt client-side through the same
//     SWAP-decomposition + QCO the daemon applies), on the hardware the
//     client announced: the schedule's grid with the current defect
//     map, so it routes around every defect in that map;
//   - no acknowledged session is lost: a 200 session response is
//     fsynced to the journal before the ack, so the child fingerprint
//     must resolve as a parent in every later life, crash or not;
//   - a defect feed never silently drops the session head: the old
//     fingerprint appears in the feed's mapping, and the session
//     continues from the remapped head.
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"hilight"
	"hilight/internal/session"
)

// SessionConfig shapes a defect-churn session soak. The zero value is
// not runnable; use SessionDefaults as a baseline.
type SessionConfig struct {
	// Seed fixes the edit/defect/crash schedule.
	Seed int64
	// Cycles is the number of daemon lives over the shared journal.
	Cycles int
	// EditsPerCycle session recompiles (one appended gate each) are
	// issued per life; FeedsPerCycle defect-map updates interleave.
	EditsPerCycle int
	FeedsPerCycle int
	// JournalDir is the journal shared by every life.
	JournalDir string
	// KillProb is the per-cycle probability of a crash stop.
	KillProb float64
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// SessionDefaults returns the bounded configuration used by `make
// session-smoke`: fixed seed, every life edits and feeds, about half
// the lives end in a crash.
func SessionDefaults(journalDir string) SessionConfig {
	return SessionConfig{
		Seed:          1,
		Cycles:        6,
		EditsPerCycle: 4,
		FeedsPerCycle: 2,
		JournalDir:    journalDir,
		KillProb:      0.5,
	}
}

// SessionReport is the outcome of RunSessions. A clean soak has an
// empty Violations.
type SessionReport struct {
	Cycles, Crashes, Graceful int
	// Edits counts 200-acked session recompiles; Warm the subset that
	// replayed parent layers, ColdFallbacks the subset the engine
	// silently recompiled cold.
	Edits, Warm, ColdFallbacks int
	// Feeds counts defect-map updates, FeedRecompiles the cache entries
	// the daemon recompiled under new maps, FeedFailures the entries it
	// evicted but could not recompile (reported, then recovered cold).
	Feeds, FeedRecompiles, FeedFailures int
	// Resurrections counts lives that successfully continued a session
	// whose parent fingerprint only survived through the journal.
	Resurrections int
	Violations    []string
}

func (r *SessionReport) violatef(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// sessionState is everything the soak client carries across lives:
// exactly what a real editor process would hold.
type sessionState struct {
	circ    *hilight.Circuit   // current edited circuit (input form)
	headFP  string             // fingerprint of its latest compile
	acked   bool               // headFP was acked by a session response (journaled)
	defects *hilight.DefectMap // current full-replacement defect map
	sched   *hilight.Schedule  // latest schedule (source of dead-vertex picks)
}

// sessionResp is the subset of the compile response the soak inspects.
type sessionResp struct {
	Fingerprint string          `json:"fingerprint"`
	Cached      bool            `json:"cached"`
	WarmCycles  int             `json:"warm_cycles"`
	Parent      string          `json:"parent"`
	Schedule    json.RawMessage `json:"schedule"`
}

// feedResp mirrors the daemon's /v1/defects sweep summary.
type feedResp struct {
	Checked      int               `json:"checked"`
	Conflicting  int               `json:"conflicting"`
	Recompiled   int               `json:"recompiled"`
	Failed       int               `json:"failed"`
	Fingerprints map[string]string `json:"fingerprints"`
}

// RunSessions executes the defect-churn session soak and returns its
// report. Violations are collected, not fatal, so one broken invariant
// doesn't mask others.
func RunSessions(cfg SessionConfig) (*SessionReport, error) {
	if cfg.Cycles <= 0 || cfg.EditsPerCycle <= 0 || cfg.JournalDir == "" {
		return nil, fmt.Errorf("chaos: session config needs Cycles > 0, EditsPerCycle > 0 and a JournalDir")
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &SessionReport{}
	st := &sessionState{circ: hilight.QFT(6)}
	// The soak reuses the crash harness's daemon lifecycle; the session
	// traffic is all sync, so the watchdog window just needs headroom.
	bootCfg := &Config{JournalDir: cfg.JournalDir, WatchdogWindow: time.Second}

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		start := time.Now()
		l, err := boot(bootCfg)
		if err != nil {
			return rep, err
		}
		rep.Cycles++
		crashedIn := cycle > 0 && st.acked

		if st.headFP == "" {
			// Life 0 opens the session with a cold compile.
			if !sessionCold(l, st, rep, cycle) {
				l.stop()
				return rep, fmt.Errorf("chaos: session soak could not open (cycle %d): %v", cycle, rep.Violations)
			}
		}

		feeds := cfg.FeedsPerCycle
		for e := 0; e < cfg.EditsPerCycle; e++ {
			first := e == 0
			if sessionEdit(l, rng, st, rep, cycle) && first && crashedIn {
				// The parent only existed in the journal when this life
				// booted; continuing the session proves the replay.
				rep.Resurrections++
			}
			if feeds > 0 && (e == cfg.EditsPerCycle-1 || rng.Intn(2) == 0) {
				sessionFeed(l, rng, st, rep, cycle)
				feeds--
			}
		}

		if cycle < cfg.Cycles-1 && rng.Float64() < cfg.KillProb {
			l.crash()
			rep.Crashes++
			logf("cycle %d: crash, session head %s [%s]", cycle, clipFP(st.headFP), time.Since(start).Round(time.Millisecond))
		} else {
			if err := l.stop(); err != nil {
				rep.violatef("cycle %d: graceful stop failed: %v", cycle, err)
			}
			rep.Graceful++
			logf("cycle %d: graceful stop, session head %s [%s]", cycle, clipFP(st.headFP), time.Since(start).Round(time.Millisecond))
		}
	}
	logf("session soak done: %d cycles (%d crashes), %d edits (%d warm, %d cold), %d feeds (%d recompiles), %d resurrections, %d violations",
		rep.Cycles, rep.Crashes, rep.Edits, rep.Warm, rep.ColdFallbacks, rep.Feeds, rep.FeedRecompiles, rep.Resurrections, len(rep.Violations))
	return rep, nil
}

// compileBody builds the compile request for the session's current
// circuit and defect map.
func compileBody(st *sessionState) map[string]any {
	body := map[string]any{"qasm": hilight.FormatQASM(st.circ)}
	if !st.defects.Empty() {
		body["defects"] = st.defects
	}
	return body
}

// sessionCold opens the session: a plain compile of the base circuit.
func sessionCold(l *life, st *sessionState, rep *SessionReport, cycle int) bool {
	resp, body, err := l.post("/v1/compile", compileBody(st))
	if err != nil || resp.StatusCode != http.StatusOK {
		rep.violatef("cycle %d: session open: %v %d %s", cycle, err, statusOf(resp), body)
		return false
	}
	var sr sessionResp
	if err := json.Unmarshal(body, &sr); err != nil {
		rep.violatef("cycle %d: session open: bad body %s", cycle, body)
		return false
	}
	st.headFP = sr.Fingerprint
	st.acked = false // cold compiles are not journaled; only sessions are
	return checkSchedule(&sr, st, rep, cycle, "open")
}

// sessionEdit appends one random CX and recompiles warm against the
// session head. Returns whether the daemon honored the parent.
func sessionEdit(l *life, rng *rand.Rand, st *sessionState, rep *SessionReport, cycle int) bool {
	n := st.circ.NumQubits
	a := rng.Intn(n)
	b := rng.Intn(n - 1)
	if b >= a {
		b++
	}
	next := st.circ.Clone()
	next.Add2(hilight.CX, a, b)

	bodyMap := map[string]any{"qasm": hilight.FormatQASM(next)}
	if !st.defects.Empty() {
		bodyMap["defects"] = st.defects
	}
	data, _ := json.Marshal(bodyMap)
	req, _ := http.NewRequest("POST", l.base+"/v1/compile", bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("If-Fingerprint-Match", st.headFP)
	resp, err := l.client.Do(req)
	if err != nil {
		rep.violatef("cycle %d: session edit: %v", cycle, err)
		return false
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusPreconditionFailed {
		// The one way this may legally happen is a crash outrunning a
		// never-acked head; an acked head lost to a crash is THE bug
		// this soak exists to catch.
		if st.acked {
			rep.violatef("cycle %d: acked session head %s lost across restart (412)", cycle, clipFP(st.headFP))
		}
		// Recover cold so the soak keeps probing later cycles.
		st.circ = next
		sessionCold(l, st, rep, cycle)
		return false
	}
	if resp.StatusCode != http.StatusOK {
		rep.violatef("cycle %d: session edit: %d %s", cycle, resp.StatusCode, body)
		return false
	}
	var sr sessionResp
	if err := json.Unmarshal(body, &sr); err != nil {
		rep.violatef("cycle %d: session edit: bad body %s", cycle, body)
		return false
	}
	rep.Edits++
	if !sr.Cached {
		if sr.Parent != st.headFP {
			rep.violatef("cycle %d: session parent %q, requested %q", cycle, sr.Parent, st.headFP)
		}
		if sr.WarmCycles > 0 {
			rep.Warm++
		} else {
			rep.ColdFallbacks++
		}
	}
	st.circ = next
	st.headFP = sr.Fingerprint
	st.acked = true // the 200 was fsynced to the journal before the ack
	return checkSchedule(&sr, st, rep, cycle, "edit")
}

// sessionFeed posts a full-replacement defect map — usually one dead
// vertex picked off the latest schedule's braid paths (guaranteed to
// conflict), sometimes a heal-everything empty map — and follows the
// head fingerprint through the daemon's remapping.
func sessionFeed(l *life, rng *rand.Rand, st *sessionState, rep *SessionReport, cycle int) {
	dm := &hilight.DefectMap{}
	if rng.Intn(4) != 0 && st.sched != nil {
		if v, ok := pickRoutedVertex(rng, st.sched); ok {
			dm.Vertices = []int{v}
		}
	}
	resp, body, err := l.post("/v1/defects", map[string]any{"defects": dm})
	if err != nil || resp.StatusCode != http.StatusOK {
		rep.violatef("cycle %d: defect feed: %v %d %s", cycle, err, statusOf(resp), body)
		return
	}
	var fr feedResp
	if err := json.Unmarshal(body, &fr); err != nil {
		rep.violatef("cycle %d: defect feed: bad body %s", cycle, body)
		return
	}
	rep.Feeds++
	rep.FeedRecompiles += fr.Recompiled
	rep.FeedFailures += fr.Failed
	st.defects = dm

	newFP, remapped := fr.Fingerprints[st.headFP]
	if remapped && newFP != "" {
		st.headFP = newFP
		st.acked = true // feed recompiles are journaled like any session
	}
	if remapped && newFP == "" {
		// The daemon evicted the head and reported it could not rebuild
		// it; the loss was announced, so recovering cold is legitimate.
		sessionCold(l, st, rep, cycle)
		return
	}

	// Whether remapped or untouched, the head must now be servable and
	// consistent with the fed map.
	resp, body, err = l.post("/v1/compile", compileBody(st))
	if err != nil || resp.StatusCode != http.StatusOK {
		rep.violatef("cycle %d: post-feed compile: %v %d %s", cycle, err, statusOf(resp), body)
		return
	}
	var sr sessionResp
	if err := json.Unmarshal(body, &sr); err != nil {
		rep.violatef("cycle %d: post-feed compile: bad body %s", cycle, body)
		return
	}
	st.headFP = sr.Fingerprint
	checkSchedule(&sr, st, rep, cycle, "post-feed")
}

// checkSchedule asserts the schedule invariants on a compile response:
// the schedule validates against the circuit the client sent (rebuilt
// through the daemon's own working-circuit transform) on the hardware
// the client last announced, the schedule's shape and reserved tiles
// with the session's current defect map.
func checkSchedule(sr *sessionResp, st *sessionState, rep *SessionReport, cycle int, what string) bool {
	schd, err := hilight.DecodeScheduleJSON(sr.Schedule)
	if err != nil {
		rep.violatef("cycle %d: %s schedule undecodable: %v", cycle, what, err)
		return false
	}
	schd.Grid = schd.Grid.Healed()
	if err = schd.Grid.ApplyDefects(st.defects); err == nil {
		err = schd.Validate(session.WorkingCircuit(st.circ, true))
	}
	if err != nil {
		rep.violatef("cycle %d: %s schedule invalid for %s: %v", cycle, what, clipFP(sr.Fingerprint), err)
		return false
	}
	st.sched = schd
	return true
}

// pickRoutedVertex returns a random vertex some braid path actually
// visits, so the next feed is guaranteed to conflict with the cache.
func pickRoutedVertex(rng *rand.Rand, s *hilight.Schedule) (int, bool) {
	var all []int
	for _, layer := range s.Layers {
		for _, b := range layer {
			all = append(all, b.Path...)
		}
	}
	if len(all) == 0 {
		return 0, false
	}
	return all[rng.Intn(len(all))], true
}

func clipFP(fp string) string {
	if len(fp) > 18 {
		return fp[:18] + "…"
	}
	return fp
}
