package robustset_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"robustset"
)

// jitter returns a copy of pts with every coordinate moved by a seeded
// offset in [−noise, +noise], clamped to the test universe.
func jitter(pts []robustset.Point, noise int64, seed uint64) []robustset.Point {
	next := seed
	out := make([]robustset.Point, len(pts))
	for i, p := range pts {
		q := make(robustset.Point, len(p))
		for j, x := range p {
			next = next*6364136223846793005 + 1442695040888963407
			q[j] = x + int64((next>>33)%uint64(2*noise+1)) - noise
		}
		out[i] = testU.Clamp(q)
	}
	return out
}

// traceLog collects a client's session traces in order.
type traceLog struct {
	mu    sync.Mutex
	snaps []*robustset.SessionTrace
}

func (l *traceLog) sink(st *robustset.SessionTrace) {
	l.mu.Lock()
	l.snaps = append(l.snaps, st)
	l.mu.Unlock()
}

// since returns the traces recorded from index i on.
func (l *traceLog) since(i int) []*robustset.SessionTrace {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*robustset.SessionTrace(nil), l.snaps[i:]...)
}

func (l *traceLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.snaps)
}

// coldRobustFetch fetches dataset d from addr on a Client of its own, so
// the session opens cold.
func coldRobustFetch(t *testing.T, addr string, local []robustset.Point) (*robustset.SyncResult, robustset.TransferStats) {
	t.Helper()
	res, st, err := fetchOnce(t, addr, "d", robustset.Robust{}, local)
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

// sameRobustResult reports whether a warm fetch returned a cold one's
// result: S'_B in the same order, the same diagnostics and parameters,
// but for the per-level outcomes, which begin at the finest level of the
// warm fetch's last window and must be the cold ones from there on.
func sameRobustResult(warm, cold *robustset.SyncResult) bool {
	w, c := *warm.Robust, *cold.Robust
	if n := len(w.Outcomes); n > len(c.Outcomes) || !reflect.DeepEqual(w.Outcomes, c.Outcomes[len(c.Outcomes)-n:]) {
		return false
	}
	w.Outcomes, c.Outcomes = nil, nil
	return reflect.DeepEqual(warm.SPrime, cold.SPrime) && reflect.DeepEqual(w, c) && reflect.DeepEqual(warm.Params, cold.Params)
}

// TestRobustWarmWindow follows one Client's robust fetches of a dataset.
// The first opens cold. The second, warm from the level L the first
// chose, gets the window [L−1, L+1] only: fewer SKETCH bytes, the same
// result as a cold fetch, warm and window stats on both ends, the explain
// line, and a wire table that sums to the transport's count. A diverging
// local set, whose scan must go coarser than the window, misses downward:
// the same Fetch runs again cold, the stats count both sessions, and the
// next fetch opens on the window around the cold result's level. A
// converging set, whose level rises by two or more, misses upward: the
// window's finest level decodes, the same Fetch runs again on the window
// from there through MaxLevel, returns a cold fetch's result field for
// field, counts both sessions, and leaves the new level's window for the
// next fetch. A dataset republished with fewer levels refuses the window
// and the fetch reruns cold; a failed fetch makes the next one cold.
func TestRobustWarmWindow(t *testing.T) {
	alice, bob := deterministicPair(71, 2000, 10, 3)
	params := robustset.Params{Universe: testU, Seed: 73, DiffBudget: 12}
	tl := robustset.NewTraceLog()
	srv := robustset.NewServer(robustset.WithServerTracing(tl), WithTestLogger(t))
	if _, err := srv.Publish("d", params, alice); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv).String()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := robustset.DialClient(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var traces traceLog
	sess, err := cl.Session("d", robustset.Robust{}, robustset.WithSessionTrace(traces.sink))
	if err != nil {
		t.Fatal(err)
	}
	fetch := func(local []robustset.Point) (*robustset.SyncResult, *robustset.SyncResult, robustset.TransferStats, []*robustset.SessionTrace) {
		t.Helper()
		from := traces.len()
		res, st, err := sess.Fetch(ctx, local)
		if err != nil {
			t.Fatal(err)
		}
		cold, _ := coldRobustFetch(t, addr, local)
		if !sameRobustResult(res, cold) {
			t.Fatalf("result (level %d) differs from a cold fetch's (level %d)", res.Robust.Level, cold.Robust.Level)
		}
		return res, cold, st, traces.since(from)
	}
	window := func(snap *robustset.SessionTrace) (lo, hi int64, warm bool) {
		w, _ := snap.Stat("warm")
		lo, ok := snap.Stat("window_lo")
		hi, _ = snap.Stat("window_hi")
		if (w == 1) != ok {
			t.Fatalf("warm=%d with window_lo recorded %v", w, ok)
		}
		return lo, hi, ok
	}
	sketchBytes := func(snap *robustset.SessionTrace) (n int64) {
		for _, f := range snap.Frames {
			if f.Type == "SKETCH" {
				n += f.Bytes
			}
		}
		return n
	}
	sessionBytes := func(snaps []*robustset.SessionTrace) (n int64) {
		for _, s := range snaps {
			n += s.BytesIn + s.BytesOut
		}
		return n
	}

	first, _, _, snaps := fetch(bob)
	if _, _, warm := window(snaps[0]); warm || len(snaps) != 1 {
		t.Fatalf("first fetch: %d sessions, warm %v", len(snaps), warm)
	}
	level, top := first.Robust.Level, first.Params.MaxLevel
	if level < 4 || level+1 >= top {
		t.Fatalf("first fetch chose level %d of [0,%d]; the test needs one in between", level, top)
	}
	coldSketch := sketchBytes(snaps[0])

	_, _, st, snaps := fetch(bob)
	snap := snaps[0]
	if lo, hi, warm := window(snap); !warm || lo != int64(level-1) || hi != int64(level+1) || len(snaps) != 1 {
		t.Fatalf("second fetch: %d sessions, warm %v on [%d,%d]; want one, warm on [%d,%d]", len(snaps), warm, lo, hi, level-1, level+1)
	}
	if got := sketchBytes(snap); got >= coldSketch {
		t.Errorf("warm SKETCH %d B, cold %d B", got, coldSketch)
	}
	t.Logf("level %d of [0,%d]: SKETCH cold %d B, warm %d B", level, top, coldSketch, sketchBytes(snap))
	if _, rows := frameRows(snap); rows != st {
		t.Errorf("warm fetch: frame rows sum to %+v, the transport counted %+v", rows, st)
	}
	var out strings.Builder
	snap.Format(&out)
	line := fmt.Sprintf("warm window: levels [%d,%d] of [0,%d], 3 of %d tables", level-1, level+1, top, top+1)
	if !strings.Contains(out.String(), line) {
		t.Errorf("explain output lacks %q:\n%s", line, out.String())
	}
	// The server files a session's trace after it closes the stream the
	// fetch waits for: wait for the warm session's to land.
	var server *robustset.SessionTrace
	for deadline := time.Now().Add(10 * time.Second); server == nil; runtime.Gosched() {
		for _, tr := range tl.Recent() {
			if _, ok := tr.Stat("window_lo"); ok {
				server = tr
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no server trace of a warm session")
		}
	}
	if lo, hi, _ := window(server); lo != int64(level-1) || hi != int64(level+1) {
		t.Errorf("server trace of the warm session: window [%d,%d], want [%d,%d]", lo, hi, level-1, level+1)
	}

	// A diverging set: noisier local points, whose scan goes coarser than
	// the window.
	noisy := jitter(alice, 200, 79)
	missed, _, st, snaps := fetch(noisy)
	if len(snaps) != 2 {
		t.Fatalf("a fetch past the window ran %d sessions, want the warm one and a cold one", len(snaps))
	}
	if miss, _ := snaps[0].Stat("window_miss"); miss != 1 || snaps[0].Err == "" {
		t.Errorf("the warm session of a miss: window_miss=%d, err %q", miss, snaps[0].Err)
	}
	if _, _, warm := window(snaps[1]); warm {
		t.Error("the rerun after a miss opened warm")
	}
	if st.Total() != sessionBytes(snaps) {
		t.Errorf("a miss's stats count %d B, its two sessions %d B", st.Total(), sessionBytes(snaps))
	}
	low := missed.Robust.Level
	if low >= level-2 || low < 1 {
		t.Fatalf("the noisier set chose level %d; the test needs one in [1,%d)", low, level-2)
	}
	_, _, _, snaps = fetch(noisy)
	if lo, hi, warm := window(snaps[0]); !warm || lo != int64(low-1) || hi != int64(low+1) || len(snaps) != 1 {
		t.Errorf("fetch after a miss: warm %v on [%d,%d], %d sessions; want warm on [%d,%d]", warm, lo, hi, len(snaps), low-1, low+1)
	}

	// A converging set: back to the first local points, whose level is two
	// or more finer than the window's finest.
	rose, cold, st, snaps := fetch(bob)
	if len(snaps) != 2 || rose.Robust.Level != level {
		t.Fatalf("a converging fetch ran %d sessions and chose level %d; want the warm one and its upward rerun, level %d", len(snaps), rose.Robust.Level, level)
	}
	if up, _ := snaps[0].Stat("window_up"); up != 1 || snaps[0].Err == "" {
		t.Errorf("the warm session of an upward miss: window_up=%d, err %q", up, snaps[0].Err)
	}
	if lo, hi, warm := window(snaps[1]); !warm || lo != int64(low+1) || hi != int64(top) {
		t.Errorf("the upward rerun: warm %v on [%d,%d], want the window [%d,%d]", warm, lo, hi, low+1, top)
	}
	if !reflect.DeepEqual(rose.Robust, cold.Robust) {
		t.Errorf("the upward rerun's outcomes %v differ from a cold fetch's %v", rose.Robust.Outcomes, cold.Robust.Outcomes)
	}
	if st.Total() != sessionBytes(snaps) {
		t.Errorf("an upward miss's stats count %d B, its two sessions %d B", st.Total(), sessionBytes(snaps))
	}
	out.Reset()
	snaps[0].Format(&out)
	if line := fmt.Sprintf("window up: a level above %d may decode, the fetch reran on [%d,%d]", low+1, low+1, top); !strings.Contains(out.String(), line) {
		t.Errorf("explain output lacks %q:\n%s", line, out.String())
	}
	_, _, _, snaps = fetch(bob)
	if lo, hi, warm := window(snaps[0]); !warm || lo != int64(level-1) || hi != int64(level+1) || len(snaps) != 1 {
		t.Errorf("fetch after an upward miss: warm %v on [%d,%d], %d sessions; want warm on [%d,%d]", warm, lo, hi, len(snaps), level-1, level+1)
	}

	// A failed fetch forgets the hint.
	if _, _, err := sess.Fetch(ctx, []robustset.Point{{-1, 0}}); err == nil {
		t.Fatal("a fetch of a point outside the universe succeeded")
	}
	if _, _, _, snaps = fetch(bob); len(snaps) != 1 {
		t.Fatalf("fetch after a failed one ran %d sessions", len(snaps))
	} else if _, _, warm := window(snaps[0]); warm {
		t.Error("the fetch after a failed one opened warm")
	}

	// The dataset republished with levels that end inside the window: the
	// server refuses the window, and the fetch reruns cold.
	if err := srv.Unpublish("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Publish("d", params.WithLevels(0, level), alice); err != nil {
		t.Fatal(err)
	}
	refused, _, _, snaps := fetch(bob)
	if len(snaps) != 2 {
		t.Fatalf("a refused window ran %d sessions, want two", len(snaps))
	}
	if miss, _ := snaps[0].Stat("window_miss"); miss != 1 || !strings.Contains(snaps[0].Err, "level out of range") {
		t.Errorf("the refused warm session: window_miss=%d, err %q", miss, snaps[0].Err)
	}
	if refused.Params.MaxLevel != level {
		t.Errorf("the rerun reports levels up to %d, want %d", refused.Params.MaxLevel, level)
	}
}

// TestRobustUnchangedFetchRunsOneSession: a Client fetches an unchanged
// local set three times from an unchanged dataset whose cold scan chose
// level L after a chance 2-core at L+1, a stall on four cells that is not
// an overload. The warm window reaches up to L+2, the first level that
// scan saw overloaded, so neither warm fetch misses upward: each of the
// three fetches runs one session, and the warm ones return the cold
// result.
func TestRobustUnchangedFetchRunsOneSession(t *testing.T) {
	alice, bob := deterministicPair(24, 1000, 8, 3)
	params := robustset.Params{Universe: testU, Seed: 25, DiffBudget: 12}
	srv := robustset.NewServer()
	if _, err := srv.Publish("d", params, alice); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv).String()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := robustset.DialClient(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var traces traceLog
	sess, err := cl.Session("d", robustset.Robust{}, robustset.WithSessionTrace(traces.sink))
	if err != nil {
		t.Fatal(err)
	}
	var level int
	for i := range 3 {
		from := traces.len()
		res, _, err := sess.Fetch(ctx, bob)
		if err != nil {
			t.Fatal(err)
		}
		snaps := traces.since(from)
		if len(snaps) != 1 {
			t.Fatalf("fetch %d ran %d sessions, want one", i, len(snaps))
		}
		lo, warm := snaps[0].Stat("window_lo")
		hi, _ := snaps[0].Stat("window_hi")
		if i == 0 {
			level = res.Robust.Level
			out := res.Robust.Outcomes
			if stall := out[len(out)-2]; warm || stall.Residue != 4 || res.Params.Overloaded(stall) || !res.Params.Overloaded(out[len(out)-3]) {
				t.Fatalf("the cold fetch (warm %v) chose level %d after %+v; the test needs a chance 2-core right above it", warm, level, out)
			}
			continue
		}
		if !warm || lo != int64(level-1) || hi != int64(level+2) {
			t.Errorf("fetch %d: warm %v on [%d,%d], want [%d,%d]", i, warm, lo, hi, level-1, level+2)
		}
		if cold, _ := coldRobustFetch(t, addr, bob); !sameRobustResult(res, cold) {
			t.Errorf("fetch %d: result (level %d) differs from a cold fetch's (level %d)", i, res.Robust.Level, cold.Robust.Level)
		}
	}
}

// TestRobustHintFollowsEachDataset: one Client's hints are per dataset and
// strategy. Robust fetches of two datasets open warm on each one's own
// window, and a rateless fetch of the first leaves its window alone.
func TestRobustHintFollowsEachDataset(t *testing.T) {
	alice, bob := deterministicPair(83, 1500, 8, 3)
	params := robustset.Params{Universe: testU, Seed: 89, DiffBudget: 10}
	srv := robustset.NewServer()
	for _, name := range []string{"a", "b"} {
		if _, err := srv.Publish(name, params, alice); err != nil {
			t.Fatal(err)
		}
	}
	addr := startServer(t, srv).String()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := robustset.DialClient(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var traces traceLog
	session := func(name string, strat robustset.Strategy) *robustset.ClientSession {
		cs, err := cl.Session(name, strat, robustset.WithSessionTrace(traces.sink))
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	a, b, exact := session("a", robustset.Robust{}), session("b", robustset.Robust{}), session("a", robustset.Rateless{})
	warmFrom := func(cs *robustset.ClientSession, local []robustset.Point) (int64, bool, *robustset.SyncResult) {
		t.Helper()
		res, _, err := cs.Fetch(ctx, local)
		if err != nil {
			t.Fatal(err)
		}
		snaps := traces.since(traces.len() - 1)
		lo, ok := snaps[0].Stat("window_lo")
		return lo, ok, res
	}
	_, warmA, resA := warmFrom(a, bob)
	_, warmB, _ := warmFrom(b, jitter(alice, 40, 97))
	if warmA || warmB {
		t.Fatal("a first fetch opened warm")
	}
	if _, _, err := exact.Fetch(ctx, alice); err != nil {
		t.Fatal(err)
	}
	loA, warmA, _ := warmFrom(a, bob)
	loB, warmB, resB := warmFrom(b, jitter(alice, 40, 97))
	if !warmA || !warmB || loA != int64(resA.Robust.Level-1) || loB != int64(resB.Robust.Level-1) {
		t.Errorf("second fetches: a warm %v from %d (level %d), b warm %v from %d (level %d)",
			warmA, loA, resA.Robust.Level, warmB, loB, resB.Robust.Level)
	}
}
