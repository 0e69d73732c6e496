package robustset

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"robustset/internal/core"
	"robustset/internal/protocol"
	"robustset/internal/transport"
)

// statelessAdaptive is the oracle of the adaptive served-state tests: the
// frames the stateless serving side, RunEstimateAlice over pts, sees and
// sends when a puts local through a fetch.
func statelessAdaptive(t *testing.T, a Adaptive, p Params, pts, local []Point) [][]byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	at, bt := transport.Pair()
	defer at.Close()
	defer bt.Close()
	tap := &tapTransport{Transport: at}
	done := make(chan error, 1)
	go func() { done <- protocol.RunEstimateAlice(ctx, tap, p, pts) }()
	if _, err := protocol.RunEstimateBob(ctx, bt, p, local, a.Options); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return tap.frames
}

func sameFrames(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, the stateless session moved %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: frame %d differs: %d bytes (type %q 0x%02x), stateless %d bytes",
				what, i, len(got[i]), got[i][0], got[i][1], len(want[i]))
		}
	}
}

// checkEstimatorCache fails unless every per-level estimator d has cached
// is the marshaled bytes of View.LevelEstimator over d.Snapshot(), and
// returns the cache's estimator size and how many levels it holds.
func checkEstimatorCache(t *testing.T, d *Dataset, what string) (k, cached int) {
	t.Helper()
	d.mu.Lock()
	ests, k := maps.Clone(d.adaptive.estimators), d.adaptive.k
	d.mu.Unlock()
	if ests == nil {
		return 0, 0
	}
	v, err := core.NewView(d.Params(), d.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for level, got := range ests {
		e, err := v.LevelEstimator(level, k)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := e.MarshalBinary()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the cached level %d estimator (k %d) differs from a fresh build over the snapshot", what, level, k)
		}
	}
	return k, len(ests)
}

// noisyCopy returns pts with every coordinate moved by at most ±noise
// (clamped to the universe) and the first k points replaced.
func noisyCopy(rng *rand.Rand, u Universe, pts []Point, noise int64, k int) []Point {
	out := ClonePoints(pts)
	for i, pt := range out {
		for j := range pt {
			if i < k {
				pt[j] = rng.Int64N(u.Delta)
			} else {
				pt[j] = min(max(pt[j]+rng.Int64N(2*noise+1)-noise, 0), u.Delta-1)
			}
		}
	}
	return out
}

// TestAdaptiveServedWireEqualsStateless: an adaptive session against a
// published dataset puts on the wire, frame for frame, what the stateless
// serving side puts there over the dataset's snapshot — the first session,
// whose estimators are built from the Maintainer's cell counts as it asks
// for them, the later ones answered from the cache it left, and both again
// after a request for another estimator size and after a mutation. Over
// the full level range the client pulls several windows; over the clamped
// one, the finest level alone. Every session says served_state=1 and none
// counts as cold, the server's estimate spans name the windows the client
// asked for, and the cache holds exactly the levels asked for, each equal
// to a fresh build over the snapshot.
func TestAdaptiveServedWireEqualsStateless(t *testing.T) {
	u := Universe{Dim: 2, Delta: 1 << 20}
	for _, tc := range []struct {
		params   Params
		requests int
	}{
		{Params{Universe: u, Seed: 17, DiffBudget: 40}, 4},
		{Params{Universe: u, Seed: 18, DiffBudget: 40}.WithLevels(2, 12), 1},
	} {
		rng := rand.New(rand.NewPCG(tc.params.Seed, 5))
		server, _ := ratelessTestSets(rng, 3000, 0)
		server = append(server, server[0].Clone(), server[0].Clone(), server[1].Clone()) // occurrences > 0
		client := noisyCopy(rng, u, server, 3, 12)
		m := NewMetrics()
		tl := NewTraceLog()
		srv := NewServer(WithServerMetrics(m), WithServerTracing(tl))
		d, err := srv.Publish("d", tc.params, server)
		if err != nil {
			t.Fatal(err)
		}
		p := d.Params()
		session := func(what string, a Adaptive) {
			t.Helper()
			res, frames := servedFetch(t, srv, a, client, nil)
			sameFrames(t, what, frames, statelessAdaptive(t, a, p, d.Snapshot(), client))
			if len(res.SPrime) != len(server) || res.Robust == nil {
				t.Fatalf("%s: result of %d points, want %d", what, len(res.SPrime), len(server))
			}
			recent := tl.Recent()
			last := recent[len(recent)-1]
			if got, ok := last.Stat("served_state"); !ok || got != 1 {
				t.Fatalf("%s: served_state = %d (recorded %v), want 1", what, got, ok)
			}
			if got := m.Snapshot()["server_sessions_cold_total"]; got != 0 {
				t.Fatalf("%s: server_sessions_cold_total = %d, want 0", what, got)
			}
			var windows, spans []int64
			for _, f := range frames {
				if f[0] == '<' && f[1] == protocol.MsgEstRequest {
					windows = append(windows, int64(binary.LittleEndian.Uint16(f[8:])))
				}
			}
			for _, sp := range last.Spans {
				if sp.Name == "estimate" && len(sp.Attrs) == 1 && sp.Attrs[0].K == "levels" {
					spans = append(spans, sp.Attrs[0].V)
				}
			}
			if len(windows) != tc.requests || !slices.Equal(spans, windows) {
				t.Fatalf("%s: the client asked for windows of %v levels (want %d requests), the server's estimate spans say %v",
					what, windows, tc.requests, spans)
			}
			k, cached := checkEstimatorCache(t, d, what)
			fetched := 0
			for _, w := range windows {
				fetched += int(w)
			}
			want := a.Options.EstimatorK
			if want == 0 {
				want = 64
			}
			if k != want || cached != fetched {
				t.Fatalf("%s: the cache holds %d levels for k %d; the session fetched %d for k %d", what, cached, k, fetched, want)
			}
			var buf bytes.Buffer
			last.Format(&buf)
			if line := "answered from the dataset's maintained state"; !strings.Contains(buf.String(), line) {
				t.Fatalf("%s: the formatted trace lacks %q:\n%s", what, line, buf.String())
			}
		}
		k64, k32 := Adaptive{}, Adaptive{Options: AdaptiveOptions{EstimatorK: 32}}
		if _, cached := checkEstimatorCache(t, d, "before any session"); cached != 0 {
			t.Fatal("a dataset no adaptive session has asked keeps estimators")
		}
		session("first session", k64)
		session("second session", k64)
		session("another estimator size", k32)
		session("that size again", k32)
		session("the first size, displaced", k64)
		if err := errors.Join(d.AddBatch([]Point{{1, 1}, {1, 1}, server[5].Clone()}), d.RemoveBatch(server[10:20])); err != nil {
			t.Fatal(err)
		}
		if _, cached := checkEstimatorCache(t, d, "after a mutation"); cached != 0 {
			t.Fatal("the estimators outlived a mutation")
		}
		server = d.Snapshot()
		session("after a mutation", k64)
		session("and again", k64)
		srv.Close()
	}
}

// TestAdaptiveServedUnderMutation: a mutation that lands inside a session
// — before its estimator request, or between the estimator reply and the
// level request — is answered with the estimators and table of the version
// the dataset holds when each request is read, so the fetch reconciles to
// the newer multiset: exactly here, where the finest level is affordable,
// through one clean retry when the mutation is more than the capacity
// asked for holds. The mutation drops the cached estimators; no session
// reads the points, and the next one equals the stateless one over the
// new snapshot.
func TestAdaptiveServedUnderMutation(t *testing.T) {
	params := Params{Universe: Universe{Dim: 2, Delta: 1 << 20}, Seed: 19, DiffBudget: 40}
	for _, tc := range []struct {
		name    string
		at      int // the mutation lands before the server reads this request
		removed int
		retries int64
	}{
		{"before the estimator request", 0, 10, 0},
		{"between the estimator reply and the level request", 1, 10, 0},
		{"a mutation the requested capacity does not hold", 1, 140, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(6, 1))
			server, client := ratelessTestSets(rng, 3000, 8)
			m := NewMetrics()
			srv := NewServer(WithServerMetrics(m))
			defer srv.Close()
			d, err := srv.Publish("d", params, server)
			if err != nil {
				t.Fatal(err)
			}
			servedFetch(t, srv, Adaptive{}, client, nil) // leaves the finest level's estimator behind
			if _, cached := checkEstimatorCache(t, d, "the first session"); cached != 1 {
				t.Fatalf("the first session left %d cached estimators, want the finest level's", cached)
			}
			var after []Point
			mutate := func() {
				add := []Point{{1, 1}, {2, 2}, {1, 1}, server[7].Clone()}
				if err := errors.Join(d.AddBatch(add), d.RemoveBatch(server[100:100+tc.removed])); err != nil {
					t.Error(err)
				}
				if _, cached := checkEstimatorCache(t, d, "the mutation"); cached != 0 {
					t.Error("the estimators outlived the mutation")
				}
				after = d.Snapshot()
			}
			var retries int64
			sess, err := NewSession(Adaptive{}, WithSessionTrace(func(st *SessionTrace) { retries, _ = st.Stat("decode_retries") }))
			if err != nil {
				t.Fatal(err)
			}
			res, frames := servedFetchSession(t, srv, sess, client, map[int]func(){tc.at: mutate})
			if after == nil {
				t.Fatal("the session ended before the mutation's turn")
			}
			if retries != tc.retries {
				t.Fatalf("%d decode retries, want %d", retries, tc.retries)
			}
			switch {
			case tc.retries == 0 && !EqualMultisets(res.SPrime, after):
				t.Fatalf("result of %d points is not the multiset held after the mutation (it is the one before: %v)",
					len(res.SPrime), EqualMultisets(res.SPrime, server))
			case len(res.SPrime) != len(after):
				t.Fatalf("result of %d points, the newer version holds %d", len(res.SPrime), len(after))
			}
			if got := m.Snapshot()["server_sessions_cold_total"]; got != 0 {
				t.Fatalf("server_sessions_cold_total = %d: an adaptive session read the points", got)
			}
			// Every level table the session was sent is the newer version's.
			for i, f := range frames {
				if f[0] != '<' || f[1] != protocol.MsgLevelRequest {
					continue
				}
				level, capacity := int(binary.LittleEndian.Uint16(f[2:])), int(binary.LittleEndian.Uint32(f[4:]))
				want, err := core.BuildLevelTable(d.Params(), after, level, capacity)
				if err != nil {
					t.Fatal(err)
				}
				blob, _ := want.MarshalBinary()
				if !bytes.Equal(frames[i+1][2:], blob) {
					t.Fatalf("the level %d table sent is not the one over the multiset after the mutation", level)
				}
			}
			checkEstimatorCache(t, d, "after the session")
			_, next := servedFetch(t, srv, Adaptive{}, client, nil)
			sameFrames(t, "the session after", next, statelessAdaptive(t, Adaptive{}, d.Params(), after, client))
		})
	}
}

// TestAdaptiveEstimatorCacheTracksMultiset is the adaptive served state's
// property test: along a seeded mutation sequence — adds, removes, batches
// with duplicate points, batches that fail whole — with levels asked for
// between the steps, at a mostly steady estimator size, every cached
// per-level estimator equals View.LevelEstimator over Snapshot(); a
// mutation that applies drops the whole cache, one that fails keeps it, a
// level outside the range is refused, and retirement drops the cache.
func TestAdaptiveEstimatorCacheTracksMultiset(t *testing.T) {
	u := Universe{Dim: 2, Delta: 1 << 10}
	for seed := uint64(1); seed <= 3; seed++ {
		params := Params{Universe: u, Seed: 40 + seed, DiffBudget: 8}
		if seed == 2 {
			params = params.WithLevels(3, 7)
		}
		rng := rand.New(rand.NewPCG(seed, 29))
		initial := make([]Point, 0, 60)
		for i := 0; i < 40; i++ {
			pt := Point{rng.Int64N(u.Delta), rng.Int64N(u.Delta)}
			initial = append(initial, pt)
			if i%4 == 0 {
				initial = append(initial, pt.Clone())
			}
		}
		srv := NewServer()
		d, err := srv.Publish("d", params, initial)
		if err != nil {
			t.Fatal(err)
		}
		p := d.Params()
		ask := func() {
			for range 3 {
				k := 64
				if rng.IntN(8) == 0 {
					k = 8
				}
				if _, err := d.levelEstimator(p.MinLevel+rng.IntN(p.MaxLevel-p.MinLevel+1), k); err != nil {
					t.Fatal(err)
				}
			}
		}
		ask()
		root := d.rootPrint()
		rootChurn(t, d, ClonePoints(initial), rng, 200, func(step int, _ []Point) {
			_, cached := checkEstimatorCache(t, d, fmt.Sprintf("seed %d step %d", seed, step))
			if applied := d.rootPrint() != root; applied != (cached == 0) {
				t.Fatalf("seed %d step %d: %d cached estimators after a mutation that applied: %v", seed, step, cached, applied)
			}
			root = d.rootPrint()
			ask()
		})
		for _, level := range []int{p.MinLevel - 1, p.MaxLevel + 1} {
			if _, err := d.levelEstimator(level, 64); !errors.Is(err, core.ErrLevelOutOfRange) {
				t.Fatalf("seed %d: level %d outside [%d,%d]: %v, want core.ErrLevelOutOfRange", seed, level, p.MinLevel, p.MaxLevel, err)
			}
		}
		if err := srv.Unpublish("d"); err != nil {
			t.Fatal(err)
		}
		if d.adaptive.estimators != nil {
			t.Fatalf("seed %d: a retired dataset keeps its estimators", seed)
		}
		if _, err := d.levelEstimator(p.MaxLevel, 64); !errors.Is(err, ErrUnknownDataset) {
			t.Fatalf("seed %d: a retired dataset served an estimator: %v", seed, err)
		}
		srv.Close()
	}
}

// adaptiveAgainst serves d — resolved before whatever the script does to
// it — to a scripted adaptive client and returns the serving side's error.
func adaptiveAgainst(t *testing.T, d *Dataset, p Params, script func(ctx context.Context, bt transport.Transport)) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	at, bt := transport.Pair()
	defer at.Close()
	defer bt.Close()
	done := make(chan error, 1)
	go func() { done <- Adaptive{}.serveDataset(ctx, at, p, d) }()
	script(ctx, bt)
	return <-done
}

// TestAdaptiveServedFullRangeRequest: an estimator request whose window
// is every level is answered, by a dataset as by the stateless serving
// side, with every level's estimator, coarsest first — the same body,
// which protocol.TestEstimateFullRangeGolden pins.
func TestAdaptiveServedFullRangeRequest(t *testing.T) {
	u := Universe{Dim: 2, Delta: 1 << 12}
	for _, params := range []Params{
		{Universe: u, Seed: 5, DiffBudget: 4},
		Params{Universe: u, Seed: 6, DiffBudget: 4}.WithLevels(3, 8),
	} {
		rng := rand.New(rand.NewPCG(params.Seed, 2))
		pts := make([]Point, 200)
		for i := range pts {
			pts[i] = Point{rng.Int64N(u.Delta), rng.Int64N(u.Delta)}
		}
		srv := NewServer()
		d, err := srv.Publish("d", params, pts)
		if err != nil {
			t.Fatal(err)
		}
		p := d.Params()
		fullRange := func(serve func(ctx context.Context, at transport.Transport) error) []byte {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			at, bt := transport.Pair()
			defer at.Close()
			defer bt.Close()
			done := make(chan error, 1)
			go func() { done <- serve(ctx, at) }()
			req := binary.LittleEndian.AppendUint16([]byte{protocol.MsgEstRequest, 64, 0, 0, 0}, uint16(p.MaxLevel))
			if err := bt.Send(ctx, binary.LittleEndian.AppendUint16(req, uint16(p.MaxLevel-p.MinLevel+1))); err != nil {
				t.Fatal(err)
			}
			msg, err := bt.Recv(ctx)
			if err != nil || msg[0] != protocol.MsgEstimators {
				t.Fatalf("full-range request answered with %x, %v", msg, err)
			}
			if err := bt.Send(ctx, []byte{protocol.MsgDone}); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			return append([]byte(nil), msg[1:]...)
		}
		served := fullRange(func(ctx context.Context, at transport.Transport) error {
			return Adaptive{}.serveDataset(ctx, at, p, d)
		})
		stateless := fullRange(func(ctx context.Context, at transport.Transport) error {
			return protocol.RunEstimateAlice(ctx, at, p, d.Snapshot())
		})
		if !bytes.Equal(served, stateless) {
			t.Fatalf("levels [%d,%d]: the dataset's full-range body (%d bytes) differs from the stateless one (%d bytes)",
				p.MinLevel, p.MaxLevel, len(served), len(stateless))
		}
		if _, cached := checkEstimatorCache(t, d, "a full-range request"); cached != p.MaxLevel-p.MinLevel+1 {
			t.Fatalf("levels [%d,%d]: a full-range request left %d levels cached", p.MinLevel, p.MaxLevel, cached)
		}
		srv.Close()
	}
}

// TestAdaptiveRetiredDataset: an adaptive session that resolved the
// dataset just before Unpublish fails with ErrUnknownDataset, relayed to
// the client — at the estimator request when it had not started, at the
// level request when an estimator reply had already gone out. Retirement
// drops the cached estimators.
func TestAdaptiveRetiredDataset(t *testing.T) {
	params := Params{Universe: Universe{Dim: 2, Delta: 1 << 12}, Seed: 5, DiffBudget: 4}
	estRequest := []byte{protocol.MsgEstRequest, 64, 0, 0, 0, 12, 0, 1, 0} // the finest level alone
	levelRequest := []byte{protocol.MsgLevelRequest, 12, 0, 32, 0, 0, 0}
	refused := func(ctx context.Context, bt transport.Transport) {
		msg, err := bt.Recv(ctx)
		if err != nil || msg[0] != protocol.MsgError || !strings.Contains(string(msg[1:]), ErrUnknownDataset.Error()) {
			t.Errorf("client got %q, %v; want ErrUnknownDataset relayed", msg, err)
		}
	}
	for _, started := range []bool{false, true} {
		srv := NewServer()
		d, err := srv.Publish("d", params, []Point{{1, 2}, {3, 4}, {1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		p := d.Params()
		servedFetch(t, srv, Adaptive{}, []Point{{1, 2}}, nil)
		if _, cached := checkEstimatorCache(t, d, "a session"); cached == 0 {
			t.Fatal("no cached estimator after a session")
		}
		err = adaptiveAgainst(t, d, p, func(ctx context.Context, bt transport.Transport) {
			if started {
				// The session starts on the published dataset and is retired
				// under it between its two requests.
				if err := bt.Send(ctx, estRequest); err != nil {
					t.Error(err)
				}
				if msg, err := bt.Recv(ctx); err != nil || msg[0] != protocol.MsgEstimators {
					t.Errorf("estimator reply: %x, %v", msg, err)
				}
			}
			if err := srv.Unpublish("d"); err != nil {
				t.Error(err)
			}
			if d.adaptive.estimators != nil {
				t.Error("retirement kept the cached estimators")
			}
			req := estRequest
			if started {
				req = levelRequest
			}
			if err := bt.Send(ctx, req); err != nil {
				t.Error(err)
			}
			refused(ctx, bt)
		})
		if !errors.Is(err, ErrUnknownDataset) {
			t.Errorf("started=%v: serving a retired dataset: %v, want ErrUnknownDataset", started, err)
		}
		srv.Close()
	}
}

// TestAdaptiveReplyCache: the level-table reply a dataset serves is, byte
// for byte, a fresh Maintainer's table of its snapshot, marshaled — built
// for the first request of a level and capacity, taken from the cache for
// the next, whose session's level_round span says cached=1 — and AddBatch,
// RemoveBatch and Unpublish drop the cache: a retired dataset refuses the
// request. A request above the cache bound is built and served, and
// leaves nothing cached. The marshaled estimators the dataset keeps stay
// a fresh marshal's bytes through the same mutations.
func TestAdaptiveReplyCache(t *testing.T) {
	params := Params{Universe: Universe{Dim: 2, Delta: 1 << 20}, Seed: 23, DiffBudget: 40}
	rng := rand.New(rand.NewPCG(8, 1))
	server, client := ratelessTestSets(rng, 3000, 8)
	tl := NewTraceLog()
	srv := NewServer(WithServerTracing(tl))
	defer srv.Close()
	d, err := srv.Publish("d", params, server)
	if err != nil {
		t.Fatal(err)
	}
	p := d.Params()
	// reply asks for the table the first session asked for and checks it
	// against a fresh build.
	var level, capacity int
	reply := func(what string, wantCached bool) {
		t.Helper()
		m, err := core.NewMaintainer(p, d.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := m.BuildLevelTable(level, capacity)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := tbl.MarshalBinary()
		got, cached, err := d.levelTable(level, capacity)
		if err != nil || cached != wantCached || !bytes.Equal(got, want) {
			t.Fatalf("%s: a reply of %d bytes, cached %v, %v; want a fresh table's %d bytes, cached %v",
				what, len(got), cached, err, len(want), wantCached)
		}
		for _, lvl := range []int{level, p.MaxLevel} {
			for range 2 { // built, then cached
				e, err := m.LevelEstimator(lvl, 1024)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := e.MarshalBinary()
				if got, err := d.levelEstimator(lvl, 1024); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: level %d estimator of %d bytes, %v; want a fresh marshal's %d bytes",
						what, lvl, len(got), err, len(want))
				}
			}
		}
	}
	// session fetches through d and returns its server's level_round
	// span's cached attribute; the first sets the level and capacity reply
	// asks for.
	session := func(what string) int64 {
		t.Helper()
		servedFetch(t, srv, Adaptive{}, client, nil)
		recent := tl.Recent()
		for _, sp := range recent[len(recent)-1].Spans {
			if sp.Name != "level_round" {
				continue
			}
			attrs := make(map[string]int64)
			for _, a := range sp.Attrs {
				attrs[a.K] = a.V
			}
			if capacity == 0 {
				level, capacity = int(attrs["level"]), int(attrs["capacity"])
			}
			return attrs["cached"]
		}
		t.Fatalf("%s: the server's trace has no level_round span", what)
		return 0
	}
	if session("the first session") != 0 || session("the second session") != 1 {
		t.Fatal("the second session's reply was not the first's, cached")
	}
	reply("after two sessions", true)
	if err := d.AddBatch([]Point{{1, 1}, {1, 1}, server[3].Clone()}); err != nil {
		t.Fatal(err)
	}
	reply("after AddBatch", false)
	reply("the same request again", true)
	if err := d.RemoveBatch(server[10:30]); err != nil {
		t.Fatal(err)
	}
	reply("after RemoveBatch", false)
	reply("and again", true)

	big := maxCachedCapacity*p.TableCapacity + 1
	for range 2 {
		if _, cached, err := d.levelTable(level-1, big); err != nil || cached {
			t.Fatalf("a request of capacity %d above the bound: cached %v, %v", big, cached, err)
		}
	}
	d.mu.Lock()
	_, held := d.adaptive.replies[level-1]
	d.mu.Unlock()
	if held {
		t.Fatalf("a request of capacity %d, above the bound %d, left its reply cached", big, maxCachedCapacity*p.TableCapacity)
	}

	if err := srv.Unpublish("d"); err != nil {
		t.Fatal(err)
	}
	if d.adaptive.replies != nil {
		t.Fatal("retirement kept the cached replies")
	}
	if _, _, err := d.levelTable(level, capacity); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("a retired dataset served a level table: %v", err)
	}
}
