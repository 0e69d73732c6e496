package robustset

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand/v2"
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
// serving side puts there over the dataset's snapshot — the cold session
// that finds no estimator body and builds one from a snapshot, the warm
// ones after it that send that body and fill the level table from the
// Maintainer's cell counts, and both again after a mutation and after a
// request for another estimator size. Trace, cold counter and the cache
// itself say which way each was answered; the server reads no points on
// the warm ones.
func TestAdaptiveServedWireEqualsStateless(t *testing.T) {
	u := Universe{Dim: 2, Delta: 1 << 20}
	for _, params := range []Params{
		{Universe: u, Seed: 17, DiffBudget: 40},
		Params{Universe: u, Seed: 18, DiffBudget: 40}.WithLevels(2, 12),
	} {
		rng := rand.New(rand.NewPCG(params.Seed, 5))
		server, _ := ratelessTestSets(rng, 3000, 0)
		server = append(server, server[0].Clone(), server[0].Clone(), server[1].Clone()) // occurrences > 0
		client := noisyCopy(rng, u, server, 3, 12)
		m := NewMetrics()
		tl := NewTraceLog()
		srv := NewServer(WithServerMetrics(m), WithServerTracing(tl))
		d, err := srv.Publish("d", params, server)
		if err != nil {
			t.Fatal(err)
		}
		p := d.Params()
		colds := int64(0)
		session := func(what string, a Adaptive, cold bool) {
			t.Helper()
			res, frames := servedFetch(t, srv, a, client, nil)
			want := statelessAdaptive(t, a, p, d.Snapshot(), client)
			sameFrames(t, what, frames, want)
			if len(res.SPrime) != len(server) || res.Robust == nil {
				t.Fatalf("%s: result of %d points, want %d", what, len(res.SPrime), len(server))
			}
			served := int64(1)
			if cold {
				served, colds = 0, colds+1
			}
			recent := tl.Recent()
			last := recent[len(recent)-1]
			if got, ok := last.Stat("served_state"); !ok || got != served {
				t.Fatalf("%s: served_state = %d (recorded %v), want %d", what, got, ok, served)
			}
			if got := m.Snapshot()["server_sessions_cold_total"]; got != colds {
				t.Fatalf("%s: server_sessions_cold_total = %d, want %d", what, got, colds)
			}
			levels := int64(-1)
			for _, sp := range last.Spans {
				if sp.Name == "estimate" && len(sp.Attrs) == 1 && sp.Attrs[0].K == "levels" {
					levels = sp.Attrs[0].V
				}
			}
			if levels != int64(p.MaxLevel-p.MinLevel+1) {
				t.Fatalf("%s: the server's estimate span says %d levels, want %d", what, levels, p.MaxLevel-p.MinLevel+1)
			}
			var buf bytes.Buffer
			last.Format(&buf)
			line := map[bool]string{true: "cold: rebuilt from a snapshot", false: "answered from the dataset's maintained state"}[cold]
			if !strings.Contains(buf.String(), line) {
				t.Fatalf("%s: the formatted trace lacks %q:\n%s", what, line, buf.String())
			}
		}
		k64, k32 := Adaptive{}, Adaptive{Options: AdaptiveOptions{EstimatorK: 32}}
		if d.estBody != nil {
			t.Fatal("a dataset no adaptive session has asked keeps an estimator body")
		}
		session("first session", k64, true)
		session("second session", k64, false)
		session("third session", k64, false)
		session("another estimator size", k32, true)
		session("that size again", k32, false)
		session("the first size, displaced", k64, true)
		if err := errors.Join(d.AddBatch([]Point{{1, 1}, {1, 1}, server[5].Clone()}), d.RemoveBatch(server[10:20])); err != nil {
			t.Fatal(err)
		}
		if d.estBody != nil {
			t.Fatal("the estimator body outlived a mutation")
		}
		server = d.Snapshot()
		session("after a mutation", k64, true)
		session("and warm again", k64, false)
		srv.Close()
	}
}

// TestAdaptiveServedUnderMutation: a mutation that lands inside a warm
// session, between the estimator reply (the cached body, of the version
// before) and the level request, is answered with the table of the
// version after — the cell counts are the dataset's — so the fetch
// reconciles to the newer multiset: exactly here, where the finest level
// is affordable, through one clean retry when the mutation is more than
// the capacity asked for holds. The body it was sent is gone with the
// mutation; the next session is cold and equals the stateless one over
// the new snapshot. A mutation before the estimator request just makes
// the session a cold one.
func TestAdaptiveServedUnderMutation(t *testing.T) {
	params := Params{Universe: Universe{Dim: 2, Delta: 1 << 20}, Seed: 19, DiffBudget: 40}
	for _, tc := range []struct {
		name    string
		at      int // the mutation lands before the server reads this request
		removed int
		retries int64
		cold    bool
	}{
		{"before the estimator request", 0, 10, 0, true},
		{"between the estimator reply and the level request", 1, 10, 0, false},
		{"a mutation the requested capacity does not hold", 1, 140, 1, false},
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
			servedFetch(t, srv, Adaptive{}, client, nil) // leaves the estimator body behind
			if d.estBody == nil {
				t.Fatal("the first session left no estimator body")
			}
			var after []Point
			mutate := func() {
				add := []Point{{1, 1}, {2, 2}, {1, 1}, server[7].Clone()}
				if err := errors.Join(d.AddBatch(add), d.RemoveBatch(server[100:100+tc.removed])); err != nil {
					t.Error(err)
				}
				if d.estBody != nil {
					t.Error("the estimator body outlived the mutation")
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
			if got := m.Snapshot()["server_sessions_cold_total"]; got != 1+map[bool]int64{true: 1}[tc.cold] {
				t.Fatalf("server_sessions_cold_total = %d after a session that should have been cold: %v", got, tc.cold)
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
			// Nothing stale is left for the next session.
			if !tc.cold && d.estBody != nil {
				t.Fatal("a warm session published an estimator body")
			}
			_, next := servedFetch(t, srv, Adaptive{}, client, nil)
			sameFrames(t, "the session after", next, statelessAdaptive(t, Adaptive{}, d.Params(), after, client))
		})
	}
}

// TestAdaptiveEstimatorBodyPublication: a body built from a snapshot is
// kept only while the dataset is still that snapshot and still published.
func TestAdaptiveEstimatorBodyPublication(t *testing.T) {
	params := Params{Universe: Universe{Dim: 2, Delta: 1 << 12}, Seed: 5, DiffBudget: 4}
	srv := NewServer()
	defer srv.Close()
	d, err := srv.Publish("d", params, []Point{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	body := []byte("estimators")
	version := d.rootAgg()
	if err := d.Add(Point{5, 6}); err != nil {
		t.Fatal(err)
	}
	if d.publishEstimators(version, 64, body); d.estBody != nil {
		t.Fatal("a body built before a mutation was published after it")
	}
	// The inverse mutation brings the multiset, and so the root, back.
	if err := d.Remove(Point{5, 6}); err != nil {
		t.Fatal(err)
	}
	if d.publishEstimators(version, 64, body); !bytes.Equal(d.estBody, body) || d.estK != 64 {
		t.Fatal("a body of the dataset's own version was not published")
	}
	if err := srv.Unpublish("d"); err != nil {
		t.Fatal(err)
	}
	if d.estBody != nil {
		t.Fatal("retirement kept the estimator body")
	}
	if d.publishEstimators(version, 64, body); d.estBody != nil {
		t.Fatal("a body was published on a retired dataset")
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
	go func() { done <- serveDataset(ctx, at, Adaptive{}, p, d) }()
	script(ctx, bt)
	return <-done
}

// TestAdaptiveRetiredDataset: an adaptive session that resolved the
// dataset just before Unpublish fails with ErrUnknownDataset, relayed to
// the client — at the estimator request when it had not started, at the
// level request when the cached body had already gone out. Retirement
// drops the body.
func TestAdaptiveRetiredDataset(t *testing.T) {
	params := Params{Universe: Universe{Dim: 2, Delta: 1 << 12}, Seed: 5, DiffBudget: 4}
	estRequest := []byte{protocol.MsgEstRequest, 64, 0, 0, 0}
	levelRequest := []byte{protocol.MsgLevelRequest, 12, 0, 32, 0, 0, 0}
	refused := func(ctx context.Context, bt transport.Transport) {
		msg, err := bt.Recv(ctx)
		if err != nil || msg[0] != protocol.MsgError || !strings.Contains(string(msg[1:]), ErrUnknownDataset.Error()) {
			t.Errorf("client got %q, %v; want ErrUnknownDataset relayed", msg, err)
		}
	}
	for _, warm := range []bool{false, true} {
		srv := NewServer()
		d, err := srv.Publish("d", params, []Point{{1, 2}, {3, 4}, {1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		p := d.Params()
		if warm {
			servedFetch(t, srv, Adaptive{}, []Point{{1, 2}}, nil)
			if d.estBody == nil {
				t.Fatal("no estimator body after a session")
			}
		}
		err = adaptiveAgainst(t, d, p, func(ctx context.Context, bt transport.Transport) {
			if warm {
				// The session starts on the published dataset and is retired
				// under between its two requests.
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
			if d.estBody != nil {
				t.Error("retirement kept the estimator body")
			}
			req := estRequest
			if warm {
				req = levelRequest
			}
			if err := bt.Send(ctx, req); err != nil {
				t.Error(err)
			}
			refused(ctx, bt)
		})
		if !errors.Is(err, ErrUnknownDataset) {
			t.Errorf("warm=%v: serving a retired dataset: %v, want ErrUnknownDataset", warm, err)
		}
		srv.Close()
	}
}
