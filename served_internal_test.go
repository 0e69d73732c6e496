package robustset

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"robustset/internal/iblt"
	"robustset/internal/protocol"
	"robustset/internal/transport"
)

// tapTransport records every message that crosses it, in order, and runs
// beforeRecv[i] ahead of its i-th Recv (counting from 0) — on a serving
// session's transport, that is between two of the peer's requests.
type tapTransport struct {
	transport.Transport
	frames     [][]byte
	recvs      int
	beforeRecv map[int]func()
}

func (tt *tapTransport) Send(ctx context.Context, msg []byte) error {
	tt.frames = append(tt.frames, append([]byte{'>'}, msg...))
	return tt.Transport.Send(ctx, msg)
}

func (tt *tapTransport) Recv(ctx context.Context) ([]byte, error) {
	if fn := tt.beforeRecv[tt.recvs]; fn != nil {
		fn()
	}
	tt.recvs++
	msg, err := tt.Transport.Recv(ctx)
	if err == nil {
		tt.frames = append(tt.frames, append([]byte{'<'}, msg...))
	}
	return msg, err
}

// freshRateless is the oracle of the served-state tests: the first n
// cells that the stateless serving path, RunRatelessAlice over pts, puts
// on the wire, as the head it opens with unasked (no STRATA frame, ever)
// and the block that answers a request for the rest.
func freshRateless(t *testing.T, cfg protocol.RatelessConfig, pts []Point, n int) (head, rest []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	at, bt := transport.Pair()
	defer at.Close()
	defer bt.Close()
	done := make(chan error, 1)
	go func() { done <- protocol.RunRatelessAlice(ctx, at, cfg, pts) }()
	recv := func(want byte) []byte {
		msg, err := bt.Recv(ctx)
		if err != nil || len(msg) == 0 || msg[0] != want {
			t.Fatalf("fresh rateless serve: frame %x, %v; want type 0x%02x", msg, err, want)
		}
		return append([]byte(nil), msg[1:]...)
	}
	head = recv(protocol.MsgCells)
	var blk iblt.CellBlock
	if err := blk.UnmarshalBinary(head); err != nil {
		t.Fatal(err)
	}
	req := binary.LittleEndian.AppendUint32([]byte{protocol.MsgCellsRequest}, uint32(n-blk.Len()))
	if err := bt.Send(ctx, req); err != nil {
		t.Fatal(err)
	}
	rest = recv(protocol.MsgCells)
	if err := bt.Send(ctx, []byte{protocol.MsgDone}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return head, rest
}

// checkRatelessStateFresh fails unless d's maintained rateless state is
// byte for byte what a fresh build over d.Snapshot() sends.
func checkRatelessStateFresh(t *testing.T, d *Dataset, what string) {
	t.Helper()
	cfg := Rateless{}.config(d.Params())
	var built bool
	o, err := d.ratelessOpening(cfg, &built)
	if err != nil || built {
		t.Fatalf("%s: opening: built=%v, %v; the state should exist", what, built, err)
	}
	head, rest := freshRateless(t, cfg, d.Snapshot(), o.Prefix.Len())
	var blk iblt.CellBlock
	if err := blk.UnmarshalBinary(head); err != nil {
		t.Fatal(err)
	}
	for _, part := range []struct {
		cells *iblt.CellBlock
		fresh []byte
	}{{o.Prefix.Slice(0, blk.Len()), head}, {o.Prefix.Slice(blk.Len(), o.Prefix.Len()), rest}} {
		cells, err := part.cells.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cells, part.fresh) {
			t.Fatalf("%s: maintained cells [%d,%d) differ from a fresh stream's", what, part.cells.Start, part.cells.Start+part.cells.Len())
		}
	}
}

// TestRatelessStateTracksMultiset is the served state's property test:
// once a rateless session has built it, after every step of a seeded
// mutation sequence — adds, removes, batches with duplicate points,
// batches that fail whole — the cell prefix equals a fresh
// build over Snapshot(); a dataset that has seen no rateless session
// keeps none, and a retired one drops it.
func TestRatelessStateTracksMultiset(t *testing.T) {
	params := Params{Universe: Universe{Dim: 2, Delta: 1 << 10}, Seed: 41, DiffBudget: 8}
	for seed := uint64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewPCG(seed, 23))
		initial := make([]Point, 0, 60)
		for i := 0; i < 40; i++ {
			pt := Point{rng.Int64N(1 << 10), rng.Int64N(1 << 10)}
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
		current := rootChurn(t, d, append([]Point(nil), initial...), rng, 40, func(int, []Point) {
			if d.exact != nil {
				t.Fatalf("seed %d: a dataset no rateless session has touched keeps rateless state", seed)
			}
		})
		var built bool
		if _, err := d.ratelessOpening(Rateless{}.config(params), &built); err != nil || !built {
			t.Fatalf("seed %d: first opening: built=%v, %v", seed, built, err)
		}
		rootChurn(t, d, current, rng, 200, func(step int, _ []Point) {
			checkRatelessStateFresh(t, d, "after a mutation")
		})
		if err := srv.Unpublish("d"); err != nil {
			t.Fatal(err)
		}
		if d.exact != nil {
			t.Fatalf("seed %d: a retired dataset keeps its rateless state", seed)
		}
		srv.Close()
	}
}

// TestRatelessStateAfterRecovery: a recovered dataset starts without the
// state, the first session builds it from what recovery produced — a
// snapshot plus a replayed log tail, or a crash-cut tail — and it tracks
// the multiset from there like any other.
func TestRatelessStateAfterRecovery(t *testing.T) {
	params := Params{Universe: Universe{Dim: 2, Delta: 1 << 10}, Seed: 43, DiffBudget: 8}
	cfg := Rateless{}.config(params)
	open := func(dir string, pts []Point) (*Server, *Dataset) {
		t.Helper()
		srv := NewServer(WithServerDataDir(dir), WithServerSnapshotEvery(7), WithServerRecoveryVerify())
		d, err := srv.PublishDurable("data", params, pts)
		if err != nil {
			t.Fatal(err)
		}
		return srv, d
	}
	rebuild := func(d *Dataset, what string) {
		t.Helper()
		var built bool
		if _, err := d.ratelessOpening(cfg, &built); err != nil || !built {
			t.Fatalf("%s: opening: built=%v, %v; recovery should leave no state", what, built, err)
		}
		checkRatelessStateFresh(t, d, what)
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewPCG(9, 3))
	initial := make([]Point, 30)
	for i := range initial {
		initial[i] = Point{rng.Int64N(1 << 10), rng.Int64N(1 << 10)}
	}
	srv, d := open(dir, initial)
	rebuild(d, "fresh publish")
	current := rootChurn(t, d, append([]Point(nil), initial...), rng, 60, func(int, []Point) {})
	checkRatelessStateFresh(t, d, "before the restart")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv, d = open(dir, nil)
	rebuild(d, "snapshot + log tail")
	rootChurn(t, d, current, rng, 20, func(int, []Point) { checkRatelessStateFresh(t, d, "recovered, then mutated") })
	// One more record, cut inside: the batch is lost, and the state built
	// after recovery describes the multiset without it.
	before := d.Snapshot()
	if err := d.AddBatch([]Point{{1, 2}, {3, 4}, {1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(srv.datasetDir("data"), "wal.log")
	st, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	srv, d = open(dir, nil)
	defer srv.Close()
	if !EqualMultisets(d.Snapshot(), before) {
		t.Fatal("the crash-cut batch survived")
	}
	rebuild(d, "crash-cut tail")
}

// servedFetch runs one fetch of local against srv's dataset "d" over an
// in-process pair, tapping the serving side's transport: it returns the
// result and the frames the server saw after the handshake.
func servedFetch(t *testing.T, srv *Server, strat Strategy, local []Point, beforeRecv map[int]func()) (*SyncResult, [][]byte) {
	t.Helper()
	sess, err := NewSession(strat)
	if err != nil {
		t.Fatal(err)
	}
	return servedFetchSession(t, srv, sess, local, beforeRecv)
}

// servedFetchSession is servedFetch through a session of the caller's,
// with whatever options it was built with.
func servedFetchSession(t *testing.T, srv *Server, sess *Session, local []Point, beforeRecv map[int]func()) (*SyncResult, [][]byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sess.dataset = "d"
	at, bt := transport.Pair()
	tap := &tapTransport{Transport: bt}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hello, err := protocol.RecvHello(ctx, bt)
		if err != nil {
			t.Error(err)
			return
		}
		tap.beforeRecv = beforeRecv // counts from the first request after the hello
		srv.serveSession(ctx, tap, hello, &net.TCPAddr{})
	}()
	res, err := sess.fetchOver(ctx, at, sess.strategy, nil, local)
	at.Close()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	return res, tap.frames[1:] // drop the accept
}

// ratelessTestSets returns a server multiset of n points and a client
// copy that differs from it in 2·k keys.
func ratelessTestSets(rng *rand.Rand, n, k int) (server, client []Point) {
	server = make([]Point, n)
	for i := range server {
		server[i] = Point{rng.Int64N(1 << 20), rng.Int64N(1 << 20)}
	}
	client = ClonePoints(server)
	for i := 0; i < k; i++ {
		client[i] = Point{rng.Int64N(1 << 20), rng.Int64N(1 << 20)}
	}
	return server, client
}

// TestRatelessServedWireEqualsStateless: a session answered from the
// dataset's state and one answered by RunRatelessAlice over its snapshot
// put identical bytes on the wire, frame for frame — inside the prefix,
// across its end (the cold path continuing the same stream), and past
// it from the first request.
func TestRatelessServedWireEqualsStateless(t *testing.T) {
	params := Params{Universe: Universe{Dim: 2, Delta: 1 << 20}, Seed: 17, DiffBudget: 8}
	for _, tc := range []struct {
		name string
		k    int
		r    Rateless
		cold bool
	}{
		{"inside the prefix", 30, Rateless{}, false},
		{"several rounds inside the prefix", 60, Rateless{InitialFactor: 0.05}, false},
		{"across the end of the prefix", 400, Rateless{InitialFactor: 0.05}, true},
		{"past the prefix at once", 700, Rateless{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			server, client := ratelessTestSets(rand.New(rand.NewPCG(4, uint64(tc.k))), 3000, tc.k)
			m := NewMetrics()
			tl := NewTraceLog()
			srv := NewServer(WithServerMetrics(m), WithServerTracing(tl))
			defer srv.Close()
			d, err := srv.Publish("d", params, server)
			if err != nil {
				t.Fatal(err)
			}
			var built bool
			if _, err := d.ratelessOpening(tc.r.config(params), &built); err != nil || !built {
				t.Fatalf("warm-up opening: built=%v, %v", built, err)
			}
			res, served := servedFetch(t, srv, tc.r, client, nil)
			if !EqualMultisets(res.SPrime, server) {
				t.Fatal("served session did not converge")
			}

			ctx := context.Background()
			at, bt := transport.Pair()
			tap := &tapTransport{Transport: at}
			done := make(chan error, 1)
			go func() { done <- protocol.RunRatelessAlice(ctx, tap, tc.r.config(params), d.Snapshot()) }()
			if _, err := protocol.RunRatelessBob(ctx, bt, tc.r.config(params), client); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if len(served) != len(tap.frames) {
				t.Fatalf("served session moved %d frames, stateless %d", len(served), len(tap.frames))
			}
			for i := range served {
				if !bytes.Equal(served[i], tap.frames[i]) {
					t.Fatalf("frame %d differs: served %d bytes (type %q 0x%02x), stateless %d bytes",
						i, len(served[i]), served[i][0], served[i][1], len(tap.frames[i]))
				}
			}
			// The trace and the counter say which way it was answered.
			want := int64(1)
			if tc.cold {
				want = 0
			}
			recent := tl.Recent()
			if got, ok := recent[len(recent)-1].Stat("served_state"); !ok || got != want {
				t.Fatalf("served_state = %d (recorded %v), want %d", got, ok, want)
			}
			if got := m.Snapshot()["server_sessions_cold_total"]; got != 1-want {
				t.Fatalf("server_sessions_cold_total = %d, want %d", got, 1-want)
			}
		})
	}
}

// TestRatelessServedUnderMutation pins what a mutation that lands inside
// a served session does, at each place it can: the session never fails,
// and its result is a snapshot the server held while it ran — the one
// captured at the opening while the requests stay inside the prefix, the
// one taken at the overflow otherwise, delivered by a restart block when
// cells of the old one had already gone out.
func TestRatelessServedUnderMutation(t *testing.T) {
	params := Params{Universe: Universe{Dim: 2, Delta: 1 << 20}, Seed: 19, DiffBudget: 8}
	slow := Rateless{InitialFactor: 0.05} // several rounds: the first request is far too small
	for _, tc := range []struct {
		name     string
		k        int
		r        Rateless
		at       int  // the mutation lands before the server reads this request
		after    bool // the result is the multiset after the mutation
		restarts int
	}{
		{"between capture and the first request", 30, Rateless{}, 0, false, 0},
		{"between two requests inside the prefix", 60, slow, 1, false, 0},
		{"between the head and the first request, then an overflow", 700, Rateless{}, 0, true, 1},
		{"before an overflow at a non-zero frontier", 400, slow, 1, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(6, uint64(tc.k)))
			server, client := ratelessTestSets(rng, 3000, tc.k)
			srv := NewServer()
			defer srv.Close()
			d, err := srv.Publish("d", params, server)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.ratelessOpening(tc.r.config(params), new(bool)); err != nil {
				t.Fatal(err)
			}
			var held [2][]Point // the server's multiset before and after
			held[0] = d.Snapshot()
			mutate := func() {
				add := []Point{{1, 1}, {2, 2}, {1, 1}, server[7].Clone()}
				if err := d.AddBatch(add); err != nil {
					t.Error(err)
				}
				if err := d.RemoveBatch(server[100:140]); err != nil {
					t.Error(err)
				}
				held[1] = d.Snapshot()
			}
			res, frames := servedFetch(t, srv, tc.r, client, map[int]func(){tc.at: mutate})
			if held[1] == nil {
				t.Fatal("the session ended before the mutation's turn")
			}
			want, other := held[0], held[1]
			if tc.after {
				want, other = other, want
			}
			if !EqualMultisets(res.SPrime, want) {
				t.Fatalf("result of %d points is not the multiset held %s the mutation (it is the other one: %v)",
					len(res.SPrime), map[bool]string{false: "before", true: "after"}[tc.after], EqualMultisets(res.SPrime, other))
			}
			restarts, frontier := 0, 0
			for _, f := range frames {
				if f[0] != '>' || f[1] != protocol.MsgCells {
					continue
				}
				var blk iblt.CellBlock
				if err := blk.UnmarshalBinary(f[2:]); err != nil {
					t.Fatal(err)
				}
				if blk.Start == 0 && frontier > 0 {
					restarts++
				} else if blk.Start != frontier {
					t.Fatalf("block starts at %d, the stream was at %d", blk.Start, frontier)
				}
				frontier = blk.Start + blk.Len()
			}
			if restarts != tc.restarts {
				t.Fatalf("%d restart blocks, want %d", restarts, tc.restarts)
			}
			checkRatelessStateFresh(t, d, "after the session")
		})
	}
}
