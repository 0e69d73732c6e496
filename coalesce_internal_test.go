package robustset

import (
	"context"
	"math/rand/v2"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// countConn counts a connection's writes and the reads that returned
// bytes.
type countConn struct {
	net.Conn
	writes, reads *atomic.Int64
}

func (c countConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

func (c countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// countListener wraps every accepted connection in a countConn.
type countListener struct {
	net.Listener
	writes, reads *atomic.Int64
}

func (l countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countConn{Conn: c, writes: l.writes, reads: l.reads}, nil
}

// TestCoalesceConvergedFetchWrites counts the conn writes and reads of a
// converged FetchDataset session in steady state. The client writes its
// OPEN, carrying the last session's held CLOSE, and its hello; the
// server writes its accept and its CLOSE together; each side's read
// takes what the other wrote at once. Frame by frame this was 3 client
// writes and 2 server writes.
func TestCoalesceConvergedFetchWrites(t *testing.T) {
	params := Params{Universe: Universe{Dim: 2, Delta: 1 << 16}, Seed: 5, DiffBudget: 8}
	rng := rand.New(rand.NewPCG(5, 6))
	pts := make([]Point, 300)
	for i := range pts {
		pts[i] = Point{rng.Int64N(params.Universe.Delta), rng.Int64N(params.Universe.Delta)}
	}
	srv := NewServer()
	defer srv.Close()
	if _, err := srv.Publish("d", params, pts); err != nil {
		t.Fatal(err)
	}
	mirror := NewServer()
	defer mirror.Close()
	local, err := mirror.Publish("d", params, pts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var srvWrites, srvReads, cliWrites, cliReads atomic.Int64
	go srv.Serve(countListener{Listener: ln, writes: &srvWrites, reads: &srvReads})

	cl, err := newClient(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return countConn{Conn: c, writes: &cliWrites, reads: &cliReads}, nil
	}
	cs, err := cl.Session("d", Rateless{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	fetch := func() {
		t.Helper()
		res, _, err := cs.FetchDataset(ctx, local)
		if err != nil || !res.Unchanged {
			t.Fatalf("converged fetch: %+v, %v", res, err)
		}
	}
	fetch() // dials and negotiates
	const sessions = 32
	cw, cr, sw, sr := cliWrites.Load(), cliReads.Load(), srvWrites.Load(), srvReads.Load()
	for range sessions {
		fetch()
	}
	cw, cr = cliWrites.Load()-cw, cliReads.Load()-cr
	sw, sr = srvWrites.Load()-sw, srvReads.Load()-sr
	t.Logf("%d sessions: client %d writes, %d reads; server %d writes, %d reads", sessions, cw, cr, sw, sr)
	if cw != 2*sessions || sw != sessions {
		t.Fatalf("%d sessions made %d client and %d server writes, want %d and %d",
			sessions, cw, sw, 2*sessions, sessions)
	}
	if cr != sessions {
		t.Fatalf("%d sessions made %d client reads, want one per session", sessions, cr)
	}
}
