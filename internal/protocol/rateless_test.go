package protocol

import (
	"encoding/binary"
	"errors"
	"testing"

	"robustset/internal/core"
	"robustset/internal/iblt"
	"robustset/internal/points"
	"robustset/internal/transport"
)

func TestRatelessHappyPath(t *testing.T) {
	inst, err := exactInstanceForProtocol(t, 300, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RatelessConfig{Universe: testU, Seed: 7}
	runPair(t,
		func(tr transport.Transport) error { return RunRatelessAlice(bg, tr, cfg, inst.alice) },
		func(tr transport.Transport) error {
			got, err := RunRatelessBob(bg, tr, cfg, inst.bob)
			if err != nil {
				return err
			}
			if !points.EqualMultisets(got, inst.alice) {
				t.Error("rateless sync did not converge to S_A")
			}
			return nil
		})
}

func TestRatelessNoDifference(t *testing.T) {
	inst, err := exactInstanceForProtocol(t, 150, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RatelessConfig{Universe: testU, Seed: 13}
	runPair(t,
		func(tr transport.Transport) error { return RunRatelessAlice(bg, tr, cfg, inst.alice) },
		func(tr transport.Transport) error {
			got, err := RunRatelessBob(bg, tr, cfg, inst.bob)
			if err != nil {
				return err
			}
			if !points.EqualMultisets(got, inst.alice) {
				t.Error("identical sets changed under rateless sync")
			}
			return nil
		})
}

// TestRatelessDuplicateMultiset: occurrence-indexed keys give the rateless
// path the same multiset semantics as the exact path.
func TestRatelessDuplicateMultiset(t *testing.T) {
	base := points.Point{17, 23}
	var bob []points.Point
	for i := 0; i < 3; i++ {
		bob = append(bob, base.Clone())
	}
	alice := points.Clone(bob)
	alice = append(alice, base.Clone(), base.Clone()) // two extra occurrences

	cfg := RatelessConfig{Universe: testU, Seed: 21}
	runPair(t,
		func(tr transport.Transport) error { return RunRatelessAlice(bg, tr, cfg, alice) },
		func(tr transport.Transport) error {
			got, err := RunRatelessBob(bg, tr, cfg, bob)
			if err != nil {
				return err
			}
			if !points.EqualMultisets(got, alice) {
				t.Errorf("got %d points, want %d identical copies", len(got), len(alice))
			}
			return nil
		})
}

// TestRatelessUndershootCheaperThanDoubling is the protocol-level version
// of the tentpole claim: when the capacity seeding is forced far below the
// true difference, the rateless stream pays incremental cells while the
// doubling path pays whole rebuilt tables — strictly more bytes.
func TestRatelessUndershootCheaperThanDoubling(t *testing.T) {
	inst, err := exactInstanceForProtocol(t, 2000, 400)
	if err != nil {
		t.Fatal(err)
	}
	run := func(alice func(transport.Transport) error, bob func(transport.Transport) error) int64 {
		at, bt := transport.Pair()
		defer at.Close()
		defer bt.Close()
		done := make(chan error, 1)
		go func() { done <- alice(at) }()
		if err := bob(bt); err != nil {
			t.Fatalf("bob: %v", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("alice: %v", err)
		}
		return bt.Stats().Total()
	}

	// Both capacity seeds forced to ~1/20 of the true difference.
	rcfg := RatelessConfig{Universe: testU, Seed: 7, InitialFactor: 0.05}
	ratelessBytes := run(
		func(tr transport.Transport) error { return RunRatelessAlice(bg, tr, rcfg, inst.alice) },
		func(tr transport.Transport) error {
			got, err := RunRatelessBob(bg, tr, rcfg, inst.bob)
			if err != nil {
				return err
			}
			if !points.EqualMultisets(got, inst.alice) {
				t.Error("rateless result diverged")
			}
			return nil
		})

	ecfg := ExactConfig{Universe: testU, Seed: 7, Slack: 0.05, MaxRetries: 16}
	doublingBytes := run(
		func(tr transport.Transport) error { return RunExactIBLTAlice(bg, tr, ecfg, inst.alice) },
		func(tr transport.Transport) error {
			got, err := RunExactIBLTBob(bg, tr, ecfg, inst.bob)
			if err != nil {
				return err
			}
			if !points.EqualMultisets(got, inst.alice) {
				t.Error("doubling result diverged")
			}
			return nil
		})

	t.Logf("undershoot ×20: rateless %d B, doubling %d B (ratio %.2f)",
		ratelessBytes, doublingBytes, float64(ratelessBytes)/float64(doublingBytes))
	if ratelessBytes >= doublingBytes {
		t.Errorf("rateless (%d B) not cheaper than doubling retries (%d B) under undershoot",
			ratelessBytes, doublingBytes)
	}
}

// TestRatelessBudgetTrips: a budget too small for the difference must
// surface the typed ErrRatelessBudget instead of streaming forever.
func TestRatelessBudgetTrips(t *testing.T) {
	inst, err := exactInstanceForProtocol(t, 500, 200)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RatelessConfig{Universe: testU, Seed: 3, MaxBytes: 2048}
	at, bt := transport.Pair()
	defer at.Close()
	defer bt.Close()
	done := make(chan error, 1)
	go func() { done <- RunRatelessAlice(bg, at, cfg, inst.alice) }()
	_, berr := RunRatelessBob(bg, bt, cfg, inst.bob)
	if !errors.Is(berr, ErrRatelessBudget) {
		t.Fatalf("want ErrRatelessBudget, got %v", berr)
	}
	if aerr := <-done; aerr != nil {
		t.Fatalf("alice should see a clean MsgDone after the give-up, got %v", aerr)
	}
}

// TestRatelessAliceRejectsMalformedRequests drives the serving loop with
// corrupt MORE frames, and with the doubling path's table request it no
// longer answers.
func TestRatelessAliceRejectsMalformedRequests(t *testing.T) {
	inst, err := exactInstanceForProtocol(t, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RatelessConfig{Universe: testU, Seed: 1}
	alice := func(tr transport.Transport) error { return RunRatelessAlice(bg, tr, cfg, inst.alice) }

	cases := []struct {
		name string
		typ  byte
		body []byte
	}{
		{"short body", MsgCellsRequest, []byte{1, 0}},
		{"zero cells", MsgCellsRequest, binary.LittleEndian.AppendUint32(nil, 0)},
		{"oversized chunk", MsgCellsRequest, binary.LittleEndian.AppendUint32(nil, maxChunkCells+1)},
		{"iblt request", MsgIBLTRequest, binary.LittleEndian.AppendUint32(nil, 16)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := driveAlice(t, alice, func(tr transport.Transport) {
				_ = tr.Send(bg, append([]byte{tc.typ}, tc.body...))
				_, _ = tr.Recv(bg) // the MsgError reply
			})
			if err == nil {
				t.Fatal("malformed cells request accepted")
			}
		})
	}
}

// TestHelloAcceptRoundTrip checks the session handshake: the hello
// arrives as sent, a bare params accept is adopted, and an accept with a
// trailing byte (the retired feature echo) is refused rather than read as
// params plus something ignorable.
func TestHelloAcceptRoundTrip(t *testing.T) {
	params := core.Params{Universe: testU, Seed: 3, DiffBudget: 4}
	hello := Hello{Strategy: StrategyRateless, Dataset: "d"}
	blob, err := params.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		accept []byte
		ok     bool
	}{
		{"bare accept", blob, true},
		{"trailing byte", append(append([]byte(nil), blob...), 1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			at, bt := transport.Pair()
			defer at.Close()
			defer bt.Close()
			done := make(chan error, 1)
			go func() {
				h, err := RecvHello(bg, at)
				if err != nil {
					done <- err
					return
				}
				if h.Strategy != hello.Strategy || h.Dataset != hello.Dataset || len(h.Config) != 0 {
					t.Errorf("server parsed hello %+v", h)
				}
				done <- send(bg, at, MsgAccept, tc.accept)
			}()
			p, err := RunHelloClient(bg, bt, hello)
			if derr := <-done; derr != nil {
				t.Fatal(derr)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("accept with a trailing byte adopted")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if p.Universe != params.Universe {
				t.Errorf("params diverged through the accept: %+v", p)
			}
		})
	}
}

// movedOpening serves before's estimator and first prefix cells, then —
// its set having moved — after's stream, as a dataset mutated mid-session
// does.
func movedOpening(t *testing.T, cfg RatelessConfig, before, after []points.Point, prefix int) func() (*RatelessOpening, error) {
	t.Helper()
	return func() (*RatelessOpening, error) {
		st, err := NewRatelessState(cfg, before)
		if err != nil {
			return nil, err
		}
		o, err := st.Opening()
		if err != nil {
			return nil, err
		}
		o.Prefix = o.Prefix.Slice(0, prefix)
		o.Rest = func() ([][]byte, bool, error) {
			return points.OccurrenceKeys(after, cfg.Universe.Dim), false, nil
		}
		return o, nil
	}
}

// TestRatelessRestart: when the serving side's set moves under a stream
// that then outruns its prefix, one restart block carries the new set from
// cell 0 and Bob ends with the new set, exactly.
func TestRatelessRestart(t *testing.T) {
	inst, err := exactInstanceForProtocol(t, 600, 80)
	if err != nil {
		t.Fatal(err)
	}
	after := append(points.Clone(inst.alice[40:]), points.Point{5, 5}, points.Point{5, 5}, points.Point{6, 7})
	// A first request of 16 cells against a 160-key difference: several
	// rounds inside the 64-cell prefix, then the overflow.
	cfg := RatelessConfig{Universe: testU, Seed: 7, InitialFactor: 0.05}
	runPair(t,
		func(tr transport.Transport) error {
			return RunRatelessServed(bg, tr, cfg, movedOpening(t, cfg, inst.alice, after, 64))
		},
		func(tr transport.Transport) error {
			got, err := RunRatelessBob(bg, tr, cfg, inst.bob)
			if err != nil {
				return err
			}
			if !points.EqualMultisets(got, after) {
				t.Error("Bob did not end with the set the restart block described")
			}
			return nil
		})
}

// TestRatelessBobRefusesBadRestarts: a peer cannot use restart blocks to
// make Bob spin or to shrink his stream. One that answers every request
// with a restart is cut off by the byte budget — every byte of every
// block counts — and a restart block of any length but frontier+request
// is refused outright.
func TestRatelessBobRefusesBadRestarts(t *testing.T) {
	inst, err := exactInstanceForProtocol(t, 300, 40)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RatelessConfig{Universe: testU, Seed: 5, InitialFactor: 0.05, MaxBytes: 64 << 10}
	strata, err := exactStrata(cfg.exact(), points.OccurrenceKeys(inst.alice, testU.Dim))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := strata.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// hostile answers every request with a block of garbage starting at
	// cell 0, of the length the argument chooses — the first one always
	// what was asked, so that there is a frontier to restart from.
	keyLen := cfg.extend().KeyLen
	hostile := func(length func(frontier, n int) int) (sent int64, berr error) {
		at, bt := transport.Pair()
		defer at.Close()
		defer bt.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			if send(bg, at, MsgStrata, blob) != nil {
				return
			}
			frontier := 0
			for {
				typ, body, err := recv(bg, at)
				if err != nil || typ != MsgCellsRequest {
					return
				}
				n := int(binary.LittleEndian.Uint32(body))
				blk := iblt.CellBlock{KeyLen: keyLen}
				m := length(frontier, n)
				blk.Counts, blk.Checks = make([]int64, m), make([]uint64, m)
				blk.KeySums = make([]byte, m*blk.KeyLen)
				for i := range blk.Counts {
					blk.Counts[i] = 3 // never pure, never zero: nothing peels, nothing certifies
				}
				wire, _ := blk.MarshalBinary()
				if send(bg, at, MsgCells, wire) != nil {
					return
				}
				sent += int64(len(wire))
				frontier += n
			}
		}()
		_, berr = RunRatelessBob(bg, bt, cfg, inst.bob)
		at.Close()
		<-done
		return sent, berr
	}
	sent, err := hostile(func(frontier, n int) int { return frontier + n })
	if !errors.Is(err, ErrRatelessBudget) {
		t.Fatalf("a peer that restarts every round: %v, want ErrRatelessBudget", err)
	}
	// Charged, the blocks sum to the budget plus at most the last one (a
	// quarter of it); charged by frontier alone they would sum to four
	// times the budget. The garbage is nine bytes a cell where a request
	// is clipped to the budget at full width, so Bob may also stop short.
	if sent > cfg.MaxBytes*3/2 || sent < cfg.MaxBytes/4 {
		t.Fatalf("Bob took %d bytes of restarts under a budget of %d", sent, cfg.MaxBytes)
	}
	for name, length := range map[string]func(frontier, n int) int{
		"shorter than the frontier": func(frontier, n int) int { return n },
		"stops at the frontier":     func(frontier, n int) int { return max(frontier, n) },
		"longer than asked":         func(frontier, n int) int { return frontier + n + min(frontier, 1) },
	} {
		if _, err := hostile(length); err == nil || errors.Is(err, ErrRatelessBudget) {
			t.Errorf("restart block %s: %v, want a refusal", name, err)
		}
	}
	// As many cells as asked for, of a key length that makes each cost
	// 64 KiB in memory and nine bytes on the wire: refused on the header.
	keyLen = 0xffff
	if _, err := hostile(func(frontier, n int) int { return frontier + n }); !errors.Is(err, iblt.ErrShape) {
		t.Errorf("block of another key length: %v, want iblt.ErrShape", err)
	}
}
