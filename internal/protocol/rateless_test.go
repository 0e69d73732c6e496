package protocol

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
			if !points.EqualMultisets(got.SPrime, inst.alice) {
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
			if !points.EqualMultisets(got.SPrime, inst.alice) {
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
			if !points.EqualMultisets(got.SPrime, alice) {
				t.Errorf("got %d points, want %d identical copies", len(got.SPrime), len(alice))
			}
			return nil
		})
}

// TestRatelessUndershootCellsPerKey: when every request sized from the
// head's estimate is forced to a twentieth of what the difference needs,
// the stream still pays only the cells it was short, not rebuilt tables,
// and converges exactly. It decodes at about 1.4 cells a differing key and
// each later round adds at least an eighth of the frontier, so the whole
// stream stays under 2 cells a key.
func TestRatelessUndershootCellsPerKey(t *testing.T) {
	inst, err := exactInstanceForProtocol(t, 2000, 400)
	if err != nil {
		t.Fatal(err)
	}
	const diff = 2 * 400 // each replaced point is a key on either side
	cfg := RatelessConfig{Universe: testU, Seed: 7, InitialFactor: 0.05}
	rec := new(recordingTransport)
	runPair(t,
		func(tr transport.Transport) error { return RunRatelessAlice(bg, tr, cfg, inst.alice) },
		func(tr transport.Transport) error {
			rec.Transport = tr
			got, err := RunRatelessBob(bg, rec, cfg, inst.bob)
			if err == nil && !points.EqualMultisets(got.SPrime, inst.alice) {
				t.Error("rateless result diverged")
			}
			return err
		})
	last := rec.got[len(rec.got)-1]
	var block iblt.CellBlock
	if last[0] != MsgCells || block.UnmarshalBinary(last[1:]) != nil {
		t.Fatal("exchange did not end on a CELLS block")
	}
	streamed := block.Start + block.Len()
	perKey := float64(streamed) / diff
	t.Logf("undershoot ×20: %d cells over %d rounds for %d differing keys (%.2f a key)",
		streamed, len(rec.got)-1, diff, perKey)
	if perKey > 2 {
		t.Errorf("%d cells streamed for %d differing keys: %.2f a key, above 2", streamed, diff, perKey)
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
// corrupt MORE frames, and with the retired doubling path's table request
// (tag 0x09, a u32 capacity), which no protocol answers.
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
		{"iblt request", 0x09, binary.LittleEndian.AppendUint32(nil, 16)},
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

// movedOpening serves before's first prefix cells, then —
// its set having moved — after's stream, as a dataset mutated mid-session
// does.
func movedOpening(t *testing.T, cfg RatelessConfig, before, after []points.Point, prefix int) func() (*RatelessOpening, error) {
	t.Helper()
	return func() (*RatelessOpening, error) {
		st, err := NewRatelessState(cfg, before)
		if err != nil {
			return nil, err
		}
		o := st.Opening()
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
	// Against a 160-key difference the 32-cell head, inside the 64-cell
	// prefix, is saturated; the request after it overflows the prefix.
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
			if !points.EqualMultisets(got.SPrime, after) {
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
	// hostile answers every request, the head's first, with a block of
	// garbage starting at cell 0, of the length the argument chooses — the
	// first one always what was asked, so that there is a frontier to
	// restart from.
	keyLen := cfg.extend().KeyLen
	hostile := func(length func(frontier, n int) int) (sent int64, berr error) {
		at, bt := transport.Pair()
		defer at.Close()
		defer bt.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			frontier, n := 0, headCells
			for {
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
				typ, body, err := recv(bg, at)
				if err != nil || typ != MsgCellsRequest {
					return
				}
				n = int(binary.LittleEndian.Uint32(body))
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

// recordingTransport keeps a copy of every message its endpoint receives.
type recordingTransport struct {
	transport.Transport
	got [][]byte
}

func (r *recordingTransport) Recv(ctx context.Context) ([]byte, error) {
	msg, err := r.Transport.Recv(ctx)
	if err == nil {
		r.got = append(r.got, append([]byte(nil), msg...))
	}
	return msg, err
}

// TestRatelessOpeningGolden pins a cold rateless exchange's opening: the
// CELLS block of the headCells-cell head, which Alice sends before she
// hears any request, held by length and SHA-256 at two seeds. It derives
// from the "rateless/cells" seed and the occurrence-key length, which
// every peer of this wire shares. No STRATA frame crosses, ever: every
// frame Bob receives is CELLS.
func TestRatelessOpeningGolden(t *testing.T) {
	inst, err := exactInstanceForProtocol(t, 300, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		seed     uint64
		headSize int
		head     string
	}{
		{7, 441, "d6315bf5223cc833b24a00ba9acc5f037be21e5ba1f78f79462c62b505601472"},
		{19, 441, "21e0ea3fdb06289ffa23df9c4e2b80e7974c6a3c5e44e8c31dc01b6dba6083f1"},
	} {
		cfg := RatelessConfig{Universe: testU, Seed: tc.seed}
		bob, alice := new(recordingTransport), new(recordingTransport)
		runPair(t,
			func(tr transport.Transport) error {
				alice.Transport = tr
				return RunRatelessAlice(bg, alice, cfg, inst.alice)
			},
			func(tr transport.Transport) error {
				bob.Transport = tr
				got, err := RunRatelessBob(bg, bob, cfg, inst.bob)
				if err == nil && !points.EqualMultisets(got.SPrime, inst.alice) {
					t.Error("rateless sync did not converge to S_A")
				}
				return err
			})
		var cells, requests int
		for _, m := range bob.got {
			if m[0] != MsgCells {
				t.Errorf("seed %d: Bob received frame 0x%02x, want CELLS only", tc.seed, m[0])
			}
			cells++
		}
		for _, m := range alice.got {
			requests += boolInt(m[0] == MsgCellsRequest)
		}
		if requests != cells-1 {
			t.Errorf("seed %d: %d CELLS answered %d requests; the head went unasked", tc.seed, cells, requests)
		}
		var head iblt.CellBlock
		body := bob.got[0][1:]
		if err := head.UnmarshalBinary(body); err != nil || head.Start != 0 || head.Len() != headCells {
			t.Fatalf("seed %d: opening block of cells [%d,%d), %v; want the %d-cell head", tc.seed, head.Start, head.Start+head.Len(), err, headCells)
		}
		sum := sha256.Sum256(body)
		if len(body) != tc.headSize || hex.EncodeToString(sum[:]) != tc.head {
			t.Errorf("seed %d: head of %d bytes, sha256 %x; want %d bytes, %s",
				tc.seed, len(body), sum, tc.headSize, tc.head)
		}
	}
}

// TestRatelessWarmOpeningGolden pins a warm exchange's wire at the seeds
// of TestRatelessOpeningGolden: asked up front for the first 36 cells —
// the request WarmFirst sizes from the instance's 20-key difference —
// Alice opens with a CELLS body of pinned length and SHA-256, sends
// nothing but CELLS (no STRATA frame, ever), and hears no request before
// it. The hello that carries the request ends in its 4-byte
// little-endian word.
func TestRatelessWarmOpeningGolden(t *testing.T) {
	inst, err := exactInstanceForProtocol(t, 300, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		seed      uint64
		cellsSize int
		cells     string
	}{
		{7, 493, "a2290b65dae5c0a22871baa40a30d7e823ad1795d46cba73e658f4d5c6352109"},
		{19, 493, "54903740a1ea046d1747a9d1d7acfdd429fe1100ec134141ef26bb78fbdcbd04"},
	} {
		const first = 36
		warm := RatelessConfig{Universe: testU, Seed: tc.seed, First: first}
		bob, alice := new(recordingTransport), new(recordingTransport)
		runPair(t,
			func(tr transport.Transport) error {
				alice.Transport = tr
				return RunRatelessAlice(bg, alice, warm, inst.alice)
			},
			func(tr transport.Transport) error {
				bob.Transport = tr
				got, err := RunRatelessBob(bg, bob, warm, inst.bob)
				if err == nil && (!points.EqualMultisets(got.SPrime, inst.alice) || got.Diff != 20) {
					t.Errorf("seed %d: warm sync decoded %d keys, converged %v; want 20, true",
						tc.seed, got.Diff, points.EqualMultisets(got.SPrime, inst.alice))
				}
				return err
			})
		body := bob.got[0][1:]
		sum := sha256.Sum256(body)
		if bob.got[0][0] != MsgCells || len(body) != tc.cellsSize || hex.EncodeToString(sum[:]) != tc.cells {
			t.Errorf("seed %d: warm opening frame 0x%02x of %d bytes, sha256 %x; want CELLS of %d bytes, %s",
				tc.seed, bob.got[0][0], len(body), sum, tc.cellsSize, tc.cells)
		}
		var cells, requests int
		for _, m := range bob.got {
			if m[0] != MsgCells {
				t.Errorf("seed %d: Bob received frame 0x%02x, want CELLS only", tc.seed, m[0])
			}
			cells++
		}
		for _, m := range alice.got {
			requests += boolInt(m[0] == MsgCellsRequest)
		}
		if requests != cells-1 {
			t.Errorf("seed %d: %d CELLS answered %d requests; the first rode the hello", tc.seed, cells, requests)
		}
	}
	hello, err := Hello{Strategy: StrategyRateless, Dataset: "d", Config: binary.LittleEndian.AppendUint32(nil, 97)}.encode()
	if err != nil {
		t.Fatal(err)
	}
	if want := "0601000000640400000061000000"; hex.EncodeToString(hello) != want {
		t.Errorf("warm rateless hello %x, want %s", hello, want)
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRatelessWarmFirst pins the warm opening's first request: the hint
// times 1.4 plus 8 cells, truncated as the cold request is, while that is
// at most 512 cells — up to a hint of 360 keys (1.4 × 360 rounds down to
// 503) — and cold (0) above that or for a negative hint.
func TestRatelessWarmFirst(t *testing.T) {
	cfg := RatelessConfig{}
	for hint, want := range map[int]int{0: 8, 1: 9, 64: 97, 360: 511, 361: 0, 1 << 40: 0, -1: 0} {
		if got := cfg.WarmFirst(hint); got != want {
			t.Errorf("WarmFirst(%d) = %d, want %d", hint, got, want)
		}
	}
	if got := (RatelessConfig{InitialFactor: 2}).WarmFirst(64); got != 136 {
		t.Errorf("WarmFirst(64) at factor 2 = %d, want 136", got)
	}
}

// TestRatelessWarmUndershootCellsPerKey is the warm twin of
// TestRatelessUndershootCellsPerKey: a first request a twentieth of what
// the difference needs still streams under 2 cells a differing key.
func TestRatelessWarmUndershootCellsPerKey(t *testing.T) {
	inst, err := exactInstanceForProtocol(t, 2000, 400)
	if err != nil {
		t.Fatal(err)
	}
	const diff = 2 * 400
	cfg := RatelessConfig{Universe: testU, Seed: 7, First: int(0.05*1.4*diff) + minChunkCells}
	rec := new(recordingTransport)
	runPair(t,
		func(tr transport.Transport) error { return RunRatelessAlice(bg, tr, cfg, inst.alice) },
		func(tr transport.Transport) error {
			rec.Transport = tr
			got, err := RunRatelessBob(bg, rec, cfg, inst.bob)
			if err == nil && (!points.EqualMultisets(got.SPrime, inst.alice) || got.Diff != diff) {
				t.Errorf("warm rateless result diverged (%d keys decoded)", got.Diff)
			}
			return err
		})
	last := rec.got[len(rec.got)-1]
	var block iblt.CellBlock
	if last[0] != MsgCells || block.UnmarshalBinary(last[1:]) != nil {
		t.Fatal("exchange did not end on a CELLS block")
	}
	streamed := block.Start + block.Len()
	perKey := float64(streamed) / diff
	t.Logf("warm undershoot ×20: %d cells over %d rounds for %d differing keys (%.2f a key)",
		streamed, len(rec.got), diff, perKey)
	if rec.got[0][0] != MsgCells {
		t.Errorf("warm exchange opened with 0x%02x, want CELLS", rec.got[0][0])
	}
	if perKey > 2 {
		t.Errorf("%d cells streamed for %d differing keys: %.2f a key, above 2", streamed, diff, perKey)
	}
}

// TestRatelessWarmRequestRefused: a warm first request outside the bound
// a MORE is held to is refused, the refusal relayed, before the opening is
// built — the serving side allocates nothing for it.
func TestRatelessWarmRequestRefused(t *testing.T) {
	max := maxChunkFor(RatelessConfig{Universe: testU}.extend().KeyLen)
	for _, first := range []int{max + 1, -1} {
		cfg := RatelessConfig{Universe: testU, Seed: 1, First: first}
		opened := false
		err := driveAlice(t, func(tr transport.Transport) error {
			return RunRatelessServed(bg, tr, cfg, func() (*RatelessOpening, error) {
				opened = true
				return nil, errors.New("opened")
			})
		}, func(tr transport.Transport) {
			var remote *RemoteError
			if _, err := recvExpect(bg, tr, MsgCells); !errors.As(err, &remote) {
				t.Errorf("first %d: fetching side got %v, want the relayed *RemoteError", first, err)
			}
		})
		if err == nil || opened {
			t.Errorf("first %d: serve returned %v after opening=%v; want a refusal before the opening", first, err, opened)
		}
	}
}

// TestTinyDifferenceHugeSetWire pins the corner a range-probing strategy
// once held: a set of 20 000 points with 8 replaced. A warm rateless
// opening, whose first request is sized from the last difference, and a
// cold one, which opens on the 32-cell head, each stay under the 6 003
// bytes range probing moved on this instance (511 and 543 B when pinned).
func TestTinyDifferenceHugeSetWire(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	const rangeProbeBytes = 6003
	u := points.Universe{Dim: 2, Delta: 1 << 20}
	n, d := 20000, 8
	alice := make([]points.Point, n)
	for i := range alice {
		alice[i] = points.Point{int64(i*7919) % u.Delta, int64(i*104729) % u.Delta}
	}
	bob := points.Clone(alice)
	for i := 0; i < d; i++ {
		bob[i*97] = points.Point{int64(1 + i), int64(2 + i)}
	}
	// rateless reconciles bob against alice over a pipe and returns the
	// bytes that crossed it, both ways.
	rateless := func(cfg RatelessConfig) (total int64) {
		t.Helper()
		runPair(t,
			func(tr transport.Transport) error { return RunRatelessAlice(bg, tr, cfg, alice) },
			func(tr transport.Transport) error {
				res, err := RunRatelessBob(bg, tr, cfg, bob)
				if err == nil && !points.EqualMultisets(res.SPrime, alice) {
					t.Error("rateless diverged")
				}
				total = tr.Stats().Total()
				return err
			})
		return total
	}
	cold := RatelessConfig{Universe: u, Seed: 7}
	warm := cold
	warm.First = warm.WarmFirst(2 * d)
	warmBytes, coldBytes := rateless(warm), rateless(cold)
	t.Logf("warm rateless %d B, cold rateless %d B; range probing moved %d B",
		warmBytes, coldBytes, rangeProbeBytes)
	if warmBytes >= rangeProbeBytes {
		t.Errorf("warm rateless moved %d bytes, not under range probing's %d", warmBytes, rangeProbeBytes)
	}
	if coldBytes >= rangeProbeBytes {
		t.Errorf("cold rateless moved %d bytes, not under range probing's %d", coldBytes, rangeProbeBytes)
	}
}
