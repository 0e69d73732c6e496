package protocol

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"robustset/internal/core"
	"robustset/internal/iblt"
	"robustset/internal/points"
	"robustset/internal/sketch"
	"robustset/internal/trace"
	"robustset/internal/transport"
	"robustset/internal/workload"
)

// spanAttr returns the named attribute of the first span of that name.
func spanAttr(t *testing.T, snap *trace.Snapshot, span, attr string) int64 {
	t.Helper()
	for _, sp := range snap.Spans {
		if sp.Name != span {
			continue
		}
		for _, kv := range sp.Attrs {
			if kv.K == attr {
				return kv.V
			}
		}
	}
	t.Fatalf("trace has no %s.%s", span, attr)
	return 0
}

// estRequestBody encodes a windowed MsgEstRequest body.
func estRequestBody(k, finest, count int) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(k))
	b = binary.LittleEndian.AppendUint16(b, uint16(finest))
	return binary.LittleEndian.AppendUint16(b, uint16(count))
}

// checkPull fails unless the client trace of a pull that chose level
// over levels [lo, hi] says Bob fetched Alice's estimators in doubling
// windows — as few requests as cover the levels the scan read, the last
// window clipped at lo — and built his own of every level the scan read
// and of no level he did not fetch.
func checkPull(t *testing.T, what string, snap *trace.Snapshot, level, lo, hi int) {
	t.Helper()
	built := spanAttr(t, snap, "estimate", "built")
	fetched := spanAttr(t, snap, "estimate", "fetched")
	requests := spanAttr(t, snap, "estimate", "requests")
	wantRequests := int64(bits.Len(uint(hi - level + 1)))
	if built < int64(hi-level+1) || built > fetched || requests != wantRequests || fetched != min(1<<requests-1, int64(hi-lo+1)) {
		t.Fatalf("%s: level %d of [%d,%d]: built %d, fetched %d in %d requests; want at least %d built, %d requests",
			what, level, lo, hi, built, fetched, requests, hi-level+1, wantRequests)
	}
}

// TestEstimateBobLazyChoice: Bob, who fetches Alice's estimators a window
// at a time and builds his own of a window only while it is in flight,
// picks the level, estimate and capacity that core.ChooseLevel picks over
// both sides' fully built estimators — over 240 seeded instances whose
// noise puts the choice anywhere from the finest level to six below it —
// and has fetched and built no level coarser than his choice's window.
func TestEstimateBobLazyChoice(t *testing.T) {
	chosen := map[int]int{}
	for seed := uint64(1); seed <= 240; seed++ {
		inst, err := workload.Generate(workload.Config{
			N: 150, Universe: testU, Outliers: int(seed % 5),
			Noise: workload.NoiseUniform, Scale: float64(seed % 7 * 8), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		params := core.Params{Universe: testU, Seed: seed * 31, DiffBudget: 6}
		opts := EstimateOpts{EstimatorK: 32}
		tr := trace.New("client")
		ctx := trace.NewContext(bg, tr)
		runPair(t,
			func(at transport.Transport) error { return RunEstimateAlice(bg, at, params, inst.Alice) },
			func(bt transport.Transport) error {
				_, err := RunEstimateBob(ctx, bt, params, inst.Bob, opts)
				return err
			})
		alice, err := core.LevelEstimators(params, inst.Alice, opts.EstimatorK)
		if err != nil {
			t.Fatal(err)
		}
		bob, err := core.LevelEstimators(params, inst.Bob, opts.EstimatorK)
		if err != nil {
			t.Fatal(err)
		}
		level, est, err := core.ChooseLevel(params, alice, bob, opts.filled(params).Budget)
		if err != nil {
			t.Fatal(err)
		}
		snap := tr.Snapshot()
		got := [3]int64{spanAttr(t, snap, "estimate", "level"), spanAttr(t, snap, "estimate", "est"), spanAttr(t, snap, "level_round", "capacity")}
		want := [3]int64{int64(level), int64(est), int64(int(est*1.5) + 16)}
		if got != want {
			t.Fatalf("seed %d: lazy Bob chose (level, estimate, capacity) %v, ChooseLevel over full slices %v", seed, got, want)
		}
		checkPull(t, fmt.Sprintf("seed %d", seed), snap, level, 0, testU.Levels())
		chosen[testU.Levels()-level]++
	}
	if len(chosen) < 4 {
		t.Errorf("the instances chose only %v levels below the finest; the test wants a spread", chosen)
	}
}

// TestEstimatePullEqualsPushAll is the pull's equivalence test: over 240
// seeds — estimator sizes 8, 64 and 1024; budgets from 1 key to far above
// any difference; the full level range, clamped ranges and single-level
// ones; equal sets; and a lopsided Alice whose difference no level's
// budget affords, so that the coarsest is chosen — Bob pulling Alice's
// estimators a window at a time picks the (level, estimate) that
// core.ChooseLevel picks over every estimator of both sides, and his
// Result is the one of the push-all exchange (pushAllBob).
func TestEstimatePullEqualsPushAll(t *testing.T) {
	ks := []int{8, 64, 1024}
	budgets := []int{0, 1, 12, 200, 5000}
	seen := map[string]int{}
	for seed := uint64(1); seed <= 240; seed++ {
		k, budget := ks[seed%3], budgets[seed/3%5]
		params := core.Params{Universe: testU, Seed: seed * 17, DiffBudget: 6}
		rangeKind := "full range"
		switch seed % 4 {
		case 1:
			lo := int(seed % 5)
			params, rangeKind = params.WithLevels(lo, lo+4+int(seed%3)), "clamped range"
		case 2:
			l := int(seed % uint64(testU.Levels()+1))
			params, rangeKind = params.WithLevels(l, l), "single level"
		}
		inst, err := workload.Generate(workload.Config{
			N: 60 + int(seed%5)*40, Universe: testU, Outliers: int(seed % 4),
			Noise: workload.NoiseUniform, Scale: float64(seed % 6 * 3), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		alice, bob := inst.Alice, inst.Bob
		switch seed % 7 {
		case 0:
			bob = points.Clone(alice)
			seen["equal sets"]++
		case 1:
			alice = alice[:len(alice)/3]
		}
		opts := EstimateOpts{EstimatorK: k, Budget: budget}
		serve := func(at transport.Transport) error { return RunEstimateAlice(bg, at, params, alice) }
		tr := trace.New("client")
		var pulled, ref *core.Result
		var level int
		var est float64
		runPair(t, serve, func(bt transport.Transport) (err error) {
			pulled, err = RunEstimateBob(trace.NewContext(bg, tr), bt, params, bob, opts)
			return err
		})
		runPair(t, serve, func(bt transport.Transport) (err error) {
			ref, level, est, err = pushAllBob(bg, bt, params, bob, opts)
			return err
		})
		what := fmt.Sprintf("seed %d (k %d, budget %d, %s)", seed, k, budget, rangeKind)
		snap := tr.Snapshot()
		if got := [2]int64{spanAttr(t, snap, "estimate", "level"), spanAttr(t, snap, "estimate", "est")}; got != [2]int64{int64(level), int64(est)} {
			t.Fatalf("%s: the pull chose (level, estimate) %v, ChooseLevel over every estimator (%d, %v)", what, got, level, est)
		}
		if !reflect.DeepEqual(pulled, ref) {
			t.Fatalf("%s: the pull's result (level %d, %d points) differs from the push-all exchange's (level %d, %d points)",
				what, pulled.Level, len(pulled.SPrime), ref.Level, len(ref.SPrime))
		}
		p, err := params.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		checkPull(t, what, snap, level, p.MinLevel, p.MaxLevel)
		step := float64(len(alice)+len(bob)) / float64(k)
		if limit := max(float64(opts.filled(params).Budget), step); level == p.MinLevel && est > limit {
			seen["no affordable level"]++
		}
		if spanAttr(t, snap, "estimate", "requests") > 1 {
			seen["several windows"]++
		}
		seen[rangeKind]++
		seen[fmt.Sprintf("k %d", k)]++
	}
	for _, want := range []string{"equal sets", "no affordable level", "several windows", "full range", "clamped range", "single level", "k 8", "k 64", "k 1024"} {
		if seen[want] == 0 {
			t.Errorf("no seed covered %q: %v", want, seen)
		}
	}
}

// TestEstimateBobWarmBuildsFinestOnly: when Bob's finest level is
// affordable — here the two sets are equal — he asks for Alice's finest
// estimator alone, builds his own of that level and no other, and sends
// one estimator request, every time.
func TestEstimateBobWarmBuildsFinestOnly(t *testing.T) {
	inst := testInstance(t, 2000, 0)
	params := core.Params{Universe: testU, Seed: 9, DiffBudget: 4}
	for i := 0; i < 5; i++ {
		tr := trace.New("client")
		ctx := trace.NewContext(bg, tr)
		runPair(t,
			func(at transport.Transport) error { return RunEstimateAlice(bg, at, params, inst.Alice) },
			func(bt transport.Transport) error {
				res, err := RunEstimateBob(ctx, bt, params, inst.Alice, EstimateOpts{})
				if err == nil && res.Level != testU.Levels() {
					t.Errorf("equal sets reconciled at level %d, want the finest", res.Level)
				}
				return err
			})
		snap := tr.Snapshot()
		for _, attr := range []string{"built", "fetched", "requests"} {
			if got := spanAttr(t, snap, "estimate", attr); got != 1 {
				t.Fatalf("session %d: %s=%d with an affordable finest level, want 1", i, attr, got)
			}
		}
	}
}

// TestEstimateFullRangeGolden pins the answer to an estimator request
// whose window is every level: every level's estimator, coarsest first,
// byte for byte the MsgEstimators body the 4-byte request that predated
// windows was sent — held here by the body's length and SHA-256 for two
// level ranges and two estimator sizes, and against core.LevelEstimators.
func TestEstimateFullRangeGolden(t *testing.T) {
	inst := testInstance(t, 300, 5)
	for _, tc := range []struct {
		params core.Params
		k      int
		size   int
		digest string
	}{
		{core.Params{Universe: testU, Seed: 1, DiffBudget: 2}, 8, 1252, "1c0611edee7374a72a06fa2cef35a7453309c83725c4b09da354d95a715d06da"},
		{core.Params{Universe: testU, Seed: 1, DiffBudget: 2}, 64, 7076, "f512295259fbc899521450714fee73e8dfed029b90c9895c95f3bf8cdd3f2aae"},
		{core.Params{Universe: testU, Seed: 2, DiffBudget: 4}.WithLevels(3, 8), 8, 580, "d7cfcf243d7fdc20920c4ea20bd25b2805b7a9e0c30378001f4017544c3e7fb8"},
		{core.Params{Universe: testU, Seed: 2, DiffBudget: 4}.WithLevels(3, 8), 64, 3268, "3df63171cb920bf92a0398eb9c8365cc7020138c5c4e1c86901fc886ce97a847"},
	} {
		var body []byte
		err := driveAlice(t,
			func(tr transport.Transport) error { return RunEstimateAlice(bg, tr, tc.params, inst.Alice) },
			func(tr transport.Transport) {
				p, err := tc.params.Normalized()
				if err != nil {
					t.Error(err)
				}
				send(bg, tr, MsgEstRequest, estRequestBody(tc.k, p.MaxLevel, p.MaxLevel-p.MinLevel+1))
				b, err := recvExpect(bg, tr, MsgEstimators)
				if err != nil {
					t.Error(err)
				}
				body = append([]byte(nil), b...)
				send(bg, tr, MsgDone, nil)
			})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(body)
		if len(body) != tc.size || hex.EncodeToString(sum[:]) != tc.digest {
			t.Fatalf("seed %d k %d: full-range body of %d bytes, sha256 %x; want %d bytes, %s",
				tc.params.Seed, tc.k, len(body), sum, tc.size, tc.digest)
		}
		ests, err := core.LevelEstimators(tc.params, inst.Alice, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		blobs := make([][]byte, len(ests))
		for i, e := range ests {
			blobs[i], _ = e.MarshalBinary()
		}
		if string(appendBlobList(nil, blobs)) != string(body) {
			t.Fatalf("seed %d k %d: the full-range body is not every level's estimator, coarsest first", tc.params.Seed, tc.k)
		}
	}
}

// TestEstimateBobRejectsLyingEstimators plays an Alice who answers an
// estimator request — the first, or the second once the finest level was
// not affordable — with what Bob did not ask for: no estimators or one
// too many for the window, or in the place of the window's finest level
// an estimator of another size, of another seed, or of a level outside
// the window. Bob ends the session with sketch.ErrIncompatibleSketch,
// never a panic or an index out of range.
func TestEstimateBobRejectsLyingEstimators(t *testing.T) {
	inst := testInstance(t, 200, 3) // noise on every point: the finest level is not affordable
	params := core.Params{Universe: testU, Seed: 1, DiffBudget: 4}
	other := core.Params{Universe: testU, Seed: 2, DiffBudget: 4}
	// est runs on the fake Alice's goroutine: it reports, never stops.
	est := func(p core.Params, level, k int) []byte {
		e, err := core.LevelEstimators(p.WithLevels(level, level), inst.Alice, k)
		if err != nil {
			t.Error(err)
			return nil
		}
		b, _ := e[0].MarshalBinary()
		return b
	}
	honest := func(k, finest, count int) [][]byte {
		var blobs [][]byte
		for l := finest - count + 1; l <= finest; l++ {
			blobs = append(blobs, est(params, l, k))
		}
		return blobs
	}
	replaceFinest := func(blob func(k, finest, count int) []byte) func(k, finest, count int) [][]byte {
		return func(k, finest, count int) [][]byte {
			blobs := honest(k, finest, count)
			blobs[count-1] = blob(k, finest, count)
			return blobs
		}
	}
	for _, lie := range []struct {
		name  string
		reply func(k, finest, count int) [][]byte
		want  error
	}{
		{"no estimators", func(int, int, int) [][]byte { return nil }, sketch.ErrIncompatibleSketch},
		{"one too many", func(k, finest, count int) [][]byte { return append(honest(k, finest, count), est(params, finest, k)) }, sketch.ErrIncompatibleSketch},
		{"another size", replaceFinest(func(k, finest, _ int) []byte { return est(params, finest, 2*k) }), sketch.ErrIncompatibleSketch},
		{"another seed", replaceFinest(func(k, finest, _ int) []byte { return est(other, finest, k) }), sketch.ErrIncompatibleSketch},
		{"a level outside the window", replaceFinest(func(k, finest, count int) []byte { return est(params, finest-count, k) }), sketch.ErrIncompatibleSketch},
	} {
		for _, window := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/request %d", lie.name, window), func(t *testing.T) {
				at, bt := transport.Pair()
				defer bt.Close()
				requests := make(chan int, 1)
				go func() {
					defer at.Close()
					n := 0
					defer func() { requests <- n }()
					for {
						typ, body, err := recv(bg, at)
						if err != nil || typ != MsgEstRequest || len(body) != 8 {
							return
						}
						n++
						k, finest, count := int(binary.LittleEndian.Uint32(body)), int(binary.LittleEndian.Uint16(body[4:])), int(binary.LittleEndian.Uint16(body[6:]))
						reply := honest
						if n == window {
							reply = lie.reply
						}
						if send(bg, at, MsgEstimators, appendBlobList(nil, reply(k, finest, count))) != nil {
							return
						}
					}
				}()
				_, err := RunEstimateBob(bg, bt, params, inst.Bob, EstimateOpts{})
				if !errors.Is(err, lie.want) {
					t.Fatalf("lying Alice: %v, want %v", err, lie.want)
				}
				if n := <-requests; n != window {
					t.Fatalf("Bob sent %d estimator requests; the lie was in reply %d", n, window)
				}
			})
		}
	}
}

// TestEstimateAliceRefusesBadWindows: the serving side refuses, and
// relays the refusal, an estimator request whose body is neither 4 nor 8
// bytes, a window of no levels, a window that reaches past either end of
// the level range, an estimator size outside its bounds, and — after a
// first window it answered — a request for another estimator size, a
// malformed one, or one past the range. The windows inside the range it
// answers with one estimator per level.
func TestEstimateAliceRefusesBadWindows(t *testing.T) {
	inst := testInstance(t, 100, 2)
	params := core.Params{Universe: testU, Seed: 1, DiffBudget: 2}.WithLevels(3, 8)
	alice := func(tr transport.Transport) error { return RunEstimateAlice(bg, tr, params, inst.Alice) }
	for _, tc := range []struct {
		name string
		reqs [][]byte
	}{
		{"empty body", [][]byte{{}}},
		{"four bytes, the form that predated windows", [][]byte{{64, 0, 0, 0}}},
		{"six bytes", [][]byte{{64, 0, 0, 0, 8, 0}}},
		{"nine bytes", [][]byte{append(estRequestBody(64, 8, 1), 0)}},
		{"no levels", [][]byte{estRequestBody(64, 8, 0)}},
		{"past the finest", [][]byte{estRequestBody(64, 9, 1)}},
		{"past the coarsest", [][]byte{estRequestBody(64, 8, 7)}},
		{"far past the coarsest", [][]byte{estRequestBody(64, 8, 1<<16-1)}},
		{"estimator size outside bounds", [][]byte{estRequestBody(4, 8, 1)}},
		{"a later request of another size", [][]byte{estRequestBody(64, 8, 1), estRequestBody(32, 7, 2)}},
		{"a later malformed request", [][]byte{estRequestBody(64, 8, 1), {1, 2, 3}}},
		{"a later window past the coarsest", [][]byte{estRequestBody(64, 8, 1), estRequestBody(64, 7, 6)}},
	} {
		var relayed error
		err := driveAlice(t, alice, func(tr transport.Transport) {
			for i, req := range tc.reqs {
				send(bg, tr, MsgEstRequest, req)
				if i == len(tc.reqs)-1 {
					break
				}
				if _, err := recvExpect(bg, tr, MsgEstimators); err != nil {
					t.Errorf("%s: request %d: %v", tc.name, i, err)
				}
			}
			_, _, relayed = recv(bg, tr)
			send(bg, tr, MsgDone, nil) // ends a session that wrongly went on
		})
		var re *RemoteError
		if err == nil || !errors.As(relayed, &re) || re.Reason != err.Error() {
			t.Errorf("%s: Alice returned %v and Bob got %v; want a refusal, relayed", tc.name, err, relayed)
		}
	}
	err := driveAlice(t, alice, func(tr transport.Transport) {
		for _, w := range [][2]int{{8, 1}, {7, 2}, {5, 3}, {8, 6}, {3, 1}} {
			send(bg, tr, MsgEstRequest, estRequestBody(64, w[0], w[1]))
			body, err := recvExpect(bg, tr, MsgEstimators)
			if err != nil {
				t.Fatal(err)
			}
			if blobs, err := parseBlobList(body); err != nil || len(blobs) != w[1] {
				t.Errorf("window of %d levels from %d: %d estimators, %v", w[1], w[0], len(blobs), err)
			}
		}
		send(bg, tr, MsgDone, nil)
	})
	if err != nil {
		t.Errorf("windows inside [3,8]: %v", err)
	}
}

// TestEstimateAliceRefusesLevelOutsideRange: the stateless serving side
// builds no table for a level its parameters leave out, though the
// universe has it — the answer is core.ErrLevelOutOfRange, relayed.
func TestEstimateAliceRefusesLevelOutsideRange(t *testing.T) {
	inst := testInstance(t, 100, 2)
	params := core.Params{Universe: testU, Seed: 1, DiffBudget: 2}.WithLevels(3, 8)
	for _, level := range []int{0, 2, 9, testU.Levels(), testU.Levels() + 1, 1<<16 - 1} {
		var relayed error
		err := driveAlice(t,
			func(tr transport.Transport) error { return RunEstimateAlice(bg, tr, params, inst.Alice) },
			func(tr transport.Transport) {
				send(bg, tr, MsgEstRequest, estRequestBody(64, 8, 1))
				if _, err := recvExpect(bg, tr, MsgEstimators); err != nil {
					t.Error(err)
					return
				}
				req := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint16(nil, uint16(level)), 32)
				send(bg, tr, MsgLevelRequest, req)
				_, _, relayed = recv(bg, tr)
			})
		if !errors.Is(err, core.ErrLevelOutOfRange) {
			t.Errorf("level %d outside [3,8]: Alice returned %v, want core.ErrLevelOutOfRange", level, err)
		}
		var re *RemoteError
		if !errors.As(relayed, &re) || re.Reason != err.Error() {
			t.Errorf("level %d: Bob got %v, want Alice's refusal relayed", level, relayed)
		}
	}
	// The levels inside the range are all served.
	for level := 3; level <= 8; level++ {
		err := driveAlice(t,
			func(tr transport.Transport) error { return RunEstimateAlice(bg, tr, params, inst.Alice) },
			func(tr transport.Transport) {
				send(bg, tr, MsgEstRequest, estRequestBody(64, 8, 1))
				recvExpect(bg, tr, MsgEstimators)
				req := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint16(nil, uint16(level)), 32)
				send(bg, tr, MsgLevelRequest, req)
				if _, err := recvExpect(bg, tr, MsgLevelTable); err != nil {
					t.Errorf("level %d: %v", level, err)
				}
				send(bg, tr, MsgDone, nil)
			})
		if err != nil {
			t.Errorf("level %d inside [3,8]: %v", level, err)
		}
	}
}

// TestEstimateBobKept: a RobustKept carries Bob's estimators and his table
// of the level that decoded from one estimate-first session to the next
// over the same multiset, over five seeded instances. The next session,
// over the points as they were or permuted, builds no estimator and takes
// the kept table (kept_levels > 0), one over a point moved keys its points
// (kept_levels = 0), and each returns what a session keeping nothing
// returns over the same slice. Kept state planted under the fingerprint
// of a multiset it does not describe fails the session with
// ErrKeptTablesStale.
func TestEstimateBobKept(t *testing.T) {
	for seed := range uint64(5) {
		inst, err := workload.Generate(workload.Config{
			N: 1500, Universe: testU, Outliers: 5, Noise: workload.NoiseUniform, Scale: 2, Seed: 40 + seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		params := core.Params{Universe: testU, Seed: 11 + seed, DiffBudget: 8}
		// session runs Bob over local keeping in k, and returns his result,
		// his trace and his error.
		session := func(k *RobustKept, local []points.Point) (*core.Result, *trace.Snapshot, error) {
			tr := trace.New("client")
			at, bt := transport.Pair()
			defer at.Close()
			defer bt.Close()
			done := make(chan error, 1)
			go func() { done <- RunEstimateAlice(bg, at, params, inst.Alice) }()
			res, err := k.RunEstimateBob(trace.NewContext(bg, tr), bt, params, local, EstimateOpts{})
			if aerr := <-done; aerr != nil {
				t.Fatalf("seed %d: alice: %v", seed, aerr)
			}
			return res, tr.Snapshot(), err
		}
		k := NewRobustKept()
		step := func(what string, local []points.Point, wantKept bool) {
			t.Helper()
			got, snap, err := session(k, local)
			want, _, werr := session(nil, local)
			if err != nil || werr != nil {
				t.Fatalf("seed %d, %s: %v; keeping nothing: %v", seed, what, err, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s: the result (level %d) differs from one keeping nothing (level %d)", seed, what, got.Level, want.Level)
			}
			kept, _ := snap.Stat(trace.StatKeptLevels)
			if built := spanAttr(t, snap, "estimate", "built"); (kept > 0) != wantKept || (wantKept && built != 0) {
				t.Fatalf("seed %d, %s: kept_levels=%d with %d estimators built, want kept %v", seed, what, kept, built, wantKept)
			}
		}
		step("first session", inst.Bob, false)
		step("unchanged", inst.Bob, true)
		shuffled := append([]points.Point(nil), inst.Bob...)
		shuffled[0], shuffled[len(shuffled)-1] = shuffled[len(shuffled)-1], shuffled[0]
		step("permuted", shuffled, true)
		moved := points.Clone(inst.Bob)
		moved[seed][1] ^= 1
		step("one point moved", moved, false)

		// The kept table becomes the one of moved with a point more, of the
		// same level and size; the estimators stay, so the next session
		// asks for that table again.
		view, err := core.NewView(params, append(points.Clone(moved), points.Point{3, 3}))
		if err != nil {
			t.Fatal(err)
		}
		for level, tbl := range k.tables {
			capacity := 1
			for iblt.RecommendedCells(capacity, tbl.Config().HashCount) < tbl.Config().Cells {
				capacity++
			}
			if k.tables[level], err = view.BuildLevelTable(level, capacity); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := session(k, moved); !errors.Is(err, ErrKeptTablesStale) {
			t.Fatalf("seed %d: a session over a kept table of another multiset: %v, want ErrKeptTablesStale", seed, err)
		}
	}
}
