package robustset_test

import (
	"context"
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"robustset"
	"robustset/internal/baseline"
)

// TestSessionAllStrategies drives every built-in strategy through the
// same Serve/Fetch surface on inputs each can handle.
func TestSessionAllStrategies(t *testing.T) {
	alice, bob := deterministicPair(9, 200, 5, 2)
	exactBob := robustset.ClonePoints(alice)
	params := robustset.Params{Universe: testU, Seed: 3, DiffBudget: 5}
	ctx := context.Background()

	for _, strat := range robustset.Strategies() {
		t.Run(strat.Name(), func(t *testing.T) {
			local := bob
			switch strat.(type) {
			case robustset.ExactIBLT, robustset.Rateless, robustset.CPI:
				// Exact protocols get the exact regime.
				local = exactBob
			}
			res, stats, err := baseline.Exchange(ctx, strat, params, alice, local)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.SPrime) == 0 {
				t.Fatal("empty result")
			}
			if stats.Total() == 0 {
				t.Error("no traffic accounted")
			}
			switch strat.(type) {
			case robustset.Robust, robustset.Adaptive:
				if res.Robust == nil {
					t.Error("robust result details missing")
				}
			default:
				if res.Robust != nil {
					t.Error("unexpected robust details on exact strategy")
				}
				if !robustset.EqualMultisets(res.SPrime, alice) {
					t.Error("exact strategy did not reproduce the remote set")
				}
			}
		})
	}
}

// TestSessionFetchCancel asserts that cancelling the context aborts a
// fetch blocked on a silent peer, well within the test's deadline.
func TestSessionFetchCancel(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close() // the "server": accepts but never speaks
	defer c2.Close()
	sess, err := robustset.NewSession(robustset.Robust{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := sess.Fetch(ctx, c2, nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Fetch did not return")
	}
}

// TestSessionServeCancel is the serving-side mirror: an Adaptive serve
// blocks waiting for the estimator request and must abort on cancel.
func TestSessionServeCancel(t *testing.T) {
	alice, _ := deterministicPair(5, 100, 3, 2)
	params := robustset.Params{Universe: testU, Seed: 13, DiffBudget: 3}
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close() // the "client": connects but never speaks
	sess, err := robustset.NewSession(robustset.Adaptive{}, robustset.WithParams(params))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sess.Serve(ctx, c1, alice)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Serve did not return")
	}
}

// TestSessionDeadline asserts a context deadline propagates to the
// connection and expires a stalled round.
func TestSessionDeadline(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	sess, err := robustset.NewSession(robustset.Robust{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, _, err := sess.Fetch(ctx, c2, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
}

// TestSessionOptions exercises the remaining functional options.
func TestSessionOptions(t *testing.T) {
	alice, bob := deterministicPair(21, 150, 4, 2)
	params := robustset.Params{Universe: testU, Seed: 5, DiffBudget: 4}

	var sunk []robustset.TransferStats
	var mu sync.Mutex
	sink := func(st robustset.TransferStats) {
		mu.Lock()
		sunk = append(sunk, st)
		mu.Unlock()
	}
	sess, err := robustset.NewSession(robustset.Robust{},
		robustset.WithParams(params),
		robustset.WithMetric(robustset.L2),
		robustset.WithStatsSink(sink),
	)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go sess.Serve(context.Background(), c1, alice)
	res, _, err := sess.Fetch(context.Background(), c2, bob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.EMD(alice); err != nil {
		t.Fatalf("result EMD under session metric: %v", err)
	}
	mu.Lock()
	n := len(sunk)
	mu.Unlock()
	if n < 1 {
		t.Error("stats sink never invoked")
	}

	// A max message size below the sketch size must refuse the push
	// locally instead of transmitting.
	tiny, err := robustset.NewSession(robustset.Robust{},
		robustset.WithParams(params), robustset.WithMaxMessageSize(64))
	if err != nil {
		t.Fatal(err)
	}
	c3, c4 := net.Pipe()
	defer c3.Close()
	defer c4.Close()
	go func() {
		// Drain whatever arrives so the serve side isn't blocked on pipe
		// backpressure; it must fail before sending anyway.
		buf := make([]byte, 1024)
		for {
			if _, err := c4.Read(buf); err != nil {
				return
			}
		}
	}()
	if _, err := tiny.Serve(context.Background(), c3, alice); err == nil {
		t.Error("oversize message accepted under WithMaxMessageSize")
	}

	// Option validation.
	if _, err := robustset.NewSession(nil); err == nil {
		t.Error("nil strategy accepted")
	}
	if _, err := robustset.NewSession(robustset.Robust{}, robustset.WithMetric(nil)); err == nil {
		t.Error("nil metric accepted")
	}
	if _, err := robustset.NewSession(robustset.Robust{}, robustset.WithMaxMessageSize(-1)); err == nil {
		t.Error("negative max message size accepted")
	}
}

// TestSyncUnsupported asserts non-robust strategies refuse the two-way
// mode with a recognizable error.
func TestSyncUnsupported(t *testing.T) {
	sess, err := robustset.NewSession(robustset.Naive{})
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if _, _, err := sess.Sync(context.Background(), c1, nil); !errors.Is(err, robustset.ErrTwoWayUnsupported) {
		t.Fatalf("want ErrTwoWayUnsupported, got %v", err)
	}
}

// deterministicPair builds Bob's set plus Alice's noisy copy with k fresh
// outliers, seeded so repeated calls agree.
func deterministicPair(seed uint64, n, k int, noise int64) (alice, bob []robustset.Point) {
	next := seed
	rnd := func(m int64) int64 {
		next = next*6364136223846793005 + 1442695040888963407
		v := int64((next >> 33) % uint64(m))
		return v
	}
	bob = make([]robustset.Point, n)
	alice = make([]robustset.Point, n)
	for i := range bob {
		bob[i] = robustset.Point{rnd(testU.Delta), rnd(testU.Delta)}
		if i < k {
			alice[i] = robustset.Point{rnd(testU.Delta), rnd(testU.Delta)}
			continue
		}
		p := robustset.Point{bob[i][0] + rnd(2*noise+1) - noise, bob[i][1] + rnd(2*noise+1) - noise}
		alice[i] = testU.Clamp(p)
	}
	return alice, bob
}

// TestStrategyValidation asserts out-of-range strategy knobs are rejected
// at session construction, before they can desynchronize endpoints.
func TestStrategyValidation(t *testing.T) {
	if _, err := robustset.NewSession(robustset.ExactIBLT{HashCount: 256}); err == nil {
		t.Error("hash count 256 accepted (would truncate to 0 on the wire)")
	}
	if _, err := robustset.NewSession(robustset.ExactIBLT{HashCount: 1}); err == nil {
		t.Error("hash count 1 accepted")
	}
	if _, err := robustset.NewSession(robustset.Rateless{InitialFactor: -1}); err == nil {
		t.Error("negative rateless initial factor accepted")
	}
	if _, err := robustset.NewSession(robustset.Rateless{InitialFactor: math.Inf(1)}); err == nil {
		t.Error("infinite rateless initial factor accepted")
	}
	if _, err := robustset.NewSession(robustset.Rateless{InitialFactor: math.NaN()}); err == nil {
		t.Error("NaN rateless initial factor accepted")
	}
	if _, err := robustset.NewSession(robustset.Rateless{MaxBytes: -1}); err == nil {
		t.Error("negative rateless byte budget accepted")
	}
	if _, err := robustset.NewSession(robustset.Ranged{Branch: 1}); err == nil {
		t.Error("ranged branch 1 accepted")
	}
	if _, err := robustset.NewSession(robustset.Ranged{Branch: 100}); err == nil {
		t.Error("oversized ranged branch accepted")
	}
	if _, err := robustset.NewSession(robustset.Ranged{ItemLimit: 1 << 20}); err == nil {
		t.Error("oversized ranged item limit accepted")
	}
	if _, err := robustset.NewSession(robustset.Ranged{Streams: -1}); err == nil {
		t.Error("negative ranged stream count accepted")
	}
	if _, err := robustset.NewSession(robustset.CPI{Capacity: 1 << 30}); err == nil {
		t.Error("oversized CPI capacity accepted")
	}
	if _, err := robustset.NewSession(robustset.CPI{Capacity: -1}); err == nil {
		t.Error("negative CPI capacity accepted")
	}
	for _, o := range []robustset.AdaptiveOptions{
		{EstimatorK: 4}, {EstimatorK: 1<<16 + 1}, {EstimatorK: -8}, {Budget: -1}, {MaxRetries: -1},
	} {
		if _, err := robustset.NewSession(robustset.Adaptive{Options: o}); err == nil {
			t.Errorf("adaptive options %+v accepted (the server rejects them a round trip later)", o)
		}
	}
	if _, err := robustset.NewSession(robustset.Adaptive{Options: robustset.AdaptiveOptions{EstimatorK: 1 << 16}}); err != nil {
		t.Errorf("adaptive estimator k 65536 rejected: %v", err)
	}
}

// ---------------------------------------------------------------------
// Cross-strategy conformance suite
//
// One table-driven harness runs every Strategy through identical scenario
// matrices and asserts, per scenario and strategy, (a) the reconciliation
// outcome each protocol contracts for — exact equality, robust
// best-effort, or a loud error — and (b) a wire-byte budget derived from
// the strategy's cost model with ~2× slack, so a regression to Θ(n)
// communication (or a silently bloated sketch) fails a test instead of
// shipping. All inputs are seeded and deterministic.

// confExpect is the contracted outcome of one (scenario, strategy) cell.
type confExpect int

const (
	// expExact: fetch succeeds and SPrime equals Alice's multiset.
	expExact confExpect = iota
	// expClose: fetch succeeds (robust best-effort semantics; quality is
	// covered by the EMD tests in internal/core).
	expClose
	// expError: the fetch must fail loudly with a recognizable error.
	expError
)

// confScenario is one input matrix row.
type confScenario struct {
	name       string
	alice, bob []robustset.Point
	params     robustset.Params
	// expect maps strategy name → expectation; strategies not listed use
	// def.
	def    confExpect
	expect map[string]confExpect
	// errLike: for expError cells, a substring the error must carry (or
	// an errors.Is target in errIs).
	errLike string
	errIs   error
	// diffUB bounds the exact-regime symmetric difference |AΔB|, used by
	// the exact-IBLT wire budget.
	diffUB int
}

// confWireBudget returns the wire-byte ceiling for a cell: the
// strategy's cost model with generous slack. The bytes of an IBLT cell
// are overestimated, never underestimated.
func confWireBudget(strat robustset.Strategy, sc confScenario) int64 {
	dim := sc.params.Universe.Dim
	levels := int64(sc.params.Universe.Levels() + 1)
	k := sc.params.DiffBudget
	n := len(sc.alice)
	if len(sc.bob) > n {
		n = len(sc.bob)
	}
	// cellsUB bounds the wire size of an IBLT of that many cells under
	// the cell codec: a cell is a count of at most two bytes, the live
	// key-sum columns — ⌈bits/8⌉ per coordinate below 2Δ and two of the
	// occurrence index — and the checksum; a table adds its header and
	// column mask. A fixed-width cell (24+8·dim bytes) does not fit it:
	// a return to one fails Robust in every large-difference scenario.
	cellsUB := func(cells int64) int64 {
		return cells*(2+2+8+int64(dim)*((levels+7)/8)) + 32 + int64(dim)
	}
	// tableUB bounds an IBLT provisioned for `keys` difference keys
	// (cells ≈ 1.9·keys + rounding, ≤ 2·keys + 60).
	tableUB := func(keys int) int64 { return cellsUB(2*int64(keys) + 60) }
	capacity := 2 * k
	if capacity < 8 {
		capacity = 8
	}
	switch strat.(type) {
	case robustset.Robust:
		return levels*tableUB(capacity) + 2048
	case robustset.Adaptive:
		// Estimators (bottom-64 per level) + a few level tables sized to
		// the padded estimate (≤ 4k budget + one estimator step).
		est := levels * (64*8 + 256)
		step := int64(2*n)/64 + 8
		return est + 4*tableUB(4*k+int(step)) + 2048
	case robustset.ExactIBLT:
		// Strata estimator (fixed size) + exactly-sized tables with
		// retry headroom.
		strata := 16*cellsUB(40) + 2048
		return strata + 2*tableUB(8*sc.diffUB+64) + 2048
	case robustset.Rateless:
		// Strata estimator + the cell stream: ~1.5·diff cells to decode
		// plus at most 50% chunk-growth overshoot — deliberately tighter
		// than ExactIBLT's retry worst case, which is the strategy's
		// whole point.
		strata := 16*cellsUB(40) + 2048
		return strata + tableUB(2*sc.diffUB+64) + 2048
	case robustset.Ranged:
		// Each difference key opens at most one root-to-leaf split chain:
		// per level one probe entry (~3·keyLen) plus one 8-way split
		// reply (8 aggregates and 7 truncated bounds, ≈ 8·(keyLen+12));
		// terminal ranges transfer exact keys, bounded both by per-range
		// item limits and by the whole key population.
		keyLen := int64(8*dim + 4)
		d := int64(sc.diffUB)
		if d < 8 {
			d = 8
		}
		items := 2 * d * 16
		if ub := int64(n) + d; items > ub {
			items = ub
		}
		depth := int64(2)
		for m := int64(n); m > 16; m /= 8 {
			depth++
		}
		return d*depth*(3*keyLen+8*(keyLen+12)) + items*keyLen + 4096
	case robustset.CPI:
		// Sketch Θ(capacity) + payload round-trip Θ(diff).
		return int64(8*(2*k+16)) + int64(sc.diffUB)*int64(16+8*dim) + 2048
	case robustset.Naive:
		return 2*int64(8*dim*n) + 2048
	}
	return 1 << 40
}

// confScenarios builds the deterministic scenario matrix.
func confScenarios(t *testing.T) []confScenario {
	t.Helper()
	pAt := func(x, y int64) robustset.Point { return robustset.Point{x, y} }
	params := func(k int) robustset.Params {
		return robustset.Params{Universe: testU, Seed: 41, DiffBudget: k}
	}

	grid120 := make([]robustset.Point, 120)
	for i := range grid120 {
		grid120[i] = pAt(int64(i%12)*977+31, int64(i/12)*1733+59)
	}

	identical, _ := deterministicPair(101, 150, 0, 0)

	// Duplicate-heavy multisets: 40 distinct points × 3 copies each;
	// Alice holds 5 extra occurrences of existing points — differences
	// that only occurrence-indexed keys can express.
	var dupBob []robustset.Point
	for i := 0; i < 40; i++ {
		base := pAt(int64(i)*571+17, int64(i)*911+5)
		for c := 0; c < 3; c++ {
			dupBob = append(dupBob, base.Clone())
		}
	}
	dupAlice := robustset.ClonePoints(dupBob)
	for i := 0; i < 5; i++ {
		dupAlice = append(dupAlice, dupBob[i*7].Clone())
	}

	disA := make([]robustset.Point, 25)
	disB := make([]robustset.Point, 25)
	for i := range disA {
		disA[i] = pAt(int64(i)*131+7, int64(i)*257+11)
		disB[i] = pAt(int64(i)*131+30011, int64(i)*257+40009)
	}

	noisyA, noisyB := deterministicPair(7, 240, 6, 3)

	// Above capacity: equal sizes, 80 genuine replacements against a
	// budget of 8 — the robust protocols degrade to a coarse level, the
	// exact IBLT retries its way through, CPI must refuse.
	overA, overB := deterministicPair(13, 200, 80, 0)

	scaleA, scaleB := deterministicPair(29, 20000, 8, 2)

	return []confScenario{
		{
			name: "empty-both", alice: nil, bob: nil,
			params: params(4), def: expExact,
		},
		{
			name: "alice-empty", alice: nil, bob: grid120,
			params: params(130), def: expExact, diffUB: 120,
		},
		{
			name: "bob-empty", alice: grid120, bob: nil,
			params: params(130), def: expExact, diffUB: 120,
		},
		{
			name: "identical", alice: identical, bob: robustset.ClonePoints(identical),
			params: params(6), def: expExact, diffUB: 0,
		},
		{
			name: "duplicate-heavy", alice: dupAlice, bob: dupBob,
			params: params(16), def: expExact, diffUB: 5,
		},
		{
			name: "disjoint", alice: disA, bob: disB,
			params: params(60), def: expExact, diffUB: 50,
		},
		{
			name: "noisy-at-capacity", alice: noisyA, bob: noisyB,
			params: params(6), def: expClose, diffUB: 2 * 240,
			expect: map[string]confExpect{
				"exact-iblt": expExact, // Θ(n) cost, still correct
				"rateless":   expExact, // streams until decode, still correct
				"ranged":     expExact, // splits down to item transfer, still correct
				"cpi":        expError, // diff ≫ capacity, no retry path
				"naive":      expExact,
			},
			errLike: "capacity",
		},
		{
			name: "above-capacity", alice: overA, bob: overB,
			params: params(8), def: expClose, diffUB: 2 * 200,
			expect: map[string]confExpect{
				"exact-iblt": expExact,
				"rateless":   expExact,
				"ranged":     expExact,
				"cpi":        expError,
				"naive":      expExact,
			},
			errLike: "capacity",
		},
		{
			name: "scale-sublinear", alice: scaleA, bob: scaleB,
			params: params(8), def: expClose, diffUB: 2 * 20000,
			expect: map[string]confExpect{
				"exact-iblt": expExact,
				"rateless":   expExact,
				"ranged":     expExact,
				"cpi":        expError,
				"naive":      expExact,
			},
			errLike: "capacity",
		},
	}
}

// TestStrategyConformance is the cross-strategy conformance suite: every
// strategy × every scenario, identical harness.
func TestStrategyConformance(t *testing.T) {
	ctx := context.Background()
	for _, sc := range confScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			for _, strat := range robustset.Strategies() {
				t.Run(strat.Name(), func(t *testing.T) {
					want := sc.def
					if e, ok := sc.expect[strat.Name()]; ok {
						want = e
					}
					// A serve failure after a successful fetch is the
					// exchange's error, so err covers both sides.
					res, stats, err := baseline.Exchange(ctx, strat, sc.params, sc.alice, sc.bob)
					switch want {
					case expError:
						if err == nil {
							t.Fatalf("expected a loud error, got success (%d points)", len(res.SPrime))
						}
						if sc.errIs != nil && !errors.Is(err, sc.errIs) {
							t.Fatalf("error %v, want errors.Is(%v)", err, sc.errIs)
						}
						if sc.errLike != "" && !strings.Contains(err.Error(), sc.errLike) {
							t.Fatalf("error %q does not mention %q", err, sc.errLike)
						}
						return
					case expExact, expClose:
						if err != nil {
							t.Fatalf("exchange failed: %v", err)
						}
					}
					if want == expExact && !robustset.EqualMultisets(res.SPrime, sc.alice) {
						t.Errorf("SPrime (%d points) does not equal Alice's multiset (%d points)",
							len(res.SPrime), len(sc.alice))
					}
					switch strat.(type) {
					case robustset.Robust, robustset.Adaptive:
						if res.Robust == nil {
							t.Error("robust result details missing")
						}
					default:
						if res.Robust != nil {
							t.Error("unexpected robust details on exact strategy")
						}
					}
					if budget := confWireBudget(strat, sc); stats.Total() > budget {
						t.Errorf("wire bytes %d exceed scenario budget %d", stats.Total(), budget)
					}
				})
			}
		})
	}
}
