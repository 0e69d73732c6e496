package protocol

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"robustset/internal/core"
	"robustset/internal/transport"
)

// acceptedParams returns p as a client adopts it from an accept: through
// the wire encoding.
func acceptedParams(t *testing.T, p core.Params) core.Params {
	t.Helper()
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got core.Params
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	return got
}

// robustGoldens are the one-shot exchanges the goldens pin, all over
// noisyInstance(300, 5, 2, 101) in a universe of levels 0..16: the level
// the full scan chooses, and the SKETCH body's length and SHA-256.
var robustGoldens = []struct {
	seed   uint64
	level  int
	size   int
	sketch string
}{
	{7, 9, 7393, "f9c8a774f2555a09b192fe373ba55056474378f10ee76aefc7c9df3e6539432c"},
	{19, 8, 7393, "ef49e05640018a6a4cb74cea3bf7d87c4ae0621f1e2153d00181ab5b391f5848"},
}

// coldRobustExchange runs one cold one-shot exchange at seed and returns
// the SKETCH body Bob received and his result.
func coldRobustExchange(t *testing.T, seed uint64) ([]byte, *core.Result) {
	t.Helper()
	inst := noisyInstance(t, 300, 5, 2, 101)
	params := core.Params{Universe: testUniverse, Seed: seed, DiffBudget: 5}
	rec := new(recordingTransport)
	var res *core.Result
	runPair(t,
		func(tr transport.Transport) error { return RunPushAlice(bg, tr, params, inst.Alice) },
		func(tr transport.Transport) (err error) {
			rec.Transport = tr
			res, err = RunPushBob(bg, rec, inst.Bob)
			return err
		})
	if len(rec.got) != 1 || rec.got[0][0] != MsgSketch {
		t.Fatalf("seed %d: the exchange was not one SKETCH", seed)
	}
	return rec.got[0][1:], res
}

// TestRobustOpeningGolden pins the cold one-shot wire: the hello a Client
// opens a robust session with, and the SKETCH body, by length and SHA-256
// at two seeds. A cold opening is what every one-shot session was before
// warm windows: the empty hello config and the full sketch.
func TestRobustOpeningGolden(t *testing.T) {
	for _, g := range robustGoldens {
		body, res := coldRobustExchange(t, g.seed)
		sum := sha256.Sum256(body)
		if len(body) != g.size || hex.EncodeToString(sum[:]) != g.sketch || res.Level != g.level {
			t.Errorf("seed %d: SKETCH of %d bytes, sha256 %x, level %d; want %d bytes, %s, level %d",
				g.seed, len(body), sum, res.Level, g.size, g.sketch, g.level)
		}
	}
	hello, err := Hello{Strategy: StrategyRobust, Dataset: "d"}.encode()
	if err != nil {
		t.Fatal(err)
	}
	if want := "01010000006400000000"; hex.EncodeToString(hello) != want {
		t.Errorf("cold robust hello %x, want %s", hello, want)
	}
}

// TestRobustWarmOpeningGolden pins a warm exchange's wire at the seeds of
// TestRobustOpeningGolden. Opened on the window core.WarmWindow takes
// from the cold result, Alice sends the cold SKETCH's header with the
// levels and the table count rewritten, then the cold body's tables of
// those levels byte for byte, and Bob's result is the cold one, reporting
// the full parameters, with the Outcomes from the window's finest level
// on. At seed 7 the window is [L−1, L+1] around the level L the cold scan
// chose. At seed 19 level L+1 stalled on a chance 2-core, so the window
// reaches up to L+2, the first level overloaded: on [L−1, L+1] the
// session would miss upward, on the data it was taken from. The hello is
// the cold hello with the two-byte config lo, hi.
func TestRobustWarmOpeningGolden(t *testing.T) {
	inst := noisyInstance(t, 300, 5, 2, 101)
	for i, g := range robustGoldens {
		cold, coldRes := coldRobustExchange(t, g.seed)
		p := acceptedParams(t, core.Params{Universe: testUniverse, Seed: g.seed, DiffBudget: 5})
		lo, hi, ok := core.WarmWindow(coldRes)
		if w := warmGoldens[i]; !ok || lo != w.lo || hi != w.hi {
			t.Fatalf("seed %d: warm window [%d,%d] (%v), want [%d,%d]", g.seed, lo, hi, ok, w.lo, w.hi)
		}
		rec := new(recordingTransport)
		var res *core.Result
		runPair(t,
			func(tr transport.Transport) error { return RunPushWindowAlice(bg, tr, p, cold, lo, hi) },
			func(tr transport.Transport) (err error) {
				rec.Transport = tr
				res, err = RunPushWindowBob(bg, rec, p, lo, hi, inst.Bob)
				return err
			})
		body := rec.got[0][1:]
		const head = 4 + core.ParamsWireSize + 4 + 2
		want := bytes.Clone(cold[:head])
		want[4+23], want[4+24] = byte(lo), byte(hi) // MinLevel, MaxLevel
		binary.LittleEndian.PutUint16(want[head-2:], uint16(hi-lo+1))
		// The cold body's tables, each a u32 length and its bytes, from
		// level lo through level hi.
		from := head
		for l := p.MinLevel; l < lo; l++ {
			from += 4 + int(binary.LittleEndian.Uint32(cold[from:]))
		}
		if !bytes.Equal(body[:head], want) || !bytes.Equal(body[head:], cold[from:from+len(body)-head]) {
			t.Errorf("seed %d: warm SKETCH is not the rewritten header and the cold body's tables", g.seed)
		}
		sum := sha256.Sum256(body)
		if len(body) != warmGoldens[i].size || hex.EncodeToString(sum[:]) != warmGoldens[i].sketch {
			t.Errorf("seed %d: warm SKETCH of %d bytes, sha256 %x; want %d bytes, %s", g.seed, len(body), sum, warmGoldens[i].size, warmGoldens[i].sketch)
		}
		t.Logf("seed %d: window [%d,%d], %d of %d tables, %d of %d bytes", g.seed, lo, hi, hi-lo+1, p.MaxLevel-p.MinLevel+1, len(body), len(cold))
		coldRes.Params = p // the accept's, as a fetch reports them
		coldRes.Outcomes = coldRes.Outcomes[p.MaxLevel-hi:]
		if !reflect.DeepEqual(res, coldRes) {
			t.Errorf("seed %d: warm result (level %d) differs from the cold one (level %d)", g.seed, res.Level, coldRes.Level)
		}
		coldHello, _ := Hello{Strategy: StrategyRobust, Dataset: "d"}.encode()
		warmHello, err := Hello{Strategy: StrategyRobust, Dataset: "d", Config: []byte{byte(lo), byte(hi)}}.encode()
		if err != nil {
			t.Fatal(err)
		}
		wantHello := append(binary.LittleEndian.AppendUint32(bytes.Clone(coldHello[:len(coldHello)-4]), 2), byte(lo), byte(hi))
		if len(warmHello) != len(coldHello)+2 || !bytes.Equal(warmHello, wantHello) {
			t.Errorf("seed %d: warm hello %x, want %x", g.seed, warmHello, wantHello)
		}
	}
	// Seed 19 on [L−1, L+1]: the chance 2-core at L+1 is an upward miss.
	g := robustGoldens[1]
	cold, _ := coldRobustExchange(t, g.seed)
	p := acceptedParams(t, core.Params{Universe: testUniverse, Seed: g.seed, DiffBudget: 5})
	var err error
	runPair(t,
		func(tr transport.Transport) error { return RunPushWindowAlice(bg, tr, p, cold, g.level-1, g.level+1) },
		func(tr transport.Transport) error {
			_, err = RunPushWindowBob(bg, tr, p, g.level-1, g.level+1, inst.Bob)
			return nil
		})
	var up *WindowUpError
	if !errors.As(err, &up) || *up != (WindowUpError{Lo: g.level + 1, Hi: p.MaxLevel}) {
		t.Errorf("seed %d on [%d,%d]: %v, want an upward miss", g.seed, g.level-1, g.level+1, err)
	}
}

// warmGoldens are the warm exchanges of TestRobustWarmOpeningGolden, one
// per robustGoldens entry: the window, and the SKETCH body's length and
// SHA-256.
var warmGoldens = []struct {
	lo, hi int
	size   int
	sketch string
}{
	{8, 10, 1397, "7cef7c234087da0157f44bd0dbf28db0c017bbea0f491563d28ba63d8a702833"},
	{7, 10, 1807, "37375ff0d9aa1fd829a733a37126f7ab1b70dc177749c4ad7ec358bedbc40c2b"},
}

// TestRobustWindowLyingServer: a SKETCH that is not the window asked for
// — other levels, seed or capacity — is refused by Bob with
// core.ErrInconsistentSketch, not reconciled and not taken for a miss.
func TestRobustWindowLyingServer(t *testing.T) {
	inst := noisyInstance(t, 300, 5, 2, 101)
	p := acceptedParams(t, core.Params{Universe: testUniverse, Seed: 7, DiffBudget: 5})
	const lo, hi = 8, 10
	wider := p
	wider.TableCapacity++
	for name, lie := range map[string]core.Params{
		"min level": p.WithLevels(lo-1, hi),
		"max level": p.WithLevels(lo, hi+1),
		"full":      p,
		"seed":      core.Params{Universe: testUniverse, Seed: 8, DiffBudget: 5}.WithLevels(lo, hi),
		"capacity":  wider.WithLevels(lo, hi),
	} {
		sk, err := core.BuildSketch(lie, inst.Alice)
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := sk.MarshalBinary()
		at, bt := transport.Pair()
		go func() { _ = RunPushBlobAlice(bg, at, blob) }()
		_, err = RunPushWindowBob(bg, bt, p, lo, hi, inst.Bob)
		var up *WindowUpError
		if !errors.Is(err, core.ErrInconsistentSketch) || errors.Is(err, ErrWindowMiss) || errors.As(err, &up) {
			t.Errorf("%s: Bob got %v, want core.ErrInconsistentSketch", name, err)
		}
		at.Close()
		bt.Close()
	}
}

// TestRobustWarmWindowRefused: a window outside the dataset's levels, with
// lo > hi, or of the whole range is refused by the serving side and the
// refusal relayed; Bob reports it as a downward miss, so the fetch runs
// cold.
func TestRobustWarmWindowRefused(t *testing.T) {
	inst := noisyInstance(t, 300, 5, 2, 101)
	p := acceptedParams(t, core.Params{Universe: testUniverse, Seed: 7, DiffBudget: 5}.WithLevels(2, 12))
	sk, err := core.BuildSketch(p, inst.Alice)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := sk.MarshalBinary()
	for _, w := range [][2]int{{1, 5}, {0, 3}, {2, 12}, {5, 13}, {7, 6}, {13, 13}, {255, 255}} {
		at, bt := transport.Pair()
		served := make(chan error, 1)
		go func() { served <- RunPushWindowAlice(bg, at, p, blob, w[0], w[1]) }()
		_, err := RunPushWindowBob(bg, bt, p, w[0], w[1], inst.Bob)
		var remote *RemoteError
		if !errors.Is(err, ErrWindowMiss) || !errors.As(err, &remote) {
			t.Errorf("window %v of [2,12]: Bob got %v, want a miss carrying the relayed refusal", w, err)
		}
		if err := <-served; !errors.Is(err, core.ErrLevelOutOfRange) {
			t.Errorf("window %v of [2,12]: served with %v, want core.ErrLevelOutOfRange", w, err)
		}
		at.Close()
		bt.Close()
	}
}

// TestRobustWindowMiss: when the full scan would choose a level coarser
// than the window's coarsest, no level of the window decodes, and Bob
// reports a downward miss.
func TestRobustWindowMiss(t *testing.T) {
	inst := noisyInstance(t, 300, 5, 2, 101)
	g := robustGoldens[0]
	p := acceptedParams(t, core.Params{Universe: testUniverse, Seed: g.seed, DiffBudget: 5})
	sk, err := core.BuildSketch(p, inst.Alice)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := sk.MarshalBinary()
	at, bt := transport.Pair()
	defer at.Close()
	defer bt.Close()
	lo, hi := g.level+1, g.level+3
	go func() { _ = RunPushWindowAlice(bg, at, p, blob, lo, hi) }()
	res, err := RunPushWindowBob(bg, bt, p, lo, hi, inst.Bob)
	if !errors.Is(err, ErrWindowMiss) || !errors.Is(err, core.ErrNoDecodableLevel) || res != nil {
		t.Errorf("window [%d,%d] over a scan that chooses %d: %v, want a miss", lo, hi, g.level, err)
	}
}

// TestRobustWindowUpwardMiss: when the window's finest level decodes below
// MaxLevel, Bob returns the typed upward miss naming the window from that
// level through MaxLevel, on which a session returns the cold result
// field for field.
func TestRobustWindowUpwardMiss(t *testing.T) {
	inst := noisyInstance(t, 300, 5, 2, 101)
	g := robustGoldens[0]
	p := acceptedParams(t, core.Params{Universe: testUniverse, Seed: g.seed, DiffBudget: 5})
	cold, coldRes := coldRobustExchange(t, g.seed)
	window := func(lo, hi int) (*core.Result, error) {
		at, bt := transport.Pair()
		defer at.Close()
		defer bt.Close()
		go func() { _ = RunPushWindowAlice(bg, at, p, cold, lo, hi) }()
		return RunPushWindowBob(bg, bt, p, lo, hi, inst.Bob)
	}
	res, err := window(g.level-2, g.level)
	var up *WindowUpError
	if !errors.As(err, &up) || errors.Is(err, ErrWindowMiss) || res != nil || *up != (WindowUpError{Lo: g.level, Hi: p.MaxLevel}) {
		t.Fatalf("window [%d,%d] over a scan that chooses %d: %v, want an upward miss to [%d,%d]", g.level-2, g.level, g.level, err, g.level, p.MaxLevel)
	}
	res, err = window(up.Lo, up.Hi)
	coldRes.Params = p
	if err != nil || !reflect.DeepEqual(res, coldRes) {
		t.Errorf("the rerun on [%d,%d]: level %v, %v; want the cold result", up.Lo, up.Hi, res, err)
	}
}
