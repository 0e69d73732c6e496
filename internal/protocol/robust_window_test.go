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
// TestRobustOpeningGolden. Opened on the window from one level finer than
// the cold scan chose, Alice sends the cold SKETCH's header with MinLevel
// and the table count rewritten, then the cold body's tail byte for byte;
// Bob's result is the cold one, reporting the full parameters. The hello
// is the cold hello with a one-byte config.
func TestRobustWarmOpeningGolden(t *testing.T) {
	inst := noisyInstance(t, 300, 5, 2, 101)
	for _, g := range robustGoldens {
		cold, coldRes := coldRobustExchange(t, g.seed)
		p := acceptedParams(t, core.Params{Universe: testUniverse, Seed: g.seed, DiffBudget: 5})
		lo := g.level - 1
		rec := new(recordingTransport)
		var res *core.Result
		runPair(t,
			func(tr transport.Transport) error { return RunPushWindowAlice(bg, tr, p, cold, lo) },
			func(tr transport.Transport) (err error) {
				rec.Transport = tr
				res, err = RunPushWindowBob(bg, rec, p, lo, inst.Bob)
				return err
			})
		body := rec.got[0][1:]
		const head = 4 + core.ParamsWireSize + 4 + 2
		want := bytes.Clone(cold[:head])
		want[4+23] = byte(lo) // MinLevel
		binary.LittleEndian.PutUint16(want[head-2:], uint16(p.MaxLevel-lo+1))
		tail := cold[len(cold)-(len(body)-head):]
		if !bytes.Equal(body[:head], want) || !bytes.Equal(body[head:], tail) {
			t.Errorf("seed %d: warm SKETCH is not the rewritten header and the cold body's tail", g.seed)
		}
		levels := p.MaxLevel - p.MinLevel + 1
		t.Logf("seed %d: window [%d,%d], %d of %d tables, %d of %d bytes", g.seed, lo, p.MaxLevel, p.MaxLevel-lo+1, levels, len(body), len(cold))
		coldRes.Params = p // the accept's, as a fetch reports them
		if !reflect.DeepEqual(res, coldRes) {
			t.Errorf("seed %d: warm result (level %d) differs from the cold one (level %d)", g.seed, res.Level, coldRes.Level)
		}
		coldHello, _ := Hello{Strategy: StrategyRobust, Dataset: "d"}.encode()
		warmHello, err := Hello{Strategy: StrategyRobust, Dataset: "d", Config: []byte{byte(lo)}}.encode()
		if err != nil {
			t.Fatal(err)
		}
		wantHello := append(binary.LittleEndian.AppendUint32(bytes.Clone(coldHello[:len(coldHello)-4]), 1), byte(lo))
		if len(warmHello) != len(coldHello)+1 || !bytes.Equal(warmHello, wantHello) {
			t.Errorf("seed %d: warm hello %x, want %x", g.seed, warmHello, wantHello)
		}
	}
}

// TestRobustWindowLyingServer: a SKETCH that is not the window asked for
// — another MinLevel, seed or capacity — is refused by Bob with
// core.ErrInconsistentSketch, not reconciled and not taken for a miss.
func TestRobustWindowLyingServer(t *testing.T) {
	inst := noisyInstance(t, 300, 5, 2, 101)
	p := acceptedParams(t, core.Params{Universe: testUniverse, Seed: 7, DiffBudget: 5})
	const lo = 8
	wider := p
	wider.TableCapacity++
	for name, lie := range map[string]core.Params{
		"min level": p.WithLevels(lo-1, p.MaxLevel),
		"full":      p,
		"seed":      core.Params{Universe: testUniverse, Seed: 8, DiffBudget: 5}.WithLevels(lo, p.MaxLevel),
		"capacity":  wider.WithLevels(lo, p.MaxLevel),
	} {
		sk, err := core.BuildSketch(lie, inst.Alice)
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := sk.MarshalBinary()
		at, bt := transport.Pair()
		go func() { _ = RunPushBlobAlice(bg, at, blob) }()
		_, err = RunPushWindowBob(bg, bt, p, lo, inst.Bob)
		if !errors.Is(err, core.ErrInconsistentSketch) || errors.Is(err, ErrWindowMiss) {
			t.Errorf("%s: Bob got %v, want core.ErrInconsistentSketch", name, err)
		}
		at.Close()
		bt.Close()
	}
}

// TestRobustWarmWindowRefused: a window from MinLevel or below, or past
// MaxLevel, is refused by the serving side and the refusal relayed; Bob
// reports it as a miss, so the fetch runs cold.
func TestRobustWarmWindowRefused(t *testing.T) {
	inst := noisyInstance(t, 300, 5, 2, 101)
	p := acceptedParams(t, core.Params{Universe: testUniverse, Seed: 7, DiffBudget: 5}.WithLevels(2, 12))
	sk, err := core.BuildSketch(p, inst.Alice)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := sk.MarshalBinary()
	for _, lo := range []int{0, 2, 13, 255} {
		at, bt := transport.Pair()
		served := make(chan error, 1)
		go func() { served <- RunPushWindowAlice(bg, at, p, blob, lo) }()
		_, err := RunPushWindowBob(bg, bt, p, lo, inst.Bob)
		var remote *RemoteError
		if !errors.Is(err, ErrWindowMiss) || !errors.As(err, &remote) {
			t.Errorf("window from %d of [2,12]: Bob got %v, want a miss carrying the relayed refusal", lo, err)
		}
		if err := <-served; !errors.Is(err, core.ErrLevelOutOfRange) {
			t.Errorf("window from %d of [2,12]: served with %v, want core.ErrLevelOutOfRange", lo, err)
		}
		at.Close()
		bt.Close()
	}
}

// TestRobustWindowMiss: when the full scan would choose a level coarser
// than the window's coarsest, no level of the window decodes, and Bob
// reports a miss.
func TestRobustWindowMiss(t *testing.T) {
	inst := noisyInstance(t, 300, 5, 2, 101)
	g := robustGoldens[0]
	p := acceptedParams(t, core.Params{Universe: testUniverse, Seed: g.seed, DiffBudget: 5})
	sk, err := core.BuildSketch(p, inst.Alice)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := sk.MarshalBinary()
	var res *core.Result
	at, bt := transport.Pair()
	defer at.Close()
	defer bt.Close()
	go func() { _ = RunPushWindowAlice(bg, at, p, blob, g.level+1) }()
	res, err = RunPushWindowBob(bg, bt, p, g.level+1, inst.Bob)
	if !errors.Is(err, ErrWindowMiss) || !errors.Is(err, core.ErrNoDecodableLevel) || res != nil {
		t.Errorf("window from %d over a scan that chooses %d: %v, want a miss", g.level+1, g.level, err)
	}
}
