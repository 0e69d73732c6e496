package robustset

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"robustset/internal/protocol"
	"robustset/internal/transport"
)

// TestRetiredDatasetServingRejected pins the in-flight retirement
// contract at the serving layer: a session that resolved its dataset
// just before an Unpublish hits servePoints/sketchBlob next, and both
// must reject with ErrUnknownDataset once the dataset is retired. (The
// end-to-end handshake rejection is covered in sharded_test.go; this
// white-box test makes the narrower race deterministic.)
func TestRetiredDatasetServingRejected(t *testing.T) {
	params := Params{Universe: Universe{Dim: 2, Delta: 1 << 12}, Seed: 5, DiffBudget: 4}
	srv := NewServer()
	defer srv.Close()
	d, err := srv.Publish("d", params, []Point{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.servePoints(); err != nil {
		t.Fatalf("servePoints before retirement: %v", err)
	}
	if _, err := d.sketchBlob(); err != nil {
		t.Fatalf("sketchBlob before retirement: %v", err)
	}
	root := d.rootPrint()
	if _, got, err := d.openSession(); err != nil || got != root {
		t.Fatalf("openSession before retirement: root %+v, %v; want the dataset's %+v", got, err, root)
	}
	if err := srv.Unpublish("d"); err != nil {
		t.Fatal(err)
	}
	// A retired dataset is never "same", not even as itself.
	if _, _, err := d.openSession(); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("openSession on retired dataset: %v, want ErrUnknownDataset", err)
	}
	if _, err := d.servePoints(); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("servePoints on retired dataset: %v, want ErrUnknownDataset", err)
	}
	if _, err := d.sketchBlob(); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("sketchBlob on retired dataset: %v, want ErrUnknownDataset", err)
	}
	if pts := d.Snapshot(); len(pts) != 2 {
		t.Errorf("Snapshot after retirement returned %d points; reads stay usable", len(pts))
	}
}

// TestStrategyFromCodeExactConfigLength: every strategy code carries a
// hello config of one exact length; a shorter or longer blob is refused
// rather than served something the peer did not ask for, and so is an
// unknown code — the retired exact-IBLT, CPI and range-based codes among
// them, whatever config they carry. The accepted blob is what the strategy's
// own helloConfig writes.
func TestStrategyFromCodeExactConfigLength(t *testing.T) {
	for _, strat := range Strategies() {
		code, n := strat.code(), len(strat.helloConfig())
		for _, size := range []int{n - 1, n, n + 1} {
			if size < 0 {
				continue
			}
			got, err := strategyFromCode(code, make([]byte, size))
			switch {
			case size != n && err == nil:
				t.Errorf("%s (code %d): %d-byte config accepted, want exactly %d", strat.Name(), code, size, n)
			case size == n && err != nil:
				t.Errorf("%s (code %d): its own %d-byte config refused: %v", strat.Name(), code, n, err)
			case size == n && got.Name() != strat.Name():
				t.Errorf("code %d decoded as %s, want %s", code, got.Name(), strat.Name())
			}
		}
	}
	for _, code := range []byte{protocol.StrategyExactIBLT, protocol.StrategyCPI, protocol.StrategyRangeBased} {
		for _, cfg := range [][]byte{nil, {4}, {4, 1}, {8, 16, 0}, {40, 0, 0, 0}} {
			if _, err := strategyFromCode(code, cfg); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
				t.Errorf("retired code %d with a %d-byte config: %v, want an unknown strategy", code, len(cfg), err)
			}
		}
	}
	if _, err := strategyFromCode(0x7e, nil); err == nil {
		t.Error("unknown strategy code accepted")
	}
	// Rateless's config is empty, cold, or its warm first request, one
	// u32 that is never 0: the zero word, MuxVersion 7's cold config, is
	// refused with the other wrong lengths, and the word a warm strategy
	// writes is the one the server reads.
	for _, cfg := range [][]byte{{0}, {97, 0, 0}, {0, 0, 0, 0}, {97, 0, 0, 0, 0}} {
		if _, err := strategyFromCode(protocol.StrategyRateless, cfg); err == nil {
			t.Errorf("rateless with config %x accepted", cfg)
		}
	}
	warm := Rateless{}.warm(hint{n: 64})
	if cfg := warm.helloConfig(); !bytes.Equal(cfg, []byte{97, 0, 0, 0}) {
		t.Errorf("warm rateless hello config %x, want 61000000", cfg)
	}
	if got, err := strategyFromCode(protocol.StrategyRateless, warm.helloConfig()); err != nil || got.(Rateless).first != 97 {
		t.Errorf("warm rateless config decoded as %+v, %v; want a first request of 97 cells", got, err)
	}
	if cold := (Rateless{}).warm(hint{n: 361}).(Rateless); cold.first != 0 || cold.helloConfig() != nil {
		t.Errorf("a hint above the 512-cell bound opened warm: %+v", cold)
	}
	// Robust's config is empty, cold, or two bytes, a warm window's levels
	// lo ≤ hi, hi above MinLevel and so never 0: the one-byte form of
	// MuxVersion 6, three bytes, lo > hi and hi 0 are refused. Serving holds
	// the window to the dataset's range (TestRobustWarmWindowRefused).
	for _, cfg := range [][]byte{{0}, {9}, {9, 10, 11}, {11, 9}, {1, 0}, {0, 0}} {
		if _, err := strategyFromCode(protocol.StrategyRobust, cfg); err == nil {
			t.Errorf("robust with config %x accepted", cfg)
		}
	}
	for _, w := range [][2]int{{0, 1}, {9, 11}, {10, 10}, {254, 255}} {
		cfg := robustWindow(w[0], w[1]).helloConfig()
		got, err := strategyFromCode(protocol.StrategyRobust, cfg)
		if err != nil || !bytes.Equal(cfg, []byte{byte(w[0]), byte(w[1])}) || got != robustWindow(w[0], w[1]) {
			t.Errorf("warm robust window %v: config %x decoded as %+v, %v", w, cfg, got, err)
		}
	}
	// The hint a result leaves is the window from one level below its own
	// up to the first finer level its scan saw overloaded (20 non-zero
	// cells of the 28 of a table of capacity 8), or else the first it did
	// not see, clipped at MaxLevel; none when it would reach below MinLevel
	// or be every level.
	over, small := LevelOutcome{Residue: 20}, LevelOutcome{Residue: 19}
	for _, c := range []struct {
		level, min, max int
		above           []LevelOutcome // what the scan read above level, finest first
		lo, hi          int
	}{
		{10, 0, 20, []LevelOutcome{over, over}, 9, 11}, {10, 0, 20, nil, 9, 11},
		{10, 0, 20, []LevelOutcome{over, small, small}, 9, 13}, {10, 0, 20, []LevelOutcome{small}, 9, 12},
		{20, 0, 20, nil, 19, 20}, {19, 0, 20, []LevelOutcome{small}, 18, 20}, {1, 0, 20, []LevelOutcome{over}, 0, 2},
		{0, 0, 20, []LevelOutcome{over}, -1, -1}, {3, 2, 4, []LevelOutcome{over}, -1, -1}, {4, 2, 6, []LevelOutcome{over, over}, 3, 5},
	} {
		res := &Result{Level: c.level, Params: Params{MinLevel: c.min, MaxLevel: c.max, TableCapacity: 8, HashCount: 4}}
		for i, o := range c.above {
			o.Level = c.level + len(c.above) - i
			res.Outcomes = append(res.Outcomes, o)
		}
		res.Outcomes = append(res.Outcomes, LevelOutcome{Level: c.level, Decoded: true})
		h, ok := Robust{}.hintFrom(&SyncResult{Robust: res, Params: res.Params})
		if want := c.lo >= 0; ok != want || (ok && Robust{}.warm(h) != robustWindow(c.lo, c.hi)) {
			t.Errorf("level %d of [%d,%d] under %v: hint %+v, %v; want the window [%d,%d]", c.level, c.min, c.max, c.above, Robust{}.warm(h), ok, c.lo, c.hi)
		}
	}

	// The same table with the hello's tail: after each code's own config a
	// whole root (16 bytes) is read as one and the strategy is what it was;
	// a tail a byte short or a byte long is refused, and the refusal
	// reaches the peer as MsgError.
	ctx := context.Background()
	for _, strat := range Strategies() {
		cfg := strat.helloConfig()
		for _, tail := range []int{15, 16, 17} {
			msg := []byte{protocol.MsgHello, strat.code(), 1, 0, 0, 0, 'd'}
			msg = binary.LittleEndian.AppendUint32(msg, uint32(len(cfg)))
			msg = append(append(msg, cfg...), make([]byte, tail)...)
			msg[len(msg)-tail] = 7 // count 7, fingerprint 0
			at, bt := transport.Pair()
			go func() { _ = at.Send(ctx, msg) }()
			h, err := protocol.RecvHello(ctx, bt)
			switch {
			case tail != 16:
				if err == nil {
					t.Errorf("%s: hello with a %d-byte tail accepted", strat.Name(), tail)
				} else if reply, rerr := at.Recv(ctx); rerr != nil || len(reply) == 0 || reply[0] != protocol.MsgError {
					t.Errorf("%s: %d-byte tail answered with %x, %v; want MsgError", strat.Name(), tail, reply, rerr)
				}
			case err != nil:
				t.Errorf("%s: hello with a root refused: %v", strat.Name(), err)
			case h.Root == nil || h.Root.Count != 7 || h.Root.Sum != 0:
				t.Errorf("%s: root parsed as %+v", strat.Name(), h.Root)
			default:
				if got, err := strategyFromCode(h.Strategy, h.Config); err != nil || got.Name() != strat.Name() {
					t.Errorf("%s: config before a root decoded as %v, %v", strat.Name(), got, err)
				}
			}
			at.Close()
			bt.Close()
		}
	}
}
