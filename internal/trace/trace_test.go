package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	tr.Label("ds", "strat", "peer")
	tr.Begin("phase").End(I("k", 1))
	tr.Frame(0x01, true, 100)
	tr.Stat("rounds", 1)
	tr.Finish(errors.New("boom"))
	if c := tr.Child("x"); c != nil {
		t.Fatalf("nil.Child returned %v", c)
	}
	if s := tr.Snapshot(); s != nil {
		t.Fatalf("nil.Snapshot returned %v", s)
	}
	ctx := NewContext(context.Background(), nil)
	if got := FromContext(ctx); got != nil {
		t.Fatalf("FromContext on untraced ctx = %v", got)
	}
}

func TestDisabledPathAllocations(t *testing.T) {
	ctx := context.Background()
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		tr = FromContext(ctx)
		r := tr.Begin("phase")
		r.End(I("cells", 42), I("decoded", 1))
		tr.Frame(0x05, true, 128)
		tr.Stat("rounds", 1)
		tr.Finish(nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %.1f/op, want 0", allocs)
	}
}

func TestSpansAndStats(t *testing.T) {
	tr := New("client")
	tr.Label("demo", "exact", "peer0")
	r := tr.Begin("strata")
	time.Sleep(time.Millisecond)
	r.End(I("est", 12))
	tr.Stat("rounds", 1)
	tr.Stat("rounds", 2)
	tr.Finish(nil)
	s := tr.Snapshot()
	if s.Role != "client" || s.Dataset != "demo" || s.Strategy != "exact" || s.Peer != "peer0" {
		t.Fatalf("labels lost: %+v", s)
	}
	if len(s.Spans) != 1 || s.Spans[0].Name != "strata" {
		t.Fatalf("spans = %+v", s.Spans)
	}
	if s.Spans[0].DurNS <= 0 {
		t.Fatalf("span duration %d, want > 0", s.Spans[0].DurNS)
	}
	if len(s.Spans[0].Attrs) != 1 || s.Spans[0].Attrs[0] != I("est", 12) {
		t.Fatalf("attrs = %+v", s.Spans[0].Attrs)
	}
	if v, ok := s.Stat("rounds"); !ok || v != 3 {
		t.Fatalf("rounds stat = %d, %v; want 3 accumulated", v, ok)
	}
	if s.DurNS <= 0 {
		t.Fatalf("trace duration %d, want > 0", s.DurNS)
	}
}

func TestFrameAttribution(t *testing.T) {
	RegisterFrameName(0x42, "TEST")
	tr := New("client")
	tr.Frame(0x42, true, 100)
	tr.Frame(0x42, true, 50)
	tr.Frame(0x42, false, 7)
	tr.Frame(0x99&0x7f, false, 1) // within the table
	tr.Frame(0xff, true, 1)       // out of the tag space: dropped, not a panic
	s := tr.Snapshot()
	if s.BytesOut != 150 || s.BytesIn != 8 {
		t.Fatalf("bytes in/out = %d/%d, want 8/150", s.BytesIn, s.BytesOut)
	}
	var row *FrameStat
	for i := range s.Frames {
		if s.Frames[i].Type == "TEST" && s.Frames[i].Dir == "out" {
			row = &s.Frames[i]
		}
	}
	if row == nil || row.Msgs != 2 || row.Bytes != 150 {
		t.Fatalf("TEST/out row = %+v", row)
	}
	if FrameName(0x42) != "TEST" {
		t.Fatalf("FrameName(0x42) = %q", FrameName(0x42))
	}
	if !strings.HasPrefix(FrameName(0x6e), "0x") {
		t.Fatalf("unregistered tag renders as %q", FrameName(0x6e))
	}
}

func TestChildTreeAndTotalBytes(t *testing.T) {
	round := New("round")
	c1 := round.Child("session")
	c1.Label("demo~0.2", "exact", "node1")
	c1.Frame(0x01, true, 100)
	c1.Finish(nil)
	c2 := round.Child("session")
	c2.Frame(0x01, false, 23)
	c2.Finish(errors.New("dial: refused"))
	round.Finish(nil)
	s := round.Snapshot()
	if len(s.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(s.Children))
	}
	if s.TotalBytes() != 123 {
		t.Fatalf("TotalBytes = %d, want 123", s.TotalBytes())
	}
	if s.Children[1].Err == "" {
		t.Fatal("child error lost")
	}
}

func TestFinishKeepsFirstResult(t *testing.T) {
	tr := New("client")
	tr.Finish(errors.New("first"))
	d0 := tr.Snapshot().DurNS
	time.Sleep(2 * time.Millisecond)
	tr.Finish(nil)
	s := tr.Snapshot()
	if s.Err != "first" {
		t.Fatalf("err = %q, want first result kept", s.Err)
	}
	if s.DurNS != d0 {
		t.Fatalf("duration rewritten on second Finish: %d != %d", s.DurNS, d0)
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := New("server")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Frame(byte(w), w%2 == 0, 10)
				tr.Begin("p").End(I("i", int64(i)))
				tr.Stat("n", 1)
			}
		}(w)
	}
	wg.Wait()
	tr.Finish(nil)
	s := tr.Snapshot()
	if got := s.BytesIn + s.BytesOut; got != 8*200*10 {
		t.Fatalf("frame bytes = %d, want %d", got, 8*200*10)
	}
	if v, _ := s.Stat("n"); v != 8*200 {
		t.Fatalf("stat n = %d, want %d", v, 8*200)
	}
	if len(s.Spans) != 8*200 {
		t.Fatalf("spans = %d, want %d", len(s.Spans), 8*200)
	}
}

func TestRingRecentAndSlowCapture(t *testing.T) {
	r := NewRing(4, 50*time.Millisecond, 1000)
	for i := 0; i < 6; i++ {
		tr := New("client")
		tr.Finish(nil)
		s := tr.Snapshot()
		s.DurNS = int64(i) * int64(10*time.Millisecond) // 0..50ms
		s.BytesOut = int64(i) * 100                     // 0..500
		r.Add(s)
	}
	recent := r.Recent()
	if len(recent) != 4 {
		t.Fatalf("recent = %d, want capacity 4", len(recent))
	}
	// Oldest-first: entries 2..5 survive.
	if recent[0].DurNS != int64(2)*int64(10*time.Millisecond) {
		t.Fatalf("eviction order wrong: first recent DurNS=%d", recent[0].DurNS)
	}
	slow := r.Slow()
	if len(slow) != 1 || slow[0].DurNS != int64(50*time.Millisecond) {
		t.Fatalf("slow = %+v, want exactly the 50ms session", slow)
	}

	// Byte threshold alone also captures.
	rb := NewRing(4, 0, 300)
	s := &Snapshot{BytesIn: 200, BytesOut: 150}
	rb.Add(s)
	if len(rb.Slow()) != 1 {
		t.Fatal("byte-threshold slow capture missed")
	}

	var nilRing *Ring
	nilRing.Add(s) // must not panic
	if nilRing.Recent() != nil || nilRing.Slow() != nil {
		t.Fatal("nil ring returned snapshots")
	}
}

func TestRingJSONAndHandler(t *testing.T) {
	r := NewRing(2, 0, 1)
	tr := New("client")
	tr.Label("demo", "robust", "")
	tr.Frame(0x01, true, 500)
	tr.Finish(nil)
	r.Add(tr.Snapshot())
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Recent []*Snapshot `json:"recent"`
		Slow   []*Snapshot `json:"slow"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("ring JSON invalid: %v\n%s", err, buf.String())
	}
	if len(doc.Recent) != 1 || len(doc.Slow) != 1 {
		t.Fatalf("recent=%d slow=%d, want 1/1", len(doc.Recent), len(doc.Slow))
	}
	if doc.Recent[0].Dataset != "demo" {
		t.Fatalf("round-tripped dataset = %q", doc.Recent[0].Dataset)
	}

	// An empty ring must still serve valid JSON with both arrays.
	empty := NewRing(2, 0, 0)
	buf.Reset()
	if err := empty.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"recent": []`) {
		t.Fatalf("empty ring JSON: %s", buf.String())
	}
}

func TestSnapshotFormat(t *testing.T) {
	tr := New("client")
	tr.Label("sensors/a", "rateless", "")
	tr.Begin("strata").End(I("est", 9))
	tr.Begin("cells_round").End(I("chunk", 24), I("decoded", 1))
	tr.Stat("estimated_diff", 9)
	tr.Stat("actual_diff", 8)
	tr.Frame(0x03, true, 210)
	tr.Frame(0x0f, false, 4096)
	tr.Finish(nil)
	var buf bytes.Buffer
	tr.Snapshot().Format(&buf)
	out := buf.String()
	for _, want := range []string{
		"client session", "dataset=sensors/a", "strategy=rateless",
		"strata", "est=9", "cells_round", "chunk=24",
		"estimated_diff=9", "actual_diff=8",
		"total: in=4096 out=210 all=4306",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted trace missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "converged at handshake") {
		t.Fatalf("a session that ran says it stopped at the handshake:\n%s", out)
	}

	// A handshake-only session says so instead of looking empty.
	same := New("server")
	same.Label("sensors/a", "rateless", "")
	same.Stat("unchanged", 1)
	same.Finish(nil)
	buf.Reset()
	same.Snapshot().Format(&buf)
	if out := buf.String(); !strings.Contains(out, "unchanged=1") || !strings.Contains(out, "converged at handshake, 0 sketch bytes") {
		t.Fatalf("formatted handshake-only trace:\n%s", out)
	}

	// A warm robust session names its window; one that missed, downward or
	// upward, says so.
	for _, miss := range []string{"", StatWindowMiss, StatWindowUp} {
		w := New("client")
		w.Stat(StatWarm, 1)
		w.Stat(StatWindowLo, 9)
		w.Stat(StatWindowHi, 11)
		w.Stat(StatMinLevel, 0)
		w.Stat(StatMaxLevel, 20)
		if miss != "" {
			w.Stat(miss, 1)
		}
		buf.Reset()
		w.Snapshot().Format(&buf)
		out := buf.String()
		if !strings.Contains(out, "warm window: levels [9,11] of [0,20], 3 of 21 tables") ||
			strings.Contains(out, "window miss: no level of the window chosen, the fetch reran cold") != (miss == StatWindowMiss) ||
			strings.Contains(out, "window up: a level above 11 may decode, the fetch reran on [11,20]") != (miss == StatWindowUp) ||
			strings.Contains(out, "warm opening") {
			t.Fatalf("formatted warm robust trace (miss %q):\n%s", miss, out)
		}
	}
}

// TestFormatKeptCells: a rateless fetch that subtracted kept cells says
// how many, and whether its last round went past them; one that keyed its
// points from the first cell says nothing.
func TestFormatKeptCells(t *testing.T) {
	for _, c := range []struct {
		kept, frontier int64
		line           string
	}{
		{128, 97, "local cells: 128 kept from the last fetch, no keys built"},
		{128, 129, "local cells: 128 kept from the last fetch, keys built past them"},
		{0, 97, ""},
	} {
		k := New("client")
		k.Begin("cells_round").End(I("chunk", 97), I("frontier", c.frontier))
		k.Stat(StatKeptCells, c.kept)
		var buf strings.Builder
		k.Snapshot().Format(&buf)
		out := buf.String()
		if strings.Contains(out, "local cells:") != (c.line != "") || !strings.Contains(out, c.line) {
			t.Fatalf("formatted trace of %d kept cells, frontier %d, want %q:\n%s", c.kept, c.frontier, c.line, out)
		}
	}
}

// TestFormatKeptLevels: a robust fetch that subtracted kept tables says
// how many levels, and whether its repair built any table besides; one
// that keyed its points says nothing.
func TestFormatKeptLevels(t *testing.T) {
	for _, c := range []struct {
		kept, built int64
		repaired    bool
		line        string
	}{
		{3, 0, true, "local tables: 3 levels kept from the last fetch, no points keyed"},
		{1, 9, true, "local tables: 1 levels kept from the last fetch, points keyed for 9 more"},
		{3, 0, false, "local tables: 3 levels kept from the last fetch\n"},
		{0, 3, true, ""},
	} {
		k := New("client")
		if c.repaired {
			k.Begin("repair").End(I("level", 10), I("built", c.built))
		}
		k.Stat(StatKeptLevels, c.kept)
		var buf strings.Builder
		k.Snapshot().Format(&buf)
		out := buf.String()
		if strings.Contains(out, "local tables:") != (c.line != "") || !strings.Contains(out, c.line) {
			t.Fatalf("formatted trace of %d kept levels, %d built, want %q:\n%s", c.kept, c.built, c.line, out)
		}
	}
}
