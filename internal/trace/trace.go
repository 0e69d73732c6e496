// Package trace is the serving path's per-session diagnosis layer:
// every sync can carry a Trace that records typed phase spans (hello,
// estimate requests, each IBLT round, rateless chunk growth, repair),
// named stats (estimated vs actual difference, rounds, decode retries)
// and per-frame-type wire-byte attribution charged by the transport
// layer itself — so the per-type byte table sums exactly to the
// session's transport counters.
//
// Tracing follows the registry's nil-is-a-no-op discipline: a nil
// *Trace absorbs every call, FromContext on an untraced context returns
// nil without allocating, and Region is a value type, so the disabled
// path adds zero allocations per session (asserted by
// TestTracingDisabledZeroAlloc in the root package).
//
// Completed traces snapshot into a Ring — a bounded buffer of recent
// sessions plus a second buffer that captures only slow/expensive
// sessions (over a latency or byte threshold) — served as JSON on the
// debug endpoint and rendered human-readably by Snapshot.Format for
// `robustsync explain` / `pull -trace`.
package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// KV is one integer attribute on a span or trace stat.
type KV struct {
	K string `json:"k"`
	V int64  `json:"v"`
}

// I builds a KV — shorthand keeping span End call sites one-liners.
func I(k string, v int64) KV { return KV{K: k, V: v} }

// Span is one completed, named phase of a session.
type Span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // offset from the trace's start
	DurNS   int64  `json:"dur_ns"`
	Attrs   []KV   `json:"attrs,omitempty"`
}

// tagSpace bounds the frame-type tag values the attribution table
// indexes: protocol tags live in [0x01, 0x7f].
const tagSpace = 128

// frameCount is one (type, direction) cell of the attribution table.
type frameCount struct {
	msgs  int64
	bytes int64
}

// frameNames maps wire tags to protocol mnemonics. The protocol
// package registers its tags from init(); trace itself stays below the
// protocol layer so the dependency points one way only.
var (
	frameNamesMu sync.RWMutex
	frameNames   = map[byte]string{}
)

// RegisterFrameName records the mnemonic for a wire tag. Later
// registrations win; unregistered tags render as "0xNN".
func RegisterFrameName(tag byte, name string) {
	frameNamesMu.Lock()
	frameNames[tag] = name
	frameNamesMu.Unlock()
}

// FrameName returns the registered mnemonic for a tag, or "0xNN".
func FrameName(tag byte) string {
	frameNamesMu.RLock()
	name, ok := frameNames[tag]
	frameNamesMu.RUnlock()
	if !ok {
		return fmt.Sprintf("0x%02x", tag)
	}
	return name
}

var nextID atomic.Uint64

// Trace accumulates one session's (or one replication round's)
// diagnosis. All methods are nil-safe no-ops, so instrumented code
// threads a possibly-nil *Trace without checks. A Trace is safe for
// concurrent use: mux sessions record frames from both the send and
// receive side.
type Trace struct {
	mu       sync.Mutex
	id       uint64
	role     string
	dataset  string
	strategy string
	peer     string
	start    time.Time
	spans    []Span
	stats    []KV
	children []*Trace
	frames   [2][tagSpace]frameCount // [dir][tag]; dir 0 = in, 1 = out
	durNS    int64
	err      string
	done     bool
}

// New starts a trace. role names the vantage point ("client",
// "server", "round", ...).
func New(role string) *Trace {
	return &Trace{id: nextID.Add(1), role: role, start: time.Now()}
}

// Label records the session's identity. Empty arguments leave the
// existing value in place, so callers can fill fields as they learn
// them (dataset at hello, strategy after negotiation).
func (t *Trace) Label(dataset, strategy, peer string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if dataset != "" {
		t.dataset = dataset
	}
	if strategy != "" {
		t.strategy = strategy
	}
	if peer != "" {
		t.peer = peer
	}
	t.mu.Unlock()
}

// Region is an in-flight span. The zero Region (from a nil Trace) is a
// valid no-op, and the type is plain values so Begin/End allocate
// nothing on the disabled path.
type Region struct {
	tr      *Trace
	name    string
	startNS int64
}

// Begin opens a named phase span.
func (t *Trace) Begin(name string) Region {
	if t == nil {
		return Region{}
	}
	return Region{tr: t, name: name, startNS: time.Since(t.start).Nanoseconds()}
}

// End closes the span, attaching the given attributes.
func (r Region) End(attrs ...KV) {
	if r.tr == nil {
		return
	}
	end := time.Since(r.tr.start).Nanoseconds()
	var a []KV
	if len(attrs) > 0 {
		a = append(make([]KV, 0, len(attrs)), attrs...)
	}
	r.tr.mu.Lock()
	r.tr.spans = append(r.tr.spans, Span{Name: r.name, StartNS: r.startNS, DurNS: end - r.startNS, Attrs: a})
	r.tr.mu.Unlock()
}

// Frame charges n wire bytes (payload plus framing overhead) of one
// message with the given type tag. out is the direction as seen from
// this trace's vantage point. The transport layer calls this beside
// its own byte counters, so per-type totals sum to Transport.Stats.
func (t *Trace) Frame(tag byte, out bool, n int) {
	if t == nil || int(tag) >= tagSpace {
		return
	}
	dir := 0
	if out {
		dir = 1
	}
	t.mu.Lock()
	c := &t.frames[dir][tag]
	c.msgs++
	c.bytes += int64(n)
	t.mu.Unlock()
}

// Stat accumulates a named session statistic (adds v to any prior
// value under the same name).
func (t *Trace) Stat(name string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for i := range t.stats {
		if t.stats[i].K == name {
			t.stats[i].V += v
			t.mu.Unlock()
			return
		}
	}
	t.stats = append(t.stats, KV{K: name, V: v})
	t.mu.Unlock()
}

// Child starts a sub-trace (e.g. one peer session within a
// replication round) attached to this trace's tree.
func (t *Trace) Child(role string) *Trace {
	if t == nil {
		return nil
	}
	c := New(role)
	t.mu.Lock()
	t.children = append(t.children, c)
	t.mu.Unlock()
	return c
}

// Finish seals the trace with the session's outcome. Repeated calls
// keep the first result.
func (t *Trace) Finish(err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		t.done = true
		t.durNS = time.Since(t.start).Nanoseconds()
		if err != nil {
			t.err = err.Error()
		}
	}
	t.mu.Unlock()
}

// FrameStat is one (type, direction) row of a snapshot's wire table.
type FrameStat struct {
	Type  string `json:"type"`
	Dir   string `json:"dir"` // "in" or "out"
	Msgs  int64  `json:"msgs"`
	Bytes int64  `json:"bytes"`
}

// Snapshot is the immutable, JSON-marshalable form of a finished
// trace.
type Snapshot struct {
	ID       uint64      `json:"id"`
	Role     string      `json:"role"`
	Dataset  string      `json:"dataset,omitempty"`
	Strategy string      `json:"strategy,omitempty"`
	Peer     string      `json:"peer,omitempty"`
	Start    time.Time   `json:"start"`
	DurNS    int64       `json:"dur_ns"`
	Err      string      `json:"err,omitempty"`
	Spans    []Span      `json:"spans,omitempty"`
	Stats    []KV        `json:"stats,omitempty"`
	Frames   []FrameStat `json:"frames,omitempty"`
	BytesIn  int64       `json:"bytes_in"`
	BytesOut int64       `json:"bytes_out"`
	Children []*Snapshot `json:"children,omitempty"`
}

// Snapshot renders the trace (and its children, recursively). Safe to
// call on an unfinished trace — DurNS is then the time so far.
func (t *Trace) Snapshot() *Snapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	s := &Snapshot{
		ID: t.id, Role: t.role, Dataset: t.dataset, Strategy: t.strategy,
		Peer: t.peer, Start: t.start, DurNS: t.durNS, Err: t.err,
	}
	if !t.done {
		s.DurNS = time.Since(t.start).Nanoseconds()
	}
	s.Spans = append([]Span(nil), t.spans...)
	s.Stats = append([]KV(nil), t.stats...)
	for dir := 0; dir < 2; dir++ {
		name := "in"
		if dir == 1 {
			name = "out"
		}
		for tag := 0; tag < tagSpace; tag++ {
			c := t.frames[dir][tag]
			if c.msgs == 0 {
				continue
			}
			s.Frames = append(s.Frames, FrameStat{
				Type: FrameName(byte(tag)), Dir: name, Msgs: c.msgs, Bytes: c.bytes,
			})
			if dir == 0 {
				s.BytesIn += c.bytes
			} else {
				s.BytesOut += c.bytes
			}
		}
	}
	children := append([]*Trace(nil), t.children...)
	t.mu.Unlock()
	for _, c := range children {
		s.Children = append(s.Children, c.Snapshot())
	}
	return s
}

// TotalBytes is the wire total attributed to this snapshot's whole
// tree, both directions.
func (s *Snapshot) TotalBytes() int64 {
	if s == nil {
		return 0
	}
	total := s.BytesIn + s.BytesOut
	for _, c := range s.Children {
		total += c.TotalBytes()
	}
	return total
}

// StatUnchanged is the stat both ends record on a session that ended at
// its accept because the two datasets' roots were equal; Format reads it.
const StatUnchanged = "unchanged"

// StatServedState is the stat a server records on a rateless or adaptive
// session: 1 when the dataset's served state answered all of it, 0 when
// the session read the points (to build a rateless state, or past its
// prefix). Adaptive sessions, answered from the Maintainer, always say 1.
const StatServedState = "served_state"

// StatWarm is the stat both ends of a session record when it opened warm
// from what the client's last fetch of the dataset learned. A rateless
// session's first block was sized from the difference that fetch decoded,
// which the client records as estimated_diff, in place of a cold
// opening's 32-cell head (whose estimate is estimated_diff there). A robust session's sketch was the window of levels
// [StatWindowLo, StatWindowHi] of [StatMinLevel, StatMaxLevel], the levels
// around the one that fetch chose.
const StatWarm = "warm"

// The window of a warm robust session, recorded on both ends with
// StatWarm; StatWindowMiss, recorded by the client when no level of the
// window was chosen and the fetch reran the session cold; and
// StatWindowUp, recorded by the client when the window's finest level,
// below MaxLevel, was not overloaded and the fetch reran the session on
// the window from that level through MaxLevel.
const (
	StatWindowLo   = "window_lo"
	StatWindowHi   = "window_hi"
	StatMinLevel   = "min_level"
	StatMaxLevel   = "max_level"
	StatWindowMiss = "window_miss"
	StatWindowUp   = "window_up"
)

// StatKeptCells is the stat a Client's rateless fetch records: how many of
// the local cells it subtracted it kept from its last fetch of the dataset
// instead of building them from its points' keys, 0 when it keyed them
// all. Past the kept cells — when the last cells_round's frontier is
// beyond them — it keyed its points for the rest.
const StatKeptCells = "kept_cells"

// StatKeptLevels is the stat a Client's robust fetch records: how many of
// the levels of its sketch it took its own table of from what it kept
// from its last fetch of the dataset, instead of keying its points, 0
// when it kept none. The repair span's built attribute counts the tables
// it built.
const StatKeptLevels = "kept_levels"

// Stat returns the named stat's value and whether it was recorded.
func (s *Snapshot) Stat(name string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	for _, kv := range s.Stats {
		if kv.K == name {
			return kv.V, true
		}
	}
	return 0, false
}

// lastAttr is the attribute key of the last span named name, and whether
// there is one: e.g. cells_round's frontier, how far into its cell stream
// a rateless session went.
func (s *Snapshot) lastAttr(name, key string) (int64, bool) {
	for i := len(s.Spans) - 1; i >= 0; i-- {
		if s.Spans[i].Name != name {
			continue
		}
		for _, a := range s.Spans[i].Attrs {
			if a.K == key {
				return a.V, true
			}
		}
	}
	return 0, false
}

// Format writes the snapshot as an indented human-readable breakdown —
// the `robustsync explain` / `pull -trace` output.
func (s *Snapshot) Format(w io.Writer) {
	s.format(w, "")
}

func (s *Snapshot) format(w io.Writer, indent string) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, "%s%s session #%d", indent, s.Role, s.ID)
	if s.Dataset != "" {
		fmt.Fprintf(w, " dataset=%s", s.Dataset)
	}
	if s.Strategy != "" {
		fmt.Fprintf(w, " strategy=%s", s.Strategy)
	}
	if s.Peer != "" {
		fmt.Fprintf(w, " peer=%s", s.Peer)
	}
	fmt.Fprintf(w, " dur=%s", time.Duration(s.DurNS).Round(time.Microsecond))
	if s.Err != "" {
		fmt.Fprintf(w, " err=%q", s.Err)
	}
	fmt.Fprintln(w)
	if len(s.Spans) > 0 {
		fmt.Fprintf(w, "%s  phases:\n", indent)
		for _, sp := range s.Spans {
			fmt.Fprintf(w, "%s    %-14s %10s", indent, sp.Name, time.Duration(sp.DurNS).Round(time.Microsecond))
			for _, a := range sp.Attrs {
				fmt.Fprintf(w, "  %s=%d", a.K, a.V)
			}
			fmt.Fprintln(w)
		}
	}
	if len(s.Stats) > 0 {
		fmt.Fprintf(w, "%s  stats:", indent)
		for _, kv := range s.Stats {
			fmt.Fprintf(w, " %s=%d", kv.K, kv.V)
		}
		fmt.Fprintln(w)
	}
	if v, _ := s.Stat(StatUnchanged); v > 0 {
		// A session that ended at its accept has no phases to show; say
		// why rather than print what looks like an empty session.
		fmt.Fprintf(w, "%s  converged at handshake, 0 sketch bytes\n", indent)
	}
	if hint, ok := s.Stat("estimated_diff"); ok {
		if v, _ := s.Stat(StatWarm); v > 0 { // a client's trace: the server's knows no hint
			fmt.Fprintf(w, "%s  warm opening: first block sized from the last difference (%d keys), no head\n", indent, hint)
		}
	}
	if kept, _ := s.Stat(StatKeptCells); kept > 0 {
		if frontier, _ := s.lastAttr("cells_round", "frontier"); frontier <= kept {
			fmt.Fprintf(w, "%s  local cells: %d kept from the last fetch, no keys built\n", indent, kept)
		} else {
			fmt.Fprintf(w, "%s  local cells: %d kept from the last fetch, keys built past them\n", indent, kept)
		}
	}
	if kept, _ := s.Stat(StatKeptLevels); kept > 0 {
		switch built, ok := s.lastAttr("repair", "built"); {
		case !ok:
			fmt.Fprintf(w, "%s  local tables: %d levels kept from the last fetch\n", indent, kept)
		case built == 0:
			fmt.Fprintf(w, "%s  local tables: %d levels kept from the last fetch, no points keyed\n", indent, kept)
		default:
			fmt.Fprintf(w, "%s  local tables: %d levels kept from the last fetch, points keyed for %d more\n", indent, kept, built)
		}
	}
	if lo, ok := s.Stat(StatWindowLo); ok {
		hi, _ := s.Stat(StatWindowHi)
		bottom, _ := s.Stat(StatMinLevel)
		top, _ := s.Stat(StatMaxLevel)
		fmt.Fprintf(w, "%s  warm window: levels [%d,%d] of [%d,%d], %d of %d tables\n", indent, lo, hi, bottom, top, hi-lo+1, top-bottom+1)
		if v, _ := s.Stat(StatWindowUp); v > 0 {
			fmt.Fprintf(w, "%s  window up: a level above %d may decode, the fetch reran on [%d,%d]\n", indent, hi, hi, top)
		}
	}
	if v, _ := s.Stat(StatWindowMiss); v > 0 {
		fmt.Fprintf(w, "%s  window miss: no level of the window chosen, the fetch reran cold\n", indent)
	}
	if v, ok := s.Stat(StatServedState); ok && v > 0 {
		fmt.Fprintf(w, "%s  answered from the dataset's maintained state\n", indent)
	} else if ok {
		fmt.Fprintf(w, "%s  cold: rebuilt from a snapshot of the dataset's points\n", indent)
	}
	if len(s.Frames) > 0 {
		fmt.Fprintf(w, "%s  wire:  %-14s %-4s %8s %10s\n", indent, "type", "dir", "msgs", "bytes")
		for _, f := range s.Frames {
			fmt.Fprintf(w, "%s         %-14s %-4s %8d %10d\n", indent, f.Type, f.Dir, f.Msgs, f.Bytes)
		}
		fmt.Fprintf(w, "%s         total: in=%d out=%d all=%d\n", indent, s.BytesIn, s.BytesOut, s.BytesIn+s.BytesOut)
	}
	for _, c := range s.Children {
		c.format(w, indent+"  ")
	}
}

// ctxKey is the context key type for trace propagation; zero-sized so
// lookups allocate nothing.
type ctxKey struct{}

// NewContext returns ctx carrying tr. A nil trace returns ctx
// unchanged, so untraced sessions never pay the context wrapper.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}

// Ring keeps the most recent completed traces plus every
// slow/expensive one (over the latency or byte threshold), each in a
// bounded circular buffer.
type Ring struct {
	mu       sync.Mutex
	recent   []*Snapshot
	slow     []*Snapshot
	ri, si   int
	slowLat  time.Duration
	slowByte int64
}

// NewRing builds a ring holding capacity recent and capacity slow
// snapshots. A session is "slow" when its duration reaches slowLat
// (if > 0) or its attributed tree bytes reach slowBytes (if > 0).
func NewRing(capacity int, slowLat time.Duration, slowBytes int64) *Ring {
	if capacity <= 0 {
		capacity = 64
	}
	return &Ring{
		recent:   make([]*Snapshot, 0, capacity),
		slow:     make([]*Snapshot, 0, capacity),
		slowLat:  slowLat,
		slowByte: slowBytes,
	}
}

// Add records a completed snapshot.
func (r *Ring) Add(s *Snapshot) {
	if r == nil || s == nil {
		return
	}
	slow := (r.slowLat > 0 && time.Duration(s.DurNS) >= r.slowLat) ||
		(r.slowByte > 0 && s.TotalBytes() >= r.slowByte)
	r.mu.Lock()
	r.recent, r.ri = ringPut(r.recent, r.ri, s)
	if slow {
		r.slow, r.si = ringPut(r.slow, r.si, s)
	}
	r.mu.Unlock()
}

// ringPut appends into a fixed-capacity circular buffer.
func ringPut(buf []*Snapshot, i int, s *Snapshot) ([]*Snapshot, int) {
	if len(buf) < cap(buf) {
		return append(buf, s), 0
	}
	buf[i] = s
	return buf, (i + 1) % cap(buf)
}

// ringOrdered returns the buffer oldest-first.
func ringOrdered(buf []*Snapshot, i int) []*Snapshot {
	out := make([]*Snapshot, 0, len(buf))
	out = append(out, buf[i:]...)
	return append(out, buf[:i]...)
}

// Recent returns the retained recent snapshots, oldest first.
func (r *Ring) Recent() []*Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return ringOrdered(r.recent, r.ri)
}

// Slow returns the retained slow-session snapshots, oldest first.
func (r *Ring) Slow() []*Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return ringOrdered(r.slow, r.si)
}

// WriteJSON renders the ring as {"recent": [...], "slow": [...]}.
func (r *Ring) WriteJSON(w io.Writer) error {
	doc := struct {
		Recent []*Snapshot `json:"recent"`
		Slow   []*Snapshot `json:"slow"`
	}{Recent: r.Recent(), Slow: r.Slow()}
	if doc.Recent == nil {
		doc.Recent = []*Snapshot{}
	}
	if doc.Slow == nil {
		doc.Slow = []*Snapshot{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Handler serves the ring JSON — the /debug/traces endpoint.
func (r *Ring) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
}
