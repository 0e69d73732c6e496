package transport

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Buffer recycling for the serving path. The transport reuses one
// receive buffer per connection (Recv's contract: the returned slice is
// valid only until the next Recv), the mux demux copies each DATA
// payload out of that buffer into a recycled buffer which the consuming
// stream returns on its next Recv, and the protocol layer borrows
// send-encoding buffers the same way — so a steady-state reconciliation
// session allocates nothing per message instead of one buffer per frame
// on each side.
//
// Buffers live in power-of-two size classes from 64 B to 1 MiB (one
// class above DefaultMuxWindow, so every conforming DATA payload is
// poolable); larger requests fall back to plain allocation. Each class
// keeps a small bounded stack under a mutex — the handful of
// lock operations per message is noise next to the syscalls the message
// already costs, and unlike sync.Pool a Put needs no per-call
// interface allocation.

const (
	poolMinShift   = 6  // smallest pooled class: 64 B
	poolMaxShift   = 20 // largest pooled class: 1 MiB
	poolClassCount = poolMaxShift - poolMinShift + 1
	perClassLimit  = 32 // buffers retained per class
)

// maxRetainedFrame bounds the per-connection receive and frame-encoding
// scratch buffers: a one-off jumbo frame is allocated fresh and dropped
// rather than pinned for the connection's lifetime.
const maxRetainedFrame = 1 << 22 // 4 MiB

// poolingDisabled switches every buffer-recycling path back to
// fresh-allocation behavior. Off by default (pooling on).
var poolingDisabled atomic.Bool

// SetBufferPooling toggles buffer recycling on the serving path
// process-wide. Pooling is on by default; the off switch exists so
// tests can compare pooled against fresh-allocated
// behavior (results must be byte-identical, only allocs/op may differ).
func SetBufferPooling(on bool) { poolingDisabled.Store(!on) }

// BufferPoolingEnabled reports whether buffer recycling is on.
func BufferPoolingEnabled() bool { return !poolingDisabled.Load() }

// bufPool is a set of per-size-class buffer stacks.
type bufPool struct {
	mu      sync.Mutex
	classes [poolClassCount][][]byte
}

// pool is the process-wide buffer pool shared by all muxes and the
// protocol send path.
var pool bufPool

// GetBuf returns a length-n byte slice, recycled when a pooled buffer
// of n's size class is available. The caller owns the buffer until it
// passes it to PutBuf (or forever — dropping it is always safe).
func GetBuf(n int) []byte { return pool.get(n) }

// PutBuf recycles a buffer previously returned by GetBuf. The caller
// must not touch b afterwards. Buffers whose capacity is not a pooled
// size class are dropped silently, so PutBuf is safe on any slice.
func PutBuf(b []byte) { pool.put(b) }

func (p *bufPool) get(n int) []byte {
	if n == 0 {
		return []byte{}
	}
	shift := bits.Len(uint(n - 1))
	if shift < poolMinShift {
		shift = poolMinShift
	}
	if shift > poolMaxShift || poolingDisabled.Load() {
		return make([]byte, n)
	}
	c := shift - poolMinShift
	p.mu.Lock()
	if s := p.classes[c]; len(s) > 0 {
		b := s[len(s)-1]
		s[len(s)-1] = nil
		p.classes[c] = s[:len(s)-1]
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]byte, n, 1<<shift)
}

func (p *bufPool) put(b []byte) {
	c := cap(b)
	if c < 1<<poolMinShift || c > 1<<poolMaxShift ||
		bits.OnesCount(uint(c)) != 1 || poolingDisabled.Load() {
		return
	}
	cl := bits.TrailingZeros(uint(c)) - poolMinShift
	p.mu.Lock()
	if len(p.classes[cl]) < perClassLimit {
		p.classes[cl] = append(p.classes[cl], b[:c])
	}
	p.mu.Unlock()
}
