package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"robustset/internal/iblt"
)

// Sketch wire format:
//
//	"RSK2" | params (ParamsWireSize bytes, see Params.MarshalBinary) |
//	count u32 | nTables u16 | nTables × ( u32 len | IBLT blob )
//
// "RSK2" replaced "RSK1" when the IBLT blobs moved to the cell codec
// ("IBL3"): a table's length now follows its contents, not its shape.
const (
	sketchMagic      = "RSK2"
	sketchHeaderSize = 4 + ParamsWireSize + 4 + 2
)

// ParamsWireSize is the fixed length of the Params wire encoding:
// dim u16 | delta u64 | seed u64 | diffBudget u32 | hashCount u8 |
// minLevel u8 | maxLevel u8 | tableCapacity u32.
const ParamsWireSize = 2 + 8 + 8 + 4 + 1 + 1 + 1 + 4

// MarshalBinary encodes p in the fixed ParamsWireSize-byte wire format
// shared by the sketch header and the session handshake. The parameters
// are normalized first, so both endpoints decode identical defaults.
func (p Params) MarshalBinary() ([]byte, error) {
	p, err := p.Normalized()
	if err != nil {
		return nil, err
	}
	if p.MaxLevel > 255 || p.MinLevel > 255 {
		return nil, fmt.Errorf("core: levels [%d,%d] exceed wire format", p.MinLevel, p.MaxLevel)
	}
	return appendParams(make([]byte, 0, ParamsWireSize), p), nil
}

// UnmarshalBinary decodes MarshalBinary output, validating via the same
// normalization path that guards wire-derived sketch headers.
func (p *Params) UnmarshalBinary(data []byte) error {
	if len(data) != ParamsWireSize {
		return fmt.Errorf("core: params encoding is %d bytes, want %d", len(data), ParamsWireSize)
	}
	np, err := parseParams(data).Normalized()
	if err != nil {
		return fmt.Errorf("core: params: %w", err)
	}
	*p = np
	return nil
}

// appendParams appends the wire encoding of normalized parameters.
func appendParams(dst []byte, p Params) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(p.Universe.Dim))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Universe.Delta))
	dst = binary.LittleEndian.AppendUint64(dst, p.Seed)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.DiffBudget))
	dst = append(dst, byte(p.HashCount), byte(p.MinLevel), byte(p.MaxLevel))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.TableCapacity))
	return dst
}

// parseParams decodes exactly ParamsWireSize bytes; the caller validates
// the result via Normalized().
func parseParams(data []byte) Params {
	p := Params{}
	p.Universe.Dim = int(binary.LittleEndian.Uint16(data))
	p.Universe.Delta = int64(binary.LittleEndian.Uint64(data[2:]))
	p.Seed = binary.LittleEndian.Uint64(data[10:])
	p.DiffBudget = int(binary.LittleEndian.Uint32(data[18:]))
	p.HashCount = int(data[22])
	p.MinLevel = int(data[23])
	p.MaxLevel = int(data[24])
	p.levelsSet = true
	p.TableCapacity = int(binary.LittleEndian.Uint32(data[25:]))
	return p
}

// MarshalBinary encodes the sketch for transmission. The parameters ride
// along, so Bob reconstructs everything (grid, hash functions) from the
// message alone plus the shared universe conventions.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	p, err := s.Params.Normalized()
	if err != nil {
		return nil, err
	}
	if p.MaxLevel > 255 || p.MinLevel > 255 {
		return nil, fmt.Errorf("core: levels [%d,%d] exceed wire format", p.MinLevel, p.MaxLevel)
	}
	out := make([]byte, 0, s.WireSize())
	out = append(out, sketchMagic...)
	out = appendParams(out, p)
	out = binary.LittleEndian.AppendUint32(out, uint32(s.Count))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(s.Tables)))
	for _, t := range s.Tables {
		blob, err := t.MarshalBinary()
		if err != nil {
			return nil, err
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(blob)))
		out = append(out, blob...)
	}
	return out, nil
}

// unmarshalLevelTable parses the marshalled IBLT of one level, built for
// the given key capacity under normalized parameters. A table of any
// other shape would not subtract from Bob's, and is refused with
// ErrLevelTableMismatch on its header, before anything the blob declares
// is allocated.
func unmarshalLevelTable(p Params, level, capacity int, blob []byte) (*iblt.Table, error) {
	t, err := iblt.UnmarshalTable(blob, levelConfig(p, level, capacity))
	if errors.Is(err, iblt.ErrShape) {
		return nil, fmt.Errorf("%w: level %d: %v", ErrLevelTableMismatch, level, err)
	}
	if err != nil {
		return nil, fmt.Errorf("level %d: %w", level, err)
	}
	return t, nil
}

// UnmarshalLevelTable parses Alice's answer to a request for the table
// of one level at one capacity — what ReconcileLevel takes — refusing
// any other shape with ErrLevelTableMismatch before it is allocated.
func (v *View) UnmarshalLevelTable(level, capacity int, blob []byte) (*iblt.Table, error) {
	return unmarshalLevelTable(v.p, level, capacity, blob)
}

// SketchWindow cuts the window of levels [lo, hi] out of a marshalled
// sketch without parsing a table of it. The window is head followed by
// tail: head is blob's header with the levels lo and hi and the table
// count to match, tail is blob's tables of levels lo through hi, byte for
// byte. Since no level's table depends on MinLevel or MaxLevel, that is
// the sketch BuildSketch writes under the parameters WithLevels(lo, hi).
// A window outside [MinLevel, MaxLevel], with lo > hi, or of the whole
// range is ErrLevelOutOfRange.
func SketchWindow(blob []byte, lo, hi int) (head, tail []byte, err error) {
	if len(blob) < sketchHeaderSize || string(blob[:4]) != sketchMagic {
		return nil, nil, errors.New("core: sketch: bad magic or short header")
	}
	p := parseParams(blob[4:])
	if lo < p.MinLevel || lo > hi || hi > p.MaxLevel || (lo == p.MinLevel && hi == p.MaxLevel) {
		return nil, nil, fmt.Errorf("%w: window [%d,%d] of a sketch of levels [%d,%d]", ErrLevelOutOfRange, lo, hi, p.MinLevel, p.MaxLevel)
	}
	start, off := 0, sketchHeaderSize
	for l := p.MinLevel; l <= hi; l++ {
		if l == lo {
			start = off
		}
		if off+4 > len(blob) {
			return nil, nil, errors.New("core: sketch: truncated table header")
		}
		if off += 4 + int(binary.LittleEndian.Uint32(blob[off:])); off > len(blob) {
			return nil, nil, errors.New("core: sketch: truncated table body")
		}
	}
	head = append(make([]byte, 0, sketchHeaderSize), sketchMagic...)
	head = appendParams(head, p.WithLevels(lo, hi))
	head = append(head, blob[4+ParamsWireSize:][:4]...) // the point count
	head = binary.LittleEndian.AppendUint16(head, uint16(hi-lo+1))
	return head, blob[start:off], nil
}

// UnmarshalBinary parses MarshalBinary output. The sketch carries its
// own parameters, so they are what its tables are held to: a table is at
// most (KeyLen(MaxDim)+16)/9 times the bytes it arrived in.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	return s.unmarshal(data, nil)
}

// UnmarshalAs is UnmarshalBinary for a caller that knows the normalized
// parameters the sketch must carry: a sketch of any others is refused with
// ErrInconsistentSketch on its header, before a table of it is parsed.
func (s *Sketch) UnmarshalAs(data []byte, want Params) error {
	want.levelsSet = true // as on every Params read off the wire
	return s.unmarshal(data, &want)
}

func (s *Sketch) unmarshal(data []byte, want *Params) error {
	if len(data) < sketchHeaderSize || string(data[:4]) != sketchMagic {
		return errors.New("core: sketch: bad magic or short header")
	}
	p := parseParams(data[4:])
	count := int(binary.LittleEndian.Uint32(data[4+ParamsWireSize:]))
	nTables := int(binary.LittleEndian.Uint16(data[4+ParamsWireSize+4:]))
	p, err := p.Normalized()
	if err != nil {
		return fmt.Errorf("core: sketch: %w", err)
	}
	if want != nil && p != *want {
		return fmt.Errorf("%w: sketch parameters %+v, want %+v", ErrInconsistentSketch, p, *want)
	}
	if nTables != p.MaxLevel-p.MinLevel+1 {
		return fmt.Errorf("core: sketch: %d tables for level range [%d,%d]", nTables, p.MinLevel, p.MaxLevel)
	}
	ns := &Sketch{Params: p, Count: count}
	off := sketchHeaderSize
	for i := 0; i < nTables; i++ {
		if off+4 > len(data) {
			return errors.New("core: sketch: truncated table header")
		}
		l := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if l > len(data)-off {
			return errors.New("core: sketch: truncated table body")
		}
		// The shape of every conforming level table follows from the
		// parameters alone, and is held against the table's header
		// before a cell of it is allocated.
		got, err := unmarshalLevelTable(p, p.MinLevel+i, p.TableCapacity, data[off:off+l])
		if err != nil {
			return fmt.Errorf("core: sketch: %w", err)
		}
		off += l
		ns.Tables = append(ns.Tables, got)
	}
	if off != len(data) {
		return errors.New("core: sketch: trailing bytes")
	}
	*s = *ns
	return nil
}
