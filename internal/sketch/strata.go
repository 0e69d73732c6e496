package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"

	"robustset/internal/hashutil"
	"robustset/internal/iblt"
)

// Strata is a strata estimator (Eppstein et al. 2011) for set-difference
// size: stratum i is a small IBLT over the keys whose sampling hash has
// exactly i leading zero bits, i.e. a 2^-(i+1) sample of the key space.
// Subtracting two parties' strata and decoding from the sparsest stratum
// downward yields an unbiased difference estimate that is accurate even
// for very small differences, where bottom-k sketches are noisy.
type Strata struct {
	strata   int
	cells    int // cells per stratum IBLT
	keyLen   int
	seed     uint64
	tables   []*iblt.Table
	sampleFn hashutil.Hasher
}

// StrataConfig parameterizes a strata estimator.
type StrataConfig struct {
	// Strata is the number of strata; 16 handles key sets up to ~2^16
	// differences per stratum-0, and 24 is comfortable for anything this
	// module produces. Default 16.
	Strata int
	// CellsPerStratum is the IBLT size per stratum. Default 32.
	CellsPerStratum int
	// KeyLen is the exact key length in bytes.
	KeyLen int
	// Seed keys both the sampling hash and the stratum IBLTs.
	Seed uint64
}

func (c *StrataConfig) fill() {
	if c.Strata == 0 {
		c.Strata = 16
	}
	if c.CellsPerStratum == 0 {
		c.CellsPerStratum = 32
	}
}

// NewStrata constructs an empty strata estimator.
func NewStrata(cfg StrataConfig) (*Strata, error) {
	s, err := newStrata(cfg)
	if err != nil {
		return nil, err
	}
	for i := range s.tables {
		if s.tables[i], err = iblt.New(s.tableConfig(i)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newStrata validates cfg and returns the estimator without its tables.
func newStrata(cfg StrataConfig) (*Strata, error) {
	cfg.fill()
	if cfg.Strata < 2 || cfg.Strata > 40 {
		return nil, fmt.Errorf("sketch: strata count %d outside [2,40]", cfg.Strata)
	}
	if cfg.KeyLen < 1 {
		return nil, fmt.Errorf("sketch: strata key length %d < 1", cfg.KeyLen)
	}
	return &Strata{
		strata:   cfg.Strata,
		cells:    cfg.CellsPerStratum,
		keyLen:   cfg.KeyLen,
		seed:     cfg.Seed,
		tables:   make([]*iblt.Table, cfg.Strata),
		sampleFn: hashutil.NewHasher(hashutil.DeriveSeed(cfg.Seed, "sketch/strata/sample")),
	}, nil
}

// tableConfig is the shape of stratum i's IBLT.
func (s *Strata) tableConfig(i int) iblt.Config {
	return iblt.Config{
		Cells:     s.cells,
		HashCount: 4,
		KeyLen:    s.keyLen,
		Seed:      hashutil.DeriveSeedN(s.seed, "sketch/strata/tbl", i),
	}.Normalized()
}

// StratumOf maps a key to its stratum: the number of leading zero bits of
// its sampling hash, clamped into [0, strata). It is exported for
// workload construction and tests — a difference skewed into stratum 0
// (half the key space) is invisible above it and drives the estimate
// toward zero, the adversarial regime for estimate-then-size protocols.
func (s *Strata) StratumOf(key []byte) int {
	h := s.sampleFn.Hash(key)
	lz := 0
	for lz < s.strata-1 && h&(1<<63) == 0 {
		lz++
		h <<= 1
	}
	return lz
}

// Add inserts a key into its stratum.
func (s *Strata) Add(key []byte) {
	s.tables[s.StratumOf(key)].Insert(key)
}

// Remove is the inverse of Add: the estimator is linear in its keys, so
// adding a key and removing it again leaves every cell as it was.
func (s *Strata) Remove(key []byte) {
	s.tables[s.StratumOf(key)].Delete(key)
}

// EstimateDiff estimates |A Δ B| from two compatible strata estimators.
// Following the Difference Digest construction: subtract stratum-wise and
// decode from the sparsest stratum downward; when stratum i fails to
// decode, scale the count recovered so far by 2^(i+1).
func EstimateStrataDiff(a, b *Strata) (float64, error) {
	if a.strata != b.strata || a.cells != b.cells || a.keyLen != b.keyLen || a.seed != b.seed {
		return 0, ErrIncompatibleSketch
	}
	count := 0
	for i := a.strata - 1; i >= 0; i-- {
		t := a.tables[i].Clone()
		if err := t.Sub(b.tables[i]); err != nil {
			return 0, err
		}
		diff, err := t.Decode()
		if err != nil {
			// Stratum i is overloaded: everything at stratum i and below
			// is a 2^-(i+1)-sample... strata above i contributed `count`
			// keys drawn with cumulative rate 2^-(i+1).
			return float64(count) * float64(uint64(1)<<uint(i+1)), nil
		}
		count += diff.Size()
	}
	return float64(count), nil
}

// strataMagic became "STR2" when the stratum IBLT blobs moved to the
// cell codec ("IBL3").
const strataMagic = "STR2"

// MarshalBinary encodes the estimator:
//
//	"STR2" | strata u8 | cells u32 | keyLen u16 | seed u64 | per-stratum IBLT blobs (u32 length prefix each)
func (s *Strata) MarshalBinary() ([]byte, error) {
	out := []byte(strataMagic)
	out = append(out, byte(s.strata))
	out = binary.LittleEndian.AppendUint32(out, uint32(s.cells))
	out = binary.LittleEndian.AppendUint16(out, uint16(s.keyLen))
	out = binary.LittleEndian.AppendUint64(out, s.seed)
	for _, t := range s.tables {
		blob, err := t.MarshalBinary()
		if err != nil {
			return nil, err
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(blob)))
		out = append(out, blob...)
	}
	return out, nil
}

// strataHeader returns the configuration a marshalled estimator declares.
func strataHeader(data []byte) (StrataConfig, error) {
	if len(data) < 19 || string(data[:4]) != strataMagic {
		return StrataConfig{}, errors.New("sketch: strata: bad magic or short buffer")
	}
	return StrataConfig{
		Strata:          int(data[4]),
		CellsPerStratum: int(binary.LittleEndian.Uint32(data[5:])),
		KeyLen:          int(binary.LittleEndian.Uint16(data[9:])),
		Seed:            binary.LittleEndian.Uint64(data[11:]),
	}, nil
}

// UnmarshalBinary parses MarshalBinary output. Each stratum's table is
// held to the shape the header declares before it is allocated, and to
// its own bytes at nine a cell, so the estimator is at most
// (KeyLen+16)/9 times the bytes received, KeyLen being the header's.
func (s *Strata) UnmarshalBinary(data []byte) error {
	cfg, err := strataHeader(data)
	if err != nil {
		return err
	}
	return s.UnmarshalAs(data, cfg)
}

// UnmarshalAs is UnmarshalBinary for a caller whose parameters imply the
// estimator's configuration, as a protocol's do — any other would not
// subtract from its own. A blob that declares another is refused with
// ErrIncompatibleSketch on its header, so nothing a peer declares sizes
// an allocation.
func (s *Strata) UnmarshalAs(data []byte, want StrataConfig) error {
	got, err := strataHeader(data)
	if err != nil {
		return err
	}
	if want.fill(); got != want {
		return fmt.Errorf("%w: strata blob declares %+v, want %+v", ErrIncompatibleSketch, got, want)
	}
	ns, err := newStrata(want)
	if err != nil {
		return err
	}
	off := 19
	for i := range ns.tables {
		if off+4 > len(data) {
			return errors.New("sketch: strata: truncated stratum table")
		}
		l := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if l > len(data)-off {
			return errors.New("sketch: strata: truncated stratum table body")
		}
		if ns.tables[i], err = iblt.UnmarshalTable(data[off:off+l], ns.tableConfig(i)); err != nil {
			return fmt.Errorf("sketch: strata: stratum %d: %w", i, err)
		}
		off += l
	}
	if off != len(data) {
		return errors.New("sketch: strata: trailing bytes")
	}
	*s = *ns
	return nil
}

// WireSize returns the marshalled size in bytes.
func (s *Strata) WireSize() int {
	n := 19
	for _, t := range s.tables {
		n += 4 + t.WireSize()
	}
	return n
}
