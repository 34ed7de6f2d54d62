package label

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/order"
)

// Binary index format. The paper's deployment model collects the
// distributed label sets onto one machine and serves queries from
// memory there (§I, Exp 1); this serialization is how that machine
// loads the index. The ordering's rank permutation is embedded so a
// reader can translate vertex IDs to ranks without the graph.

const indexMagic = uint64(0x44524c494e444558) // "DRLINDEX"

// WriteTo serializes the index. It returns the number of bytes
// written. A budgeted index is refused: the format carries neither its
// graph nor its completeness flags, so Read would take it as complete.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	if x.b != nil {
		return 0, errors.New("label: a budgeted index retains its graph and cannot be serialized")
	}
	bw := bufio.NewWriter(w)
	var written int64
	put := func(data any, size int64) error {
		if err := binary.Write(bw, binary.LittleEndian, data); err != nil {
			return fmt.Errorf("label: writing index: %w", err)
		}
		written += size
		return nil
	}
	if err := put(indexMagic, 8); err != nil {
		return written, err
	}
	if err := put(uint64(x.n), 8); err != nil {
		return written, err
	}
	if err := put(uint64(len(x.inLab)), 8); err != nil {
		return written, err
	}
	if err := put(uint64(len(x.outLab)), 8); err != nil {
		return written, err
	}
	ranks := make([]int32, x.n)
	for v := 0; v < x.n; v++ {
		ranks[v] = int32(x.ord.Ranks()[v])
	}
	if err := put(ranks, int64(4*x.n)); err != nil {
		return written, err
	}
	for _, off := range [][]int64{x.inOff, x.outOff} {
		if err := put(off, int64(8*len(off))); err != nil {
			return written, err
		}
	}
	for _, lab := range [][]order.Rank{x.inLab, x.outLab} {
		if err := put(lab, int64(4*len(lab))); err != nil {
			return written, err
		}
	}
	if err := bw.Flush(); err != nil {
		return written, fmt.Errorf("label: flushing index: %w", err)
	}
	return written, nil
}

// Read deserializes an index written by WriteTo.
func Read(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	var magic, n64, nIn, nOut uint64
	for _, p := range []*uint64{&magic, &n64, &nIn, &nOut} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("label: reading index header: %w", err)
		}
	}
	if magic != indexMagic {
		return nil, errors.New("label: not an index file (bad magic)")
	}
	// In-label entries are capped by the int32 backward offsets link
	// derives after validation.
	if n64 > 1<<31 || nIn > math.MaxInt32 || nOut > 1<<40 {
		return nil, fmt.Errorf("label: implausible index header n=%d", n64)
	}
	n := int(n64)
	ranks, err := readInt32s(br, int64(n))
	if err != nil {
		return nil, fmt.Errorf("label: reading rank permutation: %w", err)
	}
	ordRanks := make([]order.Rank, n)
	seen := make([]bool, n)
	for v, r := range ranks {
		if r < 0 || int(r) >= n || seen[r] {
			return nil, fmt.Errorf("label: corrupt rank %d for vertex %d", r, v)
		}
		seen[r] = true
		ordRanks[v] = order.Rank(r)
	}
	x := &Index{n: n}
	// Bounded chunk reads: corrupt headers fail at the first missing
	// chunk instead of forcing giant allocations.
	if x.inOff, err = readInt64s(br, n+1); err != nil {
		return nil, fmt.Errorf("label: reading offsets: %w", err)
	}
	if x.outOff, err = readInt64s(br, n+1); err != nil {
		return nil, fmt.Errorf("label: reading offsets: %w", err)
	}
	if x.inLab, err = readRanks(br, int64(nIn)); err != nil {
		return nil, fmt.Errorf("label: reading labels: %w", err)
	}
	if x.outLab, err = readRanks(br, int64(nOut)); err != nil {
		return nil, fmt.Errorf("label: reading labels: %w", err)
	}
	if x.inOff[n] != int64(nIn) || x.outOff[n] != int64(nOut) {
		return nil, errors.New("label: corrupt index (offset mismatch)")
	}
	for _, off := range [][]int64{x.inOff, x.outOff} {
		if off[0] != 0 {
			return nil, errors.New("label: corrupt index (bad first offset)")
		}
		for i := 1; i <= n; i++ {
			if off[i] < off[i-1] {
				return nil, errors.New("label: corrupt index (non-monotone offsets)")
			}
		}
	}
	for _, lab := range [][]order.Rank{x.inLab, x.outLab} {
		for _, r := range lab {
			if r < 0 || int(r) >= n {
				return nil, errors.New("label: corrupt index (rank out of range)")
			}
		}
	}
	x.ord = order.FromRanks(ordRanks)
	x.link()
	return x, nil
}

// chunkElems bounds single allocations while reading untrusted sizes.
const chunkElems = 1 << 16

func readInt64s(r io.Reader, count int) ([]int64, error) {
	out := make([]int64, 0, min(count, chunkElems))
	for len(out) < count {
		chunk := make([]int64, min(count-len(out), chunkElems))
		if err := binary.Read(r, binary.LittleEndian, chunk); err != nil {
			return nil, err
		}
		out = append(out, chunk...)
	}
	return out, nil
}

func readInt32s(r io.Reader, count int64) ([]int32, error) {
	out := make([]int32, 0, min(count, chunkElems))
	for int64(len(out)) < count {
		chunk := make([]int32, min(count-int64(len(out)), chunkElems))
		if err := binary.Read(r, binary.LittleEndian, chunk); err != nil {
			return nil, err
		}
		out = append(out, chunk...)
	}
	return out, nil
}

func readRanks(r io.Reader, count int64) ([]order.Rank, error) {
	raw, err := readInt32s(r, count)
	if err != nil {
		return nil, err
	}
	out := make([]order.Rank, len(raw))
	for i, v := range raw {
		out[i] = order.Rank(v)
	}
	return out, nil
}
