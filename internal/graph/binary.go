package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// binaryMagic identifies the CSR snapshot format, versioned so future
// layout changes can be detected instead of mis-read. Version 2 appends a
// node-id relabel mapping after the adjacency; version 1 is the bare CSR.
var (
	binaryMagic   = [8]byte{'R', 'S', 'A', 'C', 'C', 'G', '0', '1'}
	binaryMagicV2 = [8]byte{'R', 'S', 'A', 'C', 'C', 'G', '0', '2'}
)

// WriteBinary writes g as a compact CSR snapshot: magic, n, m, the out
// offsets and the out adjacency (in-adjacency is reconstructed on load).
// Loading a snapshot is ~10x faster than re-parsing an edge list, which
// matters for the benchmark harness's larger graphs.
func WriteBinary(w io.Writer, g *Graph) error {
	return WriteBinaryMapped(w, g, nil)
}

// WriteBinaryMapped is WriteBinary for a relabeled graph: toOld (as
// returned by RelabelByDegree) rides along in the snapshot so a loader can
// translate node ids without re-deriving the permutation — re-deriving is
// impossible once only the relabeled CSR survives, since degree ties hide
// the original order. A nil toOld writes the plain version-1 format, so v1
// snapshots stay byte-identical.
func WriteBinaryMapped(w io.Writer, g *Graph, toOld []int32) error {
	magic := binaryMagic
	if toOld != nil {
		if len(toOld) != g.n {
			return fmt.Errorf("graph: mapping has %d entries for %d nodes", len(toOld), g.n)
		}
		magic = binaryMagicV2
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	hdr := [2]int64{int64(g.n), int64(len(g.outAdj))}
	if err := binary.Write(bw, binary.LittleEndian, hdr[:]); err != nil {
		return err
	}
	offs := make([]int64, len(g.outOff))
	for i, o := range g.outOff {
		offs[i] = int64(o)
	}
	if err := binary.Write(bw, binary.LittleEndian, offs); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.outAdj); err != nil {
		return err
	}
	if toOld != nil {
		if err := binary.Write(bw, binary.LittleEndian, toOld); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary loads a snapshot written by WriteBinary or WriteBinaryMapped,
// validating the magic, header and adjacency invariants before
// reconstructing the in-CSR. A version-2 relabel mapping, if present, is
// validated and discarded; use ReadBinaryMapped to keep it.
func ReadBinary(r io.Reader) (*Graph, error) {
	g, _, err := ReadBinaryMapped(r)
	return g, err
}

// ReadBinaryMapped is ReadBinary returning the relabel mapping too: for a
// version-2 snapshot, toOld[newID] gives the original id of each node (a
// validated permutation); for a version-1 snapshot toOld is nil, meaning
// ids are original.
func ReadBinaryMapped(r io.Reader) (g *Graph, toOld []int32, err error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	mapped := magic == binaryMagicV2
	if magic != binaryMagic && !mapped {
		return nil, nil, fmt.Errorf("graph: bad magic %q (not a CSR snapshot)", magic)
	}
	var hdr [2]int64
	if err := binary.Read(br, binary.LittleEndian, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("graph: reading header: %w", err)
	}
	n, m := hdr[0], hdr[1]
	const maxReasonable = 1 << 40
	if n < 0 || m < 0 || n > maxReasonable || m > maxReasonable {
		return nil, nil, fmt.Errorf("graph: implausible header n=%d m=%d", n, m)
	}
	offs, err := readChunked[int64](br, n+1)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: reading offsets: %w", err)
	}
	g = &Graph{n: int(n), outOff: make([]int, n+1)}
	prev := int64(0)
	for i, o := range offs {
		if o < prev || o > m {
			return nil, nil, fmt.Errorf("graph: offset %d out of order", i)
		}
		g.outOff[i] = int(o)
		prev = o
	}
	if offs[n] != m {
		return nil, nil, fmt.Errorf("graph: final offset %d != m %d", offs[n], m)
	}
	if g.outAdj, err = readChunked[int32](br, m); err != nil {
		return nil, nil, fmt.Errorf("graph: reading adjacency: %w", err)
	}
	for _, v := range g.outAdj {
		if v < 0 || int64(v) >= n {
			return nil, nil, fmt.Errorf("graph: adjacency target %d out of range", v)
		}
	}
	if mapped {
		if toOld, err = readChunked[int32](br, n); err != nil {
			return nil, nil, fmt.Errorf("graph: reading relabel mapping: %w", err)
		}
		seen := make([]bool, n)
		for i, old := range toOld {
			if old < 0 || int64(old) >= n || seen[old] {
				return nil, nil, fmt.Errorf("graph: relabel mapping entry %d=%d is not a permutation", i, old)
			}
			seen[old] = true
		}
	}
	// Rebuild the in-CSR by counting sort, as Builder does.
	g.inAdj = make([]int32, m)
	g.inOff = make([]int, n+1)
	for _, v := range g.outAdj {
		g.inOff[v+1]++
	}
	for i := 0; i < int(n); i++ {
		g.inOff[i+1] += g.inOff[i]
	}
	cursor := make([]int, n)
	copy(cursor, g.inOff[:n])
	for u := int32(0); int64(u) < n; u++ {
		for _, v := range g.outAdj[g.outOff[u]:g.outOff[u+1]] {
			g.inAdj[cursor[v]] = u
			cursor[v]++
		}
	}
	return g, toOld, nil
}

// readChunked reads count little-endian values into a slice that grows
// with the data actually read, so a header that claims more entries than
// the input holds fails at EOF instead of allocating its claim up front.
func readChunked[T int32 | int64](r io.Reader, count int64) ([]T, error) {
	const chunk = 1 << 16
	out := make([]T, 0, min(count, chunk))
	for int64(len(out)) < count {
		start := len(out)
		out = append(out, make([]T, min(count-int64(start), chunk))...)
		if err := binary.Read(r, binary.LittleEndian, out[start:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
