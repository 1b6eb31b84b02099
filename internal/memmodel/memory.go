// Package memmodel provides the virtual address space the miniC interpreter
// executes against: a sparse, page-granular byte store plus the region
// layout (data segment, heap, stack) that determines where globals, heap
// blocks and stack frames live. Addresses are chosen to resemble those in
// the paper's trace listings (globals near 0x601040, stack near 0x7ff000000)
// so that generated traces look like genuine Gleipnir output.
package memmodel

import (
	"encoding/binary"
	"fmt"
	"math"
)

const pageShift = 12
const pageSize = 1 << pageShift

// Memory is a sparse byte-addressable store. The zero value is ready to use;
// unwritten bytes read as zero (as freshly mapped pages do).
type Memory struct {
	pages map[uint64]*[pageSize]byte
	// last caches the most recently used page, number lastPN, in front of
	// the page map. Pages are never freed, so it cannot go stale.
	last   *[pageSize]byte
	lastPN uint64
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	pn := addr >> pageShift
	if m.last != nil && pn == m.lastPN {
		return m.last
	}
	p := m.pages[pn]
	if p == nil {
		if !create {
			return nil
		}
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	m.last, m.lastPN = p, pn
	return p
}

// ReadBytes copies size bytes starting at addr into a fresh slice.
func (m *Memory) ReadBytes(addr uint64, size int) []byte {
	out := make([]byte, size)
	m.read(addr, out)
	return out
}

// read fills dst with the bytes starting at addr.
func (m *Memory) read(addr uint64, dst []byte) {
	for i := 0; i < len(dst); {
		p := m.page(addr+uint64(i), false)
		off := int((addr + uint64(i)) & (pageSize - 1))
		n := pageSize - off
		if n > len(dst)-i {
			n = len(dst) - i
		}
		if p != nil {
			copy(dst[i:i+n], p[off:off+n])
		} else {
			clear(dst[i : i+n])
		}
		i += n
	}
}

// WriteBytes stores b starting at addr.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	for i := 0; i < len(b); {
		p := m.page(addr+uint64(i), true)
		off := int((addr + uint64(i)) & (pageSize - 1))
		n := copy(p[off:], b[i:])
		i += n
	}
}

// ReadUint reads a little-endian unsigned integer of the given byte size
// (1, 2, 4 or 8). It reads in place, without allocating.
func (m *Memory) ReadUint(addr uint64, size int) uint64 {
	switch size {
	case 1, 2, 4, 8:
	default:
		panic(fmt.Sprintf("memmodel: bad integer size %d", size))
	}
	off := int(addr & (pageSize - 1))
	if off+size > pageSize {
		// The value straddles two pages; the bytes above size stay zero.
		var b [8]byte
		m.read(addr, b[:size])
		return binary.LittleEndian.Uint64(b[:])
	}
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	switch size {
	case 1:
		return uint64(p[off])
	case 2:
		return uint64(binary.LittleEndian.Uint16(p[off:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(p[off:]))
	}
	return binary.LittleEndian.Uint64(p[off:])
}

// WriteUint stores a little-endian unsigned integer of the given byte size.
func (m *Memory) WriteUint(addr uint64, size int, v uint64) {
	var b [8]byte
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b[:2], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b[:4], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(b[:8], v)
	default:
		panic(fmt.Sprintf("memmodel: bad integer size %d", size))
	}
	m.WriteBytes(addr, b[:size])
}

// ReadInt reads a little-endian signed integer of the given byte size.
func (m *Memory) ReadInt(addr uint64, size int) int64 {
	u := m.ReadUint(addr, size)
	shift := uint(64 - size*8)
	return int64(u<<shift) >> shift
}

// WriteInt stores a little-endian signed integer of the given byte size.
func (m *Memory) WriteInt(addr uint64, size int, v int64) {
	m.WriteUint(addr, size, uint64(v))
}

// ReadFloat reads an IEEE-754 float of the given byte size (4 or 8).
func (m *Memory) ReadFloat(addr uint64, size int) float64 {
	switch size {
	case 4:
		return float64(math.Float32frombits(uint32(m.ReadUint(addr, 4))))
	case 8:
		return math.Float64frombits(m.ReadUint(addr, 8))
	}
	panic(fmt.Sprintf("memmodel: bad float size %d", size))
}

// WriteFloat stores an IEEE-754 float of the given byte size (4 or 8).
func (m *Memory) WriteFloat(addr uint64, size int, v float64) {
	switch size {
	case 4:
		m.WriteUint(addr, 4, uint64(math.Float32bits(float32(v))))
	case 8:
		m.WriteUint(addr, 8, math.Float64bits(v))
	default:
		panic(fmt.Sprintf("memmodel: bad float size %d", size))
	}
}

// Pages returns the number of materialised pages (for tests and stats).
func (m *Memory) Pages() int { return len(m.pages) }
