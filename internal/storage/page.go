// Package storage implements the simulated disk under the DBMS engine:
// fixed-size slotted pages, heap files of pages, and an LRU buffer pool
// with I/O accounting. The "disk" is an in-memory page store whose read
// and write counters drive the engine's cost behaviour; it stands in
// for the paper's Oracle storage layer.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"tango/internal/types"
)

// PageSize is the size of every page in bytes (8 KB, a common DBMS
// block size; the paper's block-count statistics are in these units).
const PageSize = 8192

// PageID identifies a page within a file.
type PageID struct {
	File FileID
	No   int32
}

// FileID identifies a heap file on the disk.
type FileID int32

// Page is a slotted page: a header with a slot directory growing from
// the front and record data growing from the back.
//
// Layout: [numSlots uint16][freeStart uint16][freeEnd uint16]
// then numSlots slot entries of [offset uint16][length uint16];
// record bytes live at [offset, offset+length).
type Page struct {
	buf   [PageSize]byte
	dirty bool
}

const (
	pageHeaderSize = 6
	slotSize       = 4
)

var (
	// ErrPageFull is returned by Insert when the record does not fit.
	ErrPageFull = errors.New("storage: page full")
	// ErrNoRecord is returned for an empty or out-of-range slot.
	ErrNoRecord = errors.New("storage: no such record")
)

// Reset initializes an empty page.
func (p *Page) Reset() {
	for i := range p.buf[:pageHeaderSize] {
		p.buf[i] = 0
	}
	p.setNumSlots(0)
	p.setFreeStart(pageHeaderSize)
	p.setFreeEnd(PageSize)
	p.dirty = true
}

func (p *Page) numSlots() int      { return int(binary.LittleEndian.Uint16(p.buf[0:])) }
func (p *Page) setNumSlots(n int)  { binary.LittleEndian.PutUint16(p.buf[0:], uint16(n)) }
func (p *Page) freeStart() int     { return int(binary.LittleEndian.Uint16(p.buf[2:])) }
func (p *Page) setFreeStart(n int) { binary.LittleEndian.PutUint16(p.buf[2:], uint16(n)) }
func (p *Page) freeEnd() int       { return int(binary.LittleEndian.Uint16(p.buf[4:])) }
func (p *Page) setFreeEnd(n int) {
	// PageSize does not fit uint16; store PageSize as 0.
	if n == PageSize {
		n = 0
	}
	binary.LittleEndian.PutUint16(p.buf[4:], uint16(n))
}

func (p *Page) getFreeEnd() int {
	n := p.freeEnd()
	if n == 0 {
		return PageSize
	}
	return n
}

func (p *Page) slotAt(i int) (off, length int) {
	base := pageHeaderSize + i*slotSize
	return int(binary.LittleEndian.Uint16(p.buf[base:])),
		int(binary.LittleEndian.Uint16(p.buf[base+2:]))
}

func (p *Page) setSlot(i, off, length int) {
	base := pageHeaderSize + i*slotSize
	binary.LittleEndian.PutUint16(p.buf[base:], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[base+2:], uint16(length))
}

// FreeSpace returns the bytes available for one more record (including
// its slot entry).
func (p *Page) FreeSpace() int {
	n := p.getFreeEnd() - p.freeStart() - slotSize
	if n < 0 {
		return 0
	}
	return n
}

// NumSlots returns the number of slots (including deleted ones).
func (p *Page) NumSlots() int { return p.numSlots() }

// Insert stores a record and returns its slot number.
func (p *Page) Insert(rec []byte) (int, error) {
	if len(rec) > p.FreeSpace() {
		return 0, ErrPageFull
	}
	slot := p.numSlots()
	end := p.getFreeEnd()
	off := end - len(rec)
	copy(p.buf[off:end], rec)
	p.setSlot(slot, off, len(rec))
	p.setNumSlots(slot + 1)
	p.setFreeStart(pageHeaderSize + (slot+1)*slotSize)
	p.setFreeEnd(off)
	p.dirty = true
	return slot, nil
}

// Record returns the bytes of the record in the given slot. The slice
// aliases the page buffer; callers must not retain it across pool
// evictions.
func (p *Page) Record(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.numSlots() {
		return nil, ErrNoRecord
	}
	off, length := p.slotAt(slot)
	if length == 0 {
		return nil, ErrNoRecord
	}
	return p.buf[off : off+length], nil
}

// decodeSlots decodes the live records in slots [0, slots) into
// tuples sharing one value slab, keeping the columns keep lists (nil
// keeps all), and appends them to dst in slot order; each, when not
// nil, is told every decoded record's slot.
func (p *Page) decodeSlots(slots int, keep []int, dst []types.Tuple, each func(slot int)) ([]types.Tuple, error) {
	var d types.SlabDecoder
	d.Reset(p.buf[:], keep)
	live := 0
	for s := 0; s < slots; s++ {
		off, length := p.slotAt(s)
		if length == 0 {
			continue
		}
		n, err := d.Scan(off)
		if err != nil {
			return dst, err
		}
		if n > length {
			return dst, fmt.Errorf("storage: record in slot %d overruns its %d bytes", s, length)
		}
		live++
	}
	dst = slices.Grow(dst, live)
	for s := 0; s < slots; s++ {
		off, length := p.slotAt(s)
		if length == 0 {
			continue
		}
		t, _ := d.Decode(off)
		dst = append(dst, t)
		if each != nil {
			each(s)
		}
	}
	return dst, nil
}

// Delete marks a slot as deleted (length 0). Space is not reclaimed;
// the engine rewrites tables rather than compacting pages.
func (p *Page) Delete(slot int) error {
	if slot < 0 || slot >= p.numSlots() {
		return ErrNoRecord
	}
	off, _ := p.slotAt(slot)
	p.setSlot(slot, off, 0)
	p.dirty = true
	return nil
}

// String summarizes the page for debugging.
func (p *Page) String() string {
	return fmt.Sprintf("Page{slots:%d free:%d}", p.numSlots(), p.FreeSpace())
}
