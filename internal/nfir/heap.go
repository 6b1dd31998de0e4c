package nfir

// Heap is the simulated flat memory used by MemLoad/MemStore and by the
// data-structure library to reserve address ranges (so access traces have
// realistic, stable addresses). It is byte-addressed over the whole
// 64-bit space and sparse: storage is a table of 4 KiB pages created on
// first write, so an aligned access costs one page lookup and unwritten
// memory reads as zero without being materialised.
type Heap struct {
	pages map[uint64]*heapPage
	// last caches the most recently touched page; pointer chases and
	// field accesses overwhelmingly stay on one page.
	lastNo uint64
	last   *heapPage
	next   uint64
}

const (
	heapPageBits = 12
	heapPageSize = 1 << heapPageBits
)

type heapPage [heapPageSize]byte

// heapBase leaves low addresses free so packet buffers and device rings
// can live below the heap.
const heapBase = 0x1000_0000

// NewHeap returns an empty heap.
func NewHeap() *Heap { return &Heap{next: heapBase} }

// Alloc reserves size bytes and returns the base address. The region is
// zeroed. Alignment is 64 bytes so distinct objects never share a cache
// line.
func (h *Heap) Alloc(size uint64) uint64 {
	const align = 64
	h.next = (h.next + align - 1) &^ (align - 1)
	base := h.next
	h.next += size
	return base
}

// page returns the page numbered no, or nil if nothing was written there
// and create is false.
func (h *Heap) page(no uint64, create bool) *heapPage {
	if h.last != nil && h.lastNo == no {
		return h.last
	}
	pg := h.pages[no]
	if pg == nil {
		if !create {
			return nil
		}
		if h.pages == nil {
			h.pages = make(map[uint64]*heapPage)
		}
		pg = new(heapPage)
		h.pages[no] = pg
	}
	h.lastNo, h.last = no, pg
	return pg
}

// Read loads size ∈ {1,2,4,8} bytes little-endian at addr.
func (h *Heap) Read(addr uint64, size int) uint64 {
	off := int(addr & (heapPageSize - 1))
	var v uint64
	if off+size > heapPageSize { // straddles two pages
		for i := 0; i < size; i++ {
			a := addr + uint64(i)
			if pg := h.page(a>>heapPageBits, false); pg != nil {
				v |= uint64(pg[a&(heapPageSize-1)]) << (8 * i)
			}
		}
		return v
	}
	pg := h.page(addr>>heapPageBits, false)
	if pg == nil {
		return 0
	}
	for i, b := range pg[off : off+size] {
		v |= uint64(b) << (8 * i)
	}
	return v
}

// Write stores size ∈ {1,2,4,8} bytes little-endian at addr.
func (h *Heap) Write(addr uint64, size int, v uint64) {
	off := int(addr & (heapPageSize - 1))
	if off+size > heapPageSize { // straddles two pages
		for i := 0; i < size; i++ {
			a := addr + uint64(i)
			h.page(a>>heapPageBits, true)[a&(heapPageSize-1)] = byte(v >> (8 * i))
		}
		return
	}
	pg := h.page(addr>>heapPageBits, true)
	for i := range pg[off : off+size] {
		pg[off+i] = byte(v >> (8 * i))
	}
}
