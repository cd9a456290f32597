package bench

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
)

// Message phases, carried in every payload so the receiver knows which
// ledger a delivery belongs to.
const (
	phaseWarm   byte = 1 // warm-up: checked, not timed
	phaseOpen   byte = 2 // open loop: latency sampled from the due time
	phaseClosed byte = 3 // closed loop: counted toward capacity
	phaseProbe  byte = 4 // set-up probe: only its first arrival matters
	phaseSim    byte = 5 // emulated world traffic
)

// hdrLen is the payload header: due time (8), phase (1), pad (1), flow
// (2), seq (4), CRC-32 over everything but the CRC field (4).
const hdrLen = 20

// msgHdr is a decoded payload header.
type msgHdr struct {
	due   int64 // ns since the run's epoch (virtual ns in the emulator)
	phase byte
	flow  uint16
	seq   uint32
}

// newFiller returns a payload template of size bytes whose body is
// derived from the seed, so payload contents are inputs of the run.
func newFiller(seed uint64, size int) []byte {
	if size < hdrLen {
		size = hdrLen
	}
	b := make([]byte, size)
	r := rand.New(rand.NewSource(int64(seed)))
	_, _ = r.Read(b[hdrLen:]) // math/rand Read never fails
	return b
}

// encode writes h into buf (a copy of a filler template) and seals the
// checksum.
func encode(buf []byte, h msgHdr) {
	binary.BigEndian.PutUint64(buf[0:], uint64(h.due))
	buf[8] = h.phase
	buf[9] = 0
	binary.BigEndian.PutUint16(buf[10:], h.flow)
	binary.BigEndian.PutUint32(buf[12:], h.seq)
	binary.BigEndian.PutUint32(buf[16:], checksum(buf))
}

// decode parses a payload and verifies its checksum.
func decode(p []byte) (msgHdr, bool) {
	if len(p) < hdrLen || binary.BigEndian.Uint32(p[16:]) != checksum(p) {
		return msgHdr{}, false
	}
	return msgHdr{
		due:   int64(binary.BigEndian.Uint64(p[0:])),
		phase: p[8],
		flow:  binary.BigEndian.Uint16(p[10:]),
		seq:   binary.BigEndian.Uint32(p[12:]),
	}, true
}

func checksum(p []byte) uint32 {
	c := crc32.ChecksumIEEE(p[:16])
	return crc32.Update(c, crc32.IEEETable, p[hdrLen:])
}

// flowCheck tracks one flow's deliveries: duplicates always, and on an
// Ordered flow that each sequence number arrives exactly in turn.
type flowCheck struct {
	ordered bool
	next    uint32
	seen    []uint64
}

// observe records seq (numbered from 1) and reports whether it repeats
// an earlier delivery or, on an Ordered flow, arrives out of turn.
func (f *flowCheck) observe(seq uint32) (dup, outOfOrder bool) {
	w, bit := int(seq/64), uint64(1)<<(seq%64)
	for w >= len(f.seen) {
		f.seen = append(f.seen, 0)
	}
	if f.seen[w]&bit != 0 {
		return true, false
	}
	f.seen[w] |= bit
	if f.ordered {
		if f.next == 0 {
			f.next = 1
		}
		outOfOrder = seq != f.next
		f.next = seq + 1
	}
	return false, outOfOrder
}
