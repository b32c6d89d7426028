package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/ftsfc/ftc/internal/state"
)

// Message flag bits.
const (
	// FlagPropagating marks a packet generated by the forwarder's idle timer
	// or by a head on behalf of a filtered packet (§5.1). Propagating packets
	// carry piggyback state but are never handed to middleboxes, and the
	// buffer does not hold or release them.
	FlagPropagating = 1 << 0
	// FlagBufferTransfer marks a frame the buffer sends back to the
	// forwarder carrying the piggyback message of a packet leaving the chain
	// (the paper ships these on a dedicated link).
	FlagBufferTransfer = 1 << 1
)

// Log flag bits.
const (
	// LogNoop marks the log of a read-only transaction: it carries the
	// dependency vector the transaction observed (gating forwarding and
	// release) but no state updates and no sequence advance.
	LogNoop = 1 << 0
	// LogElided marks a per-transaction log whose updates were folded into a
	// burst-coalesced log: it carries the transaction's dependency vector so
	// the egress buffer can gate release, but no updates. Followers skip
	// elided logs entirely — the substance arrives in the coalesced log —
	// and they die at the buffer, never entering any log buffer or transfer
	// message.
	LogElided = 1 << 1
	// LogCoalesced marks a log that subsumes a run of per-partition
	// consecutive transactions: Vec holds the last (maximum) sequence per
	// partition, Base the first, and Updates the last-writer-wins merge of
	// every subsumed write. Followers install it only when their MAX sits
	// exactly at Base (or fall back to full values on partial overlap after
	// a recovery fetch).
	LogCoalesced = 1 << 2
)

// msgV2 is the piggyback wire version: the varint/delta layout (DESIGN.md
// §13). It is the only dialect; the decoder rejects every other version.
const msgV2 = 2

// ErrDecode reports a malformed piggyback message.
var ErrDecode = errors.New("core: malformed piggyback message")

// Log is the piggyback log of one packet transaction at one middlebox:
// the updated state variables and the transaction's dependency vector (§4).
type Log struct {
	MB    uint16 // middlebox index in the chain
	Flags uint8
	Vec   SparseVec
	// Base is the pre-run dependency vector of a coalesced log: entry i holds
	// the first sequence the run subsumes for Vec[i].Part. nil unless
	// LogCoalesced is set; always the same length and partition order as Vec.
	Base    SparseVec
	Updates []state.Update
}

// Noop reports whether this is a read-only transaction's log.
func (l *Log) Noop() bool { return l.Flags&LogNoop != 0 }

// Elided reports whether the log's updates ride elsewhere (in a coalesced
// run); only its dependency vector matters, and only to the buffer.
func (l *Log) Elided() bool { return l.Flags&LogElided != 0 }

// Coalesced reports whether the log subsumes a run of transactions.
func (l *Log) Coalesced() bool { return l.Flags&LogCoalesced != 0 }

// Retain returns a copy of the log that stays valid after the MsgScratch
// that decoded it is reused: the Vec, Base and Updates arrays live in
// scratch arenas and are cloned here. Keys and values are freshly allocated
// by the decoder and immutable afterwards, so they remain shared.
func (l Log) Retain() Log {
	l.Vec = l.Vec.Clone()
	l.Base = l.Base.Clone()
	if len(l.Updates) > 0 {
		l.Updates = append([]state.Update(nil), l.Updates...)
	}
	return l
}

// Commit is a tail's announcement that state updates of middlebox MB have
// been replicated f+1 times up to Vec (the tail's MAX), sparse-encoded.
type Commit struct {
	MB  uint16
	Vec SparseVec
}

// Message is the full piggyback message carried in a packet trailer (§5.1):
// a list of piggyback logs and a list of commit vectors, plus the chain
// generation used to fence stale traffic across recoveries.
type Message struct {
	// Ver is the wire version a decoded message arrived in (always 2).
	// Encode ignores it and writes version 2.
	Ver   uint8
	Flags uint8
	// FullValues forces encoding to ship delta-classified updates as full
	// values when the sender still holds them. Repair responses set it so a
	// freshly recovered replica can apply logs that partially overlap its
	// fetched snapshot.
	FullValues bool
	Gen        uint32
	Logs       []Log
	Commits    []Commit
}

// Propagating reports whether the message rides a propagating packet.
func (m *Message) Propagating() bool { return m.Flags&FlagPropagating != 0 }

// LenEstimate returns a capacity hint for encoding. It never underestimates:
// every varint field is counted at its maximum width.
func (m *Message) LenEstimate() int {
	n := 16
	for i := range m.Logs {
		n += logLenEstimate(&m.Logs[i])
	}
	for i := range m.Commits {
		n += 4 + len(m.Commits[i].Vec)*10
	}
	return n
}

// logLenEstimate bounds one log's encoded size (never underestimates).
func logLenEstimate(l *Log) int {
	n := 8 + len(l.Vec)*10
	if l.Coalesced() {
		n += len(l.Vec) * 10
	}
	for _, u := range l.Updates {
		n += 9 + len(u.Key) + len(u.Value)
		if u.Flags&state.UpdateDelta != 0 {
			n += 10
		}
	}
	return n
}

// Encode appends the message's wire form to dst and returns the result
// (uvarint = unsigned varint, svarint = zigzag varint):
//
//	u8 version=2 | u8 flags | u32 gen | uvarint nLogs | uvarint nCommits
//	logs:    uvarint mb | u8 flags | uvarint nVec
//	         | nVec×(uvarint part, uvarint seq)
//	         | [if coalesced: nVec×uvarint(vec.seq − base.seq)]
//	         | uvarint nUpd | nUpd×(uvarint part, uvarint keyLen, key,
//	                                u8 kind, [kind=1: uvarint valLen, val]
//	                                         [kind=2: svarint delta])
//	commits: uvarint mb | uvarint nVec | nVec×(uvarint part, uvarint seq)
func (m *Message) Encode(dst []byte) []byte {
	dst = append(dst, msgV2, m.Flags)
	dst = binary.BigEndian.AppendUint32(dst, m.Gen)
	dst = binary.AppendUvarint(dst, uint64(len(m.Logs)))
	dst = binary.AppendUvarint(dst, uint64(len(m.Commits)))
	for i := range m.Logs {
		dst = appendLog(dst, &m.Logs[i], m.FullValues)
	}
	for i := range m.Commits {
		c := &m.Commits[i]
		dst = binary.AppendUvarint(dst, uint64(c.MB))
		dst = binary.AppendUvarint(dst, uint64(len(c.Vec)))
		for _, e := range c.Vec {
			dst = binary.AppendUvarint(dst, uint64(e.Part))
			dst = binary.AppendUvarint(dst, e.Seq)
		}
	}
	return dst
}

type decoder struct {
	b   []byte
	off int
	// sc, when non-nil, provides arenas for decoded vectors and update
	// slices so steady-state decoding allocates nothing for them.
	sc *MsgScratch
}

func (d *decoder) u8() (uint8, error) {
	if d.off+1 > len(d.b) {
		return 0, ErrDecode
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	if d.off+2 > len(d.b) {
		return 0, ErrDecode
	}
	v := binary.BigEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.off+4 > len(d.b) {
		return 0, ErrDecode
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.off+8 > len(d.b) {
		return 0, ErrDecode
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.b) {
		return nil, ErrDecode
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v, nil
}

// uv reads an unsigned varint.
func (d *decoder) uv() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, ErrDecode
	}
	d.off += n
	return v, nil
}

// sv reads a zigzag signed varint (delta updates).
func (d *decoder) sv() (int64, error) {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, ErrDecode
	}
	d.off += n
	return v, nil
}

// n16 reads a small count or index: a uvarint capped at u16 range. The cap
// keeps hostile counts from oversizing preallocations.
func (d *decoder) n16() (uint16, error) {
	v, err := d.uv()
	if err != nil || v > 0xffff {
		return 0, ErrDecode
	}
	return uint16(v), nil
}

// arena returns the slice decoded vectors are appended to: the scratch's
// vector arena, or nil (a fresh allocation) without a scratch.
func (d *decoder) arena() SparseVec {
	if d.sc != nil {
		return d.sc.vecs
	}
	return nil
}

// carve hands out the entries appended to the arena since start. Full slice
// expression: a later append into the arena must grow a new array instead
// of scribbling over this vector.
func (d *decoder) carve(a SparseVec, start int) SparseVec {
	if d.sc != nil {
		d.sc.vecs = a
	}
	return a[start:len(a):len(a)]
}

func (d *decoder) vec(n int) (SparseVec, error) {
	if n == 0 {
		return nil, nil
	}
	// Each entry needs at least 2 bytes, so an honest count can never
	// exceed the remaining input.
	if n*2 > len(d.b)-d.off {
		return nil, ErrDecode
	}
	a := d.arena()
	start := len(a)
	for i := 0; i < n; i++ {
		p, err := d.n16()
		if err != nil {
			return nil, err
		}
		s, err := d.uv()
		if err != nil {
			return nil, err
		}
		a = append(a, VecEntry{Part: p, Seq: s})
	}
	return d.carve(a, start), nil
}

// base reads a coalesced log's base vector: one uvarint distance below each
// Vec entry, in the same partition order.
func (d *decoder) base(vec SparseVec) (SparseVec, error) {
	if len(vec) == 0 {
		return nil, nil
	}
	a := d.arena()
	start := len(a)
	for _, e := range vec {
		dist, err := d.uv()
		if err != nil || dist > e.Seq {
			return nil, ErrDecode
		}
		a = append(a, VecEntry{Part: e.Part, Seq: e.Seq - dist})
	}
	return d.carve(a, start), nil
}

// DecodeMessage parses a piggyback message into a fresh Message. Decoded
// keys and values are copied out of b, so the message stays valid after the
// frame is reused.
func DecodeMessage(b []byte) (*Message, error) {
	m := &Message{}
	d := &decoder{b: b}
	if err := decodeMessageInto(d, m); err != nil {
		return nil, err
	}
	return m, nil
}

// MsgScratch amortizes piggyback decoding across packets on one worker
// goroutine: the Message and the arenas backing its vectors and update
// slices are reused by every Decode call. The returned Message and the
// Logs/Commits it references are valid only until the next Decode; anything
// retained longer (forwarder pending list, follower log buffer, held
// packets) must be cloned first via Log.Retain. Keys and values are always
// freshly allocated and may be kept without copying. Not safe for
// concurrent use.
type MsgScratch struct {
	msg  Message
	vecs SparseVec      // arena backing all decoded dependency vectors
	upds []state.Update // arena backing all decoded update slices
	// perBurst moves arena resets from per-Decode to per-BeginBurst, so one
	// arena generation backs all messages of a burst.
	perBurst bool
}

// BeginBurst opens a new arena generation: in burst mode the vector and
// update arenas are truncated here, once per burst, instead of on every
// Decode — all messages decoded within the burst share the generation (each
// is still valid only until the next Decode; retention rules are
// unchanged). Callers that never BeginBurst keep the per-Decode reset.
func (s *MsgScratch) BeginBurst() {
	s.perBurst = true
	s.vecs = s.vecs[:0]
	s.upds = s.upds[:0]
}

// Decode parses b into the scratch-backed Message.
func (s *MsgScratch) Decode(b []byte) (*Message, error) {
	if !s.perBurst {
		// Reset arenas; earlier slices handed out from a now-grown arena keep
		// pointing at the old array, so truncating here never corrupts logs
		// that were properly Retained (and un-Retained ones are dead by
		// contract).
		s.vecs = s.vecs[:0]
		s.upds = s.upds[:0]
	}
	m := &s.msg
	m.Ver = 0
	m.Flags = 0
	m.FullValues = false
	m.Gen = 0
	m.Logs = m.Logs[:0]
	m.Commits = m.Commits[:0]
	d := &decoder{b: b, sc: s}
	if err := decodeMessageInto(d, m); err != nil {
		return nil, err
	}
	return m, nil
}

func decodeMessageInto(d *decoder, m *Message) error {
	ver, err := d.u8()
	if err != nil {
		return err
	}
	if ver != msgV2 {
		return fmt.Errorf("%w: version %d", ErrDecode, ver)
	}
	m.Ver = ver
	if m.Flags, err = d.u8(); err != nil {
		return err
	}
	if m.Gen, err = d.u32(); err != nil {
		return err
	}
	nLogs, err := d.n16()
	if err != nil {
		return err
	}
	nCommits, err := d.n16()
	if err != nil {
		return err
	}
	for i := 0; i < int(nLogs); i++ {
		l, err := d.log()
		if err != nil {
			return err
		}
		m.Logs = append(m.Logs, l)
	}
	for i := 0; i < int(nCommits); i++ {
		var c Commit
		if c.MB, err = d.n16(); err != nil {
			return err
		}
		nv, err := d.n16()
		if err != nil {
			return err
		}
		if c.Vec, err = d.vec(int(nv)); err != nil {
			return err
		}
		m.Commits = append(m.Commits, c)
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrDecode, len(d.b)-d.off)
	}
	return nil
}
