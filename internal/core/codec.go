package core

import (
	"encoding/binary"

	"github.com/ftsfc/ftc/internal/state"
)

// Update kind byte: what follows the key.
const (
	updKindDelete = 0 // nothing: the key is deleted
	updKindFull   = 1 // uvarint valLen + value bytes
	updKindDelta  = 2 // svarint delta against the receiver's current value
)

// appendLog encodes one piggyback log. fullValues forces delta-classified
// updates onto the full-value wire form when the value is still at hand
// (control-plane messages; see Message.FullValues).
func appendLog(dst []byte, l *Log, fullValues bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(l.MB))
	dst = append(dst, l.Flags)
	dst = binary.AppendUvarint(dst, uint64(len(l.Vec)))
	for _, e := range l.Vec {
		dst = binary.AppendUvarint(dst, uint64(e.Part))
		dst = binary.AppendUvarint(dst, e.Seq)
	}
	if l.Coalesced() {
		// Base rides as the per-entry distance below Vec, same order.
		for i, e := range l.Vec {
			dst = binary.AppendUvarint(dst, e.Seq-l.Base[i].Seq)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(l.Updates)))
	for _, u := range l.Updates {
		dst = appendUpdate(dst, u, fullValues)
	}
	return dst
}

func appendUpdate(dst []byte, u state.Update, fullValues bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(u.Partition))
	dst = binary.AppendUvarint(dst, uint64(len(u.Key)))
	dst = append(dst, u.Key...)
	switch {
	case u.Flags&state.UpdateDelta != 0 && (u.Value == nil || !fullValues):
		dst = append(dst, updKindDelta)
		dst = binary.AppendVarint(dst, u.Delta)
	case u.Value == nil:
		dst = append(dst, updKindDelete)
	default:
		dst = append(dst, updKindFull)
		dst = binary.AppendUvarint(dst, uint64(len(u.Value)))
		dst = append(dst, u.Value...)
	}
	return dst
}

func (d *decoder) update() (state.Update, error) {
	var u state.Update
	var err error
	if u.Partition, err = d.n16(); err != nil {
		return u, err
	}
	kl, err := d.uv()
	if err != nil {
		return u, err
	}
	if kl > uint64(len(d.b)-d.off) {
		return u, ErrDecode
	}
	kb, err := d.bytes(int(kl))
	if err != nil {
		return u, err
	}
	u.Key = string(kb)
	kind, err := d.u8()
	if err != nil {
		return u, err
	}
	switch kind {
	case updKindDelete:
	case updKindFull:
		vl, err := d.uv()
		if err != nil {
			return u, err
		}
		if vl > uint64(len(d.b)-d.off) {
			return u, ErrDecode
		}
		vb, err := d.bytes(int(vl))
		if err != nil {
			return u, err
		}
		u.Value = make([]byte, len(vb)) // non-nil even when empty: nil means delete
		copy(u.Value, vb)
	case updKindDelta:
		if u.Delta, err = d.sv(); err != nil {
			return u, err
		}
		u.Flags = state.UpdateDelta // Value stays nil: receiver resolves on apply
	default:
		return u, ErrDecode
	}
	return u, nil
}

func (d *decoder) log() (Log, error) {
	var l Log
	var err error
	if l.MB, err = d.n16(); err != nil {
		return l, err
	}
	if l.Flags, err = d.u8(); err != nil {
		return l, err
	}
	nv, err := d.n16()
	if err != nil {
		return l, err
	}
	if l.Vec, err = d.vec(int(nv)); err != nil {
		return l, err
	}
	if l.Coalesced() {
		if l.Base, err = d.base(l.Vec); err != nil {
			return l, err
		}
	}
	nu, err := d.n16()
	if err != nil {
		return l, err
	}
	// As with vectors, updates land in the scratch's arena when there is one.
	var a []state.Update
	if d.sc != nil {
		a = d.sc.upds
	}
	start := len(a)
	for j := 0; j < int(nu); j++ {
		u, err := d.update()
		if err != nil {
			return l, err
		}
		a = append(a, u)
	}
	if d.sc != nil {
		d.sc.upds = a
	}
	if nu > 0 {
		// Full slice expression: later arena appends must not overwrite
		// this log's updates.
		l.Updates = a[start:len(a):len(a)]
	}
	return l, nil
}

// Repair RPC codec: request carries the requester's dense MAX for one
// middlebox; the response reuses the Message encoding (logs only).

func encodeRepairReq(mb uint16, max []uint64) []byte {
	dst := make([]byte, 0, 4+8*len(max))
	dst = binary.BigEndian.AppendUint16(dst, mb)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(max)))
	for _, v := range max {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	return dst
}

func decodeRepairReq(b []byte) (mb uint16, max []uint64, err error) {
	d := &decoder{b: b}
	if mb, err = d.u16(); err != nil {
		return 0, nil, err
	}
	n, err := d.u16()
	if err != nil {
		return 0, nil, err
	}
	max = make([]uint64, n)
	for i := range max {
		if max[i], err = d.u64(); err != nil {
			return 0, nil, err
		}
	}
	return mb, max, nil
}

// Recovery fetch codec: the response transfers a middlebox's full replica
// state — store snapshot, dependency vector (head vector or follower MAX),
// and the retransmission buffer (§5.2).

// FetchState is the recovery payload for one middlebox at one replica.
type FetchState struct {
	MB       uint16
	Vector   []uint64
	Logs     []Log
	Snapshot []state.Update
}

func encodeFetchReq(mb uint16) []byte {
	return binary.BigEndian.AppendUint16(nil, mb)
}

func decodeFetchReq(b []byte) (uint16, error) {
	d := &decoder{b: b}
	return d.u16()
}

func encodeFetchState(fs *FetchState) []byte {
	dst := make([]byte, 0, 64+len(fs.Snapshot)*32)
	dst = binary.BigEndian.AppendUint16(dst, fs.MB)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(fs.Vector)))
	for _, v := range fs.Vector {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	// Full values are forced so the recovering replica can install
	// everything without delta context.
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(fs.Logs)))
	for i := range fs.Logs {
		dst = appendLog(dst, &fs.Logs[i], true)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(fs.Snapshot)))
	for _, u := range fs.Snapshot {
		dst = appendUpdate(dst, u, true)
	}
	return dst
}

func decodeFetchState(b []byte) (*FetchState, error) {
	d := &decoder{b: b}
	fs := &FetchState{}
	var err error
	if fs.MB, err = d.u16(); err != nil {
		return nil, err
	}
	nv, err := d.u16()
	if err != nil {
		return nil, err
	}
	fs.Vector = make([]uint64, nv)
	for i := range fs.Vector {
		if fs.Vector[i], err = d.u64(); err != nil {
			return nil, err
		}
	}
	nl, err := d.u32()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(nl); i++ {
		l, err := d.log()
		if err != nil {
			return nil, err
		}
		fs.Logs = append(fs.Logs, l)
	}
	nu, err := d.u32()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(nu); i++ {
		u, err := d.update()
		if err != nil {
			return nil, err
		}
		fs.Snapshot = append(fs.Snapshot, u)
	}
	if d.off != len(b) {
		return nil, ErrDecode
	}
	return fs, nil
}
