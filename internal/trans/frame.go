package trans

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Data-plane wire format (DESIGN.md §8).
//
// Each UDP datagram carries one or more tunneled frames, each preceded by a
// 2-byte big-endian length:
//
//	datagram := frameRecord+ padding?
//	frameRecord := u16 length (> 0) | frame bytes
//	padding := zero bytes
//
// Senders coalesce the frames of one burst bound for the same peer into
// one datagram, starting another when the packed size would exceed the MTU
// budget. Receivers split a datagram back into frames and inject the whole
// batch into the local fabric in one call. A zero-length record — or a lone
// trailing zero byte — ends a datagram's records, and only zero bytes may
// follow it: the Linux send path pads the datagrams of one segmented message
// to a common size (mmsg_linux.go), so each still decodes on its own. A
// datagram whose bytes end mid-record (a corrupted or foreign sender) yields
// the complete frames before the damage; the remainder is dropped and counted.

// MaxFrame is the largest tunneled frame (jumbo frame + trailer headroom).
// Frames larger than this are rejected on the send side with
// *FrameTooLargeError rather than silently truncated at the receiver.
const MaxFrame = 16 * 1024

// MaxDatagram is the receive-buffer size for tunnel sockets: the largest
// UDP payload a peer can legally send (64 KiB covers the 65507-byte IPv4
// limit), so a read never truncates a datagram regardless of the sender's
// MTU budget.
const MaxDatagram = 64 * 1024

// DefaultMTUBudget is the default per-datagram packing budget: a 9000-byte
// jumbo frame minus 28 bytes of IPv4+UDP headers. The paper's testbed needs
// jumbo frames for chains carrying large piggybacked state (§7.2); the same
// budget lets a full default burst of small frames ride one datagram. A
// single frame above the budget (up to MaxFrame) still travels, alone in
// its own datagram, exactly as the pre-batching transport sent it.
const DefaultMTUBudget = 9000 - 28

// frameHdrLen is the per-frame length-prefix size.
const frameHdrLen = 2

// ErrTruncatedDatagram reports a datagram whose trailing bytes are neither a
// complete length-prefixed frame record nor zero padding. Frames decoded
// before the damaged record are still delivered.
var ErrTruncatedDatagram = errors.New("trans: truncated frame record in datagram")

// FrameTooLargeError reports an attempt to tunnel a frame larger than
// MaxFrame. It is returned by AppendFrame (and surfaced by the bridge's
// OversizeDrops counter) instead of letting the receiver's fixed-size
// buffer silently truncate the frame.
type FrameTooLargeError struct {
	// Size is the rejected frame's length in bytes.
	Size int
}

// Error implements the error interface.
func (e *FrameTooLargeError) Error() string {
	return fmt.Sprintf("trans: frame of %d bytes exceeds MaxFrame (%d)", e.Size, MaxFrame)
}

// AppendFrame appends one length-prefixed frame record to a datagram being
// packed and returns the extended datagram. Frames larger than MaxFrame are
// rejected with *FrameTooLargeError, leaving dst unchanged; empty frames
// are skipped (a zero-length record is the wire's padding marker).
func AppendFrame(dst, frame []byte) ([]byte, error) {
	if len(frame) > MaxFrame {
		return dst, &FrameTooLargeError{Size: len(frame)}
	}
	if len(frame) == 0 {
		return dst, nil
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(frame)))
	return append(dst, frame...), nil
}

// SplitFrames decodes a packed datagram, invoking fn once per frame in
// packing order. Frames are subslices of dgram: callers that retain one
// past the call must copy it. Zero padding after the last record yields no
// frame. If the datagram ends mid-record, ErrTruncatedDatagram is returned
// after the complete leading frames have been delivered.
func SplitFrames(dgram []byte, fn func(frame []byte)) error {
	for len(dgram) >= frameHdrLen {
		flen := int(binary.BigEndian.Uint16(dgram))
		if flen == 0 {
			break
		}
		dgram = dgram[frameHdrLen:]
		if flen > len(dgram) {
			return ErrTruncatedDatagram
		}
		fn(dgram[:flen])
		dgram = dgram[flen:]
	}
	// What is left is padding (all zero) or damage.
	for _, c := range dgram {
		if c != 0 {
			return ErrTruncatedDatagram
		}
	}
	return nil
}
