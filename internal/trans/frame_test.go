package trans

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
)

func TestFramePackRoundtrip(t *testing.T) {
	frames := [][]byte{
		[]byte("alpha"),
		bytes.Repeat([]byte{0xAB}, 1500),
		{0x00}, // single zero byte is a valid frame
		bytes.Repeat([]byte{0xCD}, MaxFrame),
	}
	var dgram []byte
	var err error
	for _, f := range frames {
		if dgram, err = AppendFrame(dgram, f); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]byte
	if err := SplitFrames(dgram, func(f []byte) {
		got = append(got, append([]byte(nil), f...))
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("round-tripped %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatalf("frame %d mismatch: %d bytes vs %d", i, len(got[i]), len(frames[i]))
		}
	}
}

func TestFrameEmptySkipped(t *testing.T) {
	dgram, err := AppendFrame(nil, nil)
	if err != nil || len(dgram) != 0 {
		t.Fatalf("empty frame: dgram=%d bytes, err=%v", len(dgram), err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	big := make([]byte, MaxFrame+1)
	dgram, err := AppendFrame([]byte("prefix"), big)
	var fe *FrameTooLargeError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FrameTooLargeError", err)
	}
	if fe.Size != MaxFrame+1 {
		t.Fatalf("reported size = %d, want %d", fe.Size, MaxFrame+1)
	}
	if string(dgram) != "prefix" {
		t.Fatalf("dst modified on rejection: %q", dgram)
	}
}

func TestSplitFramesTruncation(t *testing.T) {
	full, err := AppendFrame(nil, []byte("complete"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range splitCases(full) {
		t.Run(tc.name, func(t *testing.T) {
			var got [][]byte
			err := SplitFrames(tc.dgram, func(f []byte) {
				got = append(got, append([]byte(nil), f...))
			})
			if tc.damaged != errors.Is(err, ErrTruncatedDatagram) || (!tc.damaged && err != nil) {
				t.Fatalf("err = %v, damaged = %v", err, tc.damaged)
			}
			if len(got) != 1 || string(got[0]) != "complete" {
				t.Fatalf("leading frames lost or padding read as a frame: %q", got)
			}
		})
	}
}

// splitCase is a datagram tail after one complete record: damage, or the
// padding a segmented send adds (mmsg_linux.go).
type splitCase struct {
	name    string
	dgram   []byte
	damaged bool
}

func splitCases(full []byte) []splitCase {
	tail := func(b ...byte) []byte { return append(append([]byte(nil), full...), b...) }
	return []splitCase{
		{"half header", tail(0x01), true},
		{"record cut short", tail(0x00, 0x10, 'x'), true},
		{"zero-length record", tail(0x00, 0x00, 0x00, 'x'), true},
		{"lone zero byte", tail(0x00), false},
		{"zero-length record then zeros", tail(0x00, 0x00, 0x00, 0x00, 0x00), false},
		{"zero-length record alone", tail(0x00, 0x00), false},
	}
}

// FuzzSplitFrames holds the datagram decoder to its contract on arbitrary
// bytes: it never panics, the frames it delivers are disjoint in-order
// subslices of the input, and re-packing them with AppendFrame reproduces
// the input — all of it but zero padding when the datagram is well formed,
// a prefix of it when it is damaged.
func FuzzSplitFrames(f *testing.F) {
	full, _ := AppendFrame(nil, []byte("complete"))
	for _, tc := range splitCases(full) {
		f.Add(tc.dgram)
	}
	f.Add([]byte{})
	f.Add(append(append([]byte(nil), full...), full...))
	f.Fuzz(func(t *testing.T, dgram []byte) {
		var repacked []byte
		err := SplitFrames(dgram, func(frame []byte) {
			// In order and disjoint: each frame sits exactly where
			// re-packing its predecessors says its record starts.
			if at := len(repacked) + frameHdrLen; len(frame) == 0 || at+len(frame) > len(dgram) || &frame[0] != &dgram[at] {
				t.Fatalf("frame of %d bytes is not the subslice at offset %d", len(frame), at)
			}
			var perr error
			if repacked, perr = AppendFrame(repacked, frame); perr != nil {
				t.Fatal(perr)
			}
		})
		if !bytes.HasPrefix(dgram, repacked) {
			t.Fatal("re-packed frames are not a prefix of the datagram")
		}
		rest := dgram[len(repacked):]
		if padding := len(bytes.TrimLeft(rest, "\x00")) == 0; padding != (err == nil) {
			t.Fatalf("err = %v with %d trailing bytes (all zero: %v)", err, len(rest), padding)
		}
	})
}

// TestUnpackCoalescedSlot is the receive-side split: a slot the kernel
// coalesced (UDP_GRO) is cut at multiples of the segment size into the
// wire datagrams it was, the last possibly shorter; each counts as a
// datagram in, padding yields no frame, and a kernel truncation belongs to
// the last piece only.
func TestUnpackCoalescedSlot(t *testing.T) {
	const seg = 32
	var slot []byte
	want := 0
	for d := 0; d < 4; d++ { // three padded datagrams and a short last one
		dgram, _ := AppendFrame(nil, []byte(fmt.Sprintf("dgram-%d-a", d)))
		if d != 1 {
			dgram, _ = AppendFrame(dgram, []byte(fmt.Sprintf("dgram-%d-b", d)))
			want++
		}
		want++
		if d < 3 {
			dgram = append(dgram, make([]byte, seg-len(dgram))...)
		}
		slot = append(slot, dgram...)
	}
	for _, tc := range []struct {
		name      string
		slot      []byte
		seg       int
		ktrunc    bool
		frames    int
		dgrams    uint64
		truncated uint64
	}{
		{"coalesced", slot, seg, false, want, 4, 0},
		{"kernel-truncated", slot[:3*seg+15], seg, true, want - 1, 4, 1},
		{"exact multiple", slot[:2*seg], seg, false, 3, 2, 0},
		{"not coalesced", slot[:seg], 0, false, 2, 1, 0},
		{"single segment", slot[:seg-4], seg, false, 2, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := &Bridge{}
			frames := b.unpack(nil, tc.slot, tc.seg, tc.ktrunc)
			if len(frames) != tc.frames {
				t.Fatalf("%d frames, want %d", len(frames), tc.frames)
			}
			for _, f := range frames {
				if !bytes.HasPrefix(f, []byte("dgram-")) {
					t.Fatalf("frame %q is not one that was packed", f)
				}
			}
			if got := b.datagramsIn.Load(); got != tc.dgrams {
				t.Fatalf("DatagramsIn = %d, want %d", got, tc.dgrams)
			}
			if got := b.truncatedDatagrams.Load(); got != tc.truncated {
				t.Fatalf("TruncatedDatagrams = %d, want %d", got, tc.truncated)
			}
		})
	}
}

// TestBridgeOversizeDrop proves the send-side MaxFrame validation: an
// oversize frame handed to a proxy is counted and dropped whole — it
// neither truncates on the wire nor stalls later traffic.
func TestBridgeOversizeDrop(t *testing.T) {
	peerConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peerConn.Close()

	fabric := netsim.New(netsim.Config{})
	defer fabric.Stop()
	fabric.AddNode("local", netsim.NodeConfig{})
	bridge, err := NewBridge(fabric, "local", "", "", []Peer{
		{ID: "peer", UDPAddr: peerConn.LocalAddr().String()},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer bridge.Close()

	big := make([]byte, MaxFrame+1)
	if err := fabric.Send("ext", "peer", big); err != nil {
		t.Fatal(err)
	}
	small := []byte("fits")
	if err := fabric.Send("ext", "peer", small); err != nil {
		t.Fatal(err)
	}

	peerConn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, MaxDatagram)
	var got [][]byte
	for len(got) == 0 {
		n, _, err := peerConn.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("peer socket: %v", err)
		}
		if err := SplitFrames(buf[:n], func(f []byte) {
			got = append(got, append([]byte(nil), f...))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 1 || string(got[0]) != "fits" {
		t.Fatalf("peer received %d frames, first %q; want only %q", len(got), got[0], small)
	}
	deadline := time.Now().Add(5 * time.Second)
	for bridge.Stats().OversizeDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("oversize drop not counted: stats %+v", bridge.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if s := bridge.Stats(); s.OversizeDrops != 1 || s.FramesOut != 1 {
		t.Fatalf("stats = %+v, want 1 oversize drop and 1 frame out", s)
	}
}

func TestUnresolvablePeerRejected(t *testing.T) {
	fabric := netsim.New(netsim.Config{})
	defer fabric.Stop()
	fabric.AddNode("local", netsim.NodeConfig{})
	_, err := NewBridge(fabric, "local", "", "", []Peer{
		{ID: "ghost", UDPAddr: "no-such-host.invalid:bogus"},
	}, Config{})
	if err == nil {
		t.Fatal("unresolvable peer accepted")
	}
}
