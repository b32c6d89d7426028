package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/ftsfc/ftc/internal/state"
)

func sampleMessage() *Message {
	return &Message{
		Flags: FlagPropagating,
		Gen:   7,
		Logs: []Log{
			{
				MB:  2,
				Vec: NewSparseVec(VecEntry{Part: 1, Seq: 5}, VecEntry{Part: 9, Seq: 0}),
				Updates: []state.Update{
					{Key: "flow:a", Value: []byte("v1"), Partition: 1},
					{Key: "gone", Value: nil, Partition: 9},
				},
			},
			{
				MB:    3,
				Flags: LogNoop,
				Vec:   NewSparseVec(VecEntry{Part: 0, Seq: 12}),
			},
		},
		Commits: []Commit{
			{MB: 1, Vec: NewSparseVec(VecEntry{Part: 0, Seq: 4})},
		},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := sampleMessage()
	enc := m.Encode(nil)
	got, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	m.Ver = msgV2 // decode records the wire version
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n want %+v\n got  %+v", m, got)
	}
}

func TestMessageEmptyRoundTrip(t *testing.T) {
	m := &Message{Gen: 1}
	got, err := DecodeMessage(m.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != 1 || len(got.Logs) != 0 || len(got.Commits) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestMessageDeleteUpdateRoundTrip(t *testing.T) {
	m := &Message{Logs: []Log{{
		MB:      0,
		Vec:     NewSparseVec(VecEntry{Part: 0, Seq: 0}),
		Updates: []state.Update{{Key: "k", Value: nil, Partition: 0}},
	}}}
	got, err := DecodeMessage(m.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Logs[0].Updates[0].Value != nil {
		t.Fatal("delete decoded as non-nil value")
	}
}

// TestDecodeRejectsOtherVersions pins the single-dialect contract on outside
// input: an otherwise well-formed message under any version byte but 2 —
// including 1, the retired fixed-width layout — is ErrDecode.
func TestDecodeRejectsOtherVersions(t *testing.T) {
	for _, ver := range []byte{0, 1, 3, 99} {
		enc := sampleMessage().Encode(nil)
		enc[0] = ver
		if _, err := DecodeMessage(enc); !errors.Is(err, ErrDecode) {
			t.Errorf("version %d: err = %v, want ErrDecode", ver, err)
		}
		var sc MsgScratch
		if _, err := sc.Decode(enc); !errors.Is(err, ErrDecode) {
			t.Errorf("version %d (scratch): err = %v, want ErrDecode", ver, err)
		}
	}
	if _, err := DecodeMessage(formerV1Blob); !errors.Is(err, ErrDecode) {
		t.Errorf("former v1 message: err = %v, want ErrDecode", err)
	}
}

// TestEncodeIgnoresVer: whatever Ver holds, the wire says version 2.
func TestEncodeIgnoresVer(t *testing.T) {
	for _, ver := range []uint8{0, 1, 2, 7} {
		m := sampleMessage()
		m.Ver = ver
		if enc := m.Encode(nil); enc[0] != msgV2 {
			t.Errorf("Ver=%d encoded version byte %d", ver, enc[0])
		}
	}
}

// formerV1Blob is a message in the retired fixed-width v1 layout, as the
// last v1 encoder (commit 38365d2) wrote it: gen 7, one log (mb 2, vec
// {1:5}, update "k"="v" on partition 1), one commit (mb 1, vec {0:4}).
var formerV1Blob = []byte{
	1, 0, 0, 0, 0, 7, 0, 1, 0, 1, // version, flags, gen, nLogs, nCommits
	0, 2, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 5, // log: mb, flags, nVec, (part, seq)
	0, 1, 0, 1, 0, 1, 'k', 1, 0, 0, 0, 1, 'v', // nUpd, part, keyLen, key, present, valLen, val
	0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, // commit: mb, nVec, (part, seq)
}

func TestDecodeRejectsTruncation(t *testing.T) {
	enc := sampleMessage().Encode(nil)
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeMessage(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	enc := append(sampleMessage().Encode(nil), 0xde, 0xad)
	if _, err := DecodeMessage(enc); !errors.Is(err, ErrDecode) {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeCopiesValues(t *testing.T) {
	enc := sampleMessage().Encode(nil)
	got, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xFF
	}
	if string(got.Logs[0].Updates[0].Value) != "v1" {
		t.Fatal("decoded value aliases input buffer")
	}
}

func TestEncodeAppendsToDst(t *testing.T) {
	prefix := []byte("prefix")
	out := sampleMessage().Encode(append([]byte(nil), prefix...))
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("Encode did not append")
	}
	if _, err := DecodeMessage(out[len(prefix):]); err != nil {
		t.Fatal(err)
	}
}

func TestLenEstimateCoversEncoding(t *testing.T) {
	m := sampleMessage()
	if got := len(m.Encode(nil)); got > m.LenEstimate() {
		t.Fatalf("encoded %d bytes > estimate %d", got, m.LenEstimate())
	}
}

func TestQuickMessageRoundTrip(t *testing.T) {
	f := func(mb uint16, flags uint8, gen uint32, parts []uint16, key string, val []byte, noop bool) bool {
		var vec SparseVec
		seen := map[uint16]bool{}
		for i, p := range parts {
			if seen[p] {
				continue
			}
			seen[p] = true
			vec = append(vec, VecEntry{Part: p, Seq: uint64(i)})
		}
		vec = NewSparseVec(vec...)
		l := Log{MB: mb, Vec: vec}
		if noop {
			l.Flags = LogNoop
		} else {
			l.Updates = []state.Update{{Key: key, Value: val, Partition: 3}}
		}
		m := &Message{Flags: flags, Gen: gen, Logs: []Log{l}}
		got, err := DecodeMessage(m.Encode(nil))
		if err != nil {
			return false
		}
		if got.Gen != gen || got.Flags != flags || len(got.Logs) != 1 {
			return false
		}
		g := got.Logs[0]
		if g.MB != mb || g.Noop() != noop || len(g.Vec) != len(vec) {
			return false
		}
		if !noop {
			u := g.Updates[0]
			if u.Key != key || !bytes.Equal(u.Value, valOrEmpty(val)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// valOrEmpty normalizes the nil/empty distinction: an empty non-nil value
// decodes as empty.
func valOrEmpty(v []byte) []byte {
	if v == nil {
		return []byte{}
	}
	return v
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = DecodeMessage(b) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestManyLogsAndCommits(t *testing.T) {
	m := &Message{Gen: 3}
	for i := 0; i < 40; i++ {
		m.Logs = append(m.Logs, Log{
			MB:  uint16(i % 5),
			Vec: NewSparseVec(VecEntry{Part: uint16(i), Seq: uint64(i)}),
			Updates: []state.Update{
				{Key: fmt.Sprintf("k%d", i), Value: bytes.Repeat([]byte{byte(i)}, i), Partition: uint16(i)},
			},
		})
		m.Commits = append(m.Commits, Commit{MB: uint16(i % 5), Vec: NewSparseVec(VecEntry{Part: 0, Seq: uint64(i)})})
	}
	got, err := DecodeMessage(m.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	m.Ver = msgV2 // decode records the wire version
	if !reflect.DeepEqual(m, got) {
		t.Fatal("many-log round trip mismatch")
	}
}

func BenchmarkMessageEncode(b *testing.B) {
	m := sampleMessage()
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.Encode(buf[:0])
	}
}

func BenchmarkMessageDecode(b *testing.B) {
	enc := sampleMessage().Encode(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeMessage(enc); err != nil {
			b.Fatal(err)
		}
	}
}
