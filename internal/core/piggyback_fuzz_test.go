package core

import (
	"reflect"
	"testing"
)

// FuzzMessageCodec drives DecodeMessage with arbitrary bytes (it must never
// panic and must reject garbage cleanly) and, whenever a prefix decodes,
// checks the re-encode/re-decode fixpoint: a decoded message re-encoded must
// decode back to the same structure. The seeds cover every update kind,
// coalesced and elided logs, truncated/corrupted variants, and a message in
// the retired v1 layout, which must be rejected; `make ci` runs a short fuzz
// pass on top of the seed corpus.
func FuzzMessageCodec(f *testing.F) {
	plain := sampleMessage().Encode(nil)
	v2 := sampleV2Message().Encode(nil)
	f.Add(plain)
	f.Add(v2)
	f.Add((&Message{Gen: 1}).Encode(nil))
	f.Add((&Message{Gen: 1, FullValues: true}).Encode(nil))
	f.Add(plain[:len(plain)/2])
	f.Add(v2[:len(v2)/2])
	f.Add(formerV1Blob)
	f.Add(append(append([]byte(nil), v2...), 0xde, 0xad))
	f.Add([]byte{})
	f.Add([]byte{99, 0, 0, 0})
	corrupt := append([]byte(nil), v2...)
	corrupt[len(corrupt)/2] ^= 0xFF
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMessage(b)
		if err != nil {
			return
		}
		if b[0] != msgV2 {
			t.Fatalf("decoder accepted version byte %d", b[0])
		}
		enc := m.Encode(nil)
		m2, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-encode of decoded message does not decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("codec not a fixpoint:\n first  %+v\n second %+v", m, m2)
		}
	})
}
