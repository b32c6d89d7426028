package state

// keyCap is the longest key a Key holds inline. It matches the Go
// runtime's on-stack buffer for a non-escaping string conversion, so a
// transaction turns an inline Key into its lookup string without a heap
// allocation.
const keyCap = 32

// Key is a state key held by value: a packet transaction can look it up
// (Txn.GetKey) without building a heap string, which a middlebox's per-flow
// key would otherwise cost on every packet. Keys up to 32 bytes live
// inline; a longer one falls back to a heap string, so a Key never
// truncates. The zero Key is the empty key.
type Key struct {
	n    uint8
	b    [keyCap]byte
	long string // the whole key when it does not fit in b
}

// MakeKey returns the key prefix+suffix. Only a key longer than 32 bytes
// allocates.
func MakeKey(prefix string, suffix []byte) Key {
	var k Key
	if n := len(prefix) + len(suffix); n > keyCap {
		k.long = prefix + string(suffix)
	} else {
		k.n = uint8(n)
		copy(k.b[copy(k.b[:], prefix):], suffix)
	}
	return k
}

// String returns the key as the store indexes it. It allocates for an
// inline key: middleboxes call it only to write a key (a flow-setup write),
// never to look one up.
func (k Key) String() string {
	if k.long != "" {
		return k.long
	}
	return string(k.b[:k.n])
}
