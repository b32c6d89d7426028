package netsim

// Frame pooling.
//
// Every fabric delivery copies the sender's frame so receivers own their
// buffers (like a NIC ring). Allocating that copy per frame is the single
// largest source of garbage on the data plane, so delivery buffers come from
// size-classed free lists instead.
//
// Ownership discipline:
//
//   - The fabric acquires a buffer in transmit() and hands it to exactly one
//     receiver via the node's ingress queue (Inbound.Frame). Frames that
//     never enter a queue are never pooled: a hook node (NodeConfig.Deliver)
//     and an attached pipeline (Node.AttachIngest) borrow the sender's own
//     buffers for the call and must not release them.
//   - The receiver may call ReleaseFrame once it is done with the frame. A
//     receiver that retains the frame (or simply never releases) is safe: the
//     buffer is garbage collected like any other slice; the pool just loses
//     the recycle.
//   - Releasing a frame that is still referenced elsewhere is a bug (the next
//     AcquireFrame would alias live data). The -race aliasing test in
//     pool_race_test.go guards the fabric's own release points.
//
// Free lists are buffered channels rather than sync.Pool: putting a []byte
// into a sync.Pool boxes the slice header (one allocation per release, which
// would defeat the point), while channel elements are stored inline.

// Class capacities scale inversely with buffer size, so each class retains
// a few MiB at most while the small-packet classes hold enough buffers to
// cover deep tx/rx pipelines (a socket bridge keeps a send window plus two
// ingress queues of small frames in flight at once; a cap below that
// population turns every burst boundary into miss-then-discard churn).
var framePools = [...]framePool{
	{size: 256, ch: make(chan []byte, 8192)},     // ≤2 MiB retained
	{size: 1 << 10, ch: make(chan []byte, 4096)}, // ≤4 MiB
	{size: 1 << 12, ch: make(chan []byte, 1024)}, // ≤4 MiB
	{size: 1 << 14, ch: make(chan []byte, 512)},  // ≤8 MiB
	{size: 1 << 16, ch: make(chan []byte, 256)},  // ≤16 MiB
}

type framePool struct {
	size int
	ch   chan []byte
}

// AcquireFrame returns a buffer of length n with unspecified contents,
// recycled from the pool when possible. Buffers longer than the largest size
// class are plain allocations. Callers must overwrite the full length before
// exposing the buffer.
func AcquireFrame(n int) []byte {
	for i := range framePools {
		p := &framePools[i]
		if n <= p.size {
			select {
			case b := <-p.ch:
				return b[:n]
			default:
				return make([]byte, n, p.size)
			}
		}
	}
	return make([]byte, n)
}

// ReleaseFrame returns buf to the pool. The caller must not touch buf (or
// any slice aliasing it) afterwards. nil and undersized buffers are ignored;
// a full class discards the buffer to the garbage collector.
func ReleaseFrame(buf []byte) {
	c := cap(buf)
	if c < framePools[0].size {
		return
	}
	// Place the buffer in the largest class it can serve. Buffers that grew
	// past a class boundary (trailer appends) still recycle.
	for i := len(framePools) - 1; i >= 0; i-- {
		p := &framePools[i]
		if c >= p.size {
			select {
			case p.ch <- buf[:c]:
			default: // class full; let GC take it
			}
			return
		}
	}
}
