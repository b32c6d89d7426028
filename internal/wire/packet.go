package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"github.com/ftsfc/ftc/internal/hashx"
)

// trailer footer layout: the last 4 bytes of a frame carrying an FTC
// piggyback trailer are [magic uint16][trailer body length uint16].
const (
	trailerMagic     = 0xF7C7
	trailerFooterLen = 4
)

// FiveTuple identifies a transport flow.
type FiveTuple struct {
	Src, Dst         IPv4Addr
	SrcPort, DstPort uint16
	Proto            uint8
}

// String renders the tuple for logs and map-free debugging.
func (t FiveTuple) String() string {
	return fmt.Sprintf("%d:%s:%d->%s:%d", t.Proto, t.Src, t.SrcPort, t.Dst, t.DstPort)
}

// Reverse returns the tuple of the opposite direction.
func (t FiveTuple) Reverse() FiveTuple {
	return FiveTuple{Src: t.Dst, Dst: t.Src, SrcPort: t.DstPort, DstPort: t.SrcPort, Proto: t.Proto}
}

// Hash returns a non-cryptographic hash of the tuple, used for RSS queue
// selection and state partitioning. It is symmetric per direction (not
// bidirectional) like standard NIC RSS.
func (t FiveTuple) Hash() uint64 {
	var b [13]byte
	copy(b[0:4], t.Src[:])
	copy(b[4:8], t.Dst[:])
	binary.BigEndian.PutUint16(b[8:10], t.SrcPort)
	binary.BigEndian.PutUint16(b[10:12], t.DstPort)
	b[12] = t.Proto
	return hashx.Sum64(b[:])
}

// Packet is a parsed view over a raw Ethernet frame. The FTC runtime appends
// its piggyback message *after* the bytes covered by the IP total length, so
// the frame layout is:
//
//	[Ethernet][IPv4 (+FTC option)][UDP|TCP][payload][trailer body][footer]
//
// Middleboxes see the packet through Payload and the header setters; the
// trailer is invisible to them (the IP total length does not account for it),
// exactly as §6 of the paper describes.
type Packet struct {
	Buf []byte

	Eth Ethernet
	IP  IPv4
	UDP UDP
	TCP TCP

	l4Off int // offset of transport header
	ipEnd int // EthernetHeaderLen + IP.TotalLength: end of IP-covered bytes
}

// Parse decodes the Ethernet, IPv4, and transport headers of frame. The
// Packet retains frame (no copy); callers that reuse buffers must Clone.
func Parse(frame []byte) (*Packet, error) {
	p := &Packet{Buf: frame}
	if err := p.Reparse(); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseInto decodes frame into an existing Packet, overwriting all fields.
// It is the allocation-free variant of Parse for per-worker scratch packets
// on the data-plane fast path. On error the packet's contents are undefined.
func ParseInto(p *Packet, frame []byte) error {
	*p = Packet{Buf: frame}
	return p.Reparse()
}

// Reparse re-decodes all headers from p.Buf, e.g. after an in-place rewrite
// that changed header lengths.
func (p *Packet) Reparse() error {
	if err := DecodeEthernet(p.Buf, &p.Eth); err != nil {
		return err
	}
	if p.Eth.EtherType != EtherTypeIPv4 {
		return fmt.Errorf("%w: ethertype 0x%04x", ErrBadHeader, p.Eth.EtherType)
	}
	ipb := p.Buf[EthernetHeaderLen:]
	if err := DecodeIPv4(ipb, &p.IP); err != nil {
		return err
	}
	p.l4Off = EthernetHeaderLen + p.IP.HeaderLen()
	p.ipEnd = EthernetHeaderLen + int(p.IP.TotalLength)
	if p.ipEnd > len(p.Buf) || p.l4Off > p.ipEnd {
		return ErrTruncated
	}
	switch p.IP.Protocol {
	case ProtoUDP:
		if err := DecodeUDP(p.Buf[p.l4Off:p.ipEnd], &p.UDP); err != nil {
			return err
		}
	case ProtoTCP:
		if err := DecodeTCP(p.Buf[p.l4Off:p.ipEnd], &p.TCP); err != nil {
			return err
		}
	}
	return nil
}

// Clone deep-copies the packet, including any trailer.
func (p *Packet) Clone() *Packet {
	buf := make([]byte, len(p.Buf))
	copy(buf, p.Buf)
	q, err := Parse(buf)
	if err != nil {
		// The source packet was parseable; a copy must be too.
		panic("wire: clone reparse: " + err.Error())
	}
	return q
}

// L4HeaderLen reports the transport header length.
func (p *Packet) L4HeaderLen() int {
	switch p.IP.Protocol {
	case ProtoUDP:
		return UDPHeaderLen
	case ProtoTCP:
		return p.TCP.HeaderLen()
	default:
		return 0
	}
}

// Payload returns the transport payload (IP-covered bytes past the transport
// header). The slice aliases the frame.
func (p *Packet) Payload() []byte {
	off := p.l4Off + p.L4HeaderLen()
	if off > p.ipEnd {
		return nil
	}
	return p.Buf[off:p.ipEnd]
}

// FiveTuple extracts the flow tuple. Port fields are zero for non-UDP/TCP.
func (p *Packet) FiveTuple() FiveTuple {
	t := FiveTuple{Src: p.IP.Src, Dst: p.IP.Dst, Proto: p.IP.Protocol}
	switch p.IP.Protocol {
	case ProtoUDP:
		t.SrcPort, t.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	case ProtoTCP:
		t.SrcPort, t.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	}
	return t
}

// ipChecksumFixup applies an incremental checksum update (RFC 1624) to the
// IPv4 header checksum for a 16-bit field change at the given frame offset.
func (p *Packet) ipChecksumFixup(old, new uint16) {
	cs := binary.BigEndian.Uint16(p.Buf[EthernetHeaderLen+10 : EthernetHeaderLen+12])
	cs = checksumUpdate(cs, old, new)
	binary.BigEndian.PutUint16(p.Buf[EthernetHeaderLen+10:EthernetHeaderLen+12], cs)
	p.IP.Checksum = cs
}

// l4ChecksumFixup incrementally updates the transport checksum, honouring
// the UDP "zero means disabled" rule.
func (p *Packet) l4ChecksumFixup(old, new uint16) {
	var off int
	switch p.IP.Protocol {
	case ProtoUDP:
		if p.UDP.Checksum == 0 {
			return // checksum disabled
		}
		off = p.l4Off + 6
	case ProtoTCP:
		off = p.l4Off + 16
	default:
		return
	}
	cs := binary.BigEndian.Uint16(p.Buf[off : off+2])
	cs = checksumUpdate(cs, old, new)
	if p.IP.Protocol == ProtoUDP && cs == 0 {
		cs = 0xffff
	}
	binary.BigEndian.PutUint16(p.Buf[off:off+2], cs)
	if p.IP.Protocol == ProtoUDP {
		p.UDP.Checksum = cs
	} else {
		p.TCP.Checksum = cs
	}
}

// checksumUpdate implements RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m').
func checksumUpdate(cs, old, new uint16) uint16 {
	sum := uint32(^cs) + uint32(^old) + uint32(new)
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

func (p *Packet) setIPAddr(off int, addr IPv4Addr, field *IPv4Addr) {
	for i := 0; i < 4; i += 2 {
		old := binary.BigEndian.Uint16(p.Buf[off+i : off+i+2])
		new := binary.BigEndian.Uint16(addr[i : i+2])
		if old != new {
			p.ipChecksumFixup(old, new)
			p.l4ChecksumFixup(old, new) // pseudo-header includes addresses
		}
	}
	copy(p.Buf[off:off+4], addr[:])
	*field = addr
}

// SetIPSrc rewrites the source address in place with incremental checksum
// updates to both the IP and transport checksums.
func (p *Packet) SetIPSrc(addr IPv4Addr) { p.setIPAddr(EthernetHeaderLen+12, addr, &p.IP.Src) }

// SetIPDst rewrites the destination address in place.
func (p *Packet) SetIPDst(addr IPv4Addr) { p.setIPAddr(EthernetHeaderLen+16, addr, &p.IP.Dst) }

func (p *Packet) setPort(off int, port uint16, field *uint16) {
	old := binary.BigEndian.Uint16(p.Buf[off : off+2])
	if old != port {
		p.l4ChecksumFixup(old, port)
	}
	binary.BigEndian.PutUint16(p.Buf[off:off+2], port)
	*field = port
}

// SetSrcPort rewrites the transport source port in place.
func (p *Packet) SetSrcPort(port uint16) {
	switch p.IP.Protocol {
	case ProtoUDP:
		p.setPort(p.l4Off, port, &p.UDP.SrcPort)
	case ProtoTCP:
		p.setPort(p.l4Off, port, &p.TCP.SrcPort)
	}
}

// SetDstPort rewrites the transport destination port in place.
func (p *Packet) SetDstPort(port uint16) {
	switch p.IP.Protocol {
	case ProtoUDP:
		p.setPort(p.l4Off+2, port, &p.UDP.DstPort)
	case ProtoTCP:
		p.setPort(p.l4Off+2, port, &p.TCP.DstPort)
	}
}

// DecTTL decrements the IP TTL in place, returning false if it reached zero.
func (p *Packet) DecTTL() bool {
	if p.IP.TTL == 0 {
		return false
	}
	old := binary.BigEndian.Uint16(p.Buf[EthernetHeaderLen+8 : EthernetHeaderLen+10])
	p.IP.TTL--
	p.Buf[EthernetHeaderLen+8] = p.IP.TTL
	new := binary.BigEndian.Uint16(p.Buf[EthernetHeaderLen+8 : EthernetHeaderLen+10])
	p.ipChecksumFixup(old, new)
	return p.IP.TTL > 0
}

// HasTrailer reports whether the frame carries an FTC trailer beyond the
// IP-covered bytes, validated against the footer magic.
func (p *Packet) HasTrailer() bool {
	extra := len(p.Buf) - p.ipEnd
	if extra < trailerFooterLen {
		return false
	}
	foot := p.Buf[len(p.Buf)-trailerFooterLen:]
	if binary.BigEndian.Uint16(foot[0:2]) != trailerMagic {
		return false
	}
	bodyLen := int(binary.BigEndian.Uint16(foot[2:4]))
	return extra == bodyLen+trailerFooterLen
}

// Trailer returns the trailer body, or nil if absent. The slice aliases the
// frame and is invalidated by SetTrailer/StripTrailer.
func (p *Packet) Trailer() []byte {
	if !p.HasTrailer() {
		return nil
	}
	return p.Buf[p.ipEnd : len(p.Buf)-trailerFooterLen]
}

// SetTrailer appends or replaces the FTC trailer with a copy of body, which
// must fit a uint16 length. The IP headers are untouched: the trailer lives
// outside the IP total length, and construction is in-place per §6.
func (p *Packet) SetTrailer(body []byte) error {
	grown, err := appendTrailerAt(append(p.Buf[:p.ipEnd], body...), p.ipEnd)
	if err == nil {
		p.Buf = grown
	}
	return err
}

// TrailerEncoder produces a trailer body by appending to dst (the usual
// Encode(dst) shape). Implementations must only append.
type TrailerEncoder interface {
	Encode(dst []byte) []byte
}

// AppendTrailer sets the FTC trailer by letting enc append the body directly
// onto the frame past the IP-covered bytes, so no intermediate body buffer
// is needed. Any existing trailer is replaced.
func (p *Packet) AppendTrailer(enc TrailerEncoder) error {
	grown, err := appendTrailerAt(enc.Encode(p.Buf[:p.ipEnd]), p.ipEnd)
	if err == nil {
		p.Buf = grown
	}
	return err
}

// AppendRawTrailer appends an FTC trailer to a frame whose length is exactly
// its IP-covered byte count (a prebuilt carrier template), without parsing.
// The returned slice is frame, grown in place when capacity allows.
func AppendRawTrailer(frame []byte, enc TrailerEncoder) ([]byte, error) {
	return appendTrailerAt(enc.Encode(frame), len(frame))
}

// appendTrailerAt closes the trailer whose body is grown[end:] by appending
// its footer: the one routine that writes a trailer footer.
func appendTrailerAt(grown []byte, end int) ([]byte, error) {
	bodyLen := len(grown) - end
	if bodyLen < 0 {
		return nil, fmt.Errorf("%w: trailer encoder shrank the frame", ErrBadHeader)
	}
	if bodyLen > 0xffff {
		return nil, fmt.Errorf("%w: trailer body %d bytes", ErrBadHeader, bodyLen)
	}
	var foot [trailerFooterLen]byte
	binary.BigEndian.PutUint16(foot[0:2], trailerMagic)
	binary.BigEndian.PutUint16(foot[2:4], uint16(bodyLen))
	return append(grown, foot[:]...), nil
}

// StripTrailer removes the trailer, returning a copy of its body (nil if no
// trailer was present).
func (p *Packet) StripTrailer() []byte {
	body := bytes.Clone(p.Trailer())
	p.DropTrailer()
	return body
}

// DropTrailer removes the trailer without copying its body out — the
// allocation-free StripTrailer for callers that no longer need the body.
func (p *Packet) DropTrailer() {
	if p.HasTrailer() {
		p.Buf = p.Buf[:p.ipEnd]
	}
}

// HasFTCOption reports whether the IP header carries the FTC marker option.
func (p *Packet) HasFTCOption() bool { return hasFTCOption(p.IP.Options) }

// InsertFTCOption inserts the 4-byte FTC marker option into the IP header,
// shifting the transport header, payload, and trailer. No-op if the option
// is already present. Fails if the header would exceed 60 bytes.
func (p *Packet) InsertFTCOption() error {
	if p.HasFTCOption() {
		return nil
	}
	hl := p.IP.HeaderLen()
	if hl+OptionFTCLen > IPv4MaxHeaderLen {
		return fmt.Errorf("%w: no room for FTC option", ErrBadHeader)
	}
	opt := ftcOptionBytes()
	// Grow the buffer and shift everything after the IP header right.
	oldLen := len(p.Buf)
	p.Buf = append(p.Buf, make([]byte, OptionFTCLen)...)
	copy(p.Buf[p.l4Off+OptionFTCLen:], p.Buf[p.l4Off:oldLen])
	copy(p.Buf[p.l4Off:p.l4Off+OptionFTCLen], opt[:])

	h := p.IP
	h.IHL++
	h.TotalLength += OptionFTCLen
	h.Options = p.Buf[EthernetHeaderLen+IPv4MinHeaderLen : EthernetHeaderLen+int(h.IHL)*4]
	if err := EncodeIPv4(p.Buf[EthernetHeaderLen:], &h); err != nil {
		return err
	}
	return p.Reparse()
}

// RemoveFTCOption removes the FTC marker option if present, shifting the
// rest of the frame left. Only the FTC option is removed; other options are
// preserved.
func (p *Packet) RemoveFTCOption() error {
	if !p.HasFTCOption() {
		return nil
	}
	// Find the option within the options region.
	opts := p.IP.Options
	base := EthernetHeaderLen + IPv4MinHeaderLen
	i := 0
	for i < len(opts) {
		kind := opts[i]
		if kind == OptionEOL {
			break
		}
		if kind == OptionNOP {
			i++
			continue
		}
		optLen := int(opts[i+1])
		if kind == OptionFTC && optLen == OptionFTCLen {
			break
		}
		i += optLen
	}
	start := base + i
	copy(p.Buf[start:], p.Buf[start+OptionFTCLen:])
	p.Buf = p.Buf[:len(p.Buf)-OptionFTCLen]

	h := p.IP
	h.IHL--
	h.TotalLength -= OptionFTCLen
	h.Options = p.Buf[base : EthernetHeaderLen+int(h.IHL)*4]
	if err := EncodeIPv4(p.Buf[EthernetHeaderLen:], &h); err != nil {
		return err
	}
	return p.Reparse()
}

// VerifyIPChecksum recomputes the IP header checksum and reports whether it
// matches the header's value.
func (p *Packet) VerifyIPChecksum() bool {
	hl := p.IP.HeaderLen()
	return Checksum(p.Buf[EthernetHeaderLen:EthernetHeaderLen+hl]) == 0
}

// VerifyL4Checksum recomputes the transport checksum (with pseudo-header)
// and reports whether it is valid. A UDP checksum of zero is valid
// ("disabled").
func (p *Packet) VerifyL4Checksum() bool {
	seg := p.Buf[p.l4Off:p.ipEnd]
	switch p.IP.Protocol {
	case ProtoUDP:
		if p.UDP.Checksum == 0 {
			return true
		}
		sum := pseudoHeaderSum(p.IP.Src, p.IP.Dst, ProtoUDP, uint16(len(seg)))
		return finishChecksum(sumBytes(sum, seg)) == 0
	case ProtoTCP:
		sum := pseudoHeaderSum(p.IP.Src, p.IP.Dst, ProtoTCP, uint16(len(seg)))
		return finishChecksum(sumBytes(sum, seg)) == 0
	default:
		return true
	}
}
