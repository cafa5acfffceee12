// Package wire is the cluster's wire protocol: it serializes a node's
// register state into versioned, checksummed heartbeat frames, and
// routed packets into data frames, so the locally-shared-memory model
// of the paper (Section II-A) can be realized over real links.
//
// The classic shared-memory→message-passing transform has every node
// periodically broadcast its register content to its neighbors; each
// neighbor caches the last received state and evaluates its transition
// function against the cache instead of an atomic register read. The
// transform preserves silence (once registers stop changing, only
// constant-size keep-alive heartbeats flow) and the Θ(log n) space
// bound of the paper: a frame carries one register, encoded with the
// Elias-gamma codes of internal/bits, so the frame size tracks the
// register size within a constant envelope.
//
// Frame layout (byte offsets):
//
//	0  magic "ST" (2 bytes)
//	2  version (1)
//	3  kind (1): heartbeat | data
//	4  alg (1): register codec code (0 for data frames)
//	5  flags (1): bit0 = register present (heartbeats)
//	6  src node identity (8, big-endian)
//	14 seq (8, big-endian): sender's monotone heartbeat counter
//	22 payload length in bits (4, big-endian)
//	26 payload (gamma-coded fields, zero-padded to a byte boundary)
//	.. crc32-IEEE of everything above (4, big-endian)
//
// Decode rejects bad magic, unknown versions and kinds, length
// mismatches, dirty padding, trailing payload bits, and — the fault
// class the cluster's byte-corrupting transport exercises — any frame
// whose checksum does not match: a single flipped bit anywhere in the
// frame is always caught.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"silentspan/internal/bits"
	"silentspan/internal/graph"
	"silentspan/internal/runtime"
)

// Version is the current frame format version.
const Version = 1

// headerLen and trailerLen frame the payload.
const (
	headerLen  = 26
	trailerLen = 4
)

const (
	magic0 = 'S'
	magic1 = 'T'
)

// Kind classifies a frame.
type Kind uint8

// The frame kinds.
const (
	// KindHeartbeat carries the sender's register state to a neighbor.
	KindHeartbeat Kind = 1
	// KindData carries one routed packet hop.
	KindData Kind = 2
)

// Decode failure classes, distinguishable with errors.Is so transport
// stats can attribute drops.
var (
	ErrTruncated = errors.New("wire: truncated frame")
	ErrMagic     = errors.New("wire: bad magic")
	ErrVersion   = errors.New("wire: unsupported version")
	ErrKind      = errors.New("wire: unknown frame kind")
	ErrChecksum  = errors.New("wire: checksum mismatch")
	ErrPayload   = errors.New("wire: corrupt payload")
)

// Packet is the data-plane payload: one routed packet identified by the
// gateway's ID, between its endpoints, carrying its hop count.
type Packet struct {
	ID          uint64
	Origin, Dst graph.NodeID
	Hops        int
}

// Frame is one decoded wire frame.
type Frame struct {
	Kind Kind
	// Alg is the register codec code the payload was encoded with
	// (heartbeats; zero for data frames). Receivers reject frames from a
	// codec other than their own — a cluster misconfiguration guard.
	Alg uint8
	// Src is the sending node.
	Src graph.NodeID
	// Seq is the sender's monotone counter: receivers drop duplicated
	// and reordered-stale heartbeats by accepting only fresher values.
	Seq uint64
	// State is the heartbeat register content; nil encodes an empty
	// register (a node that has not booted its algorithm yet).
	State runtime.State
	// Data is the packet of a data frame.
	Data Packet
	// BaseSeq is a delta frame's anchor (KindDelta): the seq of the
	// self-contained frame the payload is encoded against. BaseSeq ==
	// Seq marks a self-contained frame.
	BaseSeq uint64
	// Base is the encode-side anchor register for a delta frame with
	// BaseSeq < Seq. Decode leaves it nil: the receiver supplies its own
	// cached anchor to ApplyDelta.
	Base runtime.State
	// Q is the termination-detector report carried by heartbeat-class
	// frames (KindHeartbeat, KindDelta): write epoch, subtree-quiet
	// claim with coverage count, and the root's announced epoch.
	Q QuietReport
	// AdminAddr is an advert's ops-plane address (KindAdvert); empty
	// when the advertiser runs no admin server.
	AdminAddr string
	// Neighbors is an advert's neighbor digest (KindAdvert): the
	// strictly-ascending ids the advertiser was configured with.
	Neighbors []graph.NodeID
	// delta parks the undecoded payload of a received delta frame with
	// BaseSeq < Seq, positioned at deltaOff for ApplyDelta.
	delta    bits.String
	deltaOff int
}

// Encode appends the frame's wire form to dst and returns the grown
// slice. The builder is scratch for the payload encoding: it is Reset
// here and may be reused across calls, so a steady-state sender
// allocates only what dst needs to grow; a nil dst is allocated once,
// at the frame's final size.
func Encode(f Frame, c Codec, b *bits.Builder, dst []byte) ([]byte, error) {
	b.Reset()
	var flags byte
	switch f.Kind {
	case KindHeartbeat:
		appendQuiet(b, f.Q)
		if f.State != nil {
			flags |= 1
			if err := c.AppendState(b, f.State); err != nil {
				return dst, err
			}
		}
	case KindData:
		for _, v := range []int64{int64(f.Data.ID), int64(f.Data.Origin), int64(f.Data.Dst), int64(f.Data.Hops)} {
			if err := appendInt(b, v); err != nil {
				return dst, err
			}
		}
	case KindDelta, KindResync, KindAdvert, KindLeave:
		return encodeCompact(f, c, b, dst)
	default:
		return dst, fmt.Errorf("%w: %d", ErrKind, f.Kind)
	}
	if dst == nil {
		dst = make([]byte, 0, headerLen+(b.Len()+7)/8+trailerLen)
	}
	base := len(dst)
	dst = append(dst, magic0, magic1, Version, byte(f.Kind), f.Alg, flags)
	dst = binary.BigEndian.AppendUint64(dst, uint64(f.Src))
	dst = binary.BigEndian.AppendUint64(dst, f.Seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(b.Len()))
	dst = b.AppendBytes(dst)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[base:])), nil
}

// Decode parses one frame. The codec decodes heartbeat payloads; it is
// unused for data frames. Every reject path returns a wrapped sentinel
// error (ErrTruncated, ErrMagic, ErrVersion, ErrKind, ErrChecksum,
// ErrPayload).
func Decode(c Codec, data []byte) (Frame, error) {
	f, _, err := DecodeBuf(c, data, nil)
	return f, err
}

// DecodeBuf is Decode with a reusable scratch word slice backing the
// payload bit string, so a steady-state receiver decodes without heap
// allocation. The grown scratch is returned for the next call. Decoded
// registers are value copies and outlive the buffer, but a delta
// frame's parked payload aliases it: ApplyDelta before the next
// DecodeBuf call with the same buffer.
func DecodeBuf(c Codec, data []byte, scratch []uint64) (Frame, []uint64, error) {
	if len(data) > 0 && data[0] == magicCompact {
		return decodeCompact(c, data, scratch)
	}
	var f Frame
	if len(data) < headerLen+trailerLen {
		return f, scratch, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if data[0] != magic0 || data[1] != magic1 {
		return f, scratch, ErrMagic
	}
	if data[2] != Version {
		return f, scratch, fmt.Errorf("%w: %d", ErrVersion, data[2])
	}
	f.Kind = Kind(data[3])
	if f.Kind != KindHeartbeat && f.Kind != KindData {
		return f, scratch, fmt.Errorf("%w: %d", ErrKind, data[3])
	}
	f.Alg = data[4]
	flags := data[5]
	// Unknown flag bits are rejected rather than ignored: decode must be
	// the exact inverse of encode (canonical frames), or a corrupted bit
	// the checksum happened to miss could survive a relay re-encode.
	if flags&^1 != 0 || (f.Kind == KindData && flags != 0) {
		return f, scratch, fmt.Errorf("%w: flags %#x", ErrPayload, flags)
	}
	f.Src = graph.NodeID(binary.BigEndian.Uint64(data[6:14]))
	f.Seq = binary.BigEndian.Uint64(data[14:22])
	payloadBits := int(binary.BigEndian.Uint32(data[22:26]))
	payloadBytes := (payloadBits + 7) / 8
	if len(data) != headerLen+payloadBytes+trailerLen {
		return f, scratch, fmt.Errorf("%w: %d bytes for %d payload bits", ErrTruncated, len(data), payloadBits)
	}
	sum := binary.BigEndian.Uint32(data[len(data)-trailerLen:])
	if crc32.ChecksumIEEE(data[:len(data)-trailerLen]) != sum {
		return f, scratch, ErrChecksum
	}
	payload, scratch, err := bits.FromBytesBuf(scratch, data[headerLen:len(data)-trailerLen], payloadBits)
	if err != nil {
		return f, scratch, fmt.Errorf("%w: %v", ErrPayload, err)
	}
	r := bits.NewReader(payload)
	switch f.Kind {
	case KindHeartbeat:
		q, err := readQuiet(r)
		if err != nil {
			return f, scratch, fmt.Errorf("%w: quiet report: %v", ErrPayload, err)
		}
		f.Q = q
		if flags&1 != 0 {
			s, err := decodeState(c, r)
			if err != nil {
				return f, scratch, fmt.Errorf("%w: %v", ErrPayload, err)
			}
			f.State = s
		}
	case KindData:
		var fields [4]int64
		for i := range fields {
			v, err := readInt(r)
			if err != nil {
				return f, scratch, fmt.Errorf("%w: data field %d: %v", ErrPayload, i, err)
			}
			fields[i] = v
		}
		f.Data = Packet{
			ID:     uint64(fields[0]),
			Origin: graph.NodeID(fields[1]),
			Dst:    graph.NodeID(fields[2]),
			Hops:   int(fields[3]),
		}
	}
	if r.Remaining() != 0 {
		return f, scratch, fmt.Errorf("%w: %d trailing payload bits", ErrPayload, r.Remaining())
	}
	return f, scratch, nil
}
