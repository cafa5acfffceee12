package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"silentspan/internal/bits"
	"silentspan/internal/graph"
	"silentspan/internal/runtime"
)

// Delta heartbeats: the silence-exploiting wire family. A stabilized
// node's register never changes, so full-state heartbeats carry the
// same bytes forever; the delta family sends only what moved.
//
// The compact kinds (delta, resync, and the membership pair in
// membership.go) share one layout (byte offsets):
//
//	0  magic 0xA7 (1 byte, distinct from the classic "ST" prefix)
//	1  version<<4 | kind (1)
//	2  alg: register codec code (1)
//	3  payload (gamma-coded fields, zero-padded to a byte boundary)
//	.. crc32-IEEE of everything above (4, big-endian)
//
// There is no fixed src/seq/length envelope: identities and counters
// are gamma-coded inside the payload, so a quiet keep-alive is ~13
// bytes instead of the classic frame's ~36. The payload is
// self-delimiting; the decoder rejects ≥8 trailing bits and any set
// padding bit, so decode remains the exact inverse of encode, and the
// trailing CRC still catches any single corrupted byte.
//
// KindDelta payload:
//
//	gamma(src)            sender identity (node IDs are positive)
//	gamma(seq+1)          sender's heartbeat counter
//	gamma(seq-baseSeq+1)  anchor distance; 0 ⇒ self-contained
//	quiet report          termination-detector block (see quiet.go)
//	if self-contained:    presence bit, then the full register
//	                      (this frame BECOMES the receiver's anchor)
//	else:                 codec delta: per-field changed mask, then
//	                      the changed fields, relative to the anchor
//	                      register the receiver cached at baseSeq
//
// Deltas are anchored, not chained: every delta is relative to the
// sender's last self-contained frame, so duplicated or reordered
// deltas apply identically (the seq filter alone decides freshness)
// and one lost delta never poisons the next. A receiver holding no
// anchor — or an anchor older than baseSeq — cannot apply the delta;
// it answers with KindResync and the sender re-anchors by broadcasting
// a self-contained frame. Decode defers delta application (it has no
// access to the receiver's anchor cache): it parses src/seq/baseSeq
// and keeps the payload; ApplyDelta finishes the job.
//
// KindResync payload:
//
//	gamma(src)      requester identity
//	gamma(seq+1)    highest anchor seq the requester holds (0 = none)
const (
	magicCompact = 0xA7
	// compactHeaderLen and the shared trailerLen frame the payload.
	compactHeaderLen = 3
)

// The compact frame kinds.
const (
	// KindDelta carries the sender's register as a change-mask against a
	// seq-anchored base (or self-contained when BaseSeq == Seq).
	KindDelta Kind = 3
	// KindResync asks a neighbor to re-anchor: the requester is missing
	// the base a delta referenced.
	KindResync Kind = 4
)

// encodeCompact appends one compact frame (KindDelta, KindResync).
// For deltas with BaseSeq < Seq, f.Base must hold the anchor register
// the receiver is assumed to cache and f.State the current register.
func encodeCompact(f Frame, c Codec, b *bits.Builder, dst []byte) ([]byte, error) {
	if f.Src < 1 {
		return dst, fmt.Errorf("wire: compact frame from non-positive node %d", f.Src)
	}
	b.Reset()
	b.AppendGamma(uint64(f.Src))
	b.AppendGamma(f.Seq + 1)
	switch f.Kind {
	case KindDelta:
		if f.BaseSeq > f.Seq {
			return dst, fmt.Errorf("wire: delta base seq %d ahead of seq %d", f.BaseSeq, f.Seq)
		}
		b.AppendGamma(f.Seq - f.BaseSeq + 1)
		// The quiet report precedes the register body so a receiver can
		// read it even when the delta must be parked for ApplyDelta.
		appendQuiet(b, f.Q)
		if f.BaseSeq == f.Seq {
			// Self-contained: the anchor frame.
			b.AppendBit(f.State != nil)
			if f.State != nil {
				if err := c.AppendState(b, f.State); err != nil {
					return dst, err
				}
			}
		} else {
			if f.Base == nil || f.State == nil {
				return dst, fmt.Errorf("wire: delta frame needs base and current registers")
			}
			if err := c.AppendDelta(b, f.Base, f.State); err != nil {
				return dst, err
			}
		}
	case KindResync, KindLeave:
	case KindAdvert:
		if err := appendAdvert(b, f); err != nil {
			return dst, err
		}
	default:
		return dst, fmt.Errorf("%w: %d", ErrKind, f.Kind)
	}
	if dst == nil {
		dst = make([]byte, 0, compactHeaderLen+(b.Len()+7)/8+trailerLen)
	}
	base := len(dst)
	dst = append(dst, magicCompact, byte(Version<<4)|byte(f.Kind), f.Alg)
	dst = b.AppendBytes(dst)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[base:])), nil
}

// decodeCompact parses one compact frame. scratch, when non-nil, backs
// the payload bit string so a steady-state receiver does not allocate
// per frame; the returned Frame's Payload aliases it.
func decodeCompact(c Codec, data []byte, scratch []uint64) (Frame, []uint64, error) {
	var f Frame
	if len(data) < compactHeaderLen+trailerLen {
		return f, scratch, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if data[1]>>4 != Version {
		return f, scratch, fmt.Errorf("%w: %d", ErrVersion, data[1]>>4)
	}
	f.Kind = Kind(data[1] & 0xf)
	if f.Kind < KindDelta || f.Kind > KindLeave {
		return f, scratch, fmt.Errorf("%w: %d", ErrKind, data[1]&0xf)
	}
	f.Alg = data[2]
	sum := binary.BigEndian.Uint32(data[len(data)-trailerLen:])
	if crc32.ChecksumIEEE(data[:len(data)-trailerLen]) != sum {
		return f, scratch, ErrChecksum
	}
	pay := data[compactHeaderLen : len(data)-trailerLen]
	s, scratch, err := bits.FromBytesBuf(scratch, pay, len(pay)*8)
	if err != nil {
		return f, scratch, fmt.Errorf("%w: %v", ErrPayload, err)
	}
	r := bits.NewReader(s)
	src, err := bits.ReadGamma(r)
	if err != nil {
		return f, scratch, fmt.Errorf("%w: src: %v", ErrPayload, err)
	}
	f.Src = graph.NodeID(src)
	if f.Src < 1 {
		return f, scratch, fmt.Errorf("%w: non-positive src %d", ErrPayload, f.Src)
	}
	seq1, err := bits.ReadGamma(r)
	if err != nil {
		return f, scratch, fmt.Errorf("%w: seq: %v", ErrPayload, err)
	}
	f.Seq = seq1 - 1
	switch f.Kind {
	case KindDelta:
		dist1, err := bits.ReadGamma(r)
		if err != nil {
			return f, scratch, fmt.Errorf("%w: base distance: %v", ErrPayload, err)
		}
		if dist1-1 > f.Seq {
			return f, scratch, fmt.Errorf("%w: base %d before seq 0", ErrPayload, dist1-1)
		}
		f.BaseSeq = f.Seq - (dist1 - 1)
		q, err := readQuiet(r)
		if err != nil {
			return f, scratch, fmt.Errorf("%w: quiet report: %v", ErrPayload, err)
		}
		f.Q = q
		if f.BaseSeq == f.Seq {
			present, err := r.ReadBit()
			if err != nil {
				return f, scratch, fmt.Errorf("%w: %v", ErrPayload, err)
			}
			if present {
				st, err := decodeState(c, r)
				if err != nil {
					return f, scratch, fmt.Errorf("%w: %v", ErrPayload, err)
				}
				f.State = st
			}
		} else {
			// Delta application needs the receiver's anchor register;
			// park the undecoded remainder for ApplyDelta. Padding
			// canonicality is checked there — the frame cannot be
			// validated further without the base. The parked string
			// aliases scratch: apply the delta before the next
			// DecodeBuf call with the same buffer.
			f.delta, f.deltaOff = s, r.Pos()
			return f, scratch, nil
		}
	case KindAdvert:
		if err := readAdvert(r, &f); err != nil {
			return f, scratch, err
		}
	case KindResync, KindLeave:
	}
	if err := checkPadding(r); err != nil {
		return f, scratch, err
	}
	return f, scratch, nil
}

// ApplyDelta finishes decoding a non-self-contained delta frame
// against the anchor register the receiver cached at f.BaseSeq. It
// enforces the same canonicality contract as Decode: every payload bit
// is consumed, and trailing padding is all-zero and under one byte.
func ApplyDelta(c Codec, f Frame, base runtime.State) (runtime.State, error) {
	if f.Kind != KindDelta || f.BaseSeq >= f.Seq {
		return nil, fmt.Errorf("wire: ApplyDelta on a non-delta frame (kind %d)", f.Kind)
	}
	if base == nil {
		return nil, fmt.Errorf("wire: ApplyDelta without a base register")
	}
	r := bits.NewReader(f.delta)
	if err := r.Skip(f.deltaOff); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPayload, err)
	}
	st, err := applyDelta(c, r, base)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPayload, err)
	}
	if err := checkPadding(r); err != nil {
		return nil, err
	}
	return st, nil
}

// checkPadding enforces canonical zero-padding: whatever follows the
// last field must be under one byte of zero bits.
func checkPadding(r *bits.Reader) error {
	if r.Remaining() >= 8 {
		return fmt.Errorf("%w: %d trailing payload bits", ErrPayload, r.Remaining())
	}
	for r.Remaining() > 0 {
		b, err := r.ReadBit()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrPayload, err)
		}
		if b {
			return fmt.Errorf("%w: nonzero padding", ErrPayload)
		}
	}
	return nil
}
