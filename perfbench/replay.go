package main

import (
	"bytes"
	"fmt"
	"time"

	"silentspan/internal/bits"
	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
	"silentspan/internal/switching"
	"silentspan/internal/wire"
)

// replayFrame is one captured frame ready for replay: its bytes, its
// class, and for a delta the anchor register it was encoded against.
type replayFrame struct {
	data []byte
	kind string
	base runtime.State
}

// replayWork is how many frames each kind's timing loop decodes (and
// re-encodes), so a kind with few captured frames is replayed more
// often and every kind's ns/frame rests on a comparable amount of work.
const replayWork = 200000

// replayCodec replays the captured frames through the wire codec and
// their register fields through the gamma codec, and records the
// per-kind costs. A frame that does not re-encode to its captured bytes
// fails the spec gate: the numbers must describe the real codec.
func replayCodec(r *run, capt *capture) {
	i := r.sp.begin("replay")
	defer r.sp.end(i)
	c := capt.codec
	type key struct {
		src graph.NodeID
		seq uint64
	}
	anchors := map[key]runtime.State{}
	for _, a := range capt.anchors {
		f, err := wire.Decode(c, a)
		if err == nil {
			anchors[key{f.Src, f.Seq}] = f.State
		}
	}
	byKind := map[string][]replayFrame{}
	var fields []uint64
	var b bits.Builder
	unmatched := 0
	for _, data := range capt.frames {
		f, err := wire.Decode(c, data)
		if !r.gate.spec(err == nil, "captured frame does not decode: %v", err) {
			continue
		}
		rf := replayFrame{data: data}
		switch {
		case f.Kind == wire.KindDelta && f.BaseSeq == f.Seq:
			rf.kind = "anchor"
		case f.Kind == wire.KindDelta:
			rf.kind = "delta"
			base, ok := anchors[key{f.Src, f.BaseSeq}]
			if !ok {
				// The anchor went out before the capture saw this sender.
				unmatched++
				continue
			}
			rf.base = base
			if f.State, err = wire.ApplyDelta(c, f, base); !r.gate.spec(err == nil, "captured delta does not apply: %v", err) {
				continue
			}
			f.Base = base
		case f.Kind == wire.KindData:
			rf.kind = "data"
		case f.Kind == wire.KindResync:
			rf.kind = "resync"
		case f.Kind == wire.KindAdvert:
			rf.kind = "advert"
		default:
			continue
		}
		re, err := wire.Encode(f, c, &b, nil)
		r.gate.spec(err == nil && bytes.Equal(re, data), "%s frame from %d seq %d does not re-encode to its captured bytes", rf.kind, f.Src, f.Seq)
		fields = appendFields(fields, f.State)
		byKind[rf.kind] = append(byKind[rf.kind], rf)
	}
	r.extra["replay_frames"] = len(capt.frames)
	r.extra["replay_unanchored_deltas"] = unmatched
	counts := map[string]int{}
	for _, k := range frameKinds {
		fr := byKind[k]
		counts[k] = len(fr)
		if len(fr) == 0 {
			r.notApplicable(fmt.Sprintf("no %s frames in the captured sample", k),
				"wire.decode_ns_per_frame."+k, "wire.encode_ns_per_frame."+k,
				"wire.decode_allocs_per_frame."+k, "wire.bytes_per_frame."+k)
			continue
		}
		replayKind(r, c, k, fr)
	}
	r.extra["replay_frames_by_kind"] = counts
	replayGamma(r, fields)
}

// replayKind times decode (DecodeBuf, plus ApplyDelta for deltas) and
// encode of one kind's frames.
func replayKind(r *run, c wire.Codec, kind string, fr []replayFrame) {
	reps := max(1, replayWork/len(fr))
	frames := make([]wire.Frame, len(fr))
	var scratch []uint64
	var err error
	size := 0
	for i, x := range fr {
		size += len(x.data)
		frames[i], scratch, err = wire.DecodeBuf(c, x.data, scratch)
		if err == nil && x.base != nil {
			frames[i].State, err = wire.ApplyDelta(c, frames[i], x.base)
			frames[i].Base = x.base
		}
		if err != nil {
			r.gate.spec(false, "replay decode of a %s frame: %v", kind, err)
			return
		}
	}
	decode := func() {
		for k := 0; k < reps; k++ {
			for _, x := range fr {
				f, s, err := wire.DecodeBuf(c, x.data, scratch)
				scratch = s
				if err == nil && x.base != nil {
					_, err = wire.ApplyDelta(c, f, x.base)
				}
				if err != nil {
					panic(err) // every frame decoded above
				}
			}
		}
	}
	rt0 := readRT()
	t0 := time.Now()
	decode()
	dec := time.Since(t0)
	allocs := readRT().allocs - rt0.allocs
	var b bits.Builder
	dst := make([]byte, 0, 256)
	t0 = time.Now()
	for k := 0; k < reps; k++ {
		for i := range frames {
			dst, _ = wire.Encode(frames[i], c, &b, dst[:0])
		}
	}
	enc := time.Since(t0)
	total := float64(reps * len(fr))
	r.set("wire.decode_ns_per_frame."+kind, float64(dec.Nanoseconds())/total, len(fr))
	r.set("wire.encode_ns_per_frame."+kind, float64(enc.Nanoseconds())/total, len(fr))
	r.set("wire.decode_allocs_per_frame."+kind, float64(allocs)/total, len(fr))
	r.set("wire.bytes_per_frame."+kind, float64(size)/float64(len(fr)), len(fr))
}

// appendFields appends a register's integer fields in the wire codec's
// folded form (zigzag, plus one): the values the gamma codec carries.
func appendFields(out []uint64, s runtime.State) []uint64 {
	fold := func(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) + 1 }
	switch st := s.(type) {
	case spanning.State:
		return append(out, fold(int64(st.Root)), fold(int64(st.Parent)), fold(int64(st.Dist)))
	case nil:
		return out
	default:
		if sw, ok := switching.RegOf(s); ok {
			return append(out, fold(int64(sw.Root)), fold(int64(sw.Parent)), fold(int64(sw.D)),
				fold(int64(sw.S)), fold(int64(sw.Sw)), fold(int64(sw.SwTarget)), fold(int64(sw.Pr)), fold(int64(sw.Sub)))
		}
	}
	return out
}

// replayGamma times Builder.AppendGamma and ReadGamma over the captured
// registers' field values, and checks the round trip.
func replayGamma(r *run, fields []uint64) {
	if len(fields) == 0 {
		r.notApplicable("no register fields in the captured sample", "bits.gamma_decode_ns", "bits.gamma_encode_ns")
		return
	}
	reps := max(1, 4*replayWork/len(fields))
	var b bits.Builder
	t0 := time.Now()
	for k := 0; k < reps; k++ {
		b.Reset()
		for _, v := range fields {
			b.AppendGamma(v)
		}
	}
	enc := time.Since(t0)
	stream := b.String()
	t0 = time.Now()
	for k := 0; k < reps; k++ {
		rd := bits.NewReader(stream)
		for _, want := range fields {
			v, err := bits.ReadGamma(rd)
			if err != nil || v != want {
				r.gate.spec(false, "gamma round trip: read %d (%v), want %d", v, err, want)
				return
			}
		}
	}
	dec := time.Since(t0)
	total := float64(reps * len(fields))
	r.set("bits.gamma_encode_ns", float64(enc.Nanoseconds())/total, len(fields))
	r.set("bits.gamma_decode_ns", float64(dec.Nanoseconds())/total, len(fields))
}
