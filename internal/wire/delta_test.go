package wire

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"silentspan/internal/bits"
	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
)

// deltaRoundtrip drives base→cur through encode→decode→ApplyDelta and
// returns the reconstructed register.
func deltaRoundtrip(t *testing.T, c Codec, base, cur runtime.State, seq, baseSeq uint64) runtime.State {
	t.Helper()
	var b bits.Builder
	data, err := Encode(Frame{Kind: KindDelta, Alg: c.Code(), Src: 7,
		Seq: seq, BaseSeq: baseSeq, Base: base, State: cur}, c, &b, nil)
	if err != nil {
		t.Fatalf("encode delta: %v", err)
	}
	f, err := Decode(c, data)
	if err != nil {
		t.Fatalf("decode delta (%x): %v", data, err)
	}
	if f.Kind != KindDelta || f.Src != 7 || f.Seq != seq || f.BaseSeq != baseSeq {
		t.Fatalf("delta header mismatch: %+v", f)
	}
	st, err := ApplyDelta(c, f, base)
	if err != nil {
		t.Fatalf("apply delta: %v", err)
	}
	return st
}

// TestDeltaRoundtrip: every (base, cur) pair of register samples
// survives delta encode→decode→apply exactly, under both codecs —
// including cur == base, the empty-mask keep-alive.
func TestDeltaRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range []Codec{Spanning{}, Switching{}} {
		states := sampleStates(c, rng)
		for i := 0; i+1 < len(states); i += 2 {
			base, cur := states[i], states[i+1]
			if got := deltaRoundtrip(t, c, base, cur, 9, 4); !got.Equal(cur) {
				t.Fatalf("%s pair %d: %v != %v", c.Name(), i, got, cur)
			}
			if got := deltaRoundtrip(t, c, base, base, 9, 4); !got.Equal(base) {
				t.Fatalf("%s pair %d: keep-alive %v != %v", c.Name(), i, got, base)
			}
		}
	}
}

// TestAnchorRoundtrip: a self-contained delta frame (BaseSeq == Seq)
// carries a full register — or an empty one — through the compact
// envelope, and a resync frame round-trips its header.
func TestAnchorRoundtrip(t *testing.T) {
	var b bits.Builder
	c := Codec(Switching{})
	for _, st := range []runtime.State{switching.SelfRoot(4), nil} {
		data, err := Encode(Frame{Kind: KindDelta, Alg: c.Code(), Src: 4, Seq: 12, BaseSeq: 12,
			State: st}, c, &b, nil)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Decode(c, data)
		if err != nil {
			t.Fatalf("decode anchor (%x): %v", data, err)
		}
		if f.Kind != KindDelta || f.Src != 4 || f.Seq != 12 || f.BaseSeq != 12 {
			t.Fatalf("anchor header mismatch: %+v", f)
		}
		switch {
		case st == nil:
			if f.State != nil {
				t.Fatalf("empty anchor decoded as %v", f.State)
			}
		case !f.State.Equal(st):
			t.Fatalf("anchor state %v != %v", f.State, st)
		}
	}
	data, err := Encode(Frame{Kind: KindResync, Alg: c.Code(), Src: 9, Seq: 0}, c, &b, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(c, data)
	if err != nil || f.Kind != KindResync || f.Src != 9 || f.Seq != 0 {
		t.Fatalf("resync roundtrip: %+v, %v", f, err)
	}
}

// TestCompactFrameSize: the point of the compact envelope — a quiet
// keep-alive delta must be a fraction of the classic full-state frame.
func TestCompactFrameSize(t *testing.T) {
	var b bits.Builder
	c := Codec(Switching{})
	st := switching.SelfRoot(50000)
	full, err := Encode(Frame{Kind: KindHeartbeat, Alg: c.Code(), Src: 50000, Seq: 40, State: st}, c, &b, nil)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := Encode(Frame{Kind: KindDelta, Alg: c.Code(), Src: 50000, Seq: 40, BaseSeq: 24,
		Base: st, State: st}, c, &b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(keep)*2 >= len(full) {
		t.Fatalf("keep-alive delta is %dB vs %dB full — compact envelope lost", len(keep), len(full))
	}
	if len(keep) > 16 {
		t.Fatalf("keep-alive delta is %dB, want ≤16", len(keep))
	}
}

// TestEveryByteFlipRejectedCompact: single-byte corruption never
// survives the compact frames either — keep-alive, changeful delta,
// and resync.
func TestEveryByteFlipRejectedCompact(t *testing.T) {
	var b bits.Builder
	c := Codec(Switching{})
	base := switching.SelfRoot(5)
	cur := switching.State{Root: 2, Parent: 5, HasD: true, D: 3, S: 99,
		Sw: switching.SwReq, SwTarget: 6, Pr: switching.PrPruned, Sub: switching.SubAck}
	frames := []Frame{
		{Kind: KindDelta, Alg: c.Code(), Src: 5, Seq: 33, BaseSeq: 32, Base: base, State: base},
		{Kind: KindDelta, Alg: c.Code(), Src: 5, Seq: 33, BaseSeq: 32, Base: base, State: cur},
		{Kind: KindDelta, Alg: c.Code(), Src: 5, Seq: 33, BaseSeq: 33, State: cur},
		{Kind: KindResync, Alg: c.Code(), Src: 5, Seq: 31},
	}
	for fi, fr := range frames {
		data, err := Encode(fr, c, &b, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				mut := append([]byte(nil), data...)
				mut[i] ^= flip
				f, err := Decode(c, mut)
				if err == nil && f.Kind == KindDelta && f.BaseSeq < f.Seq {
					// The field bits are not validated until application.
					_, err = ApplyDelta(c, f, base)
				}
				if err == nil {
					t.Fatalf("frame %d: byte %d flipped by %#x accepted", fi, i, flip)
				}
			}
		}
	}
}

// compactMutate rebuilds a compact frame with mutated pre-CRC bytes and
// a recomputed checksum, so structural rejects are reachable past the
// CRC gate.
func compactMutate(data []byte, mut func([]byte) []byte) []byte {
	body := append([]byte(nil), data[:len(data)-trailerLen]...)
	body = mut(body)
	return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestCompactDecodeRejects: each malformed compact frame class maps to
// its sentinel, even with a valid checksum.
func TestCompactDecodeRejects(t *testing.T) {
	var b bits.Builder
	c := Codec(Spanning{})
	anchor := spanning.State{Root: 1, Parent: trees.None, Dist: 0}
	good, err := Encode(Frame{Kind: KindDelta, Alg: c.Code(), Src: 3, Seq: 8, BaseSeq: 8,
		State: anchor}, c, &b, nil)
	if err != nil {
		t.Fatal(err)
	}
	resync, err := Encode(Frame{Kind: KindResync, Alg: c.Code(), Src: 3, Seq: 8}, c, &b, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"short", good[:compactHeaderLen+trailerLen-1], ErrTruncated},
		{"version", compactMutate(good, func(b []byte) []byte { b[1] = 9<<4 | byte(KindDelta); return b }), ErrVersion},
		{"kind", compactMutate(good, func(b []byte) []byte { b[1] = Version<<4 | 0xe; return b }), ErrKind},
		{"crc", mutate(good, len(good)-1, good[len(good)-1]^1), ErrChecksum},
		{"padding-byte", compactMutate(resync, func(b []byte) []byte { return append(b, 0) }), ErrPayload},
		{"dirty-padding", compactMutate(resync, func(b []byte) []byte { b[len(b)-1] |= 1; return b }), ErrPayload},
		{"base-before-zero", func() []byte {
			// Handcraft seq=0 with base distance 2 → base seq would be -2.
			var pb bits.Builder
			pb.AppendGamma(3) // src
			pb.AppendGamma(1) // seq+1 = 1 → seq 0
			pb.AppendGamma(3) // dist+1 = 3 → base 2 before seq 0
			body := pb.AppendBytes([]byte{magicCompact, Version<<4 | byte(KindDelta), c.Code()})
			return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
		}(), ErrPayload},
	}
	for _, tc := range cases {
		if _, err := Decode(c, tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// Encoding guards: negative src, base ahead of seq, missing base.
	if _, err := Encode(Frame{Kind: KindDelta, Alg: c.Code(), Src: 0, Seq: 1, BaseSeq: 1, State: anchor}, c, &b, nil); err == nil {
		t.Error("src 0 encoded")
	}
	if _, err := Encode(Frame{Kind: KindDelta, Alg: c.Code(), Src: 3, Seq: 1, BaseSeq: 2, Base: anchor, State: anchor}, c, &b, nil); err == nil {
		t.Error("base ahead of seq encoded")
	}
	if _, err := Encode(Frame{Kind: KindDelta, Alg: c.Code(), Src: 3, Seq: 2, BaseSeq: 1, State: anchor}, c, &b, nil); err == nil {
		t.Error("delta without base encoded")
	}
}

// TestApplyDeltaAdversarial: application against the wrong base — the
// receiver-side hazard the anchor protocol exists to prevent — is
// either detected or yields a state that a canonical re-encode would
// expose; self-contained frames and nil bases are refused outright.
func TestApplyDeltaAdversarial(t *testing.T) {
	var b bits.Builder
	c := Codec(Spanning{})
	base := spanning.State{Root: 1, Parent: trees.None, Dist: 0}
	cur := spanning.State{Root: 2, Parent: 1, Dist: 1}
	data, err := Encode(Frame{Kind: KindDelta, Alg: c.Code(), Src: 3, Seq: 8, BaseSeq: 5,
		Base: base, State: cur}, c, &b, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(c, data)
	if err != nil {
		t.Fatal(err)
	}
	// Applying against cur itself: every "changed" field now matches the
	// base — the non-canonical reject fires.
	if _, err := ApplyDelta(c, f, cur); err == nil {
		t.Error("delta applied against its own target accepted")
	}
	// Nil base and wrong-typed base are refused.
	if _, err := ApplyDelta(c, f, nil); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := ApplyDelta(c, f, switching.SelfRoot(1)); err == nil {
		t.Error("foreign base type accepted")
	}
	// A self-contained frame has nothing to apply.
	anchorData, err := Encode(Frame{Kind: KindDelta, Alg: c.Code(), Src: 3, Seq: 8, BaseSeq: 8,
		State: cur}, c, &b, nil)
	if err != nil {
		t.Fatal(err)
	}
	af, err := Decode(c, anchorData)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyDelta(c, af, base); err == nil {
		t.Error("ApplyDelta on self-contained frame accepted")
	}
	// The correct base still works after the failed attempts (the parked
	// payload is not consumed destructively).
	st, err := ApplyDelta(c, f, base)
	if err != nil || !st.Equal(cur) {
		t.Fatalf("reapply after failures: %v, %v", st, err)
	}
}

// TestDecodeBufReuse: repeated decodes through one scratch buffer keep
// decoding correctly — the reuse must not leak state between frames.
func TestDecodeBufReuse(t *testing.T) {
	var b bits.Builder
	c := Codec(Switching{})
	st := switching.SelfRoot(6)
	full, err := Encode(Frame{Kind: KindHeartbeat, Alg: c.Code(), Src: 6, Seq: 2, State: st}, c, &b, nil)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := Encode(Frame{Kind: KindDelta, Alg: c.Code(), Src: 6, Seq: 9, BaseSeq: 3,
		Base: st, State: st}, c, &b, nil)
	if err != nil {
		t.Fatal(err)
	}
	var scratch []uint64
	for i := 0; i < 3; i++ {
		var f Frame
		f, scratch, err = DecodeBuf(c, full, scratch)
		if err != nil || !f.State.Equal(st) {
			t.Fatalf("full decode %d: %+v, %v", i, f, err)
		}
		f, scratch, err = DecodeBuf(c, keep, scratch)
		if err != nil {
			t.Fatalf("keep decode %d: %v", i, err)
		}
		got, err := ApplyDelta(c, f, st)
		if err != nil || !got.Equal(st) {
			t.Fatalf("keep apply %d: %v, %v", i, got, err)
		}
	}
}

// FuzzDeltaCodec drives the delta codec with fuzzer-chosen base and
// current registers: the delta must apply back to exactly the current
// state, and applying it against a perturbed base must never panic.
func FuzzDeltaCodec(f *testing.F) {
	f.Add(int64(1), int64(0), int64(0), int64(2), int64(1), int64(1), uint64(9), uint64(4))
	f.Add(int64(5), int64(5), int64(7), int64(5), int64(5), int64(7), uint64(3), uint64(2))
	f.Add(int64(-1), int64(1)<<40, int64(9), int64(8), int64(-7), int64(0), uint64(100), uint64(1))
	f.Fuzz(func(t *testing.T, br, bp, bd, cr, cp, cd int64, seq, dist uint64) {
		if seq == 0 || dist == 0 || dist > seq {
			t.Skip()
		}
		c := Codec(Spanning{})
		base := spanning.State{Root: graph.NodeID(br), Parent: graph.NodeID(bp), Dist: int(bd)}
		cur := spanning.State{Root: graph.NodeID(cr), Parent: graph.NodeID(cp), Dist: int(cd)}
		var b bits.Builder
		data, err := Encode(Frame{Kind: KindDelta, Alg: c.Code(), Src: 7,
			Seq: seq, BaseSeq: seq - dist, Base: base, State: cur}, c, &b, nil)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		fr, err := Decode(c, data)
		if err != nil {
			t.Fatalf("decode(%x): %v", data, err)
		}
		if fr.Seq != seq || fr.BaseSeq != seq-dist {
			t.Fatalf("anchor header mismatch: %+v", fr)
		}
		got, err := ApplyDelta(c, fr, base)
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		if !got.Equal(cur) {
			t.Fatalf("applied %v != %v", got, cur)
		}
		// Wrong base: outcome may be an error or a divergent state, but
		// never a panic, and the right base must still apply afterwards.
		wrong := spanning.State{Root: base.Root + 1, Parent: base.Parent, Dist: base.Dist}
		_, _ = ApplyDelta(c, fr, wrong)
		if again, err := ApplyDelta(c, fr, base); err != nil || !again.Equal(cur) {
			t.Fatalf("reapply: %v, %v", again, err)
		}
	})
}

// BenchmarkFrameEncode measures steady-state heartbeat encoding into a
// reused buffer: the per-tick hot path of every node.
func BenchmarkFrameEncode(b *testing.B) {
	var bb bits.Builder
	c := Codec(Switching{})
	st := switching.SelfRoot(50000)
	fr := Frame{Kind: KindHeartbeat, Alg: c.Code(), Src: 50000, Seq: 3, State: st}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = Encode(fr, c, &bb, buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameDecode measures steady-state heartbeat decoding through
// a reused scratch buffer.
func BenchmarkFrameDecode(b *testing.B) {
	var bb bits.Builder
	c := Codec(Switching{})
	data, err := Encode(Frame{Kind: KindHeartbeat, Alg: c.Code(), Src: 50000, Seq: 3,
		State: switching.SelfRoot(50000)}, c, &bb, nil)
	if err != nil {
		b.Fatal(err)
	}
	var scratch []uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, scratch, err = DecodeBuf(c, data, scratch)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaKeepalive measures the quiet-cluster hot path: encode
// and decode+apply of an empty-mask keep-alive delta.
func BenchmarkDeltaKeepalive(b *testing.B) {
	var bb bits.Builder
	c := Codec(Switching{})
	st := switching.SelfRoot(50000)
	fr := Frame{Kind: KindDelta, Alg: c.Code(), Src: 50000, Seq: 9, BaseSeq: 3, Base: st, State: st}
	var buf []byte
	var scratch []uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = Encode(fr, c, &bb, buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		f, sc, err := DecodeBuf(c, buf, scratch)
		if err != nil {
			b.Fatal(err)
		}
		scratch = sc
		if _, err := ApplyDelta(c, f, st); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeAllocFree: a warm encoder performs zero heap allocations
// per frame — the fix for E13's throughput sag at scale.
func TestEncodeAllocFree(t *testing.T) {
	var bb bits.Builder
	c := Codec(Switching{})
	st := switching.SelfRoot(50000)
	fr := Frame{Kind: KindHeartbeat, Alg: c.Code(), Src: 50000, Seq: 3, State: st}
	buf := make([]byte, 0, 256)
	// Warm the builder.
	if _, err := Encode(fr, c, &bb, buf[:0]); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Encode(fr, c, &bb, buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm encode allocates %.1f times per frame", allocs)
	}
}

// TestDecodeBufAllocBound: a warm decoder's only steady allocation is
// the decoded register's interface box — the payload words and the bit
// reader no longer allocate per frame.
func TestDecodeBufAllocBound(t *testing.T) {
	var bb bits.Builder
	c := Codec(Switching{})
	data, err := Encode(Frame{Kind: KindHeartbeat, Alg: c.Code(), Src: 50000, Seq: 3,
		State: switching.SelfRoot(50000)}, c, &bb, nil)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]uint64, 8)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		_, scratch, err = DecodeBuf(c, data, scratch)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("warm decode allocates %.1f times per frame, want ≤1", allocs)
	}
}

// TestDeltaDecodeAllocs pins the receive path of the delta protocol
// under both codecs: an anchor decodes with at most the register's
// interface box, and a keep-alive delta (empty mask, no flips) decodes
// and applies with no allocation at all — it hands back the anchor.
func TestDeltaDecodeAllocs(t *testing.T) {
	for _, c := range []Codec{Spanning{}, Switching{}} {
		var bb bits.Builder
		st := sampleStates(c, rand.New(rand.NewSource(4)))[0]
		anchor, err := Encode(Frame{Kind: KindDelta, Alg: c.Code(), Src: 50000, Seq: 3,
			BaseSeq: 3, State: st}, c, &bb, nil)
		if err != nil {
			t.Fatal(err)
		}
		keep, err := Encode(Frame{Kind: KindDelta, Alg: c.Code(), Src: 50000, Seq: 9,
			BaseSeq: 3, Base: st, State: st}, c, &bb, nil)
		if err != nil {
			t.Fatal(err)
		}
		scratch := make([]uint64, 8)
		allocs := testing.AllocsPerRun(200, func() {
			var err error
			if _, scratch, err = DecodeBuf(c, anchor, scratch); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%s: anchor decode allocates %.1f times per frame, want ≤1", c.Name(), allocs)
		}
		allocs = testing.AllocsPerRun(200, func() {
			f, sc, err := DecodeBuf(c, keep, scratch)
			if err != nil {
				t.Fatal(err)
			}
			scratch = sc
			got, err := ApplyDelta(c, f, st)
			if err != nil || !got.Equal(st) {
				t.Fatalf("keep-alive applied to %v, %v", got, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: keep-alive decode allocates %.1f times per frame, want 0", c.Name(), allocs)
		}
	}
}

// TestEncodeSizesNilDst: encoding into a nil buffer allocates the frame
// once at its final size instead of growing it byte by byte.
func TestEncodeSizesNilDst(t *testing.T) {
	var bb bits.Builder
	c := Codec(Switching{})
	st := switching.SelfRoot(50000)
	for _, fr := range []Frame{
		{Kind: KindHeartbeat, Alg: c.Code(), Src: 50000, Seq: 3, State: st},
		{Kind: KindDelta, Alg: c.Code(), Src: 50000, Seq: 3, BaseSeq: 3, State: st},
	} {
		if _, err := Encode(fr, c, &bb, nil); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			data, err := Encode(fr, c, &bb, nil)
			if err != nil || len(data) != cap(data) {
				t.Fatalf("kind %d: len %d cap %d, %v", fr.Kind, len(data), cap(data), err)
			}
		})
		if allocs != 1 {
			t.Errorf("kind %d: nil-dst encode allocates %.1f times, want 1", fr.Kind, allocs)
		}
	}
}
