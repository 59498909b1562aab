package wire

import (
	"bytes"
	"io"
	"math"
	"net"
	"testing"
)

// encodeCanonical re-encodes a decoded frame through the Append helpers,
// returning the full frame bytes (length prefix included). Shared with the
// fuzz target.
func encodeCanonical(tb testing.TB, f *Frame, dst []byte) []byte {
	tb.Helper()
	var err error
	switch f.Op {
	case OpAdmit:
		dst = AppendAdmit(dst, f.ReqID, f.Flow, f.Rate)
	case OpAdmitBatch:
		dst, err = AppendAdmitBatch(dst, f.ReqID, f.Flows, f.Rates)
	case OpUpdateRate:
		dst = AppendUpdateRate(dst, f.ReqID, f.Flow, f.Rate)
	case OpTouch:
		dst = AppendTouch(dst, f.ReqID, f.Flow)
	case OpDepart:
		dst = AppendDepart(dst, f.ReqID, f.Flow)
	case OpPing:
		dst = AppendPing(dst, f.ReqID)
	case OpDecision:
		dst = AppendDecision(dst, f.ReqID, f.Decision)
	case OpDecisionBatch:
		dst, err = AppendDecisionBatch(dst, f.ReqID, f.Decisions)
	case OpAck:
		dst = AppendAck(dst, f.ReqID, f.Status)
	case OpPong:
		dst = AppendPong(dst, f.ReqID)
	case OpRefusal:
		dst = AppendRefusal(dst, f.ReqID, f.Refusal)
	default:
		tb.Fatalf("encodeCanonical: unhandled op %v", f.Op)
	}
	if err != nil {
		tb.Fatalf("encodeCanonical: %v", err)
	}
	return dst
}

// sampleFrames returns one encoded frame per op, length prefix included.
func sampleFrames() [][]byte {
	var frames [][]byte
	frames = append(frames, AppendAdmit(nil, 1, 42, 1.5))
	b, _ := AppendAdmitBatch(nil, 2, []uint64{1, 2, 3}, []float64{0.5, 1, 2})
	frames = append(frames, b)
	frames = append(frames, AppendUpdateRate(nil, 3, 42, 0))
	frames = append(frames, AppendTouch(nil, 4, 42))
	frames = append(frames, AppendDepart(nil, 5, 42))
	frames = append(frames, AppendPing(nil, 6))
	frames = append(frames, AppendDecision(nil, 7, Decision{Reason: 1, Admissible: 99.5, Active: -3}))
	b, _ = AppendDecisionBatch(nil, 8, []Decision{{Reason: 0, Admissible: 10, Active: 4}, {Reason: 3}})
	frames = append(frames, b)
	frames = append(frames, AppendAck(nil, 9, StatusNotActive))
	frames = append(frames, AppendPong(nil, 10))
	frames = append(frames, AppendRefusal(nil, 0, RefuseOverloaded))
	return frames
}

func TestRoundTripEveryOp(t *testing.T) {
	var f Frame
	for _, enc := range sampleFrames() {
		if err := f.Decode(enc[4:]); err != nil {
			t.Fatalf("decode %v: %v", enc, err)
		}
		re := encodeCanonical(t, &f, nil)
		if !bytes.Equal(enc, re) {
			t.Errorf("%v: round trip changed bytes:\n  in  %x\n  out %x", f.Op, enc, re)
		}
	}
}

func TestDecisionFieldFidelity(t *testing.T) {
	want := Decision{Reason: 4, Admissible: math.Inf(1), Active: 1 << 40}
	enc := AppendDecision(nil, 77, want)
	var f Frame
	if err := f.Decode(enc[4:]); err != nil {
		t.Fatal(err)
	}
	if f.ReqID != 77 || f.Decision != want {
		t.Fatalf("got reqID %d decision %+v, want 77 %+v", f.ReqID, f.Decision, want)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	admit := AppendAdmit(nil, 1, 2, 3)[4:]
	cases := map[string][]byte{
		"short header":      {Version, byte(OpPing)},
		"bad version":       append([]byte{Version + 1}, admit[1:]...),
		"zero op":           {Version, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"unknown op":        {Version, 200, 0, 0, 0, 0, 0, 0, 0, 0},
		"trailing bytes":    append(append([]byte{}, admit...), 0),
		"truncated payload": admit[:len(admit)-1],
		"ping with payload": append(AppendPing(nil, 1)[4:], 9),
		"bad status":        AppendAck(nil, 1, Status(9))[4:],
		"zero refusal":      AppendRefusal(nil, 1, Refusal(0))[4:],
		"bad refusal":       AppendRefusal(nil, 1, Refusal(99))[4:],
	}
	// A zero batch count and an inconsistent batch count.
	b, _ := AppendAdmitBatch(nil, 1, []uint64{5}, []float64{1})
	zeroCount := append([]byte{}, b[4:]...)
	zeroCount[headerLen] = 0
	zeroCount[headerLen+1] = 0
	cases["zero batch count"] = zeroCount
	overCount := append([]byte{}, b[4:]...)
	overCount[headerLen] = 0xff
	overCount[headerLen+1] = 0xff
	cases["overlong batch count"] = overCount
	var f Frame
	for name, p := range cases {
		if err := f.Decode(p); err == nil {
			t.Errorf("%s: decode accepted %x", name, p)
		}
	}
}

func TestAppendBatchValidation(t *testing.T) {
	if _, err := AppendAdmitBatch(nil, 1, []uint64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := AppendAdmitBatch(nil, 1, nil, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := AppendDecisionBatch(nil, 1, make([]Decision, MaxBatch+1)); err == nil {
		t.Error("oversized decision batch accepted")
	}
}

func TestReaderStream(t *testing.T) {
	frames := sampleFrames()
	var stream []byte
	for _, fr := range frames {
		stream = append(stream, fr...)
	}
	r := NewReader(bytes.NewReader(stream))
	var f Frame
	for i, fr := range frames {
		if err := r.Next(&f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		re := encodeCanonical(t, &f, nil)
		if !bytes.Equal(fr, re) {
			t.Fatalf("frame %d changed across the Reader", i)
		}
	}
	if err := r.Next(&f); err != io.EOF {
		t.Fatalf("got %v at end of stream, want io.EOF", err)
	}
}

func TestReaderRejectsOversizedFrame(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0, 0}))
	var f Frame
	if err := r.Next(&f); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
}

func TestReaderPartialFrame(t *testing.T) {
	enc := AppendAdmit(nil, 1, 2, 3)
	r := NewReader(bytes.NewReader(enc[:len(enc)-2]))
	var f Frame
	if err := r.Next(&f); err != io.ErrUnexpectedEOF {
		t.Fatalf("got %v for a truncated frame, want io.ErrUnexpectedEOF", err)
	}
}

// TestNextBuffered: NextBuffered consumes exactly the frames already in the
// buffer and never blocks on the stream.
func TestNextBuffered(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	r := NewReader(c2)
	var f Frame
	if ok, err := r.NextBuffered(&f); ok || err != nil {
		t.Fatalf("empty reader: NextBuffered = %v, %v", ok, err)
	}
	two := AppendPing(AppendPing(nil, 1), 2)
	errc := make(chan error, 1)
	go func() {
		_, err := c1.Write(two)
		errc <- err
	}()
	if err := r.Next(&f); err != nil { // pulls both frames into the buffer
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if ok, err := r.NextBuffered(&f); !ok || err != nil || f.Op != OpPing || f.ReqID != 2 {
		t.Fatalf("second pipelined frame: NextBuffered = %v, %v, frame %+v", ok, err, f)
	}
	if ok, err := r.NextBuffered(&f); ok || err != nil {
		t.Fatalf("drained reader: NextBuffered = %v, %v", ok, err)
	}
}

// TestEncodeDecodeAllocationFree pins the zero-alloc contract of the
// steady state: encoding into a warmed scratch buffer and decoding into a
// warmed Frame must not allocate.
func TestEncodeDecodeAllocationFree(t *testing.T) {
	flows := []uint64{1, 2, 3, 4}
	rates := []float64{1, 2, 3, 4}
	scratch := make([]byte, 0, 1024)
	var f Frame
	warm, err := AppendAdmitBatch(scratch, 1, flows, rates)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Decode(warm[4:]); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		buf := scratch[:0]
		buf = AppendAdmit(buf, 9, 42, 1.25)
		buf, err = AppendAdmitBatch(buf, 10, flows, rates)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Decode(buf[4+len(buf)-len(warm):]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encode/decode allocates %.1f times per op, want 0", allocs)
	}
}

// TestEnumStringParseRoundTrips pins the exact names of Op, Status and
// Refusal in constant order: they label metrics and log lines, so a rename
// must show up in review. (The String/Parse round trip the name recalls is
// internal/enum's table test.)
func TestEnumStringParseRoundTrips(t *testing.T) {
	ops := []string{"admit", "admit-batch", "update-rate", "touch", "depart", "ping",
		"decision", "decision-batch", "ack", "pong", "refusal"}
	for i, want := range ops {
		if got := (OpAdmit + Op(i)).String(); got != want {
			t.Errorf("Op(%d) = %q, want %q", int(OpAdmit)+i, got, want)
		}
	}
	statuses := []string{"ok", "not-active", "invalid-rate"}
	for i, want := range statuses {
		if got := Status(i).String(); got != want {
			t.Errorf("Status(%d) = %q, want %q", i, got, want)
		}
	}
	refusals := []string{"overloaded", "draining", "rate-limited", "slow-client", "protocol"}
	for i, want := range refusals {
		if got := (RefuseOverloaded + Refusal(i)).String(); got != want {
			t.Errorf("Refusal(%d) = %q, want %q", int(RefuseOverloaded)+i, got, want)
		}
	}
	// The zero Op and Refusal are invalid on purpose, and the value past
	// each list is outside its table: the lists above are complete.
	for _, c := range [][2]string{
		{Op(0).String(), "Op(0)"},
		{(OpAdmit + Op(len(ops))).String(), "Op(12)"},
		{Status(len(statuses)).String(), "Status(3)"},
		{Refusal(0).String(), "Refusal(0)"},
		{(RefuseOverloaded + Refusal(len(refusals))).String(), "Refusal(6)"},
	} {
		if c[0] != c[1] {
			t.Errorf("out-of-table value renders %q, want %q", c[0], c[1])
		}
	}
}
