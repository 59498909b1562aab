// Package wire defines the framed binary protocol of the MBAC serving
// layer: the encoding spoken between the public client package and
// internal/server. The design goals mirror the admission hot path behind
// it — a decision costs ~110 ns in-process, so the wire format must not
// dominate it with parsing or garbage:
//
//   - frames are length-prefixed and fixed-layout, so a reader never
//     scans for delimiters and a decode is a handful of loads;
//   - encoding appends to a caller scratch buffer and decoding parses
//     into a caller-owned Frame whose slices are reused across calls, so
//     the steady state of both sides is allocation-free;
//   - every request carries a caller-chosen request ID, so a client can
//     pipeline arbitrarily many requests on one connection and correlate
//     responses out of band — which is also what lets the server batch
//     consecutive Admit frames into one Gateway.AdmitBatch call.
//
// # Frame layout
//
// All integers are big-endian; floats are IEEE-754 bit patterns.
//
//	uint32  length   payload length (everything after this field)
//	uint8   version  protocol version (Version)
//	uint8   op       Op
//	uint64  reqID    request ID, echoed verbatim in the response
//	...              op-specific payload (see below)
//
// Request payloads:
//
//	Admit       flow uint64, rate float64
//	AdmitBatch  count uint16, then count × (flow uint64, rate float64)
//	UpdateRate  flow uint64, rate float64
//	Touch       flow uint64
//	Depart      flow uint64
//	Ping        (empty)
//
// Response payloads:
//
//	Decision       reason uint8, admissible float64, active int64
//	DecisionBatch  count uint16, then count × decision (as above)
//	Ack            status uint8
//	Pong           (empty)
//	Refusal        refusal uint8
//
// The decision reason byte is the numeric value of gateway.Reason — the
// server passes the gateway's own classification through unchanged. A
// Refusal with request ID zero is connection-scoped (the server is
// refusing the connection, not one request): overloaded at accept,
// draining, rate-capped, or shedding a slow reader.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/enum"
)

// Version is the protocol version byte carried by every frame.
const Version = 1

// Limits enforced by Decode and the Reader. MaxFrame bounds the payload
// of a single frame (a length prefix beyond it is a protocol error, not
// an allocation request), and MaxBatch bounds the item count of an
// AdmitBatch/DecisionBatch frame.
const (
	MaxFrame = 1 << 20
	MaxBatch = 8192
)

// headerLen is the fixed payload prefix: version, op, reqID.
const headerLen = 1 + 1 + 8

// decisionLen is the wire size of one Decision.
const decisionLen = 1 + 8 + 8

// Op identifies the frame type.
type Op uint8

// Frame ops. Requests and responses share one numbering space; the zero
// value is invalid so an all-zero frame never decodes.
const (
	// OpAdmit requests admission of one flow at a declared rate.
	OpAdmit Op = iota + 1
	// OpAdmitBatch requests admission of several flows in one frame.
	OpAdmitBatch
	// OpUpdateRate reports a flow's measured/renegotiated rate.
	OpUpdateRate
	// OpTouch refreshes a flow's lease without changing its rate.
	OpTouch
	// OpDepart removes an active flow.
	OpDepart
	// OpPing is a liveness/RTT probe.
	OpPing
	// OpDecision answers an Admit.
	OpDecision
	// OpDecisionBatch answers an AdmitBatch, one decision per item.
	OpDecisionBatch
	// OpAck answers UpdateRate, Touch and Depart with a Status.
	OpAck
	// OpPong answers a Ping.
	OpPong
	// OpRefusal tells the peer a request (reqID ≠ 0) or the whole
	// connection (reqID 0) was refused, with a Refusal reason.
	OpRefusal
	opEnd // sentinel: opNames names every constant above
)

var opNames = enum.New(OpAdmit, opEnd,
	"admit", "admit-batch", "update-rate", "touch", "depart", "ping",
	"decision", "decision-batch", "ack", "pong", "refusal")

// String implements fmt.Stringer.
func (o Op) String() string { return opNames.String(o) }

// Status classifies the outcome of an acknowledged request (UpdateRate,
// Touch, Depart).
type Status uint8

// Ack statuses.
const (
	// StatusOK: the request was applied.
	StatusOK Status = iota
	// StatusNotActive: the flow is not currently admitted.
	StatusNotActive
	// StatusInvalidRate: the gateway refused the rate — it failed
	// gateway.ValidUpdateRate (negative, NaN, or above gateway.MaxRate),
	// or the flow's shard could not carry it in its exact sums.
	StatusInvalidRate
	statusEnd // sentinel: statusNames names every constant above
)

var statusNames = enum.New(StatusOK, statusEnd, "ok", "not-active", "invalid-rate")

// String implements fmt.Stringer.
func (s Status) String() string { return statusNames.String(s) }

// Refusal classifies why the server refused a request or connection —
// the serving-layer analogue of the gateway's capacity Reason, except
// these are resource-protection refusals of the server itself, not
// admission-control decisions.
type Refusal uint8

// Refusal reasons. The zero value is invalid so a Refusal frame always
// carries an explicit cause.
const (
	// RefuseOverloaded: the server is at its max-connection limit.
	RefuseOverloaded Refusal = iota + 1
	// RefuseDraining: the server is shutting down gracefully.
	RefuseDraining
	// RefuseRateLimited: the connection exceeded its frame-rate cap.
	RefuseRateLimited
	// RefuseSlowClient is no longer sent: the server holds a peer that
	// reads slower than it asks by TCP back-pressure and cuts it, without
	// a frame, when a reply write times out. The constant keeps its place
	// so that RefuseProtocol keeps its number on the wire.
	RefuseSlowClient
	// RefuseProtocol: the peer sent a malformed or oversized frame.
	RefuseProtocol
	refusalEnd // sentinel: refusalNames names every constant above
)

var refusalNames = enum.New(RefuseOverloaded, refusalEnd,
	"overloaded", "draining", "rate-limited", "slow-client", "protocol")

// String implements fmt.Stringer.
func (r Refusal) String() string { return refusalNames.String(r) }

// Decision is the wire form of one admission decision. Reason is the
// numeric value of gateway.Reason; Admissible and Active mirror the
// gateway Decision fields.
type Decision struct {
	Reason     uint8
	Admissible float64
	Active     int64
}

// Frame is the decoded form of one protocol frame. Decode fills only the
// fields meaningful for the decoded op and reuses the receiver's slices,
// so a Frame held across calls decodes batches allocation-free once its
// slice capacities have warmed up.
type Frame struct {
	Version byte
	Op      Op
	ReqID   uint64

	Flow    uint64  // Admit, UpdateRate, Touch, Depart
	Rate    float64 // Admit, UpdateRate
	Status  Status  // Ack
	Refusal Refusal // Refusal

	Decision  Decision   // Decision
	Flows     []uint64   // AdmitBatch
	Rates     []float64  // AdmitBatch
	Decisions []Decision // DecisionBatch
}

// appendHeader appends the length prefix and the fixed payload prefix for
// a frame whose op-specific payload is extra bytes long.
func appendHeader(dst []byte, extra int, op Op, reqID uint64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(headerLen+extra))
	dst = append(dst, Version, byte(op))
	return binary.BigEndian.AppendUint64(dst, reqID)
}

// AppendAdmit appends an Admit request frame to dst and returns the
// extended slice. All Append functions encode the complete frame,
// length prefix included, and never allocate beyond growing dst.
func AppendAdmit(dst []byte, reqID, flow uint64, rate float64) []byte {
	dst = appendHeader(dst, 16, OpAdmit, reqID)
	dst = binary.BigEndian.AppendUint64(dst, flow)
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(rate))
}

// AppendAdmitBatch appends an AdmitBatch request frame covering
// flows/rates (which must be equal-length and at most MaxBatch items).
func AppendAdmitBatch(dst []byte, reqID uint64, flows []uint64, rates []float64) ([]byte, error) {
	if len(flows) != len(rates) {
		return dst, fmt.Errorf("wire: batch length mismatch: %d flows, %d rates", len(flows), len(rates))
	}
	if len(flows) == 0 || len(flows) > MaxBatch {
		return dst, fmt.Errorf("wire: batch of %d items outside [1, %d]", len(flows), MaxBatch)
	}
	dst = appendHeader(dst, 2+16*len(flows), OpAdmitBatch, reqID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(flows)))
	for i, f := range flows {
		dst = binary.BigEndian.AppendUint64(dst, f)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(rates[i]))
	}
	return dst, nil
}

// AppendUpdateRate appends an UpdateRate request frame.
func AppendUpdateRate(dst []byte, reqID, flow uint64, rate float64) []byte {
	dst = appendHeader(dst, 16, OpUpdateRate, reqID)
	dst = binary.BigEndian.AppendUint64(dst, flow)
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(rate))
}

// AppendTouch appends a Touch request frame.
func AppendTouch(dst []byte, reqID, flow uint64) []byte {
	dst = appendHeader(dst, 8, OpTouch, reqID)
	return binary.BigEndian.AppendUint64(dst, flow)
}

// AppendDepart appends a Depart request frame.
func AppendDepart(dst []byte, reqID, flow uint64) []byte {
	dst = appendHeader(dst, 8, OpDepart, reqID)
	return binary.BigEndian.AppendUint64(dst, flow)
}

// AppendPing appends a Ping request frame.
func AppendPing(dst []byte, reqID uint64) []byte {
	return appendHeader(dst, 0, OpPing, reqID)
}

// appendDecisionBody appends the 17-byte body of one decision.
func appendDecisionBody(dst []byte, d Decision) []byte {
	dst = append(dst, d.Reason)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(d.Admissible))
	return binary.BigEndian.AppendUint64(dst, uint64(d.Active))
}

// AppendDecision appends a Decision response frame.
func AppendDecision(dst []byte, reqID uint64, d Decision) []byte {
	dst = appendHeader(dst, decisionLen, OpDecision, reqID)
	return appendDecisionBody(dst, d)
}

// AppendDecisionBatch appends a DecisionBatch response frame.
func AppendDecisionBatch(dst []byte, reqID uint64, ds []Decision) ([]byte, error) {
	if len(ds) == 0 || len(ds) > MaxBatch {
		return dst, fmt.Errorf("wire: batch of %d decisions outside [1, %d]", len(ds), MaxBatch)
	}
	dst = appendHeader(dst, 2+decisionLen*len(ds), OpDecisionBatch, reqID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(ds)))
	for _, d := range ds {
		dst = appendDecisionBody(dst, d)
	}
	return dst, nil
}

// AppendAck appends an Ack response frame.
func AppendAck(dst []byte, reqID uint64, st Status) []byte {
	dst = appendHeader(dst, 1, OpAck, reqID)
	return append(dst, byte(st))
}

// AppendPong appends a Pong response frame.
func AppendPong(dst []byte, reqID uint64) []byte {
	return appendHeader(dst, 0, OpPong, reqID)
}

// AppendRefusal appends a Refusal response frame. reqID 0 scopes the
// refusal to the connection rather than one request.
func AppendRefusal(dst []byte, reqID uint64, r Refusal) []byte {
	dst = appendHeader(dst, 1, OpRefusal, reqID)
	return append(dst, byte(r))
}

// Decode parses one frame payload (the bytes after the length prefix)
// into f, reusing f's slices. It rejects unknown versions and ops, trailing
// or missing bytes, and batch counts outside [1, MaxBatch] — a frame either
// decodes completely and canonically or not at all, which is what makes
// the encode/decode round trip byte-exact (see FuzzFrameDecode).
func (f *Frame) Decode(p []byte) error {
	if len(p) < headerLen {
		return fmt.Errorf("wire: frame of %d bytes shorter than the %d-byte header", len(p), headerLen)
	}
	if p[0] != Version {
		return fmt.Errorf("wire: version %d, want %d", p[0], Version)
	}
	f.Version = p[0]
	f.Op = Op(p[1])
	f.ReqID = binary.BigEndian.Uint64(p[2:])
	body := p[headerLen:]
	switch f.Op {
	case OpAdmit, OpUpdateRate:
		if len(body) != 16 {
			return fmt.Errorf("wire: %v payload is %d bytes, want 16", f.Op, len(body))
		}
		f.Flow = binary.BigEndian.Uint64(body)
		f.Rate = math.Float64frombits(binary.BigEndian.Uint64(body[8:]))
	case OpTouch, OpDepart:
		if len(body) != 8 {
			return fmt.Errorf("wire: %v payload is %d bytes, want 8", f.Op, len(body))
		}
		f.Flow = binary.BigEndian.Uint64(body)
	case OpPing, OpPong:
		if len(body) != 0 {
			return fmt.Errorf("wire: %v payload is %d bytes, want 0", f.Op, len(body))
		}
	case OpAdmitBatch:
		n, err := batchCount(f.Op, body, 16)
		if err != nil {
			return err
		}
		f.Flows = f.Flows[:0]
		f.Rates = f.Rates[:0]
		for i := 0; i < n; i++ {
			item := body[2+16*i:]
			f.Flows = append(f.Flows, binary.BigEndian.Uint64(item))
			f.Rates = append(f.Rates, math.Float64frombits(binary.BigEndian.Uint64(item[8:])))
		}
	case OpDecision:
		if len(body) != decisionLen {
			return fmt.Errorf("wire: %v payload is %d bytes, want %d", f.Op, len(body), decisionLen)
		}
		f.Decision = decodeDecision(body)
	case OpDecisionBatch:
		n, err := batchCount(f.Op, body, decisionLen)
		if err != nil {
			return err
		}
		f.Decisions = f.Decisions[:0]
		for i := 0; i < n; i++ {
			f.Decisions = append(f.Decisions, decodeDecision(body[2+decisionLen*i:]))
		}
	case OpAck:
		if len(body) != 1 {
			return fmt.Errorf("wire: %v payload is %d bytes, want 1", f.Op, len(body))
		}
		f.Status = Status(body[0])
		if f.Status >= statusEnd {
			return fmt.Errorf("wire: unknown status %d", body[0])
		}
	case OpRefusal:
		if len(body) != 1 {
			return fmt.Errorf("wire: %v payload is %d bytes, want 1", f.Op, len(body))
		}
		f.Refusal = Refusal(body[0])
		if f.Refusal < RefuseOverloaded || f.Refusal >= refusalEnd {
			return fmt.Errorf("wire: unknown refusal %d", body[0])
		}
	default:
		return fmt.Errorf("wire: unknown op %d", p[1])
	}
	return nil
}

// batchCount validates a batch payload (uint16 count + count fixed-size
// items) and returns the count.
func batchCount(op Op, body []byte, itemLen int) (int, error) {
	if len(body) < 2 {
		return 0, fmt.Errorf("wire: %v payload is %d bytes, want at least 2", op, len(body))
	}
	n := int(binary.BigEndian.Uint16(body))
	if n == 0 || n > MaxBatch {
		return 0, fmt.Errorf("wire: %v count %d outside [1, %d]", op, n, MaxBatch)
	}
	if len(body) != 2+itemLen*n {
		return 0, fmt.Errorf("wire: %v payload is %d bytes, want %d for %d items", op, len(body), 2+itemLen*n, n)
	}
	return n, nil
}

// decodeDecision parses one 17-byte decision body.
func decodeDecision(p []byte) Decision {
	return Decision{
		Reason:     p[0],
		Admissible: math.Float64frombits(binary.BigEndian.Uint64(p[1:])),
		Active:     int64(binary.BigEndian.Uint64(p[9:])),
	}
}

// Reader decodes frames from a byte stream, owning the buffering so the
// steady state reads and decodes without allocating. It is not safe for
// concurrent use; each connection side owns exactly one Reader.
type Reader struct {
	br  *bufio.Reader
	buf []byte
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next reads one frame from the stream and decodes it into f. It returns
// io.EOF only on a clean frame boundary; a partial frame surfaces as
// io.ErrUnexpectedEOF.
//
// Frames that fit the internal buffer (the overwhelmingly common case)
// decode straight out of it via Peek/Discard — no per-frame allocation,
// no copy. Decode never retains the payload, so discarding after the
// decode is safe.
func (r *Reader) Next(f *Frame) error {
	// A frame already complete in the buffer is the steady state on both
	// sides of a pipelined connection, where whole bursts of frames land
	// in the buffer per socket read.
	if ok, err := r.NextBuffered(f); ok {
		return err
	}
	hdr, err := r.br.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			return io.ErrUnexpectedEOF // partial length prefix
		}
		return err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n < headerLen || n > MaxFrame {
		return fmt.Errorf("wire: frame length %d outside [%d, %d]", n, headerLen, MaxFrame)
	}
	r.br.Discard(4)
	if n <= r.br.Size() {
		p, err := r.br.Peek(n)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		err = f.Decode(p)
		r.br.Discard(n)
		return err
	}
	// A frame larger than the buffer: assemble it in the Reader's scratch.
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return f.Decode(r.buf)
}

// admitFrameLen is the full wire size of one Admit frame: length prefix,
// header, flow, rate. Admit frames are fixed-size, which is what makes
// the burst decoder a straight-line walk.
const admitFrameLen = 4 + headerLen + 16

// AdmitBurst is the landing zone of the vectorized Admit decoder: three
// parallel slices, one entry per decoded Admit frame, laid out exactly the
// way gateway.AdmitBatch wants its arguments. The server aliases its
// per-connection batching scratch to one of these, so a pipelined run of
// Admit frames travels from the socket buffer into the admission batch
// with zero intermediate Frame structs.
type AdmitBurst struct {
	ReqIDs []uint64
	Flows  []uint64
	Rates  []float64
}

// Len returns the number of buffered admits.
func (b *AdmitBurst) Len() int { return len(b.ReqIDs) }

// Reset empties the burst, keeping capacity.
func (b *AdmitBurst) Reset() {
	b.ReqIDs = b.ReqIDs[:0]
	b.Flows = b.Flows[:0]
	b.Rates = b.Rates[:0]
}

// NextAdmitBurst vectorizes the generic Next loop for the serving hot
// path: it peeks the Reader's entire buffered region once and walks the
// run of complete, well-formed Admit frames at its front, appending
// (reqID, flow, rate) straight into b — no Frame struct, no per-frame
// Peek/Discard, one length/version/op check per frame. It consumes only
// frames that Next would have decoded identically (exact Admit length,
// current version, OpAdmit) and stops — leaving the stream positioned for
// Next — at the first frame that is anything else: a non-Admit op, a
// malformed or truncated frame, a partial length prefix. That structural
// property is what the differential tests pin: interleaving the two
// decoders in any order over any byte stream yields the same admits, the
// same frames, and the same errors. It never reads the underlying stream
// and never allocates beyond growing b; at most max admits are appended
// (max <= 0 decodes nothing). Returns the number appended.
func (r *Reader) NextAdmitBurst(b *AdmitBurst, max int) int {
	buffered := r.br.Buffered()
	if max <= 0 || buffered < admitFrameLen {
		return 0
	}
	p, err := r.br.Peek(buffered)
	if err != nil {
		return 0
	}
	n := 0
	for n < max && len(p) >= admitFrameLen {
		if binary.BigEndian.Uint32(p) != headerLen+16 || p[4] != Version || p[5] != byte(OpAdmit) {
			break
		}
		b.ReqIDs = append(b.ReqIDs, binary.BigEndian.Uint64(p[6:]))
		b.Flows = append(b.Flows, binary.BigEndian.Uint64(p[14:]))
		b.Rates = append(b.Rates, math.Float64frombits(binary.BigEndian.Uint64(p[22:])))
		p = p[admitFrameLen:]
		n++
	}
	if n > 0 {
		r.br.Discard(n * admitFrameLen)
	}
	return n
}

// departFrameLen is the full wire size of one Depart frame: length
// prefix, header, flow. Like Admit frames, Depart frames are fixed-size,
// so a pipelined run of them vectorizes the same way.
const departFrameLen = 4 + headerLen + 8

// DepartBurst is the landing zone of the vectorized Depart decoder: two
// parallel slices laid out the way gateway.DepartBatch wants its
// arguments, the departure twin of AdmitBurst.
type DepartBurst struct {
	ReqIDs []uint64
	Flows  []uint64
}

// Len returns the number of buffered departs.
func (b *DepartBurst) Len() int { return len(b.ReqIDs) }

// Reset empties the burst, keeping capacity.
func (b *DepartBurst) Reset() {
	b.ReqIDs = b.ReqIDs[:0]
	b.Flows = b.Flows[:0]
}

// NextDepartBurst is NextAdmitBurst for Depart frames: it walks the run of
// complete, well-formed Depart frames at the front of the buffer,
// appending (reqID, flow) straight into b, and stops at the first frame
// that is anything else — including a Touch frame, which shares the Depart
// payload length and differs only in the op byte. The same structural
// contract applies: it consumes exactly the frames Next would have decoded
// identically, never reads the underlying stream, and never allocates
// beyond growing b. Returns the number appended (at most max).
func (r *Reader) NextDepartBurst(b *DepartBurst, max int) int {
	buffered := r.br.Buffered()
	if max <= 0 || buffered < departFrameLen {
		return 0
	}
	p, err := r.br.Peek(buffered)
	if err != nil {
		return 0
	}
	n := 0
	for n < max && len(p) >= departFrameLen {
		if binary.BigEndian.Uint32(p) != headerLen+8 || p[4] != Version || p[5] != byte(OpDepart) {
			break
		}
		b.ReqIDs = append(b.ReqIDs, binary.BigEndian.Uint64(p[6:]))
		b.Flows = append(b.Flows, binary.BigEndian.Uint64(p[14:]))
		p = p[departFrameLen:]
		n++
	}
	if n > 0 {
		r.br.Discard(n * departFrameLen)
	}
	return n
}

// decisionFrameLen and ackFrameLen are the full wire sizes of the two
// fixed-size response frames, for the response-side burst decoders below.
const (
	decisionFrameLen = 4 + headerLen + decisionLen
	ackFrameLen      = 4 + headerLen + 1
)

// DecisionBurst is the landing zone of the vectorized Decision decoder —
// the client-side twin of AdmitBurst, for reading back a pipelined run of
// decisions without a Frame struct per response.
type DecisionBurst struct {
	ReqIDs    []uint64
	Decisions []Decision
}

// Len returns the number of buffered decisions.
func (b *DecisionBurst) Len() int { return len(b.ReqIDs) }

// Reset empties the burst, keeping capacity.
func (b *DecisionBurst) Reset() {
	b.ReqIDs = b.ReqIDs[:0]
	b.Decisions = b.Decisions[:0]
}

// NextDecisionBurst walks the run of complete, well-formed Decision frames
// at the front of the buffer, appending (reqID, decision) to b. The same
// structural contract as NextAdmitBurst: it consumes exactly the frames
// Next would have decoded identically and stops at anything else, never
// reading the underlying stream. Returns the number appended (at most max).
func (r *Reader) NextDecisionBurst(b *DecisionBurst, max int) int {
	buffered := r.br.Buffered()
	if max <= 0 || buffered < decisionFrameLen {
		return 0
	}
	p, err := r.br.Peek(buffered)
	if err != nil {
		return 0
	}
	n := 0
	for n < max && len(p) >= decisionFrameLen {
		if binary.BigEndian.Uint32(p) != headerLen+decisionLen || p[4] != Version || p[5] != byte(OpDecision) {
			break
		}
		b.ReqIDs = append(b.ReqIDs, binary.BigEndian.Uint64(p[6:]))
		b.Decisions = append(b.Decisions, decodeDecision(p[14:]))
		p = p[decisionFrameLen:]
		n++
	}
	if n > 0 {
		r.br.Discard(n * decisionFrameLen)
	}
	return n
}

// AckBurst is the landing zone of the vectorized Ack decoder, for reading
// back a pipelined run of UpdateRate/Touch/Depart acknowledgements.
type AckBurst struct {
	ReqIDs   []uint64
	Statuses []Status
}

// Len returns the number of buffered acks.
func (b *AckBurst) Len() int { return len(b.ReqIDs) }

// Reset empties the burst, keeping capacity.
func (b *AckBurst) Reset() {
	b.ReqIDs = b.ReqIDs[:0]
	b.Statuses = b.Statuses[:0]
}

// NextAckBurst walks the run of complete, well-formed Ack frames at the
// front of the buffer, appending (reqID, status) to b. An Ack whose status
// byte is out of range is left unconsumed — the generic Next rejects it,
// and the burst decoder must consume only what Next would have decoded
// identically. Returns the number appended (at most max).
func (r *Reader) NextAckBurst(b *AckBurst, max int) int {
	buffered := r.br.Buffered()
	if max <= 0 || buffered < ackFrameLen {
		return 0
	}
	p, err := r.br.Peek(buffered)
	if err != nil {
		return 0
	}
	n := 0
	for n < max && len(p) >= ackFrameLen {
		if binary.BigEndian.Uint32(p) != headerLen+1 || p[4] != Version || p[5] != byte(OpAck) ||
			p[14] > byte(StatusInvalidRate) {
			break
		}
		b.ReqIDs = append(b.ReqIDs, binary.BigEndian.Uint64(p[6:]))
		b.Statuses = append(b.Statuses, Status(p[14]))
		p = p[ackFrameLen:]
		n++
	}
	if n > 0 {
		r.br.Discard(n * ackFrameLen)
	}
	return n
}

// NextBuffered decodes the next frame only if it is already complete in
// the buffer: ok reports whether a frame (or a malformed length prefix,
// which Next would also reject without blocking) was consumed. It never
// touches the underlying stream, so the server's read loop can drain a
// pipelined burst — is-it-buffered check and decode fused into one peek —
// and fall back to the blocking Next only when ok is false.
func (r *Reader) NextBuffered(f *Frame) (ok bool, err error) {
	buffered := r.br.Buffered()
	if buffered < 4 {
		return false, nil
	}
	p, _ := r.br.Peek(buffered) // cannot fail: peek of what is buffered
	n := int(binary.BigEndian.Uint32(p))
	if n < headerLen || n > MaxFrame {
		return true, fmt.Errorf("wire: frame length %d outside [%d, %d]", n, headerLen, MaxFrame)
	}
	if 4+n > buffered {
		return false, nil
	}
	err = f.Decode(p[4 : 4+n])
	r.br.Discard(4 + n)
	return true, err
}
