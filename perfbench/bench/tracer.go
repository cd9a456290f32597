package bench

// SpanID names a recorded span; 0 is "no span".
type SpanID int32

// Tracer records spans around the benchmark's calls into the system.
// Spans of one message share its id, MsgID(flow, seq). The untraced run
// uses NoTrace, so the gated numbers never pay for tracing.
type Tracer interface {
	// Begin opens a span under parent (0 for a root) for message msg (0
	// when the span belongs to no message).
	Begin(name string, parent SpanID, msg uint64) SpanID
	// End closes a span.
	End(SpanID)
	// SendOf returns the Send span of a message, the parent of its
	// delivery.
	SendOf(msg uint64) SpanID
}

// MsgID is the id every span of one message shares.
func MsgID(flow uint16, seq uint32) uint64 { return uint64(flow)<<32 | uint64(seq) }

// NoTrace records nothing.
type NoTrace struct{}

// Begin implements Tracer.
func (NoTrace) Begin(string, SpanID, uint64) SpanID { return 0 }

// End implements Tracer.
func (NoTrace) End(SpanID) {}

// SendOf implements Tracer.
func (NoTrace) SendOf(uint64) SpanID { return 0 }
