// Package wire defines the line-delimited JSON protocol spoken between the
// monitoring server, mobile clients, and application servers (the
// architecture of Figure 1.1 in the paper). Each frame is one JSON object
// terminated by '\n': a Message as encoding/json would marshal it.
//
// The codec (codec.go) is hand-written and reflection-free: Send encodes a
// Message to exactly the bytes json.Marshal produces, and Recv parses that
// canonical compact form in one pass. Any other well-formed frame (with
// whitespace, escapes, reordered or differently-cased keys, nulls) and any
// malformed one goes to encoding/json unchanged, so what the codec accepts
// and the errors it reports are encoding/json's.
//
// The paper's prototype used SOAP/HTTP on IIS; this implementation
// substitutes a minimal TCP protocol with the same message flow:
// source-initiated updates, server-initiated probes, safe-region grants, and
// query registration with continuous result pushes.
package wire

import "srb/internal/geom"

// Message types.
const (
	// Client → server.
	THello      = "hello"       // object joins at (X, Y)
	TUpdate     = "update"      // source-initiated location update
	TProbeReply = "probe_reply" // answer to a probe, echoing Seq
	TBye        = "bye"         // object leaves

	// Server → client.
	TRegion = "region" // new safe region grant
	TProbe  = "probe"  // server-initiated location request

	// Application server → server.
	TRegisterRange  = "register_range"
	TRegisterKNN    = "register_knn"
	TRegisterCount  = "register_count"
	TRegisterCircle = "register_circle"
	TDeregister     = "deregister"

	// Server → application server.
	TResults = "results" // initial or updated query results
	TError   = "error"
)

// Message is the single frame type of the protocol; unused fields are
// omitted on the wire where possible.
type Message struct {
	Type string `json:"t"`

	// Object identity and position.
	Obj uint64  `json:"obj,omitempty"`
	X   float64 `json:"x,omitempty"`
	Y   float64 `json:"y,omitempty"`

	// Safe region grant.
	MinX float64 `json:"minx,omitempty"`
	MinY float64 `json:"miny,omitempty"`
	MaxX float64 `json:"maxx,omitempty"`
	MaxY float64 `json:"maxy,omitempty"`

	// Query registration and results.
	QID     uint64   `json:"qid,omitempty"`
	K       int      `json:"k,omitempty"`
	Ordered bool     `json:"ord,omitempty"`
	IDs     []uint64 `json:"ids,omitempty"`
	Count   int      `json:"count,omitempty"`

	// Radius of a within-distance (circle) query.
	Radius float64 `json:"radius,omitempty"`

	// Probe sequencing and errors.
	Seq uint64 `json:"seq,omitempty"`
	Err string `json:"err,omitempty"`

	// Trace is an optional causal trace ID minted by the sender of a
	// causing frame (a client update/hello, an application-server
	// registration) and echoed on every frame the server sends as a
	// consequence — probes, safe-region grants, result pushes — so one
	// client update's full fan-out can be stitched back together across
	// processes. Zero means untraced.
	Trace uint64 `json:"tr,omitempty"`

	// Resume marks a THello as a session resumption after a connection loss:
	// the server reattaches the existing object state (kept alive by its
	// session lease), treats the hello position as a location update, and
	// replays the current safe region so the client never monitors with a
	// stale one.
	Resume bool `json:"resume,omitempty"`
}

// Point returns the (X, Y) payload.
func (m Message) Point() geom.Point { return geom.Pt(m.X, m.Y) }

// Rect returns the safe-region payload.
func (m Message) Rect() geom.Rect {
	return geom.Rect{MinX: m.MinX, MinY: m.MinY, MaxX: m.MaxX, MaxY: m.MaxY}
}

// SetPoint fills the position payload.
func (m *Message) SetPoint(p geom.Point) {
	m.X, m.Y = p.X, p.Y
}

// SetRect fills the safe-region payload.
func (m *Message) SetRect(r geom.Rect) {
	m.MinX, m.MinY, m.MaxX, m.MaxY = r.MinX, r.MinY, r.MaxX, r.MaxY
}
