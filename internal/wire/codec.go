package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"srb/internal/ndjson"
)

// Codec frames Messages over a stream. Writes and reads are independently
// usable from different goroutines, but each side must have a single user.
type Codec struct {
	r   *bufio.Scanner
	w   io.Writer
	buf []byte // send buffer, reused frame to frame
}

// NewCodec wraps a connection.
func NewCodec(rw io.ReadWriter) *Codec {
	sc := bufio.NewScanner(rw)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	return &Codec{r: sc, w: rw}
}

// Send writes one frame with a single Write. A message that cannot be
// encoded (a NaN or infinite coordinate) writes nothing.
func (c *Codec) Send(m Message) error {
	b, err := appendMessage(c.buf[:0], &m)
	if err != nil {
		return fmt.Errorf("wire: marshal: %w", err)
	}
	c.buf = append(b, '\n')
	_, err = c.w.Write(c.buf)
	return err
}

// Recv reads one frame, returning io.EOF at end of stream.
func (c *Codec) Recv() (Message, error) {
	if !c.r.Scan() {
		if err := c.r.Err(); err != nil {
			return Message{}, err
		}
		return Message{}, io.EOF
	}
	m, err := decodeMessage(c.r.Bytes())
	if err != nil {
		return Message{}, fmt.Errorf("wire: unmarshal %q: %w", c.r.Bytes(), err)
	}
	return m, nil
}

// messageTypes lists every message type, so decoding one allocates nothing.
var messageTypes = []string{
	THello, TUpdate, TProbeReply, TBye,
	TRegion, TProbe,
	TRegisterRange, TRegisterKNN, TRegisterCount, TRegisterCircle, TDeregister,
	TResults, TError,
}

// appendMessage appends m as json.Marshal encodes it: the fields in
// declaration order, zero values omitted (all but "t" are omitempty).
func appendMessage(b []byte, m *Message) ([]byte, error) {
	if err := ndjson.Finite(m.X, m.Y, m.MinX, m.MinY, m.MaxX, m.MaxY, m.Radius); err != nil {
		return b, err
	}
	b, err := ndjson.AppendString(append(b, `{"t":`...), m.Type)
	if err != nil {
		return b, err
	}
	b = ndjson.AppendUintField(b, `,"obj":`, m.Obj)
	b = ndjson.AppendFloatField(b, `,"x":`, m.X)
	b = ndjson.AppendFloatField(b, `,"y":`, m.Y)
	b = ndjson.AppendFloatField(b, `,"minx":`, m.MinX)
	b = ndjson.AppendFloatField(b, `,"miny":`, m.MinY)
	b = ndjson.AppendFloatField(b, `,"maxx":`, m.MaxX)
	b = ndjson.AppendFloatField(b, `,"maxy":`, m.MaxY)
	b = ndjson.AppendUintField(b, `,"qid":`, m.QID)
	b = ndjson.AppendIntField(b, `,"k":`, m.K)
	if m.Ordered {
		b = append(b, `,"ord":true`...)
	}
	if len(m.IDs) > 0 {
		b = append(b, `,"ids":[`...)
		for i, id := range m.IDs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, id, 10)
		}
		b = append(b, ']')
	}
	b = ndjson.AppendIntField(b, `,"count":`, m.Count)
	b = ndjson.AppendFloatField(b, `,"radius":`, m.Radius)
	b = ndjson.AppendUintField(b, `,"seq":`, m.Seq)
	if m.Err != "" {
		if b, err = ndjson.AppendString(append(b, `,"err":`...), m.Err); err != nil {
			return b, err
		}
	}
	b = ndjson.AppendUintField(b, `,"tr":`, m.Trace)
	if m.Resume {
		b = append(b, `,"resume":true`...)
	}
	return append(b, '}'), nil
}

// decodeMessage decodes one frame: in one pass when it is in the canonical
// form appendMessage writes, through encoding/json otherwise.
func decodeMessage(b []byte) (Message, error) {
	var m Message
	if scanMessage(b, &m) {
		return m, nil
	}
	return unmarshalMessage(b)
}

// unmarshalMessage is the encoding/json fallback. Its Message is allocated
// here, on the fallback path, so that decodeMessage's stays on the stack.
func unmarshalMessage(b []byte) (Message, error) {
	m := new(Message)
	err := json.Unmarshal(b, m)
	return *m, err
}

// scanMessage decodes the canonical form of a frame into the zero Message
// m and reports whether it could; on false m holds garbage.
func scanMessage(b []byte, m *Message) bool {
	var s ndjson.Scanner
	s.Reset(b)
	s.Open()
	if s.Field("t") {
		m.Type = s.String(messageTypes)
	}
	if s.Field("obj") {
		m.Obj = s.Uint()
	}
	if s.Field("x") {
		m.X = s.Float()
	}
	if s.Field("y") {
		m.Y = s.Float()
	}
	if s.Field("minx") {
		m.MinX = s.Float()
	}
	if s.Field("miny") {
		m.MinY = s.Float()
	}
	if s.Field("maxx") {
		m.MaxX = s.Float()
	}
	if s.Field("maxy") {
		m.MaxY = s.Float()
	}
	if s.Field("qid") {
		m.QID = s.Uint()
	}
	if s.Field("k") {
		m.K = s.Int()
	}
	if s.Field("ord") {
		m.Ordered = s.Bool()
	}
	if s.Field("ids") {
		for more := s.Array(); more; more = s.Next() {
			m.IDs = append(m.IDs, s.Uint())
		}
	}
	if s.Field("count") {
		m.Count = s.Int()
	}
	if s.Field("radius") {
		m.Radius = s.Float()
	}
	if s.Field("seq") {
		m.Seq = s.Uint()
	}
	if s.Field("err") {
		m.Err = s.String(nil)
	}
	if s.Field("tr") {
		m.Trace = s.Uint()
	}
	if s.Field("resume") {
		m.Resume = s.Bool()
	}
	s.Close()
	return s.OK()
}
