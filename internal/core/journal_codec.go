package core

import (
	"encoding/json"
	"strconv"

	"srb/internal/ndjson"
)

// journalOps and queryKinds list every journal op and query kind, so decoding
// one allocates nothing.
var (
	journalOps = []string{JournalUpdate, JournalBatch, JournalAdd, JournalRemove, JournalRegister, JournalDeregister}
	queryKinds = []string{KindRange, KindCount, KindCircle, KindKNN}
)

// appendJournalEntry appends e as json.Marshal encodes it: the fields in
// declaration order, seq, t and op always, the others omitted when zero.
func appendJournalEntry(b []byte, e *JournalEntry) ([]byte, error) {
	if err := ndjson.Finite(e.T, e.X, e.Y); err != nil {
		return b, err
	}
	for i := range e.Batch {
		if err := ndjson.Finite(e.Batch[i].X, e.Batch[i].Y); err != nil {
			return b, err
		}
	}
	if err := ndjson.Finite(e.MinX, e.MinY, e.MaxX, e.MaxY, e.Radius); err != nil {
		return b, err
	}
	for i := range e.ProbesAns {
		if err := ndjson.Finite(e.ProbesAns[i].X, e.ProbesAns[i].Y); err != nil {
			return b, err
		}
	}
	b = strconv.AppendUint(append(b, `{"seq":`...), e.Seq, 10)
	b = ndjson.AppendFloat(append(b, `,"t":`...), e.T)
	b, err := ndjson.AppendString(append(b, `,"op":`...), e.Op)
	if err != nil {
		return b, err
	}
	b = ndjson.AppendUintField(b, `,"obj":`, e.Obj)
	b = ndjson.AppendFloatField(b, `,"x":`, e.X)
	b = ndjson.AppendFloatField(b, `,"y":`, e.Y)
	if len(e.Batch) > 0 {
		b = append(b, `,"batch":[`...)
		for i, u := range e.Batch {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendPoint(b, `{"obj":`, u.Obj, u.X, u.Y)
		}
		b = append(b, ']')
	}
	b = ndjson.AppendUintField(b, `,"qid":`, e.QID)
	if e.Kind != "" {
		if b, err = ndjson.AppendString(append(b, `,"kind":`...), e.Kind); err != nil {
			return b, err
		}
	}
	b = ndjson.AppendFloatField(b, `,"minx":`, e.MinX)
	b = ndjson.AppendFloatField(b, `,"miny":`, e.MinY)
	b = ndjson.AppendFloatField(b, `,"maxx":`, e.MaxX)
	b = ndjson.AppendFloatField(b, `,"maxy":`, e.MaxY)
	b = ndjson.AppendIntField(b, `,"k":`, e.K)
	if e.Ordered {
		b = append(b, `,"ord":true`...)
	}
	b = ndjson.AppendFloatField(b, `,"radius":`, e.Radius)
	if len(e.ProbesAns) > 0 {
		b = append(b, `,"probes":[`...)
		for i, a := range e.ProbesAns {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendPoint(b, `{"id":`, a.ID, a.X, a.Y)
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendPoint appends a BatchedUpdate or ProbeAnswer object: open (the brace
// and the ID key), then the ID and both coordinates, none omitted.
func appendPoint(b []byte, open string, id uint64, x, y float64) []byte {
	b = strconv.AppendUint(append(b, open...), id, 10)
	b = ndjson.AppendFloat(append(b, `,"x":`...), x)
	b = ndjson.AppendFloat(append(b, `,"y":`...), y)
	return append(b, '}')
}

// decodeJournalEntry decodes one journal line: in one pass when it is in the
// canonical form appendJournalEntry writes, through encoding/json otherwise.
func decodeJournalEntry(b []byte) (JournalEntry, error) {
	var e JournalEntry
	if scanJournalEntry(b, &e) {
		return e, nil
	}
	return unmarshalJournalEntry(b)
}

// unmarshalJournalEntry is the encoding/json fallback. Its JournalEntry is allocated
// here, on the fallback path, so that decodeJournalEntry's stays on the stack.
func unmarshalJournalEntry(b []byte) (JournalEntry, error) {
	e := new(JournalEntry)
	err := json.Unmarshal(b, e)
	return *e, err
}

// scanJournalEntry decodes the canonical form of a journal line into the
// zero JournalEntry e and reports whether it could; on false e holds
// garbage.
func scanJournalEntry(b []byte, e *JournalEntry) bool {
	var s ndjson.Scanner
	s.Reset(b)
	s.Open()
	if s.Field("seq") {
		e.Seq = s.Uint()
	}
	if s.Field("t") {
		e.T = s.Float()
	}
	if s.Field("op") {
		e.Op = s.String(journalOps)
	}
	if s.Field("obj") {
		e.Obj = s.Uint()
	}
	if s.Field("x") {
		e.X = s.Float()
	}
	if s.Field("y") {
		e.Y = s.Float()
	}
	if s.Field("batch") {
		for more := s.Array(); more; more = s.Next() {
			var u BatchedUpdate
			u.Obj, u.X, u.Y = scanPoint(&s, "obj")
			e.Batch = append(e.Batch, u)
		}
	}
	if s.Field("qid") {
		e.QID = s.Uint()
	}
	if s.Field("kind") {
		e.Kind = s.String(queryKinds)
	}
	if s.Field("minx") {
		e.MinX = s.Float()
	}
	if s.Field("miny") {
		e.MinY = s.Float()
	}
	if s.Field("maxx") {
		e.MaxX = s.Float()
	}
	if s.Field("maxy") {
		e.MaxY = s.Float()
	}
	if s.Field("k") {
		e.K = s.Int()
	}
	if s.Field("ord") {
		e.Ordered = s.Bool()
	}
	if s.Field("radius") {
		e.Radius = s.Float()
	}
	if s.Field("probes") {
		for more := s.Array(); more; more = s.Next() {
			var a ProbeAnswer
			a.ID, a.X, a.Y = scanPoint(&s, "id")
			e.ProbesAns = append(e.ProbesAns, a)
		}
	}
	s.Close()
	return s.OK()
}

// scanPoint reads the object appendPoint writes, its ID under key idKey.
func scanPoint(s *ndjson.Scanner, idKey string) (id uint64, x, y float64) {
	s.Open()
	if s.Field(idKey) {
		id = s.Uint()
	}
	if s.Field("x") {
		x = s.Float()
	}
	if s.Field("y") {
		y = s.Float()
	}
	s.Close()
	return id, x, y
}
