package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"srb/internal/ndjson"
)

// The reference codec is encoding/json, which Journal.Commit and
// ReplayJournal used before the hand-written codec replaced it: json.Marshal
// must produce the bytes appendJournalEntry produces, and json.Unmarshal
// must decode every line to the entry decodeJournalEntry decodes it to.

// edgeFloats are the float64 values whose json formatting has a rule of its
// own: signed zero, the 'f'/'e' thresholds, subnormals and the extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.999999e-7, 1e-7, -1e-7, 1e-9,
	1e20, 1e21, -1e21, 123456789e15, 5e-324, -5e-324, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 1.0 / 3,
}

// edgeStrings exercise json's string escaping: quotes, backslashes, the
// HTML-sensitive bytes, control bytes, invalid UTF-8 and the JavaScript line
// separators.
var edgeStrings = []string{
	"", "warp", `a"b`, `back\slash`, "<>&", "\x00\x01\x1f", "\b\f\n\r\t",
	"\xff\xfe", "\u2028\u2029", "héllo", "\x7f",
}

var edgeUints = []uint64{0, 1, 9, 10, math.MaxUint32, math.MaxUint64, math.MaxUint64 - 1}

var edgeInts = []int{0, 1, -1, 3, -7, math.MaxInt, math.MinInt}

// randFill sets every field of the struct v points into (nested structs and
// slice elements included) to a random value of its kind, or to zero a third
// of the time, so a field added to the struct without a codec case fails the
// comparison with encoding/json. Strings are drawn from strs.
func randFill(rng *rand.Rand, v reflect.Value, strs []string) {
	if v.Kind() == reflect.Struct {
		for i := 0; i < v.NumField(); i++ {
			randFill(rng, v.Field(i), strs)
		}
		return
	}
	if rng.Intn(3) == 0 {
		v.SetZero()
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(strs[rng.Intn(len(strs))])
	case reflect.Uint64:
		if rng.Intn(2) == 0 {
			v.SetUint(edgeUints[rng.Intn(len(edgeUints))])
		} else {
			v.SetUint(rng.Uint64())
		}
	case reflect.Int:
		if rng.Intn(2) == 0 {
			v.SetInt(int64(edgeInts[rng.Intn(len(edgeInts))]))
		} else {
			v.SetInt(int64(rng.Intn(2000) - 1000))
		}
	case reflect.Float64:
		v.SetFloat(randFloat(rng))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		n := rng.Intn(5)
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			randFill(rng, s.Index(i), strs)
		}
		v.Set(s)
	default:
		panic("randFill: no case for " + v.Type().String())
	}
}

// randFloat returns an edge value, a uniform one, one of random magnitude or
// a random finite bit pattern.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 1:
		return rng.Float64()
	case 2:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

// randEntry returns a JournalEntry with every field random.
func randEntry(rng *rand.Rand) JournalEntry {
	var e JournalEntry
	strs := append(append(append([]string(nil), journalOps...), queryKinds...), edgeStrings...)
	randFill(rng, reflect.ValueOf(&e).Elem(), strs)
	return e
}

// checkEntry compares the codec with encoding/json on e, both directions.
func checkEntry(t *testing.T, e JournalEntry) {
	t.Helper()
	want, err := json.Marshal(&e)
	if err != nil {
		t.Fatalf("reference marshal of %+v: %v", e, err)
	}
	got, err := appendJournalEntry(nil, &e)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("encode %+v:\n got %s (err %v)\nwant %s", e, got, err, want)
	}
	var ref JournalEntry
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	dec, err := decodeJournalEntry(want)
	if err != nil || !reflect.DeepEqual(dec, ref) {
		t.Fatalf("decode %s:\n got %+v (err %v)\nwant %+v", want, dec, err, ref)
	}
	var fast JournalEntry
	if ok := scanJournalEntry(want, &fast); ok != (ndjson.Plain(e.Op) && ndjson.Plain(e.Kind)) {
		t.Fatalf("one-pass decoder accepted=%v on %s", ok, want)
	}
}

func TestJournalEntryCodecMatchesReference(t *testing.T) {
	checkEntry(t, JournalEntry{})
	for _, f := range edgeFloats {
		checkEntry(t, JournalEntry{Seq: 1, T: f, Op: JournalUpdate, X: f, MaxY: f, Radius: f,
			Batch: []BatchedUpdate{{X: f, Y: f}}, ProbesAns: []ProbeAnswer{{X: f}}})
	}
	for _, s := range edgeStrings {
		checkEntry(t, JournalEntry{Op: s, Kind: s})
	}
	for _, u := range edgeUints {
		checkEntry(t, JournalEntry{Seq: u, Obj: u, QID: u,
			Batch: []BatchedUpdate{{Obj: u}}, ProbesAns: []ProbeAnswer{{ID: u}, {ID: u}}})
	}
	for _, k := range edgeInts {
		checkEntry(t, JournalEntry{Op: JournalRegister, Kind: KindKNN, K: k})
	}
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 20000; i++ {
		checkEntry(t, randEntry(rng))
	}
}

// TestJournalReplaysReferenceFixture writes a probing workload's journal
// with the reference encoder (every line re-marshaled by encoding/json),
// requires the live journal to match it byte for byte, and requires both it
// and its torn-tail variant to replay to the live monitor's snapshot bit for
// bit.
func TestJournalReplaysReferenceFixture(t *testing.T) {
	r := probingRun(t)
	var fixture []byte
	for _, line := range bytes.SplitAfter(r.logBuf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var e JournalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		fixture = append(append(fixture, b...), '\n')
	}
	if !bytes.Equal(fixture, r.logBuf.Bytes()) {
		t.Fatal("live journal differs from the reference encoder's bytes")
	}
	var want bytes.Buffer
	if err := r.mon.SaveSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		log  []byte
	}{
		{"whole", fixture},
		{"torn tail", append(append([]byte(nil), fixture...), `{"seq":999,"t":0.5,"op":"upd`...)},
	} {
		m := New(Options{GridM: 8}, noLiveProbes(t), nil)
		rs, err := ReplayJournal(bytes.NewReader(c.log), m, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rs.Torn != (c.name == "torn tail") || rs.LastSeq != r.journal.LastSeq() {
			t.Fatalf("%s: replay stats %+v, journal ended at seq %d", c.name, rs, r.journal.LastSeq())
		}
		var got bytes.Buffer
		if err := m.SaveSnapshot(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: replay of the reference fixture diverged", c.name)
		}
	}
}

// FuzzJournalEntryCodec differentially checks the journal codec against
// encoding/json on arbitrary lines: whenever the one-pass decoder accepts,
// json.Unmarshal must accept too and decode the same entry; the replay
// decoder must fail exactly when json.Unmarshal fails; and every decoded
// entry must encode to json.Marshal's bytes.
func FuzzJournalEntryCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		e := randEntry(rng)
		b, _ := json.Marshal(&e)
		f.Add(b)
	}
	f.Add([]byte(`{"seq":3,"t":0.03,"op":"batch","batch":[{"obj":7,"x":0.5,"y":0.52}],"probes":[{"id":2,"x":1e-7,"y":0}]}`))
	f.Add([]byte(`{"seq":1,"t":0,"op":"reg","qid":1,"kind":"knn","x":0.5,"y":0.5,"k":3,"ord":true}`))
	f.Add([]byte(`{"seq":1, "T":0,"op":"add","batch":null,"probes":[],"kind":"\u0072ange"}`))
	f.Add([]byte(`{"seq":1,"seq":2,"batch":[{"obj":1,"x":1}],"batch":[{"obj":2}],"k":1e3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref JournalEntry
		refErr := json.Unmarshal(data, &ref)
		var fast JournalEntry
		if scanJournalEntry(data, &fast) {
			if refErr != nil {
				t.Fatalf("one-pass decoder accepted %q, json.Unmarshal: %v", data, refErr)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("decode %q:\n one-pass %+v\n     json %+v", data, fast, ref)
			}
		}
		got, err := decodeJournalEntry(data)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("decode %q: err %v, json.Unmarshal err %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("decode %q:\n got %+v\nwant %+v", data, got, ref)
		}
		checkEntry(t, ref)
	})
}
