package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"srb/internal/ndjson"
)

// The reference codec is encoding/json, which Send and Recv used before the
// hand-written codec replaced it: json.Marshal must produce the bytes
// appendMessage produces, and json.Unmarshal must decode every frame to the
// Message decodeMessage decodes it to.

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
	"", "boom", `a"b`, `back\slash`, "<>&", "<script>", "\x00\x01\x1f",
	"\b\f\n\r\t", "\xff\xfe", "bad \xc3 tail", "\u2028\u2029", "héllo", "\x7f", "日本",
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

// randMessage returns a Message with every field random.
func randMessage(rng *rand.Rand) Message {
	var m Message
	randFill(rng, reflect.ValueOf(&m).Elem(), append(append([]string(nil), messageTypes...), edgeStrings...))
	return m
}

// checkMessage compares the codec with encoding/json on m, both directions.
func checkMessage(t *testing.T, m Message) {
	t.Helper()
	want, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("reference marshal of %+v: %v", m, err)
	}
	got, err := appendMessage(nil, &m)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("encode %+v:\n got %s (err %v)\nwant %s", m, got, err, want)
	}
	var ref Message
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	dec, err := decodeMessage(want)
	if err != nil || !reflect.DeepEqual(dec, ref) {
		t.Fatalf("decode %s:\n got %+v (err %v)\nwant %+v", want, dec, err, ref)
	}
	var fast Message
	if ok := scanMessage(want, &fast); ok != (ndjson.Plain(m.Type) && ndjson.Plain(m.Err)) {
		t.Fatalf("one-pass decoder accepted=%v on %s", ok, want)
	}
}

func TestMessageCodecMatchesReference(t *testing.T) {
	checkMessage(t, Message{})
	for _, f := range edgeFloats {
		checkMessage(t, Message{Type: TRegion, X: f, MinY: f, Radius: f})
	}
	for _, s := range edgeStrings {
		checkMessage(t, Message{Type: s, Err: s})
	}
	for _, u := range edgeUints {
		checkMessage(t, Message{Type: TResults, Obj: u, QID: u, IDs: []uint64{u, u}, Seq: u, Trace: u})
	}
	for _, k := range edgeInts {
		checkMessage(t, Message{Type: TRegisterKNN, K: k, Count: k})
	}
	checkMessage(t, Message{Type: TResults, IDs: []uint64{}})
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 20000; i++ {
		checkMessage(t, randMessage(rng))
	}
}

// TestSendRejectsNonFinite pins encoding/json's behaviour, kept: a NaN or
// infinite field fails Send with json's error, and nothing reaches the
// stream.
func TestSendRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, m := range []Message{
			{Type: TUpdate, X: bad},
			{Type: TRegion, MinX: 1, MaxY: bad},
			{Type: TRegisterCircle, Radius: bad, Err: "x"},
		} {
			var out bytes.Buffer
			err := NewCodec(pipeRW{&out, &out}).Send(m)
			_, refErr := json.Marshal(m)
			var uve *json.UnsupportedValueError
			if err == nil || !errors.As(err, &uve) || err.Error() != "wire: marshal: "+refErr.Error() {
				t.Errorf("Send(%+v) = %v, want wire: marshal: %v", m, err, refErr)
			}
			if out.Len() != 0 {
				t.Errorf("Send(%+v) wrote %q", m, out.Bytes())
			}
		}
	}
}

// FuzzMessageCodec differentially checks the codec against encoding/json on
// arbitrary frames: whenever the one-pass decoder accepts, json.Unmarshal
// must accept too and decode the same Message; Recv's decoder must fail
// exactly when json.Unmarshal fails; and every decoded Message must encode
// to json.Marshal's bytes.
func FuzzMessageCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		b, _ := json.Marshal(randMessage(rng))
		f.Add(b)
	}
	f.Add([]byte(`{"t":"update","obj":1,"x":0.5,"y":0.5,"tr":9}`))
	f.Add([]byte(`{"t":"results","qid":3,"ids":[1,2,3]}`))
	f.Add([]byte(`{"t":"region", "minx":1e-7,"MAXX":2,"ids":null,"err":"\u003c"}`))
	f.Add([]byte(`{"t":"x","t":"y","ids":[],"k":-0,"x":1E400}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref Message
		refErr := json.Unmarshal(data, &ref)
		var fast Message
		if scanMessage(data, &fast) {
			if refErr != nil {
				t.Fatalf("one-pass decoder accepted %q, json.Unmarshal: %v", data, refErr)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("decode %q:\n one-pass %+v\n     json %+v", data, fast, ref)
			}
		}
		got, err := decodeMessage(data)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("decode %q: err %v, json.Unmarshal err %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("decode %q:\n got %+v\nwant %+v", data, got, ref)
		}
		checkMessage(t, ref)
	})
}
