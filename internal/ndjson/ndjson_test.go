package ndjson

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"unicode/utf8"
)

func TestAppendFloatMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(f float64) {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %s, json %s", f, got, want)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e-7, 1e-10,
		1e20, math.Nextafter(1e21, 0), 1e21, 1e100, 5e-324, math.MaxFloat64, -math.MaxFloat64} {
		check(f)
		check(-f)
	}
	for i := 0; i < 100000; i++ {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			check(f)
		}
		check(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25)))
	}
}

func TestFiniteMatchesJSON(t *testing.T) {
	if err := Finite(0, 1, -math.MaxFloat64); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(bad)
		if err := Finite(1, bad, math.NaN()); err == nil || err.Error() != want.Error() {
			t.Fatalf("Finite(%v) = %v, json %v", bad, err, want)
		}
	}
}

func TestAppendStringMatchesJSON(t *testing.T) {
	check := func(s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := AppendString([]byte("x"), s); err != nil || !bytes.Equal(got[1:], want) {
			t.Fatalf("AppendString(%q) = %s (err %v), json %s", s, got[1:], err, want)
		}
	}
	for c := 0; c < 256; c++ {
		check(string([]byte{'a', byte(c), 'z'}))
	}
	for _, r := range []rune{'\u2028', '\u2029', 'é', '日', utf8.RuneError, utf8.MaxRune} {
		check("a" + string(r))
	}
	check("")
}

// TestScannerRefusesNonCanonical lists inputs encoding/json accepts or
// rejects that the Scanner must refuse, leaving them to encoding/json.
func TestScannerRefusesNonCanonical(t *testing.T) {
	decode := func(b string) bool {
		var s Scanner
		s.Reset([]byte(b))
		s.Open()
		if s.Field("a") {
			s.Uint()
		}
		if s.Field("f") {
			s.Float()
		}
		if s.Field("i") {
			s.Int()
		}
		if s.Field("s") {
			s.String([]string{"k"})
		}
		if s.Field("l") {
			for more := s.Array(); more; more = s.Next() {
				s.Uint()
			}
		}
		if s.Field("b") {
			s.Bool()
		}
		s.Close()
		return s.OK()
	}
	for _, b := range []string{`{}`, `{"a":1,"f":-0.5e-7,"i":-3,"s":"k","l":[1,2],"b":true}`, `{"f":1E+2}`, `{"i":-0}`} {
		if !decode(b) {
			t.Errorf("refused %s", b)
		}
	}
	for _, b := range []string{
		``, ` {}`, `{} `, `{}x`, `[]`, `{"a":1,}`, `{"a" :1}`, `{"A":1}`, `{"a":1,"a":2}`, `{"f":1,"a":1}`,
		`{"z":1}`, `{"a":null}`, `{"a":-1}`, `{"a":1.0}`, `{"a":1e2}`, `{"a":01}`, `{"a":18446744073709551616}`,
		`{"f":1e400}`, `{"f":.5}`, `{"f":1.}`, `{"f":-}`, `{"f":+1}`, `{"f":1e}`, `{"f":"1"}`,
		`{"i":9223372036854775808}`, `{"i":1.5}`, `{"s":"a\"b"}`, `{"s":"é"}`, `{"s":"a` + "\x01" + `"}`,
		`{"s":1}`, `{"l":[]}`, `{"l":[1,]}`, `{"l":[1 ]}`, `{"l":null}`, `{"b":tru}`, `{"b":truex}`, `{"b":1}`,
	} {
		if decode(b) {
			t.Errorf("accepted non-canonical %s", b)
		}
	}
}
