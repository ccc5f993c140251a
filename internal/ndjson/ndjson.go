// Package ndjson holds the building blocks of the module's reflection-free
// JSON codecs (wire.Message frames and core.JournalEntry journal lines). The
// encoders built on it emit exactly the bytes encoding/json emits for the same
// struct: same keys in the same order, the same omitempty rule, and the same
// number and string formatting. The Scanner reads back only that canonical
// compact form; on anything else it fails and the caller hands the input to
// encoding/json unchanged, so acceptance rules and error text for
// non-canonical or hostile bytes stay encoding/json's own.
package ndjson

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// AppendFloat appends f the way encoding/json formats a float64: the
// shortest representation that round-trips, in exponent form when
// |f| < 1e-6 or |f| >= 1e21 and with a one-digit negative exponent written
// without its leading zero ("1e-7", not "1e-07"). f must be finite; check
// with Finite first.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// Finite returns the error encoding/json's Marshal returns for the first
// NaN or infinite value among fs, in order, or nil when all are finite.
func Finite(fs ...float64) error {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
	}
	return nil
}

// AppendUintField appends an omitempty unsigned field: key, which carries
// its leading comma and trailing colon, then v; nothing when v is zero.
func AppendUintField(b []byte, key string, v uint64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendUint(append(b, key...), v, 10)
}

// AppendIntField appends an omitempty int field, or nothing when v is zero.
func AppendIntField(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// AppendFloatField appends an omitempty float field, or nothing when f is
// zero (negative zero included, as encoding/json omits it too).
func AppendFloatField(b []byte, key string, f float64) []byte {
	if f == 0 {
		return b
	}
	return AppendFloat(append(b, key...), f)
}

// Plain reports whether encoding/json writes s without escapes: s is
// printable ASCII without '"', '\\' and the HTML-sensitive '<', '>' and '&'.
func Plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// AppendString appends s as a JSON string literal, escaped as
// encoding/json's Marshal escapes it: a Plain string is copied as is, any
// other goes through encoding/json itself, whose error is returned.
func AppendString(b []byte, s string) ([]byte, error) {
	if !Plain(s) {
		q, err := json.Marshal(s)
		return append(b, q...), err
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"'), nil
}

// Scanner reads one JSON object in the canonical compact form the module's
// encoders write: no whitespace, keys in the order the decoder asks for
// them, strings without escapes or non-ASCII bytes, non-empty arrays. Every
// method is a no-op once the scanner has failed; OK reports the outcome, so a
// decoder makes all its calls and checks once at the end. A Scanner that
// accepts an input decodes it to the value encoding/json's Unmarshal decodes
// it to; one that rejects it says nothing about its validity.
type Scanner struct {
	b     []byte
	i     int
	first bool // no key read yet in the innermost open object
	bad   bool
}

// Reset starts scanning b.
func (s *Scanner) Reset(b []byte) { *s = Scanner{b: b} }

// OK reports whether every call so far succeeded and the whole input was
// consumed.
func (s *Scanner) OK() bool { return !s.bad && s.i == len(s.b) }

func (s *Scanner) fail() { s.bad = true }

// expect consumes byte c or fails.
func (s *Scanner) expect(c byte) {
	if s.bad || s.i >= len(s.b) || s.b[s.i] != c {
		s.fail()
		return
	}
	s.i++
}

// Open consumes the '{' that starts an object.
func (s *Scanner) Open() {
	s.expect('{')
	s.first = true
}

// Close consumes the '}' that ends an object.
func (s *Scanner) Close() {
	s.expect('}')
	s.first = false
}

// Field reports whether the next key of the open object is name (not
// empty), consuming the key, its colon and the separating comma if so. A decoder asks for the
// keys in encoding order and reads the value of each one found, so a key
// out of order, repeated or unknown is left in place for Close to reject.
func (s *Scanner) Field(name string) bool {
	if s.bad {
		return false
	}
	i := s.i
	if !s.first {
		if i >= len(s.b) || s.b[i] != ',' {
			return false
		}
		i++
	}
	end := i + len(name) + 3
	if end > len(s.b) || s.b[i] != '"' || s.b[i+1] != name[0] || s.b[end-2] != '"' || s.b[end-1] != ':' ||
		string(s.b[i+2:end-2]) != name[1:] {
		return false
	}
	s.i, s.first = end, false
	return true
}

// Array consumes the '[' that starts a non-empty array and reports whether
// an element follows; an empty array is not canonical and fails.
func (s *Scanner) Array() bool {
	s.expect('[')
	if !s.bad && s.i < len(s.b) && s.b[s.i] == ']' {
		s.fail()
	}
	return !s.bad
}

// Next consumes the separator after an array element and reports whether
// another element follows; at the closing ']' it consumes it and reports
// false.
func (s *Scanner) Next() bool {
	if s.bad || s.i >= len(s.b) {
		s.fail()
		return false
	}
	switch s.b[s.i] {
	case ',':
		s.i++
		return true
	case ']':
		s.i++
		return false
	}
	s.fail()
	return false
}

// number consumes a token of JSON number grammar and returns it with
// whether it has a fraction or an exponent.
func (s *Scanner) number() (tok []byte, frac bool) {
	if s.bad {
		return nil, false
	}
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		s.fail()
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; i >= len(b) || !isDigit(b[i]) {
			s.fail()
			return nil, false
		}
		i, frac = digits(b, i), true
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			s.fail()
			return nil, false
		}
		i, frac = digits(b, i), true
	}
	tok, s.i = b[s.i:i], i
	return tok, frac
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// Float reads a number as a float64, failing where encoding/json would
// report an error (out of range).
func (s *Scanner) Float() float64 {
	tok, _ := s.number()
	if f, err := strconv.ParseFloat(string(tok), 64); err == nil {
		return f
	}
	s.fail()
	return 0
}

// integer consumes a number token, failing on a fraction or an exponent.
func (s *Scanner) integer() []byte {
	tok, frac := s.number()
	if frac {
		s.fail()
		return nil
	}
	return tok
}

// Uint reads an integer into a uint64, failing where encoding/json would
// report an error: a sign, a fraction, an exponent or overflow.
func (s *Scanner) Uint() uint64 {
	if v, err := strconv.ParseUint(string(s.integer()), 10, 64); err == nil {
		return v
	}
	s.fail()
	return 0
}

// Int reads an integer into an int, failing where encoding/json would
// report an error: a fraction, an exponent or overflow.
func (s *Scanner) Int() int {
	if v, err := strconv.ParseInt(string(s.integer()), 10, strconv.IntSize); err == nil {
		return int(v)
	}
	s.fail()
	return 0
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	if s.bad {
		return false
	}
	rest := s.b[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false
	}
	s.fail()
	return false
}

// String reads a string of printable ASCII without escapes. A value equal
// to an entry of known is returned as that entry, so decoding a protocol
// constant allocates nothing; any other value is copied.
func (s *Scanner) String(known []string) string {
	s.expect('"')
	if s.bad {
		return ""
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		c := s.b[s.i]
		if c == '"' {
			v := s.b[start:s.i]
			s.i++
			for _, k := range known {
				if string(v) == k {
					return k
				}
			}
			return string(v)
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			break
		}
	}
	s.fail()
	return ""
}
