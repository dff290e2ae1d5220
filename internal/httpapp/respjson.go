package httpapp

import (
	"encoding/base64"
	"encoding/json"
	"math"
	"slices"
	"strconv"

	"repro/internal/script"
)

// appendJSON appends the JSON encoding of script value v to b. The bytes
// are exactly those of json.Marshal(script.ToJSONValue(v)), written
// without building the intermediate tree. The common shapes are encoded
// here; anything else is handed to json.Marshal, whose output for a
// value is the same standalone as nested:
//
//   - a map's keys are sorted bytewise, as encoding/json sorts them, and
//     encoded as strings;
//   - []byte is ToJSONValue's {"$bytes": base64} envelope, whose key and
//     alphabet need no escaping;
//   - a float64 is formatted by encoding/json's rules; NaN and ±Inf go to
//     json.Marshal, which rejects them;
//   - a string of printable ASCII other than '"', '\\', '<', '>' and '&'
//     is written verbatim, since encoding/json escapes none of it; any
//     other string (control characters, HTML characters, non-ASCII,
//     invalid UTF-8) goes to json.Marshal.
func appendJSON(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, "null"...), nil
	case bool:
		return strconv.AppendBool(b, x), nil
	case float64:
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			return appendFloat(b, x), nil
		}
	case string:
		return appendString(b, x)
	case []byte:
		b = append(b, `{"$bytes":"`...)
		b = base64.StdEncoding.AppendEncode(b, x)
		return append(b, `"}`...), nil
	case *script.List:
		b = append(b, '[')
		for i, e := range x.Elems {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendJSON(b, e); err != nil {
				return b, err
			}
		}
		return append(b, ']'), nil
	case map[string]any:
		var buf [16]string
		keys := buf[:0]
		for k := range x {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b = append(b, '{')
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendString(b, k); err != nil {
				return b, err
			}
			b = append(b, ':')
			if b, err = appendJSON(b, x[k]); err != nil {
				return b, err
			}
		}
		return append(b, '}'), nil
	}
	enc, err := json.Marshal(script.ToJSONValue(v))
	if err != nil {
		return b, err
	}
	return append(b, enc...), nil
}

// appendString appends s as a JSON string. A string that
// plainJSONString accepts is written verbatim. Any other string goes to
// json.Marshal, which escapes it.
func appendString(b []byte, s string) ([]byte, error) {
	if plainJSONString(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"'), nil
	}
	enc, err := json.Marshal(s)
	if err != nil {
		return b, err
	}
	return append(b, enc...), nil
}

// appendFloat formats a finite f as encoding/json does: shortest
// round-trip digits, in exponent form below 1e-6 and from 1e21 up, with
// a single-digit negative exponent unpadded (1e-7, not 1e-07).
func appendFloat(b []byte, f float64) []byte {
	if i := int64(f); float64(i) == f && i > -1<<53 && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		// An integer below 2^53 has the same digits either way, without
		// the shortest-digits search; -0 keeps its sign below.
		return strconv.AppendInt(b, i, 10)
	}
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

// plainJSONString reports whether encoding/json writes s between quotes
// unchanged.
func plainJSONString(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}
