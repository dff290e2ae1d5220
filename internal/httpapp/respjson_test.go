package httpapp

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"sort"
	"testing"

	"repro/internal/script"
)

// Fuzz input format: a tagged tree of script values. decodeFuzzValue
// reads one; encodeFuzzValue writes one, for the seed corpus.
const (
	fzNil = iota
	fzFalse
	fzTrue
	fzFloat  // 8 bytes, little-endian IEEE 754 bits
	fzString // length byte, bytes
	fzBytes  // length byte, bytes
	fzList   // count byte, values
	fzMap    // count byte, (length byte, key bytes, value) pairs
	fzTags
)

func decodeFuzzValue(data []byte, depth int) (any, []byte) {
	if len(data) == 0 {
		return nil, data
	}
	tag, data := data[0]%fzTags, data[1:]
	if depth > 6 && (tag == fzList || tag == fzMap) {
		tag = fzNil
	}
	chunk := func() []byte {
		if len(data) == 0 {
			return nil
		}
		n := min(int(data[0]), len(data)-1)
		c := data[1 : 1+n]
		data = data[1+n:]
		return c
	}
	switch tag {
	case fzFalse:
		return false, data
	case fzTrue:
		return true, data
	case fzFloat:
		var raw [8]byte
		n := copy(raw[:], data)
		return math.Float64frombits(binary.LittleEndian.Uint64(raw[:])), data[n:]
	case fzString:
		return string(chunk()), data
	case fzBytes:
		return append([]byte(nil), chunk()...), data
	case fzList:
		lst := script.NewList()
		if len(data) == 0 {
			return lst, data
		}
		n := int(data[0] % 8)
		data = data[1:]
		for i := 0; i < n; i++ {
			var v any
			v, data = decodeFuzzValue(data, depth+1)
			lst.Elems = append(lst.Elems, v)
		}
		return lst, data
	case fzMap:
		m := map[string]any{}
		if len(data) == 0 {
			return m, data
		}
		n := int(data[0] % 8)
		data = data[1:]
		for i := 0; i < n; i++ {
			k := string(chunk())
			var v any
			v, data = decodeFuzzValue(data, depth+1)
			m[k] = v
		}
		return m, data
	default:
		return nil, data
	}
}

func encodeFuzzValue(b []byte, v any) []byte {
	chunk := func(b []byte, s string) []byte {
		return append(append(b, byte(len(s))), s...)
	}
	switch x := v.(type) {
	case nil:
		return append(b, fzNil)
	case bool:
		if x {
			return append(b, fzTrue)
		}
		return append(b, fzFalse)
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, fzFloat), math.Float64bits(x))
	case string:
		return chunk(append(b, fzString), x)
	case []byte:
		return chunk(append(b, fzBytes), string(x))
	case *script.List:
		b = append(b, fzList, byte(len(x.Elems)))
		for _, e := range x.Elems {
			b = encodeFuzzValue(b, e)
		}
		return b
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = append(b, fzMap, byte(len(keys)))
		for _, k := range keys {
			b = encodeFuzzValue(chunk(b, k), x[k])
		}
		return b
	default:
		panic("encodeFuzzValue: unsupported value")
	}
}

// FuzzResponseJSON checks that the response encoder writes exactly the
// bytes of json.Marshal(script.ToJSONValue(v)), and fails exactly when
// it does: NaN and ±Inf are errors wherever they sit in the value.
func FuzzResponseJSON(f *testing.F) {
	for _, v := range []any{
		math.NaN(), math.Inf(1), math.Inf(-1),
		script.NewList(1.0, math.NaN()),
		map[string]any{"a": map[string]any{"b": math.Inf(1)}},
	} {
		if b, err := appendJSON(nil, v); err == nil {
			f.Errorf("appendJSON(%v) = %s, want an error", v, b)
		}
	}
	negZero := math.Copysign(0, -1)
	seeds := []any{
		nil, true, false, 0.0, negZero, 1.0, -42.5, 123.456, 1e-6, 1e-7, 1.5e-7, 1e20, 1e21, -1e21,
		5e-324, math.MaxFloat64, float64(1 << 53),
		"", "plain text", `quote " and \ backslash`, "<b>tom & jerry</b>", "a<b", "a>b", "a&b",
		"\x00\x01\x1f\t\n\r\x7f", "\xff\xfe invalid \xc3", "line\u2028para\u2029end", "héllo 世界",
		[]byte{}, []byte{0, 1, 2, 254, 255}, []byte("<&>"),
		script.NewList(),
		script.NewList(1.0, "two", nil, []byte("3"), script.NewList(map[string]any{"k": 1e-7})),
		map[string]any{},
		map[string]any{"b": 1.0, "a": "x", "<key>": true, "\u2028": negZero, "é": script.NewList(1e21)},
		map[string]any{"rows": script.NewList(
			map[string]any{"id": 17.0, "title": "Book 17", "author": "Author 17", "stock": 1000.0, "loans": 0.0},
		)},
		map[string]any{"bad": math.NaN()},
		script.NewList(math.Inf(1)),
		math.Inf(-1),
	}
	for _, v := range seeds {
		f.Add(encodeFuzzValue(nil, v))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, _ := decodeFuzzValue(data, 0)
		want, wantErr := json.Marshal(script.ToJSONValue(v))
		got, gotErr := appendJSON(nil, v)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("value %#v: error %v, json.Marshal error %v", v, gotErr, wantErr)
		}
		if wantErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("value %#v:\n got  %s\n want %s", v, got, want)
		}
	})
}
