package jsonl

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// rec is the shape the tests scan: every kind of member a Line reads,
// one of them (Opt) omittable.
type rec struct {
	S    string   `json:"s"`
	Opt  string   `json:"opt,omitempty"`
	N    uint32   `json:"n"`
	B    bool     `json:"b"`
	Strs []string `json:"strs"`
	Nums []uint32 `json:"nums"`
}

// scan reads a rec the way the loaders read their lines.
func scan(line []byte) (rec, bool) {
	var r rec
	l := Open(line)
	r.S = string(l.String("s"))
	if l.Next("opt") {
		r.Opt = string(l.String("opt"))
	}
	r.N = uint32(l.Uint("n", math.MaxUint32))
	r.B = l.Bool("b")
	views := l.Strings("strs", nil)
	r.Nums = l.Uint32s("nums")
	if !l.Close() {
		return rec{}, false
	}
	r.Strs = make([]string, len(views))
	for i, v := range views {
		r.Strs[i] = string(v)
	}
	return r, true
}

func TestLineAgreesWithEncodingJSON(t *testing.T) {
	accept := []string{
		`{"s":"","n":0,"b":false,"strs":[],"nums":[]}`,
		`{"s":"a b","opt":"x","n":4294967295,"b":true,"strs":["","1.0.0.0/8"],"nums":[0,1,4294967295]}`,
		`{"s":"AT&T <ok> 'q' [x],{y}:z` + "\x7f" + `","n":10,"b":true,"strs":["a,b","]"],"nums":[7]}`,
		`{"s":"x","opt":"","n":1,"b":false,"strs":["y"],"nums":[1,2]}`,
	}
	for _, in := range accept {
		got, ok := scan([]byte(in))
		if !ok {
			t.Errorf("declined %s", in)
			continue
		}
		var want rec
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatalf("fixture %s: %v", in, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s\n got %+v\nwant %+v", in, got, want)
		}
	}
	// Written by encoding/json from a struct: accepted, and read back
	// as written.
	want := rec{S: "s", N: 65000, Strs: []string{"10.0.0.0/8", "2001:db8::/32"}, Nums: []uint32{1, 2, 3}}
	enc, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := scan(enc); !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("Marshal output %s scanned as %+v, %v", enc, got, ok)
	}
}

func TestLineDeclines(t *testing.T) {
	const good = `{"s":"x","n":1,"b":true,"strs":["y"],"nums":[1,2]}`
	if _, ok := scan([]byte(good)); !ok {
		t.Fatalf("the base line is declined: %s", good)
	}
	for _, in := range []string{
		``, `{`, `{}`, `[]`, `null`, ` ` + good, good + ` `, good + `x`, good + good, good[:len(good)-1],
		`{"s":"x","n":1,"b":true,"strs":["y"],"nums":[1,2],}`,
		`{,"s":"x","n":1,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x","n":1,"b":true,"strs":["y"],"nums":[1,2],"more":1}`,
		`{"n":1,"s":"x","b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x","s":"x","n":1,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"S":"x","n":1,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s": "x","n":1,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x", "n":1,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x","n":1,"b":true,"strs":["y"],"nums":[1, 2]}`,
		`{"s":"x` + "\t" + `","n":1,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x\\y","n":1,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"a\"b","n":1,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"é","n":1,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"` + "\xff" + `","n":1,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":null,"n":1,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":x,"n":1,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x,"n":1,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x","n":,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x","n":-1,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x","n":+1,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x","n":01,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x","n":00,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x","n":1.0,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x","n":1e2,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x","n":4294967296,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x","n":18446744073709551616,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x","n":"1","b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x","n":null,"b":true,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x","n":1,"b":True,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x","n":1,"b":truex,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x","n":1,"b":1,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x","n":1,"b":null,"strs":["y"],"nums":[1,2]}`,
		`{"s":"x","n":1,"b":true,"strs":"y","nums":[1,2]}`,
		`{"s":"x","n":1,"b":true,"strs":null,"nums":[1,2]}`,
		`{"s":"x","n":1,"b":true,"strs":["y",],"nums":[1,2]}`,
		`{"s":"x","n":1,"b":true,"strs":[,"y"],"nums":[1,2]}`,
		`{"s":"x","n":1,"b":true,"strs":["y""z"],"nums":[1,2]}`,
		`{"s":"x","n":1,"b":true,"strs":["y",1],"nums":[1,2]}`,
		`{"s":"x","n":1,"b":true,"strs":[["y"]],"nums":[1,2]}`,
		`{"s":"x","n":1,"b":true,"strs":["y"],"nums":[1,"2"]}`,
		`{"s":"x","n":1,"b":true,"strs":["y"],"nums":[1,4294967296]}`,
		`{"s":"x","n":1,"b":true,"strs":["y"],"nums":[1,2`,
		`{"s":"x","n":1,"b":true,"strs":["y"],"nums":[1,2]`,
		`{"s":{"x":1},"n":1,"b":true,"strs":["y"],"nums":[1,2]}`,
	} {
		if r, ok := scan([]byte(in)); ok {
			t.Errorf("accepted %s as %+v", in, r)
		}
	}
}

// TestUintMax pins the range check at a maximum that is not a power of
// two boundary of the accumulator.
func TestUintMax(t *testing.T) {
	for _, tc := range []struct {
		in  string
		max uint64
		ok  bool
	}{
		{"128", 128, true}, {"129", 128, false}, {"1280", 128, false},
		{"18446744073709551615", math.MaxUint64, true}, {"18446744073709551616", math.MaxUint64, false},
		{"9223372036854775807", math.MaxInt64, true}, {"9223372036854775808", math.MaxInt64, false},
	} {
		l := Open([]byte(`{"n":` + tc.in + `}`))
		v := l.Uint("n", tc.max)
		if ok := l.Close(); ok != tc.ok {
			t.Errorf("Uint(%s, max %d) accepted = %v, want %v", tc.in, tc.max, ok, tc.ok)
		} else if ok {
			var want uint64
			if err := json.Unmarshal([]byte(tc.in), &want); err != nil || v != want {
				t.Errorf("Uint(%s) = %d, encoding/json says %d (%v)", tc.in, v, want, err)
			}
		}
	}
}

func TestScanZeroAlloc(t *testing.T) {
	line := []byte(`{"kind":"roa","prefix":"1.0.0.0/16","maxLength":16,"asn":3061,"certSKI":"15:86:2A:03:F0:69:BF:07:B2:E9"}`)
	if n := testing.AllocsPerRun(200, func() {
		l := Open(line)
		l.String("kind")
		l.String("prefix")
		l.Uint("maxLength", 128)
		l.Uint("asn", math.MaxUint32)
		l.String("certSKI")
		if !l.Close() {
			t.Fatal("declined")
		}
	}); n != 0 {
		t.Errorf("scanning a line allocates %.1f times, want 0", n)
	}
}
