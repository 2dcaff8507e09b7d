package farm

import (
	"bytes"
	"encoding/json"
	"testing"
	"unicode/utf8"
)

// FuzzParseAxis: the -sweep grammar never panics, and an axis it
// accepts validates, compiles over a base spec without panicking, and
// — when its text is valid UTF-8, which JSON strings must be — survives
// a JSON round trip unchanged.
func FuzzParseAxis(f *testing.F) {
	for _, s := range []string{
		"threshold=30,60,300,1800", "farm=24,48,96", "cache=0,16e9", "L=0.5,0.6,0.7,0.8",
		"v=1,2,4,8", "rate=1,4,8,12", "alloc=pack,ffd,bestfit", "seed=0,1,2,3",
		"control=static,tail-budget", "threshold=30,, 60", "threshold=NaN", "assign=1", "=",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseAxis(s)
		if err != nil {
			return
		}
		if err := a.validate(); err != nil {
			t.Fatalf("ParseAxis(%q) returned an invalid axis: %v", s, err)
		}
		if c, err := Compile(Sweep{Base: testSpec(), Axes: []Axis{a}}, 1); err == nil && c.NumPoints() != a.size() {
			t.Fatalf("%q compiled to %d points, axis has %d", s, c.NumPoints(), a.size())
		}
		if !utf8.ValidString(s) {
			return
		}
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("marshal %+v: %v", a, err)
		}
		var back Axis
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if b2, _ := json.Marshal(back); !bytes.Equal(b, b2) {
			t.Fatalf("axis changed across JSON: %s vs %s", b, b2)
		}
	})
}

// FuzzParseSelector: the -select grammar never panics, and a selector
// it accepts validates and survives a JSON round trip unchanged.
func FuzzParseSelector(f *testing.F) {
	for _, s := range []string{"none", "knee", "pareto", "slo=25", "slo=25,afr=0.1", "slo=-1", "slo=NaN", "slo=1,afr=2"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sel, err := ParseSelector(s)
		if err != nil {
			return
		}
		if err := sel.validate(); err != nil {
			t.Fatalf("ParseSelector(%q) returned an invalid selector: %v", s, err)
		}
		b, err := json.Marshal(sel)
		if err != nil {
			// +Inf budgets are valid but have no JSON form.
			return
		}
		var back Selector
		if err := json.Unmarshal(b, &back); err != nil || back != sel {
			t.Fatalf("selector %+v changed across JSON: %+v (%v)", sel, back, err)
		}
	})
}
