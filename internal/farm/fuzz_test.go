package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// FuzzDecodeDocuments feeds the same bytes to the two document
// decoders — scenario files and shard manifests: neither panics, a
// decoded sweep compiles or errors, and every decoded value re-encodes
// and re-decodes to the same bytes. The seeds are what the encoder
// writes for every scenario's Spec and Grid, and each must decode to
// its source.
func FuzzDecodeDocuments(f *testing.F) {
	for _, sc := range Scenarios() {
		docs := []File{{Spec: &sc.Spec}}
		if sc.Grid != nil {
			docs = append(docs, File{Sweep: sc.Grid})
		}
		for _, doc := range docs {
			var b bytes.Buffer
			if err := EncodeFile(&b, doc); err != nil {
				if doc.Sweep != nil && slices.ContainsFunc(doc.Sweep.Axes, func(a Axis) bool { return a.Kind == AxisCustom }) {
					continue // custom axes do not serialize
				}
				f.Fatalf("scenario %s: %v", sc.Name, err)
			}
			back, err := DecodeFile(bytes.NewReader(b.Bytes()))
			if err != nil {
				f.Fatalf("scenario %s: what the encoder wrote does not decode: %v", sc.Name, err)
			}
			if !reflect.DeepEqual(*back, doc) {
				f.Fatalf("scenario %s: the decoded document differs from its source:\n%s", sc.Name, b.Bytes())
			}
			f.Add(b.Bytes())
		}
	}
	grid := Sweep{Name: "fuzz", Base: testSpec(), Axes: []Axis{{Kind: AxisSpinThreshold, Values: []float64{30, 600}}}}
	shards, err := Shard(grid, 1, 2)
	if err != nil {
		f.Fatal(err)
	}
	var mb bytes.Buffer
	if err := EncodeShard(&mb, shards[0]); err != nil {
		f.Fatal(err)
	}
	f.Add(mb.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		if doc, err := DecodeFile(bytes.NewReader(data)); err == nil {
			if doc.Sweep != nil {
				_, _ = Compile(*doc.Sweep, 1)
			}
			roundTrip(t, *doc, EncodeFile, DecodeFile)
		}
		if m, err := DecodeShard(bytes.NewReader(data)); err == nil {
			_, _ = Compile(m.Sweep, m.Seed)
			roundTrip(t, *m, EncodeShard, DecodeShard)
		}
	})
}

// FuzzPointJournal feeds journal recovery and Merge a valid header for
// the fixture sweep followed by arbitrary bytes. Neither panics. When
// OpenPointJournal succeeds, the recovered indexes are unique and a
// second open returns the same points; bytes with no newline appended
// to the file never change what an open returns, because an
// unterminated tail is a torn append. When Merge succeeds, it returns
// exactly the compiled grid's points, each labelled and filled.
func FuzzPointJournal(f *testing.F) {
	sweep := fixtureSweep()
	const seed = 9
	c, err := Compile(sweep, seed)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "seed.journal")
	j, _, err := OpenPointJournal(path, sweep, seed)
	if err != nil {
		f.Fatal(err)
	}
	shards, err := Shard(sweep, seed, 2)
	if err != nil {
		f.Fatal(err)
	}
	// Journal shard 0, then shard 1: the file holds half the grid, then
	// all of it.
	var snapshots [][]byte
	for _, m := range shards {
		if _, err := RunShard(context.Background(), m, nil, 1, j.Append); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		snapshots = append(snapshots, data)
	}
	j.Close()
	data := snapshots[1]
	n := bytes.IndexByte(data, '\n') + 1
	header, body, full := data[:n:n], snapshots[0][n:], data[n:]
	// Coordinator journals of earlier releases interleaved span
	// envelopes with the results.
	span := []byte(`{"Span":{"ID":"00000000000000aa","Point":1,"Attempt":1,"Phase":"grant","Status":"ok","Start":0.5,"End":1.5}}` + "\n")
	f.Add(body)
	f.Add(span)
	f.Add(append(bytes.Clone(body), span...))
	f.Add([]byte(`{"Index":3,"Label":"threshold=30s farm=8"}` + "\n" + `{"Index":3`))
	f.Add(full)
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		write := func(name string, content []byte) string {
			t.Helper()
			p := filepath.Join(dir, name)
			if err := os.WriteFile(p, content, 0o644); err != nil {
				t.Fatal(err)
			}
			return p
		}
		open := func(name string, content []byte) ([]ShardPointResult, error) {
			t.Helper()
			j, points, err := OpenPointJournal(write(name, content), sweep, seed)
			if err == nil {
				j.Close()
			}
			return points, err
		}
		content := append(header, body...)
		torn := bytes.ReplaceAll(body, []byte("\n"), nil)
		if len(torn) == 0 {
			torn = []byte("{")
		}
		tornContent := append(bytes.Clone(content), torn...)
		if res, err := Merge([]string{write("m.journal", tornContent)}); err == nil {
			if len(res.Points) != c.NumPoints() {
				t.Fatalf("merge returned %d points, the grid has %d", len(res.Points), c.NumPoints())
			}
			for i, p := range res.Points {
				if p.Label != c.Label(i) || p.Metrics == nil {
					t.Fatalf("merged point %d is %q (metrics %v), grid says %q", i, p.Label, p.Metrics != nil, c.Label(i))
				}
			}
		}
		points, err := open("a.journal", content)
		tornPoints, tornErr := open("b.journal", tornContent)
		if (err == nil) != (tornErr == nil) || !reflect.DeepEqual(points, tornPoints) {
			t.Fatalf("an unterminated tail changed recovery: (%d points, %v) became (%d points, %v)", len(points), err, len(tornPoints), tornErr)
		}
		if err != nil {
			return
		}
		seen := make(map[int]bool, len(points))
		for _, pr := range points {
			if seen[pr.Index] {
				t.Fatalf("point %d recovered twice", pr.Index)
			}
			seen[pr.Index] = true
		}
		// The first open truncated any torn tail; what it kept must
		// recover to the same points.
		j, again, err := OpenPointJournal(filepath.Join(dir, "a.journal"), sweep, seed)
		if err != nil {
			t.Fatalf("reopening a recovered journal: %v", err)
		}
		j.Close()
		if !reflect.DeepEqual(points, again) {
			t.Fatalf("a second open recovered %d points, the first %d", len(again), len(points))
		}
	})
}

// roundTrip encodes a decoded value, decodes that, and requires the
// second encoding to repeat the first byte for byte.
func roundTrip[T any](t *testing.T, v T, enc func(io.Writer, T) error, dec func(io.Reader) (*T, error)) {
	t.Helper()
	var first, second bytes.Buffer
	if err := enc(&first, v); err != nil {
		t.Fatalf("re-encoding a decoded %T: %v", v, err)
	}
	back, err := dec(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("re-decoding %T: %v\n%s", v, err, first.Bytes())
	}
	if err := enc(&second, *back); err != nil {
		t.Fatalf("encoding the re-decoded %T: %v", v, err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("%T changed across a round trip:\n%s\nvs\n%s", v, first.Bytes(), second.Bytes())
	}
}
