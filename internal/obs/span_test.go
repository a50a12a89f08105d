package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestSpanNestingOrder(t *testing.T) {
	root := NewSpan("root", A("n", 16))
	c1 := root.Child("first")
	c1a := c1.Child("first.inner")
	c1a.End()
	c1.End()
	c2 := root.Child("second")
	c2.SetAttr("rows", 3)
	c2.End()
	root.End()

	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "first" || kids[1].Name() != "second" {
		t.Fatalf("children = %v", kids)
	}
	if inner := kids[0].Children(); len(inner) != 1 || inner[0].Name() != "first.inner" {
		t.Fatalf("inner children = %v", inner)
	}

	var sb strings.Builder
	if err := root.WriteTree(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("tree has %d lines:\n%s", len(lines), sb.String())
	}
	// Depth-first order with two-space indentation per level.
	wantPrefix := []string{"root", "  first", "    first.inner", "  second"}
	for i, p := range wantPrefix {
		if !strings.HasPrefix(lines[i], p) {
			t.Fatalf("line %d = %q, want prefix %q", i, lines[i], p)
		}
	}
	if !strings.Contains(lines[0], "n=16") || !strings.Contains(lines[3], "rows=3") {
		t.Fatalf("attrs missing from tree:\n%s", sb.String())
	}
}

// TestSpanJSONL: a span tree journals depth-first, one record per
// span, with slash-joined paths and depths from the root.
func TestSpanJSONL(t *testing.T) {
	root := NewSpan("root")
	root.Child("a").End()
	root.Child("b").Child("c").End()
	root.End()

	e := NewEntry("spans")
	e.AddSpans(root)
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var got Entry
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	wantPaths := []string{"root", "root/a", "root/b", "root/b/c"}
	wantDepths := []int{0, 1, 1, 2}
	if len(got.Spans) != len(wantPaths) {
		t.Fatalf("spans = %+v", got.Spans)
	}
	for i, rec := range got.Spans {
		if rec.MS < 0 {
			t.Fatalf("negative duration in %+v", rec)
		}
		if rec.Path != wantPaths[i] || rec.Depth != wantDepths[i] {
			t.Fatalf("record %d = (%s, %d), want (%s, %d)", i, rec.Path, rec.Depth, wantPaths[i], wantDepths[i])
		}
	}
}

func TestNilSpanIsInert(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatal("nil span produced a child")
	}
	s.SetAttr("k", 1)
	s.End()
	if s.Duration() != 0 || s.Name() != "" || s.Children() != nil {
		t.Fatal("nil span not inert")
	}
	if err := s.WriteTree(nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	s := NewSpan("s")
	s.End()
	d := s.Duration()
	s.End()
	if s.Duration() != d {
		t.Fatal("second End changed the duration")
	}
}
