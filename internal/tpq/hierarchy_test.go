package tpq

import (
	"slices"
	"testing"
)

func testHierarchy() *Hierarchy {
	return NewHierarchy(map[string]string{
		"article":   "publication",
		"book":      "publication",
		"thesis":    "book",
		"paragraph": "block",
	})
}

func TestHierarchyBasics(t *testing.T) {
	h := testHierarchy()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		tag  string
		want []string
	}{
		{"book", []string{"book", "thesis"}},
		{"article", []string{"article"}}, // no subtypes; siblings excluded
		{"unknown", []string{"unknown"}},
	}
	for _, c := range cases {
		if got := h.Subtypes(c.tag); !slices.Equal(got, c.want) {
			t.Errorf("Subtypes(%s) = %v, want %v", c.tag, got, c.want)
		}
	}
}

// TestHierarchySubtypes: Subtypes lists the tag, then its subtypes level
// by level with each level's siblings sorted, on every build of the
// hierarchy however its map is iterated.
func TestHierarchySubtypes(t *testing.T) {
	want := []string{"publication", "article", "book", "thesis"}
	for i := 0; i < 50; i++ {
		if got := testHierarchy().Subtypes("publication"); !slices.Equal(got, want) {
			t.Fatalf("build %d: Subtypes = %v, want %v", i, got, want)
		}
	}
	h := testHierarchy()
	if got := h.Subtypes("article"); len(got) != 1 || got[0] != "article" {
		t.Errorf("Subtypes(article) = %v", got)
	}
}

func TestHierarchyNil(t *testing.T) {
	var h *Hierarchy
	if got := h.Subtypes("a"); len(got) != 1 {
		t.Errorf("nil Subtypes = %v", got)
	}
}

func TestHierarchyCycle(t *testing.T) {
	h := NewHierarchy(map[string]string{"a": "b", "b": "c", "c": "a"})
	if err := h.Validate(); err == nil {
		t.Error("cycle not detected")
	}
}
