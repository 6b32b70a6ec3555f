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
	if s, ok := h.Supertype("article"); !ok || s != "publication" {
		t.Errorf("Supertype(article) = %q, %v", s, ok)
	}
	if _, ok := h.Supertype("publication"); ok {
		t.Error("publication should have no supertype")
	}
	cases := []struct {
		a, b string
		want bool
	}{
		{"article", "article", true},
		{"article", "publication", true},
		{"thesis", "publication", true}, // transitive
		{"thesis", "book", true},
		{"publication", "article", false}, // wrong direction
		{"article", "book", false},        // siblings
		{"unknown", "publication", false},
	}
	for _, c := range cases {
		if got := h.IsSubtypeOf(c.a, c.b); got != c.want {
			t.Errorf("IsSubtypeOf(%s,%s) = %v, want %v", c.a, c.b, got, c.want)
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
	if !h.IsSubtypeOf("a", "a") {
		t.Error("nil hierarchy should still treat equal tags as subtypes")
	}
	if h.IsSubtypeOf("a", "b") {
		t.Error("nil hierarchy related distinct tags")
	}
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

// TestContainedInWith: the tag-relaxed query (supertype) contains the
// original (subtype).
func TestContainedInWith(t *testing.T) {
	h := testHierarchy()
	sub := MustParse(`//article[./section]`)
	super := MustParse(`//publication[./section]`)
	if !ContainedInWith(sub, super, h) {
		t.Error("//article should be contained in //publication under the hierarchy")
	}
	if ContainedInWith(super, sub, h) {
		t.Error("//publication must not be contained in //article")
	}
	// Without the hierarchy, no containment either way.
	if ContainedInWith(sub, super, nil) {
		t.Error("containment without hierarchy should fail")
	}
	// Reduces to ContainedIn for nil hierarchies.
	a := MustParse(`//a[./b]`)
	b := MustParse(`//a[.//b]`)
	if ContainedInWith(a, b, nil) != ContainedIn(a, b) {
		t.Error("nil-hierarchy ContainedInWith disagrees with ContainedIn")
	}
}
