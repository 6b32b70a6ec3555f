package layers

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"flexpath"
)

func TestSelfTimes(t *testing.T) {
	tr := NewTrace()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	// One collection span of 10 ms over two document spans of 3 and 4 ms;
	// the first document span covers a 2 ms top-K span. A second, childless
	// collection span must not be reported: nothing was measured below it.
	coll := tr.Add(0, LayerColl, -1, at(0), at(10))
	doc := tr.Add(0, LayerDocument, coll, at(10), at(13))
	tr.Add(0, LayerDocument, coll, at(13), at(17))
	tr.Add(0, LayerTopK+"dpo", doc, at(17), at(19))
	tr.Add(1, LayerColl, -1, at(19), at(25))

	if got, want := tr.SelfTimes(LayerColl), []float64{3}; !reflect.DeepEqual(got, want) {
		t.Errorf("collection self times %v, want %v", got, want)
	}
	if got, want := tr.SelfTimes(LayerDocument), []float64{1}; !reflect.DeepEqual(got, want) {
		t.Errorf("document self times %v, want %v", got, want)
	}
	if got, want := tr.Durations(LayerColl), []float64{10, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("collection durations %v, want %v", got, want)
	}
	if got := tr.SelfTimes(LayerTopK + "dpo"); got != nil {
		t.Errorf("leaf layer has self times %v", got)
	}
}

const ladderDoc = `<site><regions><asia>
<item id="i1"><name>gold ring</name><description><parlist><listitem><text>rare gold</text></listitem></parlist></description></item>
<item id="i2"><name>silver cup</name><description><text>plain silver</text></description></item>
<item id="i3"><name>oak desk</name><description><par><parlist><listitem><text>carved oak</text></listitem></parlist></par></description></item>
</asia></regions></site>`

// One op replayed over a two-member corpus yields a span at every layer, with
// the document spans under the collection span and the top-K span of the
// algorithm that ran under its document span.
func TestLadderCoversEveryLayer(t *testing.T) {
	var docs []NamedDoc
	for _, name := range []string{"a", "b"} {
		d, err := flexpath.LoadString(ladderDoc)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, NamedDoc{Name: name, Doc: d})
	}
	tr := NewTrace()
	lad, err := NewLadder(docs, rand.New(rand.NewSource(1)), tr)
	if err != nil {
		t.Fatal(err)
	}
	lad.Counting = true
	op := Op{Query: `//item[./description/parlist and .contains("gold")]`, K: 2, Algo: flexpath.Hybrid}
	if err := lad.Replay(7, op, `"oak"`); err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for i, s := range tr.Spans {
		count[s.Layer]++
		if s.OpID != 7 || s.EndNS < s.StartNS {
			t.Errorf("span %d: %+v", i, s)
		}
		switch {
		case s.Layer == LayerDocument && tr.Spans[s.Parent].Layer != LayerColl:
			t.Errorf("document span under %q", tr.Spans[s.Parent].Layer)
		case s.Layer == LayerTopK+"hybrid" && tr.Spans[s.Parent].Layer != LayerDocument:
			t.Errorf("the top-K span of the algorithm that ran has parent %d", s.Parent)
		case strings.HasPrefix(s.Layer, LayerTopK) && s.Layer != LayerTopK+"hybrid" && s.Parent != -1:
			t.Errorf("%s did not run inside Document.Search but has a parent", s.Layer)
		}
	}
	want := map[string]int{
		LayerParse: 1, LayerColl: 1, LayerCollFanout: 1, LayerDocument: 2,
		LayerFullText: 2, LayerChain: 2, LayerPlan: 2, LayerPlanner: 2, LayerExec: 2, LayerSemiJoin: 2,
		LayerTopK + "dpo": 2, LayerTopK + "sso": 2, LayerTopK + "hybrid": 2,
	}
	if !reflect.DeepEqual(count, want) {
		t.Errorf("spans per layer %v, want %v", count, want)
	}
	if lad.Searches != 1 || lad.Counts.Answers == 0 || lad.SemiJoinNodes == 0 {
		t.Errorf("counters not filled: %+v", lad)
	}

	path := filepath.Join(t.TempDir(), "out", "spans.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back struct{ Spans []Span }
	if err := json.Unmarshal(raw, &back); err != nil || !reflect.DeepEqual(back.Spans, tr.Spans) {
		t.Errorf("spans did not survive the round trip: %v", err)
	}
}
