package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestKindNames pins the stable event vocabulary: every kind has a
// non-empty, unique dotted name, and the names that predate this
// package (the old FaultCounters keys) are preserved verbatim.
func TestKindNames(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(1); k < kindCount; k++ {
		name := k.Name()
		if name == "" || name == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	// Legacy FaultCounters keys: recorded chaos baselines depend on
	// these exact strings.
	legacy := map[Kind]string{
		ChaosDrop:            "chaos.drop",
		ChaosDelay:           "chaos.delay",
		ChaosDuplicate:       "chaos.duplicate",
		ChaosReorder:         "chaos.reorder",
		ChaosCrash:           "chaos.crash",
		ChaosPartition:       "chaos.partition",
		NashTimeout:          "nash.timeout",
		NashRetry:            "nash.retry",
		NashEjected:          "nash.ejected",
		NashTokenRegenerated: "nash.token.regenerated",
		NashTokenStale:       "nash.token.stale",
		LBMRetry:             "lbm.retry",
		LBMTimeout:           "lbm.timeout",
		LBMExcluded:          "lbm.excluded",
		LBMBadMsg:            "lbm.badmsg",
		LBMAgentError:        "lbm.agent.error",
	}
	for k, want := range legacy {
		if got := k.Name(); got != want {
			t.Errorf("kind %d named %q, want legacy name %q", k, got, want)
		}
	}
	if got := Kind(255).Name(); got != "unknown" {
		t.Errorf("out-of-range kind named %q", got)
	}
}

func TestEventCount(t *testing.T) {
	if got := (Event{}).Count(); got != 1 {
		t.Errorf("zero N counts as %d, want 1", got)
	}
	if got := (Event{N: 7}).Count(); got != 7 {
		t.Errorf("N=7 counts as %d", got)
	}
	if got := (Event{N: -3}).Count(); got != 1 {
		t.Errorf("negative N counts as %d, want 1", got)
	}
}

// recorder collects events for assertions.
type recorder struct{ events []Event }

func (r *recorder) Observe(e Event) { r.events = append(r.events, e) }

func TestMulti(t *testing.T) {
	if Multi() != nil {
		t.Error("empty Multi should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Error("all-nil Multi should be nil")
	}
	r := &recorder{}
	if got := Multi(nil, r); got != Observer(r) {
		t.Error("single-member Multi should unwrap to the member")
	}
	r2 := &recorder{}
	m := Multi(r, nil, r2)
	m.Observe(Event{Kind: DESArrival})
	if len(r.events) != 1 || len(r2.events) != 1 {
		t.Errorf("fan-out delivered %d/%d events, want 1/1", len(r.events), len(r2.events))
	}
}

func TestHelpersNilSafe(t *testing.T) {
	// Must not panic.
	Emit(nil, Event{Kind: DESArrival})
	Count(nil, DESArrival)
	CountN(nil, DESArrival, 3)

	r := &recorder{}
	Count(r, ChaosDrop)
	CountN(r, LBMRetry, 4)
	CountN(r, LBMRetry, 0) // dropped: no occurrences
	Emit(r, Event{Kind: DESFail, A: 2})
	if len(r.events) != 3 {
		t.Fatalf("recorded %d events, want 3", len(r.events))
	}
	if r.events[1].Count() != 4 {
		t.Errorf("CountN event counts %d, want 4", r.events[1].Count())
	}
}

func TestForkRep(t *testing.T) {
	r := &recorder{}
	if ForkRep(nil, 0) != nil {
		t.Error("forking nil should stay nil")
	}
	if got := ForkRep(r, 3); got != Observer(r) {
		t.Error("non-forker should be returned unchanged")
	}
	tr := NewTracer(&strings.Builder{})
	if f := ForkRep(tr, 1); f == Observer(tr) {
		t.Error("tracer fork should differ from the tracer")
	}
	// Multi forks member-wise: the tracer member forks, the recorder is
	// shared.
	m := Multi(r, tr)
	f := ForkRep(m, 2)
	if f == nil {
		t.Fatal("forked multi is nil")
	}
	f.Observe(Event{Kind: DESArrival})
	if len(r.events) != 1 {
		t.Errorf("shared member saw %d events, want 1", len(r.events))
	}
}

func TestRegistryCountsAndGauges(t *testing.T) {
	reg := NewRegistry()
	reg.Observe(Event{Kind: ChaosDrop})
	reg.Observe(Event{Kind: ChaosDrop})
	reg.Observe(Event{Kind: LBMRetry, N: 5})
	reg.Observe(Event{Kind: NashRound, Time: 3, V: 0.25})
	if got := reg.Get("chaos.drop"); got != 2 {
		t.Errorf("chaos.drop = %d, want 2", got)
	}
	if got := reg.Get("lbm.retry"); got != 5 {
		t.Errorf("lbm.retry = %d, want 5", got)
	}
	if got := reg.Get("nash.round"); got != 1 {
		t.Errorf("nash.round = %d, want 1", got)
	}
	if v, ok := reg.Gauge("nash.norm"); !ok || v != 0.25 {
		t.Errorf("nash.norm gauge = %g,%v, want 0.25,true", v, ok)
	}
	if _, ok := reg.Gauge("fw.gap"); ok {
		t.Error("fw.gap gauge set without any FW event")
	}
}

// TestRegistryCounterSnapshot pins the counter exposition chaos
// artifacts and CLI dumps depend on: a snapshot sorted by name, the
// "name=value" line, and "(no events)" for a registry that counted
// nothing.
func TestRegistryCounterSnapshot(t *testing.T) {
	reg := NewRegistry()
	if reg.Snapshot() != nil || reg.String() != "(no events)" {
		t.Errorf("empty registry: snapshot %v, String() %q", reg.Snapshot(), reg.String())
	}
	reg.Observe(Event{Kind: LBMRetry, N: 5})
	reg.Observe(Event{Kind: ChaosDrop})
	reg.Observe(Event{Kind: ChaosDrop, N: 2})
	want := []Counter{{"chaos.drop", 3}, {"lbm.retry", 5}}
	snap := reg.Snapshot()
	if len(snap) != len(want) {
		t.Fatalf("snapshot %v, want %v", snap, want)
	}
	for i := range want {
		if snap[i] != want[i] {
			t.Errorf("snapshot[%d] = %v, want %v", i, snap[i], want[i])
		}
	}
	if s := reg.String(); s != "chaos.drop=3 lbm.retry=5" {
		t.Errorf("String() = %q", s)
	}
}

func TestRegistryConcurrentCounts(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 1000; k++ {
				reg.Observe(Event{Kind: ChaosDrop})
			}
		}()
	}
	wg.Wait()
	if got := reg.Get("chaos.drop"); got != 8000 {
		t.Errorf("chaos.drop = %d, want 8000", got)
	}
}

// TestRegistryCounterEqual compares registries on their counters
// alone: equal counts are equal, one extra event is not.
func TestRegistryCounterEqual(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Observe(Event{Kind: ChaosDrop, N: 2})
	b.Observe(Event{Kind: ChaosDrop, N: 2})
	if !a.Equal(b) {
		t.Error("identical counter sets unequal")
	}
	b.Observe(Event{Kind: LBMRetry})
	if a.Equal(b) {
		t.Error("different counter sets equal")
	}
}

// TestRegistryCounterNilSafe pins the counter side of a nil registry:
// counting is a no-op, reads are zero, the line is "(no events)", and
// it equals both a nil and an empty registry.
func TestRegistryCounterNilSafe(t *testing.T) {
	var reg *Registry
	reg.Observe(Event{Kind: ChaosDrop}) // must not panic
	reg.Observe(Event{Kind: ChaosDrop, N: 7})
	if reg.Get("chaos.drop") != 0 {
		t.Error("nil registry returned a count")
	}
	if reg.Snapshot() != nil {
		t.Error("nil registry returned a snapshot")
	}
	if s := reg.String(); s != "(no events)" {
		t.Errorf("String() = %q", s)
	}
	if !reg.Equal(nil) || !reg.Equal(NewRegistry()) {
		t.Error("nil and empty registries must compare equal")
	}
}

func TestRegistryHistogram(t *testing.T) {
	reg := NewRegistry()
	for _, rt := range []float64{0.05, 0.1, 0.2, 0.4} {
		reg.Observe(Event{Kind: DESDeparture, V: rt})
	}
	s, ok := reg.Histogram("des.response_time")
	if !ok {
		t.Fatal("departure events did not create the response-time histogram")
	}
	if s.N != 4 {
		t.Errorf("histogram holds %d observations, want 4", s.N)
	}
	if m := s.Mean(); m < 0.18 || m > 0.20 {
		t.Errorf("histogram mean %g, want 0.1875", m)
	}
}

func TestRegistryEqualAndString(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	for _, reg := range []*Registry{a, b} {
		reg.Observe(Event{Kind: ChaosCrash})
		reg.Observe(Event{Kind: DESDeparture, V: 0.1})
		reg.Observe(Event{Kind: NashRound, V: 0.5})
	}
	if !a.Equal(b) {
		t.Error("identically-fed registries differ")
	}
	b.Observe(Event{Kind: ChaosCrash})
	if a.Equal(b) {
		t.Error("differently-fed registries compare equal")
	}
	out := a.String()
	for _, want := range []string{"chaos.crash=1", "nash.norm=0.5", "des.response_time: n=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() = %q missing %q", out, want)
		}
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var reg *Registry
	reg.Observe(Event{Kind: ChaosDrop}) // must not panic
	reg.SetGauge("x", 1)
	reg.ObserveLatency("x", 1)
	if reg.Get("chaos.drop") != 0 {
		t.Error("nil registry reads nonzero")
	}
	if _, ok := reg.Gauge("x"); ok {
		t.Error("nil registry holds a gauge")
	}
	if _, ok := reg.Histogram("x"); ok {
		t.Error("nil registry holds a histogram")
	}
	if reg.Snapshot() != nil {
		t.Error("nil registry snapshot not nil")
	}
	if reg.String() != "(no events)" {
		t.Errorf("nil registry String() = %q", reg.String())
	}
	other := NewRegistry()
	if !reg.Equal((*Registry)(nil)) {
		t.Error("nil registries should be equal")
	}
	if !reg.Equal(other) || !other.Equal(reg) {
		t.Error("nil and empty registries should be equal")
	}
}
