package eval

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/montecarlo"
)

func TestPolicyValidate(t *testing.T) {
	valid := []Policy{
		{},
		DefaultPolicy(),
		{Prune: true},
		{Stages: 8, Epsilon: 0.5, Gamma: 0.99},
		{MaxConcurrentEvals: 1},
	}
	for _, p := range valid {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", p, err)
		}
	}
	invalid := []Policy{
		{Stages: -1},
		{Epsilon: -0.1},
		{Gamma: -0.5},
		{Gamma: 1},
		{Gamma: 1.5},
		// Non-finite values fail no comparison, so they are named.
		{Epsilon: math.NaN()},
		{Epsilon: math.Inf(1)},
		{Epsilon: math.Inf(-1)},
		{Stages: 3, Epsilon: math.NaN()},
		{Gamma: math.NaN()},
		{Gamma: math.Inf(1)},
		{MaxConcurrentEvals: -1},
		{MaxConcurrentEvals: 2},
	}
	for _, p := range invalid {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", p)
		}
	}
	if !DefaultPolicy().Enabled() {
		t.Error("default policy must be enabled")
	}
	if (Policy{}).Enabled() {
		t.Error("zero policy must be disabled")
	}
	if g := (Policy{}).EffectiveGamma(); g != DefaultGamma {
		t.Errorf("EffectiveGamma of zero policy = %v, want %v", g, DefaultGamma)
	}
}

func TestStagePlan(t *testing.T) {
	cases := []struct {
		n, stages int
		want      []int
	}{
		{100, 3, []int{25, 50, 100}},
		{100, 1, []int{100}},
		{100, 0, []int{100}},
		{24, 3, []int{6, 12, 24}},
		{8, 4, []int{1, 2, 4, 8}},
		{3, 3, []int{1, 3}}, // 3>>1 == 1 == 3>>2: degenerate stages collapse
		{1, 4, []int{1}},
		{2, 2, []int{1, 2}},
		{0, 3, nil},
	}
	for _, c := range cases {
		got := StagePlan(c.n, c.stages)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("StagePlan(%d, %d) = %v, want %v", c.n, c.stages, got, c.want)
		}
	}
	// Invariants: strictly increasing, ends at n.
	for n := 1; n <= 40; n++ {
		for stages := 0; stages <= 6; stages++ {
			plan := StagePlan(n, stages)
			if plan[len(plan)-1] != n {
				t.Fatalf("StagePlan(%d, %d) does not end at n: %v", n, stages, plan)
			}
			for i := 1; i < len(plan); i++ {
				if plan[i] <= plan[i-1] {
					t.Fatalf("StagePlan(%d, %d) is not strictly increasing: %v", n, stages, plan)
				}
			}
		}
	}
}

func TestConfident(t *testing.T) {
	// σ=0: the half-width is zero, so any positive ε target is met.
	if !Confident(5, 0, 10, 0.95, 0.01) {
		t.Error("zero-variance sample must be confident")
	}
	// n=1 carries no variance information and must never stop early.
	if Confident(5, 0, 1, 0.95, 10) {
		t.Error("single-observation sample must not be confident")
	}
	// ε=0 disables the early stop.
	if Confident(5, 0, 10, 0.95, 0) {
		t.Error("epsilon=0 must disable the early stop")
	}
	// A tight sample passes, a loose one does not: half-width at γ=0.95 is
	// 1.96·σ/√n.
	if !Confident(100, 1, 100, 0.95, 0.01) { // half ≈ 0.196 ≤ 1
		t.Error("tight sample must be confident")
	}
	if Confident(100, 50, 100, 0.95, 0.01) { // half ≈ 9.8 > 1
		t.Error("loose sample must not be confident")
	}
}

func TestCacheEstimateRoundTrip(t *testing.T) {
	c := NewCache()
	if _, ok := c.Lookup("a", FullPrecision, math.Inf(1)); ok {
		t.Fatal("empty cache hit")
	}
	est := Evaluation{Value: 42, SamplesPlanned: 10, SamplesSolved: 10, Sample: montecarlo.NewSample([]float64{4, 5})}
	c.Store("a", FullPrecision, est)
	got, ok := c.Lookup("a", FullPrecision, math.Inf(1))
	if !ok || got.Value != 42 || got.Sample != nil {
		t.Fatalf("Lookup = %+v, %v; want the value without the sample", got, ok)
	}
	if !reflect.DeepEqual(got.Evaluation(), got) {
		t.Fatalf("Evaluation() = %+v, want the evaluation itself", got.Evaluation())
	}
	// Estimates hit regardless of the incumbent.
	if _, ok := c.Lookup("a", FullPrecision, 1); !ok {
		t.Fatal("estimate must hit under any incumbent")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheVariantIsolation(t *testing.T) {
	c := NewCache()
	// A coarse early-stopped estimate must not serve a caller that asked
	// for a different (more precise) variant...
	c.Store("a", "s3,e0.5,g0.95", Evaluation{Value: 40, EarlyStopped: true})
	if _, ok := c.Lookup("a", FullPrecision, math.Inf(1)); ok {
		t.Fatal("coarse estimate served to a full-precision caller")
	}
	if _, ok := c.Lookup("a", "s3,e0.1,g0.95", math.Inf(1)); ok {
		t.Fatal("coarse estimate served to a tighter-ε caller")
	}
	if got, ok := c.Lookup("a", "s3,e0.5,g0.95", math.Inf(1)); !ok || got.Value != 40 {
		t.Fatalf("same-variant lookup: %+v, %v", got, ok)
	}
	// ...while a full-precision estimate satisfies every variant.
	c.Store("b", FullPrecision, Evaluation{Value: 41})
	if got, ok := c.Lookup("b", "s3,e0.5,g0.95", math.Inf(1)); !ok || got.Value != 41 {
		t.Fatalf("full-precision estimate must satisfy any variant: %+v, %v", got, ok)
	}
}

func TestPolicyVariant(t *testing.T) {
	// No early stop (ε=0 or a single stage) always solves the full sample,
	// whatever the stage count.
	for _, p := range []Policy{{}, {Stages: 4}, {Stages: 1, Epsilon: 0.1}, {Prune: true, Cache: true}} {
		if v := p.variant(); v != FullPrecision {
			t.Errorf("variant(%+v) = %q, want %q", p, v, FullPrecision)
		}
	}
	a := Policy{Stages: 3, Epsilon: 0.1}
	b := Policy{Stages: 3, Epsilon: 0.5}
	if a.variant() == b.variant() {
		t.Error("different ε must fingerprint differently")
	}
	// Pruning and caching do not change estimate precision.
	withPrune := Policy{Stages: 3, Epsilon: 0.1, Prune: true, Cache: true}
	if a.variant() != withPrune.variant() {
		t.Error("prune/cache flags must not change the variant")
	}
	// An explicit γ equal to the default fingerprints like the default.
	if (Policy{Stages: 3, Epsilon: 0.1, Gamma: DefaultGamma}).variant() != a.variant() {
		t.Error("default γ must fingerprint like γ=0")
	}
}

func TestCacheBoundSemantics(t *testing.T) {
	c := NewCache()
	// A prune against 100 certifies F > 100.
	bound := Evaluation{Value: 100, Pruned: true}
	c.Store("p", FullPrecision, bound)
	// The bound proves the point worse than incumbents at or below it —
	// regardless of the caller's variant...
	for _, incumbent := range []float64{50, 100} {
		if got, ok := c.Lookup("p", "s3,e0.1,g0.95", incumbent); !ok || !got.Pruned || got.Value != 100 {
			t.Fatalf("bound should hit for incumbent %v: %+v, %v", incumbent, got, ok)
		}
	}
	// ...but proves nothing for incumbents above it.
	if _, ok := c.Lookup("p", FullPrecision, 200); ok {
		t.Fatal("bound must not hit for a larger incumbent")
	}
	// A stronger bound replaces a weaker one; a weaker one is ignored.
	c.Store("p", FullPrecision, Evaluation{Value: 150, Pruned: true})
	if got, _ := c.Lookup("p", FullPrecision, 120); got.Value != 150 {
		t.Fatalf("stronger bound not stored: %+v", got)
	}
	c.Store("p", FullPrecision, Evaluation{Value: 120, Pruned: true})
	if got, _ := c.Lookup("p", FullPrecision, 120); got.Value != 150 {
		t.Fatalf("weaker bound overwrote a stronger one: %+v", got)
	}
	// An estimate coexists with the bound and takes precedence; storing a
	// later bound never hides the estimate.
	c.Store("p", FullPrecision, Evaluation{Value: 130})
	if got, ok := c.Lookup("p", FullPrecision, math.Inf(1)); !ok || got.Value != 130 || got.Pruned {
		t.Fatalf("estimate not preferred over the bound: %+v, %v", got, ok)
	}
	c.Store("p", FullPrecision, Evaluation{Value: 500, Pruned: true})
	if got, _ := c.Lookup("p", FullPrecision, math.Inf(1)); got.Value != 130 || got.Pruned {
		t.Fatalf("bound hid an estimate: %+v", got)
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	c.Store("a", FullPrecision, Evaluation{Value: 1})
	if _, ok := c.Lookup("a", FullPrecision, math.Inf(1)); ok {
		t.Fatal("nil cache hit")
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
	if c.Len() != 0 {
		t.Fatal("nil cache length")
	}
}

// fakeBackend counts evaluations, returns scripted results and records the
// slot each evaluation was asked for.
type fakeBackend struct {
	calls    int
	result   Evaluation
	err      error
	nextSlot int
	used     []int
}

func (b *fakeBackend) ReserveEvalSlots(n int) int {
	first := b.nextSlot
	b.nextSlot += n
	return first
}

func (b *fakeBackend) EvaluateSlot(ctx context.Context, p decomp.Point, pol Policy, incumbent float64, slot int) (*Evaluation, error) {
	b.calls++
	b.used = append(b.used, slot)
	if b.err != nil {
		return nil, b.err
	}
	ev := b.result
	if ev.Pruned {
		ev.Value = incumbent // as a pdsat Scope reports a prune
	}
	return &ev, nil
}

func testPoint(t *testing.T) decomp.Point {
	t.Helper()
	return decomp.NewSpace([]cnf.Var{1, 2, 3}).FullPoint()
}

func TestEngineCachesAndNotifies(t *testing.T) {
	p := testPoint(t)
	backend := &fakeBackend{result: Evaluation{Value: 7}}
	eng := NewEngine(backend, Policy{Cache: true}, NewCache())
	var hits int
	eng.OnCacheHit = func(_ decomp.Point, ev Evaluation) { hits++ }

	ev, err := eng.EvaluateF(context.Background(), p, math.Inf(1))
	if err != nil || ev.Value != 7 || ev.CacheHit {
		t.Fatalf("first evaluation: %+v, %v", ev, err)
	}
	ev, err = eng.EvaluateF(context.Background(), p, math.Inf(1))
	if err != nil || !ev.CacheHit || ev.Value != 7 {
		t.Fatalf("second evaluation not served from cache: %+v, %v", ev, err)
	}
	if backend.calls != 1 {
		t.Fatalf("backend called %d times, want 1", backend.calls)
	}
	if hits != 1 {
		t.Fatalf("OnCacheHit fired %d times, want 1", hits)
	}
	if st := eng.CacheStats(); st.Hits != 1 || st.Size != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
}

func TestEngineCacheDisabledByPolicy(t *testing.T) {
	p := testPoint(t)
	backend := &fakeBackend{result: Evaluation{Value: 7}}
	// A shared cache is handed in, but the policy has Cache off.
	eng := NewEngine(backend, Policy{}, NewCache())
	for i := 0; i < 3; i++ {
		if _, err := eng.EvaluateF(context.Background(), p, math.Inf(1)); err != nil {
			t.Fatal(err)
		}
	}
	if backend.calls != 3 {
		t.Fatalf("backend called %d times, want 3 (cache must be off)", backend.calls)
	}
}

func TestEnginePrunedNotificationAndIncumbent(t *testing.T) {
	p := testPoint(t)
	backend := &fakeBackend{result: Evaluation{Pruned: true}}
	eng := NewEngine(backend, Policy{Prune: true, Cache: true}, NewCache())
	var prunes []Evaluation
	eng.OnPruned = func(_ decomp.Point, ev Evaluation) { prunes = append(prunes, ev) }

	ev, err := eng.EvaluateF(context.Background(), p, 50)
	if err != nil || !ev.Pruned {
		t.Fatalf("pruned evaluation: %+v, %v", ev, err)
	}
	if len(prunes) != 1 || prunes[0].Value != 50 {
		t.Fatalf("OnPruned notifications: %+v", prunes)
	}
	// The prune against 50 serves an equal or lower incumbent from the
	// cache, as F > 50 proves the point worse than either...
	for _, incumbent := range []float64{50, 40} {
		if ev, err := eng.EvaluateF(context.Background(), p, incumbent); err != nil || !ev.CacheHit || !ev.Pruned || ev.Value != 50 {
			t.Fatalf("bound not served for incumbent %v: %+v, %v", incumbent, ev, err)
		}
	}
	// ...but a higher incumbent needs a fresh evaluation.
	if _, err := eng.EvaluateF(context.Background(), p, 95); err != nil {
		t.Fatal(err)
	}
	if backend.calls != 2 {
		t.Fatalf("backend called %d times, want 2", backend.calls)
	}
}

func TestEngineDoesNotCacheErrors(t *testing.T) {
	p := testPoint(t)
	backend := &fakeBackend{err: errors.New("boom")}
	eng := NewEngine(backend, Policy{Cache: true}, NewCache())
	if _, err := eng.EvaluateF(context.Background(), p, math.Inf(1)); err == nil {
		t.Fatal("error not propagated")
	}
	backend.err = nil
	backend.result = Evaluation{Value: 3}
	ev, err := eng.EvaluateF(context.Background(), p, math.Inf(1))
	if err != nil || ev.CacheHit || ev.Value != 3 {
		t.Fatalf("retry after error: %+v, %v", ev, err)
	}
	if backend.calls != 2 {
		t.Fatalf("backend called %d times, want 2", backend.calls)
	}
}

// TestEngineEvaluateSlotF: the engine hands the slot it is given to its
// backend's one evaluation method — a reserved slot as is, and EvaluateF's
// "next slot" as a negative one — and a cache hit burns the slot unused.
func TestEngineEvaluateSlotF(t *testing.T) {
	p := testPoint(t)
	backend := &fakeBackend{result: Evaluation{Value: 7}}
	eng := NewEngine(backend, Policy{Cache: true}, NewCache())

	first, ok := eng.ReserveSlots(3)
	if !ok || first != 0 {
		t.Fatalf("ReserveSlots = (%d, %v), want (0, true)", first, ok)
	}
	ev, err := eng.EvaluateSlotF(context.Background(), p, math.Inf(1), first+2)
	if err != nil || ev.Value != 7 || ev.CacheHit {
		t.Fatalf("slot evaluation: %+v, %v", ev, err)
	}
	// A second call is a cache hit: the backend is not consulted and the
	// slot is burned.
	ev, err = eng.EvaluateSlotF(context.Background(), p, math.Inf(1), first+1)
	if err != nil || !ev.CacheHit {
		t.Fatalf("second slot evaluation not served from cache: %+v, %v", ev, err)
	}
	if _, err := eng.EvaluateF(context.Background(), p.Flip(0), math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if want := []int{2, -1}; !reflect.DeepEqual(backend.used, want) || backend.calls != 2 {
		t.Fatalf("backend called %d times with slots %v, want %v", backend.calls, backend.used, want)
	}
}

// blockingBackend holds every evaluation until its context dies and then
// returns the context's error.
type blockingBackend struct{ calls int }

func (b *blockingBackend) ReserveEvalSlots(n int) int { return 0 }

func (b *blockingBackend) EvaluateSlot(ctx context.Context, p decomp.Point, pol Policy, incumbent float64, slot int) (*Evaluation, error) {
	b.calls++
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestFrontierParentCancellation: a search walks its frontier, the
// neighbours of the current point, one evaluation at a time and stops on the
// first context error.  Cancelling the parent context while an evaluation is
// blocked must unwind that evaluation with the context's error, so the walk
// ends after exactly one error and no later candidate reaches the backend;
// the cancelled evaluation is not cached.
func TestFrontierParentCancellation(t *testing.T) {
	p := testPoint(t)
	frontier := []decomp.Point{p.Flip(0), p.Flip(1), p.Flip(2)}
	backend := &blockingBackend{}
	cache := NewCache()
	eng := NewEngine(backend, Policy{Cache: true}, cache)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	var errs int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, q := range frontier {
			if _, err := eng.EvaluateF(ctx, q, math.Inf(1)); err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("evaluation error = %v, want context.Canceled", err)
				}
				errs++
				return // a search stops on its first context error
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("evaluation did not unwind after parent cancellation")
	}
	if errs != 1 || backend.calls != 1 {
		t.Fatalf("saw %d errors over %d backend calls, want exactly 1 of each", errs, backend.calls)
	}
	if cache.Len() != 0 {
		t.Fatalf("cache holds %d entries after a cancelled evaluation, want 0", cache.Len())
	}
}
