package eval

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
)

func TestBoundLowerMonotonic(t *testing.T) {
	b := NewBound(math.Inf(1))
	if got := b.Get(); !math.IsInf(got, 1) {
		t.Fatalf("fresh bound = %v, want +Inf", got)
	}
	if !b.Lower(10) || b.Get() != 10 {
		t.Fatalf("lowering to 10 failed, bound = %v", b.Get())
	}
	if b.Lower(12) {
		t.Fatal("raising the bound succeeded")
	}
	if b.Lower(math.NaN()) {
		t.Fatal("NaN lowered the bound")
	}
	if !b.Lower(3) || b.Get() != 3 {
		t.Fatalf("lowering to 3 failed, bound = %v", b.Get())
	}
}

func TestBoundConcurrentLowering(t *testing.T) {
	b := NewBound(math.Inf(1))
	var wg sync.WaitGroup
	for i := 1; i <= 64; i++ {
		wg.Add(1)
		go func(v float64) {
			defer wg.Done()
			b.Lower(v)
		}(float64(i))
	}
	wg.Wait()
	if b.Get() != 1 {
		t.Fatalf("bound after concurrent lowering = %v, want 1", b.Get())
	}
}

func TestLiveBoundContext(t *testing.T) {
	if LiveBoundFrom(context.Background()) != nil {
		t.Fatal("bound found in a bare context")
	}
	b := NewBound(5)
	ctx := WithLiveBound(context.Background(), b)
	if LiveBoundFrom(ctx) != b {
		t.Fatal("attached bound not recovered")
	}
	if WithLiveBound(context.Background(), nil) != context.Background() {
		t.Fatal("nil bound changed the context")
	}
}

// frontierPoints builds n distinct candidate points.
func frontierPoints(t testing.TB, n int) []decomp.Point {
	t.Helper()
	vars := make([]cnf.Var, n+2)
	for i := range vars {
		vars[i] = cnf.Var(i + 1)
	}
	full := decomp.NewSpace(vars).FullPoint()
	pts := make([]decomp.Point, n)
	for i := range pts {
		pts[i] = full.Flip(i)
	}
	return pts
}

// gateEvaluator is an Evaluator whose evaluations block until a
// controller releases them, so tests dictate the completion order exactly.
// With prune set, a released evaluation whose scripted cost exceeds the
// live bound returns a pruned lower-bound result, mimicking the real
// backend's incumbent pruning.
type gateEvaluator struct {
	costs map[string]float64
	prune bool

	mu       sync.Mutex
	nextSlot int
	slots    map[string]int           // point key -> slot the evaluation ran with
	live     bool                     // some evaluation ran with a live bound attached
	waiting  map[string]chan struct{} // registered, unreleased evaluations
	events   []string                 // release order actually observed
}

func newGateEvaluator(pts []decomp.Point, costs []float64, prune bool) *gateEvaluator {
	g := &gateEvaluator{
		costs:   make(map[string]float64, len(pts)),
		prune:   prune,
		slots:   make(map[string]int),
		waiting: make(map[string]chan struct{}),
	}
	for i, p := range pts {
		g.costs[p.Key()] = costs[i]
	}
	return g
}

func (g *gateEvaluator) ReserveSlots(n int) (int, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	first := g.nextSlot
	g.nextSlot += n
	return first, true
}

func (g *gateEvaluator) EvaluateSlotF(ctx context.Context, p decomp.Point, incumbent float64, slot int) (*Evaluation, error) {
	key := p.Key()
	ch := make(chan struct{})
	g.mu.Lock()
	g.slots[key] = slot
	g.live = g.live || LiveBoundFrom(ctx) != nil
	g.waiting[key] = ch
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.waiting, key)
		g.mu.Unlock()
	}()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-ch:
	}
	g.mu.Lock()
	g.events = append(g.events, key)
	g.mu.Unlock()
	cost := g.costs[key]
	if g.prune {
		bound := incumbent
		if b := LiveBoundFrom(ctx); b != nil {
			if v := b.Get(); v < bound {
				bound = v
			}
		}
		if cost > bound {
			return &Evaluation{Value: bound, LowerBound: bound, Pruned: true}, nil
		}
	}
	return &Evaluation{Value: cost}, nil
}

// control releases registered evaluations following the given preference
// order (earliest-preference registered candidate first), until stop is
// closed.  With a frontier narrower than the candidate count, a preferred
// candidate may not be in flight yet; the controller then releases the
// most-preferred one that is, which is exactly the adversarial scheduling
// the determinism tests need.
func (g *gateEvaluator) control(stop <-chan struct{}, prefer []string) {
	rank := make(map[string]int, len(prefer))
	for i, k := range prefer {
		rank[k] = i
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		g.mu.Lock()
		bestKey, bestRank := "", len(prefer)+1
		for k := range g.waiting {
			r, ok := rank[k]
			if !ok {
				r = len(prefer)
			}
			if r < bestRank {
				bestKey, bestRank = k, r
			}
		}
		if bestKey != "" {
			close(g.waiting[bestKey])
			delete(g.waiting, bestKey)
		}
		g.mu.Unlock()
		if bestKey == "" {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// reversed returns the keys of pts in reverse submission order — the most
// adversarial completion schedule for an in-order delivery contract.
func reversed(pts []decomp.Point) []string {
	keys := make([]string, len(pts))
	for i, p := range pts {
		keys[len(pts)-1-i] = p.Key()
	}
	return keys
}

func TestFrontierDeliversInSubmissionOrder(t *testing.T) {
	pts := frontierPoints(t, 6)
	costs := []float64{9, 7, 3, 8, 5, 6}
	g := newGateEvaluator(pts, costs, false)
	stop := make(chan struct{})
	defer close(stop)
	go g.control(stop, reversed(pts))

	bound := NewBound(math.Inf(1))
	var gotIdx []int
	var gotVal []float64
	NewFrontier(g, 3).Run(context.Background(), pts, bound, func(r FrontierResult) bool {
		if r.Err != nil {
			t.Errorf("candidate %d failed: %v", r.Index, r.Err)
			return true
		}
		gotIdx = append(gotIdx, r.Index)
		gotVal = append(gotVal, r.Eval.Value)
		return false
	})
	if len(gotIdx) != len(pts) {
		t.Fatalf("delivered %d results, want %d", len(gotIdx), len(pts))
	}
	for i := range gotIdx {
		if gotIdx[i] != i {
			t.Fatalf("delivery order %v, want submission order", gotIdx)
		}
		if gotVal[i] != costs[i] {
			t.Fatalf("candidate %d value %v, want %v", i, gotVal[i], costs[i])
		}
	}
	if bound.Get() != 3 {
		t.Fatalf("final bound %v, want the minimum cost 3", bound.Get())
	}
}

func TestFrontierStopCancelsInFlightSiblings(t *testing.T) {
	pts := frontierPoints(t, 8)
	costs := []float64{5, 1, 9, 9, 9, 9, 9, 9}
	g := newGateEvaluator(pts, costs, false)
	stop := make(chan struct{})
	defer close(stop)
	// Release in submission order so the stop decision lands while later
	// candidates are still in flight.
	keys := make([]string, len(pts))
	for i, p := range pts {
		keys[i] = p.Key()
	}
	go g.control(stop, keys)

	delivered := 0
	NewFrontier(g, 4).Run(context.Background(), pts, nil, func(r FrontierResult) bool {
		delivered++
		return r.Err == nil && r.Eval.Value == 1 // stop on the winner at index 1
	})
	if delivered != 2 {
		t.Fatalf("delivered %d results, want 2 (stop decided at index 1)", delivered)
	}
	// All released evaluations completed or were cancelled; nothing leaks.
	g.mu.Lock()
	waiting := len(g.waiting)
	g.mu.Unlock()
	if waiting != 0 {
		t.Fatalf("%d evaluations still waiting after Run returned", waiting)
	}
}

func TestFrontierReservesSlotsInSubmissionOrder(t *testing.T) {
	pts := frontierPoints(t, 5)
	costs := []float64{4, 4, 4, 4, 4}
	g := newGateEvaluator(pts, costs, false)
	stop := make(chan struct{})
	defer close(stop)
	go g.control(stop, reversed(pts))

	NewFrontier(g, 3).Run(context.Background(), pts, nil, func(r FrontierResult) bool { return false })
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, p := range pts {
		if got := g.slots[p.Key()]; got != i {
			t.Fatalf("candidate %d evaluated with slot %d, want %d (slots are reserved upfront in submission order)", i, got, i)
		}
	}
}

func TestFrontierWidthOneUsesSequentialPath(t *testing.T) {
	pts := frontierPoints(t, 4)
	costs := []float64{4, 3, 2, 1}
	g := newGateEvaluator(pts, costs, false)
	// No controller: the sequential path must not block on the gate —
	// release synchronously as registrations appear.
	stop := make(chan struct{})
	defer close(stop)
	keys := make([]string, len(pts))
	for i, p := range pts {
		keys[i] = p.Key()
	}
	go g.control(stop, keys)

	// Width is clamped to at least 1.
	if w := NewFrontier(g, 0).Width(); w != 1 {
		t.Fatalf("width 0 normalized to %d, want 1", w)
	}

	var order []int
	NewFrontier(g, 1).Run(context.Background(), pts, nil, func(r FrontierResult) bool {
		order = append(order, r.Index)
		return false
	})
	if len(order) != 4 {
		t.Fatalf("delivered %d results, want 4", len(order))
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range pts {
		if g.slots[p.Key()] != -1 {
			t.Fatal("width-1 path reserved slots; each evaluation must draw the next one")
		}
	}
	if g.nextSlot != 0 {
		t.Fatalf("width-1 path reserved %d slots upfront", g.nextSlot)
	}
	if g.live {
		t.Fatal("width-1 path attached a live bound; the incumbent argument is the whole bound")
	}
}

// winner returns the index and value of the first non-pruned minimum among
// in-order frontier results — the selection rule both search loops use.
func winner(results []FrontierResult) (int, float64) {
	bestIdx, bestVal := -1, math.Inf(1)
	for _, r := range results {
		if r.Err != nil || r.Eval == nil || r.Eval.Pruned {
			continue
		}
		if r.Eval.Value < bestVal {
			bestIdx, bestVal = r.Index, r.Eval.Value
		}
	}
	return bestIdx, bestVal
}

func TestFrontierWinnerIndependentOfCompletionOrder(t *testing.T) {
	pts := frontierPoints(t, 6)
	costs := []float64{9, 4, 7, 2, 8, 6}
	wantIdx, wantVal := 3, 2.0

	schedules := [][]string{
		reversed(pts),
		{pts[3].Key(), pts[0].Key(), pts[5].Key(), pts[1].Key(), pts[4].Key(), pts[2].Key()},
		{pts[4].Key(), pts[2].Key(), pts[0].Key(), pts[1].Key(), pts[5].Key(), pts[3].Key()},
	}
	for si, prefer := range schedules {
		g := newGateEvaluator(pts, costs, true) // pruning on: the adversarial case
		stop := make(chan struct{})
		go g.control(stop, prefer)

		var results []FrontierResult
		NewFrontier(g, 3).Run(context.Background(), pts, NewBound(math.Inf(1)), func(r FrontierResult) bool {
			results = append(results, r)
			return false
		})
		close(stop)

		gotIdx, gotVal := winner(results)
		if gotIdx != wantIdx || gotVal != wantVal {
			t.Fatalf("schedule %d: winner (%d, %v), want (%d, %v)", si, gotIdx, gotVal, wantIdx, wantVal)
		}
		// The minimum candidate must never be pruned, whatever completes
		// first — that is the heart of the determinism argument.
		for _, r := range results {
			if r.Index == wantIdx && (r.Eval == nil || r.Eval.Pruned) {
				t.Fatalf("schedule %d: the minimum-F candidate was pruned", si)
			}
		}
	}
}

func TestFrontierParentCancellation(t *testing.T) {
	pts := frontierPoints(t, 6)
	costs := []float64{5, 5, 5, 5, 5, 5}
	g := newGateEvaluator(pts, costs, false)
	// No controller at all: every evaluation blocks until the context dies.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	var errs int
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewFrontier(g, 3).Run(ctx, pts, nil, func(r FrontierResult) bool {
			if r.Err != nil {
				errs++
				return true // a search stops on its first context error
			}
			return false
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("frontier did not unwind after parent cancellation")
	}
	if errs != 1 {
		t.Fatalf("process saw %d errors, want exactly 1 (stop on first)", errs)
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
	// slot is deliberately burned.
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

// FuzzFrontierScheduling drives the frontier with fuzzer-chosen candidate
// costs, width and an adversarial completion schedule, and checks the
// determinism contract against the trivial sequential oracle: results
// arrive in submission order, non-pruned values equal the scripted costs,
// and the selected winner is the argmin of the cost vector no matter what
// completes when.
func FuzzFrontierScheduling(f *testing.F) {
	f.Add([]byte{6, 2, 9, 4, 7, 2, 8, 6, 0, 3, 1, 5, 2, 4})
	f.Add([]byte{3, 3, 1, 1, 1, 2, 1, 0})
	f.Add([]byte{8, 1, 200, 100, 50, 25, 12, 6, 3, 1, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[0])%7     // 2..8 candidates
		width := 1 + int(data[1])%4 // 1..4 in flight
		prune := data[2]%2 == 1
		rest := data[3:]
		costs := make([]float64, n)
		for i := range costs {
			b := byte(i)
			if i < len(rest) {
				b = rest[i]
			}
			costs[i] = float64(b%32) + 1
		}
		// Completion preference: a byte-derived priority per candidate.
		pts := frontierPoints(t, n)
		prefer := make([]string, n)
		type ranked struct {
			key  string
			rank int
		}
		byRank := make([]ranked, n)
		for i, p := range pts {
			r := i
			if n+i < len(rest) {
				r = int(rest[n+i])
			}
			byRank[i] = ranked{key: p.Key(), rank: r}
		}
		for i := 0; i < n; i++ {
			best := i
			for j := i + 1; j < n; j++ {
				if byRank[j].rank < byRank[best].rank {
					best = j
				}
			}
			byRank[i], byRank[best] = byRank[best], byRank[i]
			prefer[i] = byRank[i].key
		}

		// Sequential oracle: first index of the minimum cost.
		wantIdx, wantVal := 0, costs[0]
		for i, c := range costs {
			if c < wantVal {
				wantIdx, wantVal = i, c
			}
		}

		g := newGateEvaluator(pts, costs, prune)
		stop := make(chan struct{})
		go g.control(stop, prefer)
		var results []FrontierResult
		NewFrontier(g, width).Run(context.Background(), pts, NewBound(math.Inf(1)), func(r FrontierResult) bool {
			results = append(results, r)
			return false
		})
		close(stop)

		if len(results) != n {
			t.Fatalf("delivered %d results, want %d", len(results), n)
		}
		for i, r := range results {
			if r.Index != i {
				t.Fatalf("result %d has index %d: delivery must follow submission order", i, r.Index)
			}
			if r.Err != nil || r.Eval == nil {
				t.Fatalf("candidate %d failed: %v", i, r.Err)
			}
			if !r.Eval.Pruned && r.Eval.Value != costs[i] {
				t.Fatalf("candidate %d value %v, want %v", i, r.Eval.Value, costs[i])
			}
			if r.Eval.Pruned && !prune {
				t.Fatalf("candidate %d pruned with pruning off", i)
			}
		}
		gotIdx, gotVal := winner(results)
		if gotIdx != wantIdx || gotVal != wantVal {
			t.Fatalf("winner (%d, %v), want the sequential oracle's (%d, %v); costs=%v width=%d prune=%v",
				gotIdx, gotVal, wantIdx, wantVal, costs, width, prune)
		}
	})
}
