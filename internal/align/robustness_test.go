package align

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adg"
)

// panicSrc is a well-formed program whose alignment panics in the cost
// machinery: the inner loop's symbolic bounds with a non-dividing step
// defeat the closed-form communication-volume sum (adg.sumLevel), which
// panics rather than guess. Parsing and graph construction succeed, so
// the panic fires mid-solve — exactly the shape the per-slot recover
// boundary exists for.
const panicSrc = `real A(100)
do i = 1, 10
  do k = i, i+9, 2
    A(k:k+1) = A(k:k+1) * 2
  enddo
enddo
`

// TestCacheDoPanicCleanup pins satellite 1 on both tiers: a leader
// whose compute panics must still clean up its flight (deferred) so
// future callers for the key compute fresh instead of blocking forever,
// and a waiter joined to the doomed flight gets an error, not a hang.
func TestCacheDoPanicCleanup(t *testing.T) {
	for _, leg := range tierLegs {
		t.Run(leg.name, func(t *testing.T) {
			c := NewCache(8)
			ctx := context.Background()
			doomed := shardKey(0, "doomed")

			entered := make(chan struct{})
			type outcome struct {
				owned bool
				err   error
			}
			waiter := make(chan outcome, 1)
			go func() {
				<-entered
				_, owned, err := leg.do(c, ctx, doomed, func() (*Result, error) {
					// Legitimate if this waiter arrived only after the
					// panicked flight was cleaned up: it leads a fresh
					// flight.
					return &Result{}, nil
				})
				waiter <- outcome{owned, err}
			}()

			func() {
				defer func() {
					if recover() == nil {
						t.Error("leader's panic was swallowed by the tier")
					}
				}()
				leg.do(c, ctx, doomed, func() (*Result, error) {
					close(entered)
					time.Sleep(50 * time.Millisecond) // let the waiter join the flight
					panic("compute exploded")
				})
			}()

			select {
			case o := <-waiter:
				// Joined the doomed flight → synthesized error; or
				// arrived after cleanup → led its own successful flight.
				// Both prove no hang.
				if o.err == nil && !o.owned {
					t.Errorf("waiter on a panicked flight reported success it never computed")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("waiter still blocked after the leader panicked: flight not cleaned up")
			}

			// The key must be retryable: a fresh caller runs its own
			// compute.
			done := make(chan struct{})
			go func() {
				defer close(done)
				res, _, err := leg.do(c, ctx, doomed, func() (*Result, error) {
					return &Result{}, nil
				})
				if err != nil || res == nil {
					t.Errorf("retry after panic: res=%v err=%v", res, err)
				}
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("retry after panicked flight blocked: stale flight entry")
			}
		})
	}
}

// TestCacheDoWaiterCancel checks on both tiers that a waiter whose own
// context dies abandons the flight without poisoning the leader: the
// waiter returns its ctx error promptly while the leader completes,
// caches, and serves later callers normally.
func TestCacheDoWaiterCancel(t *testing.T) {
	for _, leg := range tierLegs {
		t.Run(leg.name, func(t *testing.T) {
			c := NewCache(8)
			slow := shardKey(0, "slow")
			entered := make(chan struct{})
			release := make(chan struct{})
			want := &Result{}

			leaderDone := make(chan error, 1)
			go func() {
				_, _, err := leg.do(c, context.Background(), slow, func() (*Result, error) {
					close(entered)
					<-release
					return want, nil
				})
				leaderDone <- err
			}()
			<-entered

			wctx, cancel := context.WithCancel(context.Background())
			waiterDone := make(chan error, 1)
			go func() {
				_, _, err := leg.do(c, wctx, slow, func() (*Result, error) {
					t.Error("canceled waiter ran compute")
					return nil, nil
				})
				waiterDone <- err
			}()
			cancel()
			select {
			case err := <-waiterDone:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("abandoning waiter: err = %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("canceled waiter did not abandon the flight")
			}

			close(release)
			if err := <-leaderDone; err != nil {
				t.Fatalf("leader poisoned by abandoning waiter: %v", err)
			}
			if got := leg.get(c, slow); got != want {
				t.Error("leader's result not cached after a waiter abandoned")
			}
		})
	}
}

// TestCacheStrictCapacity pins satellite 3 on both tiers:
// NewCache(capacity) admits at most capacity entries per tier in total
// — the bound is enforced globally (the old per-shard ceil rounding let
// NewCache(1) hold one entry per shard, 16 total) — while a working set
// no larger than the capacity is never evicted, however unevenly it
// hashes across shards.
func TestCacheStrictCapacity(t *testing.T) {
	for _, leg := range tierLegs {
		t.Run(leg.name, func(t *testing.T) {
			res := &Result{}
			fill := func(c *Cache, k SourceKey) {
				if _, _, err := leg.do(c, context.Background(), k, func() (*Result, error) { return res, nil }); err != nil {
					t.Fatal(err)
				}
			}
			for _, capacity := range []int{1, 2, 5, cacheShards, cacheShards + 3, 100} {
				c := NewCache(capacity)
				// Overfill with keys spread across every shard.
				for i := 0; i < 4*cacheShards; i++ {
					fill(c, shardKey(i%cacheShards, fmt.Sprint(i)))
				}
				if got := leg.len(c); got > capacity {
					t.Errorf("NewCache(%d) holds %d entries after overfill, want <= %d",
						capacity, got, capacity)
				}
				// A working set of exactly capacity keys survives in
				// full even when every key hashes into the same shard:
				// the bound is global, not a per-shard quota.
				c = NewCache(capacity)
				for i := 0; i < capacity; i++ {
					fill(c, shardKey(0, fmt.Sprint(i)))
				}
				if got := leg.len(c); got != capacity {
					t.Errorf("NewCache(%d) evicted a fitting same-shard working set: Len = %d",
						capacity, got)
				}
				for i := 0; i < capacity; i++ {
					if leg.get(c, shardKey(0, fmt.Sprint(i))) == nil {
						t.Errorf("NewCache(%d): same-shard key %d evicted below capacity", capacity, i)
						break
					}
				}
			}
		})
	}
}

// TestSchedulerPanicReleasesBudget pins satellite 2: a job that panics
// under Map still returns its lease to the budget (release is deferred),
// so a shared scheduler keeps its full Workers() capacity afterwards.
func TestSchedulerPanicReleasesBudget(t *testing.T) {
	s := NewScheduler(1) // single-runner path: the panic unwinds to us
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("job panic did not propagate")
			}
		}()
		s.Map(1, func(i, lease int) { panic("job exploded") })
	}()
	s.mu.Lock()
	avail := s.avail
	s.mu.Unlock()
	if avail != s.Workers() {
		t.Fatalf("after panicked job: avail = %d, want full budget %d", avail, s.Workers())
	}
	// The scheduler must still run a full batch without deadlocking on a
	// leaked lease.
	var ran atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Map(4, func(i, lease int) { ran.Add(1) })
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Map deadlocked after a panicked job: lease leaked")
	}
	if ran.Load() != 4 {
		t.Errorf("follow-up batch ran %d jobs, want 4", ran.Load())
	}
}

// TestSchedulerMapContextCancel checks both cancellation points of
// MapContext: a pre-canceled context dispatches nothing, and a context
// canceled mid-batch stops further dispatch while a waiter blocked on
// budget is woken to give up.
func TestSchedulerMapContextCancel(t *testing.T) {
	s := NewScheduler(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	if err := s.MapContext(ctx, 8, func(i, lease int) { ran++ }); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled MapContext: err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("pre-canceled MapContext dispatched %d jobs, want 0", ran)
	}

	// Mid-batch: job 0 cancels; with budget 1 the dispatch is serial, so
	// no later index may run.
	s1 := NewScheduler(1)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var count atomic.Int64
	err := s1.MapContext(ctx2, 4, func(i, lease int) {
		count.Add(1)
		cancel2()
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("mid-batch cancel: err = %v, want context.Canceled", err)
	}
	if n := count.Load(); n != 1 {
		t.Errorf("jobs dispatched after cancellation: ran %d, want 1", n)
	}

	// Waiter blocked on budget gives up when its context dies: hold the
	// whole budget, then cancel the blocked MapContext.
	hold := NewScheduler(1)
	holding := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hold.Map(1, func(i, lease int) {
			close(holding)
			<-release
		})
	}()
	<-holding
	ctx3, cancel3 := context.WithCancel(context.Background())
	blocked := make(chan error, 1)
	go func() {
		blocked <- hold.MapContext(ctx3, 1, func(i, lease int) {
			t.Error("job ran despite canceled wait for budget")
		})
	}()
	cancel3()
	select {
	case err := <-blocked:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled budget waiter: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("budget waiter not woken by cancellation")
	}
	close(release)
	wg.Wait()
}

// TestAlignBatchPanicIsolation pins satellite 4 at the library layer: a
// batch containing one program that panics mid-solve reports a
// *PanicError for that slot only, and every other slot's result is
// byte-identical to a solo solve of the same program — at one worker
// and at eight.
func TestAlignBatchPanicIsolation(t *testing.T) {
	srcs := []string{fig1, panicSrc, fig1, fig1}
	const bad = 1
	for _, workers := range []int{1, 8} {
		graphs := make([]*adg.Graph, len(srcs))
		for i, src := range srcs {
			graphs[i] = mustGraph(t, src)
		}
		results, errs := AlignBatch(graphs, Options{}, BatchOptions{Workers: workers})
		for i := range srcs {
			if i == bad {
				var pe *PanicError
				if !errors.As(errs[i], &pe) {
					t.Fatalf("workers=%d slot %d: err = %v, want *PanicError", workers, i, errs[i])
				}
				if pe.Label == "" || pe.Value == nil {
					t.Errorf("workers=%d: PanicError missing label/value: %+v", workers, pe)
				}
				continue
			}
			if errs[i] != nil {
				t.Fatalf("workers=%d slot %d: unexpected error %v", workers, i, errs[i])
			}
			solo, err := Align(mustGraph(t, srcs[i]), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := results[i].Assignment.String(), solo.Assignment.String(); got != want {
				t.Errorf("workers=%d slot %d: assignment diverged from solo solve\ngot:  %s\nwant: %s",
					workers, i, got, want)
			}
			if results[i].Offset.Exact != solo.Offset.Exact {
				t.Errorf("workers=%d slot %d: exact cost %d, solo %d",
					workers, i, results[i].Offset.Exact, solo.Offset.Exact)
			}
		}
	}
}

// TestAlignBatchCancelFast checks the acceptance bound: an
// already-canceled context makes AlignBatchContext return well under
// 100ms with context.Canceled in every unstarted slot.
func TestAlignBatchCancelFast(t *testing.T) {
	graphs := make([]*adg.Graph, 32)
	for i := range graphs {
		graphs[i] = mustGraph(t, fig1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	results, errs := AlignBatchContext(ctx, graphs, Options{}, BatchOptions{Workers: 4})
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("canceled batch took %v, want < 100ms", d)
	}
	for i := range graphs {
		if results[i] != nil {
			t.Errorf("slot %d has a result despite pre-canceled context", i)
		}
		if !errors.Is(errs[i], context.Canceled) {
			t.Errorf("slot %d: err = %v, want context.Canceled", i, errs[i])
		}
	}
}

// TestAlignBatchSolveTimeoutCancel checks per-slot deadlines: a
// SolveTimeout that cannot be met fails each slot with an error
// wrapping context.DeadlineExceeded, while the same batch without the
// timeout succeeds.
func TestAlignBatchSolveTimeoutCancel(t *testing.T) {
	graphs := []*adg.Graph{mustGraph(t, fig1), mustGraph(t, fig1)}
	_, errs := AlignBatch(graphs, Options{}, BatchOptions{Workers: 2, SolveTimeout: time.Nanosecond})
	for i, err := range errs {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("slot %d with 1ns timeout: err = %v, want DeadlineExceeded", i, err)
		}
	}
	_, errs = AlignBatch(graphs, Options{}, BatchOptions{Workers: 2, SolveTimeout: time.Minute})
	for i, err := range errs {
		if err != nil {
			t.Errorf("slot %d with generous timeout: %v", i, err)
		}
	}
}

// TestAlignContextCancelNoPartialResult checks the determinism
// invariant under cancellation: a canceled solve returns an error, never
// a partially optimized result presented as success.
func TestAlignContextCancelNoPartialResult(t *testing.T) {
	g := mustGraph(t, fig1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AlignContext(ctx, g, Options{})
	if err == nil {
		t.Fatal("canceled AlignContext returned success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("canceled AlignContext returned a non-nil result")
	}
}
