package load

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
	"streamorca/internal/vclock"
)

// OpenLoopConfig parameterises RunOpenLoop.
type OpenLoopConfig struct {
	// Injector receives the generated tuples.
	Injector *Injector
	// Make builds tuple i. Called sequentially from the driver
	// goroutine; the tuple's tsAttr is overwritten after Make returns.
	Make func(i int64) tuple.Tuple
	// TsAttr is the Timestamp attribute stamped with the intended send
	// instant (default "ts"). Must exist on Make's schema.
	TsAttr string
	// Rate is the offered rate in tuples/sec (required > 0).
	Rate float64
	// Duration is the schedule length; the driver offers
	// Rate*Duration tuples at instants start + i/Rate.
	Duration time.Duration
	// Stop aborts the run early when closed (optional).
	Stop <-chan struct{}
}

// ClosedLoopConfig parameterises RunClosedLoop.
type ClosedLoopConfig struct {
	Injector *Injector
	// Make builds tuple i. The driver serialises calls across users, so
	// seeded generators need no locking of their own.
	Make func(i int64) tuple.Tuple
	// TsAttr is the Timestamp attribute stamped at send (default "ts").
	TsAttr string
	// Users is the number of concurrent simulated users (required > 0).
	Users int
	// Think is each user's pause between its completed send and its
	// next one.
	Think time.Duration
	// Duration is how long users keep sending.
	Duration time.Duration
	// Stop aborts the run early when closed (optional).
	Stop <-chan struct{}
}

// Stats summarises a driver run.
type Stats struct {
	// Offered is the number of tuples pushed into the injector.
	Offered int64
	// Missed is the number of scheduled tuples abandoned because the
	// run was stopped or the grace budget ran out while back-pressured.
	Missed int64
	// Elapsed is the wall time from first to last push.
	Elapsed time.Duration
	// MaxBehind is the worst observed lag between a tuple's intended
	// send instant and the completion of its push — how far the
	// pipeline's back-pressure pushed the driver off schedule.
	MaxBehind time.Duration
}

// tsRefFor resolves the timestamp attribute on the first tuple's schema.
func tsRefFor(t tuple.Tuple, attr string) (tuple.FieldRef, error) {
	if attr == "" {
		attr = "ts"
	}
	return t.Schema().TypedRef(attr, tuple.Timestamp)
}

// stopOrDeadline returns a channel closed when parent closes or the
// deadline passes, plus a cleanup func.
func stopOrDeadline(parent <-chan struct{}, d time.Duration) (<-chan struct{}, func()) {
	done := make(chan struct{})
	var once sync.Once
	timer := vclock.Real().AfterFunc(d, func() { once.Do(func() { close(done) }) })
	quit := make(chan struct{})
	go func() {
		select {
		case <-parent:
			once.Do(func() { close(done) })
		case <-quit:
		}
	}()
	return done, func() { timer.Stop(); close(quit) }
}

// RunOpenLoop drives the injector at a constant offered rate,
// coordinated-omission-correctly: tuple i is stamped with its intended
// send instant start + i/Rate before the (possibly blocking) push, so
// the latency a downstream LatencySink records includes any time the
// tuple spent waiting behind a stalled pipeline. The driver never
// skips a scheduled tuple to catch up; it only abandons the remainder
// when the grace budget past the schedule end is exhausted.
func RunOpenLoop(cfg OpenLoopConfig) (Stats, error) {
	var st Stats
	if cfg.Injector == nil || cfg.Make == nil {
		return st, fmt.Errorf("load: open loop needs an Injector and a Make func")
	}
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return st, fmt.Errorf("load: open loop needs Rate > 0 and Duration > 0")
	}
	n := int64(cfg.Rate*cfg.Duration.Seconds() + 0.5)
	if n < 1 {
		n = 1
	}
	// The grace past the schedule end for pushing a back-pressured
	// backlog before giving up: Duration, at least 1s.
	grace := max(cfg.Duration, time.Second)
	stepNs := float64(time.Second) / cfg.Rate

	start := time.Now()
	done, cleanup := stopOrDeadline(cfg.Stop, cfg.Duration+grace)
	defer cleanup()

	var tsRef tuple.FieldRef
	for i := int64(0); i < n; i++ {
		intended := start.Add(time.Duration(float64(i) * stepNs))
		if !opapi.SleepUntil(vclock.Real(), intended, done) {
			st.Missed = n - i
			st.Elapsed = time.Since(start)
			return st, nil
		}
		t := cfg.Make(i)
		if !tsRef.Valid() {
			ref, err := tsRefFor(t, cfg.TsAttr)
			if err != nil {
				return st, fmt.Errorf("load: open loop: %w", err)
			}
			tsRef = ref
		}
		tsRef.SetTime(t, intended)
		if !cfg.Injector.Push(t, done) {
			st.Missed = n - i
			break
		}
		st.Offered++
		if behind := time.Since(intended); behind > st.MaxBehind {
			st.MaxBehind = behind
		}
	}
	st.Elapsed = time.Since(start)
	return st, nil
}

// RunClosedLoop simulates Users concurrent users: each sends a tuple
// (stamped with the actual send instant), waits for the push to be
// accepted, thinks for Think, and repeats until Duration elapses. The
// offered rate is bounded by Users/Think and throttles naturally under
// back-pressure — the classic closed-loop model the open-loop driver
// exists to correct for.
func RunClosedLoop(cfg ClosedLoopConfig) (Stats, error) {
	var st Stats
	if cfg.Injector == nil || cfg.Make == nil {
		return st, fmt.Errorf("load: closed loop needs an Injector and a Make func")
	}
	if cfg.Users <= 0 || cfg.Duration <= 0 {
		return st, fmt.Errorf("load: closed loop needs Users > 0 and Duration > 0")
	}

	start := time.Now()
	done, cleanup := stopOrDeadline(cfg.Stop, cfg.Duration)
	defer cleanup()

	var (
		seq     atomic.Int64
		offered atomic.Int64
		makeMu  sync.Mutex
		tsRef   tuple.FieldRef
		refErr  error
	)
	next := func() (tuple.Tuple, tuple.FieldRef, error) {
		makeMu.Lock()
		defer makeMu.Unlock()
		t := cfg.Make(seq.Add(1) - 1)
		if !tsRef.Valid() && refErr == nil {
			tsRef, refErr = tsRefFor(t, cfg.TsAttr)
		}
		return t, tsRef, refErr
	}

	var wg sync.WaitGroup
	for u := 0; u < cfg.Users; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				t, ref, err := next()
				if err != nil {
					return
				}
				ref.SetTime(t, time.Now())
				if !cfg.Injector.Push(t, done) {
					return
				}
				offered.Add(1)
				if !opapi.Sleep(vclock.Real(), cfg.Think, done) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if refErr != nil {
		return st, fmt.Errorf("load: closed loop: %w", refErr)
	}
	st.Offered = offered.Load()
	st.Elapsed = time.Since(start)
	return st, nil
}
