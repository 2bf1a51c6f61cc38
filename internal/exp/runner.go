package exp

import (
	"fmt"
	"runtime"
	"sync"
)

// parallel runs jobs concurrently on a bounded worker pool and returns when
// all have finished. Jobs must be independent (each owns its own engine).
//
// A panicking job must not deadlock the pool or vanish into a dead
// goroutine: every job runs under recover, the remaining jobs are drained
// normally, and after all workers exit the first captured panic is re-raised
// on the caller's goroutine, wrapped with the index of the job that died.
// Later panics (possible: workers run concurrently) are dropped — one
// failure is enough to kill the experiment, and the first is the one a
// stack-reading human wants.
func parallel(workers int, jobs []func()) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	type caught struct {
		job int
		val any
	}
	var (
		mu    sync.Mutex
		first *caught
	)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if first == nil {
					first = &caught{job: i, val: r}
				}
				mu.Unlock()
			}
		}()
		jobs[i]()
	}

	if workers <= 1 {
		for i := range jobs {
			run(i)
		}
	} else {
		ch := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for i := 0; i < workers; i++ {
			go func() {
				defer wg.Done()
				for j := range ch {
					run(j)
				}
			}()
		}
		for i := range jobs {
			ch <- i
		}
		close(ch)
		wg.Wait()
	}
	if first != nil {
		panic(fmt.Sprintf("exp: job %d panicked: %v", first.job, first.val))
	}
}

// sweep runs fn(0..n-1) on the worker pool and returns the results in index
// order, or the lowest-indexed error. Each job writes only its own slot, so
// collecting needs no mutex and no map, and the outcome never depends on
// completion order.
func sweep[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	outs := make([]T, n)
	errs := make([]error, n)
	jobs := make([]func(), n)
	for i := range jobs {
		i := i
		jobs[i] = func() { outs[i], errs[i] = fn(i) }
	}
	parallel(workers, jobs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}
