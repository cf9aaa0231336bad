package sim

import (
	"context"
	"sync"
)

// ParallelFor runs fn(i) for every i in [0, n) on up to workers
// goroutines, handing indices out in order. It runs the campaign engine's
// units (experiment.Runner): fn must write only to its own pre-indexed
// slot (ParallelFor provides no synchronisation beyond the completion
// barrier), and any randomness must come from a per-index stream derived
// with DeriveSeed — under those rules the result is bit-identical for
// every worker count, including the workers == 1 serial fast path.
//
// Cancellation is cooperative: once ctx is done no new index is handed
// out, every started fn still runs to completion, and ParallelFor returns
// ctx.Err(). It returns nil only when all n indices ran.
func ParallelFor(ctx context.Context, n, workers int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	var err error
feed:
	for i := 0; i < n; i++ {
		// Check ctx before offering: when a worker and cancellation are
		// both ready the select picks randomly, and a cancelled loop must
		// not start new work.
		if err = ctx.Err(); err != nil {
			break
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			err = ctx.Err()
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return err
}
