package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"resourcecentral/internal/obs"
	"resourcecentral/internal/trace"
)

// SweepOptions tunes RunSweep.
type SweepOptions struct {
	// Workers caps concurrent simulation runs; <= 0 uses GOMAXPROCS.
	Workers int
	// CollectObs gives every point without a registry its own, and merges
	// all per-point registries into SweepResult.Metrics.
	CollectObs bool
}

// SweepResult is the outcome of one sweep.
type SweepResult struct {
	// Results holds one entry per input config, in input order; entries
	// whose run failed are nil (and the error is reported by RunSweep).
	Results []*Result
	// Metrics is the merged snapshot of every per-point registry (nil
	// unless CollectObs was set or configs carried registries).
	Metrics []obs.Family
}

// RunSweep replays the trace against every config concurrently — the
// Fig. 11 policy grid and the sensitivity studies are embarrassingly
// parallel, since each point simulates a fresh cluster. Points missing a
// RunLabel get "point<i>" so their metrics stay distinguishable after the
// merge. Run errors don't abort the sweep; they are joined into the
// returned error while the remaining points complete. The initial-wave
// sizes and the contribution arena are built once, before any point
// starts, and shared read-only across all points.
func RunSweep(tr *trace.Trace, cfgs []Config, opt SweepOptions) (*SweepResult, error) {
	if len(tr.VMs) == 0 {
		return runSweepPoints(cfgs, opt, func(Config) (*Result, error) {
			return nil, errors.New("sim: empty trace")
		})
	}
	src := newRowSource(tr) // stateless per run; safe to share across points
	ar := newArena(src, cfgs, opt.Workers)
	return runSweepPoints(cfgs, opt, func(cfg Config) (*Result, error) {
		return runSource(src, cfg, ar)
	})
}

// RunSweepColumns is RunSweep over a columnar trace: every point runs
// RunColumns against the shared chunks, with the wave sizes and the
// contribution arena built once per sweep. Each point gets its own
// arrival pool (the pool is the only per-run state), so points stay
// independent while the underlying columns are shared read-only.
func RunSweepColumns(c *trace.Columns, cfgs []Config, opt SweepOptions) (*SweepResult, error) {
	if c.Len() == 0 {
		return runSweepPoints(cfgs, opt, func(Config) (*Result, error) {
			return nil, errors.New("sim: empty trace")
		})
	}
	waves := countInitialWavesColumns(c)
	ar := newArena(newColSource(c, waves), cfgs, opt.Workers)
	return runSweepPoints(cfgs, opt, func(cfg Config) (*Result, error) {
		return runSource(newColSource(c, waves), cfg, ar)
	})
}

// runSweepPoints is the sweep scaffolding shared by the row and
// columnar entry points: label/registry defaulting, the worker pool
// over points, and the deterministic metric merge. runOne executes a
// single point and must be safe for concurrent calls.
func runSweepPoints(cfgs []Config, opt SweepOptions, runOne func(Config) (*Result, error)) (*SweepResult, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}

	points := make([]Config, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.RunLabel == "" {
			cfg.RunLabel = fmt.Sprintf("point%d", i)
		}
		if cfg.Obs == nil && opt.CollectObs {
			cfg.Obs = obs.NewRegistry()
		}
		points[i] = cfg
	}

	res := &SweepResult{Results: make([]*Result, len(points))}
	errs := make([]error, len(points))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(points) {
					return
				}
				r, err := runOne(points[i])
				if err != nil {
					errs[i] = fmt.Errorf("sweep point %q: %w", points[i].RunLabel, err)
					continue
				}
				res.Results[i] = r
			}
		}()
	}
	wg.Wait()

	// Merge per-point registries in point order so the snapshot is
	// deterministic; a registry shared by several points contributes once.
	var snaps [][]obs.Family
	seen := map[*obs.Registry]bool{}
	for _, cfg := range points {
		if cfg.Obs == nil || seen[cfg.Obs] {
			continue
		}
		seen[cfg.Obs] = true
		snaps = append(snaps, cfg.Obs.Gather())
	}
	merged, err := obs.MergeFamilies(snaps...)
	if err != nil {
		errs = append(errs, err)
	}
	res.Metrics = merged
	return res, errors.Join(errs...)
}
