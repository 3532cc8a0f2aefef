package sim

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"resourcecentral/internal/cluster"
	"resourcecentral/internal/trace"
)

// edgeTrace is loadTrace plus two one-core VMs whose arena cursors are
// empty: one created inside the last interval of the window, and one
// deleted inside the first interval it would occupy.
func edgeTrace(t *testing.T) *trace.Trace {
	t.Helper()
	base := loadTrace(t)
	tr := &trace.Trace{Horizon: base.Horizon, VMs: append([]trace.VM(nil), base.VMs...)}
	var maxID int64
	for i := range tr.VMs {
		maxID = max(maxID, tr.VMs[i].ID)
	}
	mid := tr.Horizon / 2 / trace.ReadingIntervalMin * trace.ReadingIntervalMin
	edge := func(id int64, created, deleted trace.Minutes) trace.VM {
		v := tr.VMs[0]
		v.ID, v.Deployment = id, fmt.Sprintf("edge-%d", id)
		v.Cores, v.MemoryGB = 1, 1
		v.Created, v.Deleted = created, deleted
		return v
	}
	tr.VMs = append(tr.VMs,
		edge(maxID+1, tr.Horizon-2, trace.NoEnd), // aligns up to the horizon
		edge(maxID+2, mid+1, mid+8),              // [mid+5, mid+10) is not covered
	)
	sort.SliceStable(tr.VMs, func(i, j int) bool { return tr.VMs[i].Created < tr.VMs[j].Created })
	return tr
}

// The arena holds exactly the intervals a VM fully occupies; the two
// edge VMs get zero-length cursors, and placing them alone matches the
// matrix reference.
func TestArenaEdgeCursors(t *testing.T) {
	tr := edgeTrace(t)
	ar := newArena(newRowSource(tr), []Config{{}}, 2)
	c := ar.forConfig(Config{})
	edges := &trace.Trace{Horizon: tr.Horizon}
	for i := range tr.VMs {
		v := &tr.VMs[i]
		var want int
		for ts := alignUp(v.Created); ts+trace.ReadingIntervalMin <= min(v.Deleted, tr.Horizon); ts += trace.ReadingIntervalMin {
			want++
		}
		if got := len(c.of(i)); got != want {
			t.Fatalf("vm %d: %d contributions, want %d", v.ID, got, want)
		}
		if strings.HasPrefix(v.Deployment, "edge-") {
			edges.VMs = append(edges.VMs, *v)
			if want != 0 {
				t.Errorf("edge vm %d: %d contributions, want 0", v.ID, want)
			}
		}
	}
	if len(edges.VMs) != 2 {
		t.Fatalf("found %d edge VMs, want 2", len(edges.VMs))
	}
	cfg := Config{Cluster: clusterConfig(cluster.Baseline, 1)}
	got, err := Run(edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceRun(edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Placed != 2 || !reflect.DeepEqual(got, want) {
		t.Errorf("edge-only run:\n got %+v\nwant %+v (both placed)", got, want)
	}
}

// A mixed sweep through the shared arena must reproduce the matrix
// reference — which still evaluates UtilModel.At itself — field for
// field at every worker count, with two distinct UtilScales in one
// arena.
func TestSweepArenaMatchesMatrix(t *testing.T) {
	tr := edgeTrace(t)
	cols := trace.FromTrace(tr)
	const servers = 72
	cfgs := equivConfigs(tr, servers)
	if cfgs[4].UtilScale != 1.25 || cfgs[5].BucketShift != 1 || !cfgs[6].Cluster.LifetimeAware {
		t.Fatal("equivConfigs no longer covers the scaled, shifted and lifetime-aware points")
	}
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := referenceRun(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	for _, workers := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, err := RunSweepColumns(cols, cfgs, SweepOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i := range cfgs {
				if !reflect.DeepEqual(got.Results[i], want[i]) {
					t.Errorf("point %d (%v): arena result diverges from matrix reference:\n got %+v\nwant %+v",
						i, cfgs[i].Cluster.Policy, got.Results[i], want[i])
				}
			}
		})
	}
}
