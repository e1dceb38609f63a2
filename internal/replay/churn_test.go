package replay

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ibpower/internal/trace"
)

func identTerms(np int) []int {
	return offsetTerms(0, np)
}

// offsetTerms returns the contiguous terminal block [from, from+np).
func offsetTerms(from, np int) []int {
	terms := make([]int, np)
	for i := range terms {
		terms[i] = from + i
	}
	return terms
}

// batchTerms returns the terminals each job of the session's last admission
// ran on, in job order.
func batchTerms(c *Churn) [][]int {
	terms := make([][]int, len(c.e.jobs))
	for j, js := range c.e.jobs {
		for r := 0; r < js.np; r++ {
			terms[j] = append(terms[j], c.e.rk[js.base+r].term)
		}
	}
	return terms
}

// TestChurnSingleAdmissionMatchesRun proves the incremental session is the
// same simulation Run performs: one job admitted at time 0 must produce the
// exact Result, field for field.
func TestChurnSingleAdmissionMatchesRun(t *testing.T) {
	tr := genTrace(t, "alya", 8)
	cfg := DefaultConfig().WithPower(20*time.Microsecond, 0.01)

	want, err := RunSource(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.AdmitAt(0, Job{Trace: tr, Terminals: identTerms(tr.NP)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Errorf("churn admission at 0 diverged from Run:\n got %+v\nwant %+v", got[0], want)
	}
}

// TestChurnOffsetAdmission asserts a job admitted mid-timeline reports
// job-relative times and a power accounting window spanning exactly its own
// lifetime — not the epoch before it arrived.
func TestChurnOffsetAdmission(t *testing.T) {
	tr := genTrace(t, "gromacs", 8)
	cfg := DefaultConfig().WithPower(20*time.Microsecond, 0.01)

	base, err := RunSource(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const start = 3 * time.Second
	got, err := c.AdmitAt(start, Job{Trace: tr, Terminals: identTerms(tr.NP)})
	if err != nil {
		t.Fatal(err)
	}
	// An empty fabric at time `start` is indistinguishable from an empty
	// fabric at time 0, so the job-relative result must match bit for bit.
	if !reflect.DeepEqual(got[0], base) {
		t.Errorf("offset admission on an idle fabric diverged from Run:\n got %+v\nwant %+v",
			got[0], base)
	}
	var acct time.Duration
	for _, a := range got[0].Acct {
		acct += a.Full + a.Low + a.Deep + a.Shift
	}
	wantAcct := time.Duration(len(got[0].Acct)) * got[0].ExecTime
	if acct > wantAcct {
		t.Errorf("accounting covers %v, more than %d ranks x %v lifetime — window leaked before the admission time",
			acct, len(got[0].Acct), got[0].ExecTime)
	}
}

// TestChurnTerminalReuse asserts terminals freed by a finished job are
// admissible again at a later time, while overlapping occupancy and
// backwards admission times are rejected.
func TestChurnTerminalReuse(t *testing.T) {
	tr := genTrace(t, "alya", 8)
	cfg := DefaultConfig()
	c, err := NewChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.AdmitAt(0, Job{Trace: tr, Terminals: identTerms(tr.NP)})
	if err != nil {
		t.Fatal(err)
	}
	finish := first[0].ExecTime

	// Overlap: same terminals strictly before the first job finishes.
	if _, err := c.AdmitAt(finish/2, Job{Trace: tr, Terminals: identTerms(tr.NP)}); err == nil {
		t.Fatal("admission onto busy terminals accepted")
	} else if !strings.Contains(err.Error(), "busy until") {
		t.Errorf("overlap error %q should name the busy window", err)
	}

	// The session is poisoned after an error; reuse is asserted on a fresh one.
	c, err = NewChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdmitAt(0, Job{Trace: tr, Terminals: identTerms(tr.NP)}); err != nil {
		t.Fatal(err)
	}
	// Release boundary is inclusive: admission exactly at the finish time.
	if _, err := c.AdmitAt(finish, Job{Trace: tr, Terminals: identTerms(tr.NP)}); err != nil {
		t.Errorf("reuse at the exact finish time rejected: %v", err)
	}
	if _, err := c.AdmitAt(finish/2, Job{Trace: tr, Terminals: identTerms(tr.NP)}); err == nil {
		t.Error("admission time going backwards accepted")
	}

	// Automatic placement reads the same occupancy: while the first job
	// runs, a nil-Terminals job lands after its busy terminals; at the first
	// job's finish, the next one reuses them.
	c, err = NewChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdmitAt(0, Job{Trace: tr, Terminals: identTerms(tr.NP)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdmitAt(finish/2, Job{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if got, want := batchTerms(c)[0], offsetTerms(tr.NP, tr.NP); !reflect.DeepEqual(got, want) {
		t.Errorf("automatic placement at finish/2 landed on %v, want %v after the busy block", got, want)
	}
	if _, err := c.AdmitAt(finish, Job{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if got, want := batchTerms(c)[0], identTerms(tr.NP); !reflect.DeepEqual(got, want) {
		t.Errorf("automatic placement at the first job's finish landed on %v, want the freed %v", got, want)
	}

	// Both blocks are busy now, so a batch that would fit the empty fabric
	// finds too few free terminals, and the error names the fabric.
	fill := make([]Job, c.topo.NumTerminals()/tr.NP)
	for j := range fill {
		fill[j] = Job{Trace: tr}
	}
	if _, err := c.AdmitAt(finish, fill...); err == nil {
		t.Errorf("%d ranks placed beside two busy blocks on %d terminals", len(fill)*tr.NP, c.topo.NumTerminals())
	} else if !strings.Contains(err.Error(), "fabric "+c.topo.Name()) || !strings.Contains(err.Error(), "free terminals") {
		t.Errorf("capacity error %q should name the fabric and its free terminals", err)
	}
}

// TestChurnDropsDrainedBatches asserts each admission starts on an emptied
// rank table: earlier batches drained and were collected, so after several
// admissions the engine holds only the last batch's ranks and jobs.
func TestChurnDropsDrainedBatches(t *testing.T) {
	tr := genTrace(t, "alya", 8)
	c, err := NewChurn(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var start time.Duration
	for i := 0; i < 3; i++ {
		res, err := c.AdmitAt(start, Job{Trace: tr, Terminals: identTerms(tr.NP)})
		if err != nil {
			t.Fatal(err)
		}
		start += res[0].ExecTime
	}
	second := make([]int, tr.NP)
	for r := range second {
		second[r] = tr.NP + r
	}
	if _, err := c.AdmitAt(start,
		Job{Trace: tr, Terminals: identTerms(tr.NP)},
		Job{Trace: tr, Terminals: second}); err != nil {
		t.Fatal(err)
	}
	if len(c.e.rk) != 2*tr.NP || len(c.e.jobs) != 2 {
		t.Errorf("after 4 admissions the engine holds %d ranks and %d jobs, want the last batch's %d and 2",
			len(c.e.rk), len(c.e.jobs), 2*tr.NP)
	}
}

// TestChurnReleaseTerminals asserts the kill path: after an early release,
// the same terminals are admissible from the release instant even though the
// original occupant's replay ran past it.
func TestChurnReleaseTerminals(t *testing.T) {
	tr := genTrace(t, "alya", 8)
	c, err := NewChurn(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.AdmitAt(0, Job{Trace: tr, Terminals: identTerms(tr.NP)})
	if err != nil {
		t.Fatal(err)
	}
	kill := first[0].ExecTime / 2
	c.ReleaseTerminals(kill, identTerms(tr.NP))
	if _, err := c.AdmitAt(kill, Job{Trace: tr, Terminals: identTerms(tr.NP)}); err != nil {
		t.Fatalf("admission onto early-released terminals rejected: %v", err)
	}
}

// TestChurnRecyclesRankState asserts an admission reuses the previous
// batch's rank state and still replays exactly as a fresh session: nasmg at
// 16 processes on terminals 0-15, then gromacs at 16 on the same terminals
// at nasmg's finish. The terminals share one leaf of XGFT(2;18,14;1,18), so
// routing draws no random numbers, and nasmg's link reservations all end by
// its finish, so the second Result must equal gromacs admitted at that time
// on a fresh session. Every rank of the second admission must also run on
// a rank state, predictor and controller of the first. Both record
// timelines: the first Result's must survive the recycling untouched.
func TestChurnRecyclesRankState(t *testing.T) {
	nasmg, gromacs := genTrace(t, "nasmg", 16), genTrace(t, "gromacs", 16)
	cfg := DefaultConfig().WithPower(20*time.Microsecond, 0.01)
	cfg.Power.RecordTimelines = true
	c, err := NewChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.AdmitAt(0, Job{Trace: nasmg, Terminals: identTerms(16)})
	if err != nil {
		t.Fatal(err)
	}
	kept := make([]trace.Timeline, len(first[0].Timelines))
	for i, tl := range first[0].Timelines {
		kept[i] = trace.Timeline{Label: tl.Label, Intervals: slices.Clone(tl.Intervals)}
	}
	old := map[any]bool{}
	for _, rs := range c.e.rk {
		old[rs], old[rs.pred], old[rs.ctrl] = true, true, true
	}
	at := first[0].ExecTime
	got, err := c.AdmitAt(at, Job{Trace: gromacs, Terminals: identTerms(16)})
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range c.e.rk {
		if !old[rs] || !old[rs.pred] || !old[rs.ctrl] {
			t.Fatalf("rank %d of the second admission runs on new state (rank %t, predictor %t, controller %t reused)",
				rs.r, old[rs], old[rs.pred], old[rs.ctrl])
		}
	}

	fresh, err := NewChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.AdmitAt(at, Job{Trace: gromacs, Terminals: identTerms(16)})
	if err != nil {
		t.Fatal(err)
	}
	if want[0].Shutdowns == 0 || len(kept) != 16 {
		t.Fatalf("gromacs shut links down %d times and nasmg kept %d timelines; the comparison would be vacuous",
			want[0].Shutdowns, len(kept))
	}
	for i, tl := range first[0].Timelines {
		if !reflect.DeepEqual(*tl, kept[i]) {
			t.Fatalf("the second admission changed the first job's timeline %q", kept[i].Label)
		}
	}
	// A session's lone first job labels its timelines "rank r"; a later
	// job's name the tenant. Only the labels may differ.
	for _, res := range []*Result{got[0], want[0]} {
		for _, tl := range res.Timelines {
			tl.Label = ""
		}
	}
	if !reflect.DeepEqual(got[0], want[0]) {
		t.Errorf("gromacs on recycled rank state diverged from a fresh session:\n got %+v\nwant %+v", got[0], want[0])
	}
}
