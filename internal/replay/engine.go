package replay

import (
	"fmt"
	"strings"
	"time"

	"ibpower/internal/network"
	"ibpower/internal/power"
	"ibpower/internal/predictor"
	"ibpower/internal/trace"
)

// rankState is one MPI process during replay. Ranks are job-local (peers in
// the op stream address the job's communicator); the engine places the rank
// on a fabric terminal and gives it a dense global index so several jobs can
// share one timeline.
type rankState struct {
	r    int          // job-local rank (index into the job's trace)
	g    int          // global rank index across all jobs (index into engine.rk)
	base int          // global index of the job's rank 0
	np   int          // the job's communicator size
	term int          // fabric terminal hosting the rank
	cur  trace.Cursor // the rank's op stream; in-memory, generated, or on-disk
	nops int          // ops consumed so far (error reporting)
	clk  time.Duration
	done bool

	// Current MPI call.
	inCall    bool
	op        trace.Op // the call being executed (finishCall reports it)
	callStart time.Duration
	micro     []trace.Step // the call's steps; the rank's own buffer, reused per call
	mi        int
	issued    bool          // the current step's halves are posted
	pending   int           // of those, the halves resolve has not completed
	stepDone  time.Duration // the step's latest completion so far; starts at clk

	// Matching slots: the rank's unmatched send half and unmatched receive
	// half, each addressed by the peer's global index, or -1 when empty.
	// stepMicro posts a micro op's halves once and blocks until resolve has
	// completed both, so a rank never has more than one half of each kind
	// outstanding and one slot per kind is the whole pending state.
	sendTo    int
	sendReady time.Duration
	sendBytes int
	recvFrom  int
	recvReady time.Duration

	pred predictor.Predictor
	ctrl *power.Controller
	jb   *jobState

	// Telemetry baselines: the predictor's hit counts after the previous
	// call (predictor.HitCounts), so finishCall can record per-call hit
	// deltas without storage.
	lastHits  int
	lastTotal int
}

// jobState is one placed workload during a (possibly multi-job) replay. It
// holds the job's identity, never the decoded ops — rank streams live only
// inside the per-rank cursors.
type jobState struct {
	app  string
	np   int
	pw   PowerConfig // the job's effective power configuration
	base int         // global index of the job's rank 0

	// Per-job traffic attribution: every transfer is between ranks of one
	// job, counted at resolve time against the sender's job.
	transfers int
	bytes     int64
}

// engine holds global replay state. Run-level configuration is consumed up
// front (network construction, per-job effective power blocks); the engine
// itself only reads per-job state, so jobs with different power configs
// coexist on one timeline.
type engine struct {
	net  *network.Network
	jobs []*jobState
	rk   []*rankState // all jobs' ranks, dense in global index order
	err  error        // first decode failure or broken invariant; drain surfaces it

	// free holds drained, collected ranks of earlier batches for addJob to
	// reset and reuse: their step buffers, n-gram predictors and link
	// controllers. A session keeps one batch's rank state live.
	free []*rankState

	// work is a fixed-capacity ring of runnable ranks (global indexes).
	// inWork dedupes, so at most len(rk) ranks are ever queued and the ring
	// never grows.
	work     []int
	workHead int
	workLen  int
	inWork   []bool

	// tele, when non-nil, streams per-interval series (power draw, link
	// utilization, predictor hit rate) off the hooks the engine already
	// drives; recording is passive and never changes simulated results.
	tele *telemetry
}

// addJob appends one job's ranks and its state to the engine, each rank
// starting its clock at the given admission time. label names a
// rank's recorded timeline. Ranks are not yet runnable; callers queue them
// via enqueue once the whole admission batch is in place.
//
// Each rank pulls ops through its own cursor, opened here — re-admitting the
// same source (a churn retry) replays from the first op again. The primed
// predictors (the oracle's lookahead) are the one consumer that reads the
// whole rank up front; ForRank decodes its call stream for them only.
//
// A rank comes off the free list when one is there: its step buffer is kept
// when large enough, its controller is reset in place, and its predictor is
// reset in place when both it and the job's are the n-gram mechanism
// (predictor.Reuse). Everything else starts afresh, so a reused rank
// replays exactly as a new one.
func (e *engine) addJob(src trace.Source, pw PowerConfig, terms []int, start time.Duration, label func(r int) string) error {
	m := src.Meta()
	js := &jobState{app: m.App, np: m.NP, pw: pw, base: len(e.rk)}
	e.jobs = append(e.jobs, js)
	steps := trace.StepsCap(m.NP)
	for r := 0; r < m.NP; r++ {
		var rs *rankState
		if n := len(e.free); n > 0 {
			rs = e.free[n-1]
			e.free[n-1] = nil
			e.free = e.free[:n-1]
		} else {
			rs = new(rankState)
		}
		micro, pred, ctrl := rs.micro, rs.pred, rs.ctrl
		if cap(micro) < steps {
			micro = make([]trace.Step, 0, steps)
		}
		*rs = rankState{
			r: r, g: js.base + r, base: js.base, np: m.NP,
			term: terms[r], cur: src.Open(r), clk: start, jb: js,
			micro: micro[:0], sendTo: -1, recvFrom: -1,
		}
		if pw.Enabled {
			p := predictor.Reuse(pred, pw.PredictorName, pw.Predictor)
			if p == nil {
				var err error
				if p, err = predictor.ForRank(pw.PredictorName, pw.Predictor, src, r); err != nil {
					return fmt.Errorf("replay: %w", err)
				}
			}
			rs.pred = p
			if ctrl == nil {
				ctrl = new(power.Controller)
			}
			ctrl.ResetAt(pw.Predictor.Treact, start)
			rs.ctrl = ctrl
			if pw.DeepSleep {
				rs.ctrl.EnableDeep(pw.Deep)
			}
			if e.tele != nil {
				df := 0.0
				if pw.DeepSleep {
					df = pw.Deep.PowerFraction
				}
				rs.ctrl.Observe(e.tele.observeMode(df))
			}
			if pw.RecordTimelines {
				rs.ctrl.RecordTimeline(label(r))
			}
		}
		e.rk = append(e.rk, rs)
	}
	return nil
}

// release empties the rank and job tables of a drained, collected batch
// and puts its ranks onto the free list. A freed rank drops its cursor and
// job, so it pins no finished job's trace. A timeline its Result kept stays
// intact: resetting the controller only detaches it.
func (e *engine) release() {
	for _, rs := range e.rk {
		rs.cur, rs.jb = nil, nil
		e.free = append(e.free, rs)
	}
	clear(e.rk)
	e.rk = e.rk[:0]
	clear(e.jobs)
	e.jobs = e.jobs[:0]
}

// enqueue makes every rank in the table runnable. The work ring is kept
// when it holds the current rank count and regrown otherwise; callers only
// invoke this between drains (workLen == 0), so no queued entries are ever
// dropped.
func (e *engine) enqueue() {
	if cap(e.work) < len(e.rk) {
		e.work = make([]int, len(e.rk))
	}
	e.work = e.work[:len(e.rk)]
	e.workHead = 0
	for len(e.inWork) < len(e.rk) {
		e.inWork = append(e.inWork, false)
	}
	for g := range e.rk {
		e.push(g)
	}
}

// fail records err as the engine's first error; drain surfaces it.
func (e *engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// drain processes runnable ranks until the work queue empties, then verifies
// every rank has finished — a blocked rank means an unmatched point-to-point
// half, which the generator never produces. The error names what the first
// blocked rank still waits for.
func (e *engine) drain() error {
	for e.workLen > 0 {
		g := e.work[e.workHead]
		e.workHead = (e.workHead + 1) % len(e.work)
		e.workLen--
		e.inWork[g] = false
		e.advance(e.rk[g])
	}
	if e.err != nil {
		return e.err
	}
	for _, rs := range e.rk {
		if !rs.done {
			return fmt.Errorf("replay: deadlock: %s rank %d blocked at op %d (micro %d/%d): %s",
				rs.jb.app, rs.r, rs.nops, rs.mi, len(rs.micro), rs.waiting())
		}
	}
	return nil
}

// waiting describes the rank's unmatched halves by job-local peer.
func (rs *rankState) waiting() string {
	var w []string
	if rs.sendTo >= 0 {
		w = append(w, fmt.Sprintf("send to rank %d unmatched", rs.sendTo-rs.base))
	}
	if rs.recvFrom >= 0 {
		w = append(w, fmt.Sprintf("receive from rank %d unmatched", rs.recvFrom-rs.base))
	}
	return strings.Join(w, ", ")
}

func (e *engine) push(g int) {
	if !e.inWork[g] {
		e.inWork[g] = true
		e.work[(e.workHead+e.workLen)%len(e.work)] = g
		e.workLen++
	}
}

// advance executes rank rs until it blocks or finishes.
func (e *engine) advance(rs *rankState) {
	for {
		if rs.done {
			return
		}
		if rs.inCall {
			if !e.stepMicro(rs) {
				return // blocked
			}
			continue
		}
		op, ok := rs.cur.Next()
		if !ok {
			if err := rs.cur.Err(); err != nil {
				e.fail(fmt.Errorf("replay: %s: %w", rs.jb.app, err))
			}
			rs.done = true
			if rs.pred != nil {
				rs.pred.Flush()
			}
			return
		}
		rs.nops++
		switch op.Kind {
		case trace.OpCompute:
			rs.clk += op.Duration
		case trace.OpCall:
			if rs.pred != nil {
				rs.clk += rs.jb.pw.Overheads.Interception
			}
			rs.op = op
			rs.callStart = rs.clk
			rs.micro = trace.Steps(rs.micro[:0], op, rs.r, rs.np)
			rs.mi = 0
			rs.issued = false
			rs.inCall = true
			if len(rs.micro) == 0 {
				e.finishCall(rs)
			}
		}
	}
}

// stepMicro progresses the current micro op; it returns false when blocked.
func (e *engine) stepMicro(rs *rankState) bool {
	if rs.mi >= len(rs.micro) {
		e.finishCall(rs)
		return true
	}
	m := rs.micro[rs.mi]
	if !rs.issued {
		// The count is complete before either half is posted: a post may
		// resolve at once and complete a half of this very step.
		rs.issued = true
		rs.pending, rs.stepDone = 0, rs.clk
		if m.Send >= 0 {
			rs.pending++
		}
		if m.Recv >= 0 {
			rs.pending++
		}
		if m.Send >= 0 {
			e.postSend(rs.g, rs.base+m.Send, m.Bytes, rs.clk)
		}
		if m.Recv >= 0 {
			e.postRecv(rs.g, rs.base+m.Recv, rs.clk)
		}
	}
	if rs.pending > 0 {
		return false
	}
	rs.clk = rs.stepDone
	rs.mi++
	rs.issued = false
	if rs.mi >= len(rs.micro) {
		e.finishCall(rs)
	}
	return true
}

// finishCall closes the current MPI call: the predictor observes it and may
// direct the link power controller to shut lanes down for the predicted
// idle interval (Algorithm 3).
func (e *engine) finishCall(rs *rankState) {
	rs.inCall = false
	if rs.pred == nil {
		return
	}
	rs.clk, _ = predictor.Exit(rs.pred, rs.ctrl, rs.jb.pw.Overheads, rs.op.Call, rs.callStart, rs.clk)
	if e.tele != nil {
		// Baseline predictors count emitted predictions; the n-gram
		// mechanism counts detector-covered calls. Either way one sample
		// per opportunity, value = hit fraction, so the series mean is the
		// run's hit rate and bucket means give it per interval.
		hits, total := predictor.HitCounts(rs.pred)
		if d := total - rs.lastTotal; d > 0 {
			e.tele.recordHit(rs.clk, float64(hits-rs.lastHits)/float64(d))
		}
		rs.lastHits, rs.lastTotal = hits, total
	}
}

// postSend registers the send side of a point-to-point exchange and resolves
// it if dst's receive slot already waits for src. Otherwise the send fills
// src's send slot. src and dst are global rank indexes (both halves of an
// exchange always belong to one job, because op peers are job-local).
func (e *engine) postSend(src, dst, bytes int, ready time.Duration) {
	s, d := e.rk[src], e.rk[dst]
	switch {
	case s.sendTo >= 0:
		e.fail(fmt.Errorf("replay: %s rank %d posts a send to rank %d while its send to rank %d is unmatched",
			s.jb.app, s.r, dst-s.base, s.sendTo-s.base))
	case d.recvFrom == src:
		d.recvFrom = -1
		e.resolve(src, dst, bytes, ready, d.recvReady)
	default:
		s.sendTo, s.sendReady, s.sendBytes = dst, ready, bytes
	}
}

// postRecv registers the receive side: it resolves against src's send slot
// when that send targets dst, else it fills dst's receive slot.
func (e *engine) postRecv(dst, src int, ready time.Duration) {
	s, d := e.rk[src], e.rk[dst]
	switch {
	case d.recvFrom >= 0:
		e.fail(fmt.Errorf("replay: %s rank %d posts a receive from rank %d while its receive from rank %d is unmatched",
			d.jb.app, d.r, src-d.base, d.recvFrom-d.base))
	case s.sendTo == dst:
		s.sendTo = -1
		e.resolve(src, dst, s.sendBytes, s.sendReady, ready)
	default:
		d.recvFrom, d.recvReady = src, ready
	}
}

// resolve times the matched transfer and unblocks both ranks. The message
// travels between the ranks' fabric terminals, so links observe the union of
// every job's traffic.
func (e *engine) resolve(src, dst, bytes int, sendReady, recvReady time.Duration) {
	s, d := e.rk[src], e.rk[dst]
	s0, r0 := sendReady, recvReady
	// Lanes of both host links must be active; waking them on demand incurs
	// up to Treact of delay each (the reactivation penalty).
	if s.ctrl != nil {
		s0 = s.ctrl.Acquire(s0)
	}
	if d.ctrl != nil {
		r0 = d.ctrl.Acquire(r0)
	}
	t0 := s0
	if r0 > t0 {
		t0 = r0
	}
	arrival, ser := e.net.Transfer(s.term, d.term, bytes, t0)
	s.jb.transfers++
	s.jb.bytes += int64(bytes)
	s.stepDone = max(s.stepDone, t0+ser)
	if s.pending--; s.pending == 0 {
		e.push(src)
	}
	d.stepDone = max(d.stepDone, arrival)
	if d.pending--; d.pending == 0 {
		e.push(dst)
	}
}
