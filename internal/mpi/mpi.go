// Package mpi is a miniature in-process MPI runtime: ranks are goroutines,
// point-to-point messages travel over channels, and collectives send
// exactly the point-to-point steps of trace.Steps, the schedule the replay
// simulator charges for. Its purpose is to demonstrate the paper's
// deployment path — the power saving mechanism runs inside the profiling
// (PMPI) layer, so unmodified SPMD programs written against this API get
// link power management for free (Section III).
package mpi

import (
	"fmt"
	"sync"
	"time"

	"ibpower/internal/trace"
)

// Profiler is the PMPI-style interposition interface: Before runs when a
// rank enters an MPI call, After when the call returns. Implementations must
// be cheap; they run on the caller's goroutine.
type Profiler interface {
	Before(call trace.CallID, t time.Duration)
	After(call trace.CallID, start, end time.Duration)
}

// message is one point-to-point payload.
type message struct {
	data []float64
}

// Runtime hosts one SPMD execution. Point-to-point user messages and
// collective-internal messages travel in separate channel contexts, the
// equivalent of MPI's per-communicator message contexts: a collective can
// never intercept a user message posted earlier, and vice versa.
type Runtime struct {
	size  int
	chans [2][][]chan message // chans[ctx][src][dst]
	t0    time.Time

	profFactory func(rank int) Profiler
	recorder    *TraceRecorder
}

// Message contexts.
const (
	ctxUser = iota
	ctxColl
)

// Option configures a Runtime.
type Option func(*Runtime)

// WithProfiler installs a PMPI-layer profiler factory, invoked once per rank.
func WithProfiler(f func(rank int) Profiler) Option {
	return func(rt *Runtime) { rt.profFactory = f }
}

// chanCap is the per-pair channel buffer; deep enough that eager sends of
// the built-in collectives never deadlock.
const chanCap = 64

// NewRuntime prepares a runtime for np ranks.
func NewRuntime(np int, opts ...Option) (*Runtime, error) {
	if np < 1 {
		return nil, fmt.Errorf("mpi: need at least 1 rank, got %d", np)
	}
	rt := &Runtime{size: np}
	for ctx := range rt.chans {
		rt.chans[ctx] = make([][]chan message, np)
		for s := 0; s < np; s++ {
			rt.chans[ctx][s] = make([]chan message, np)
			for d := 0; d < np; d++ {
				rt.chans[ctx][s][d] = make(chan message, chanCap)
			}
		}
	}
	for _, o := range opts {
		o(rt)
	}
	return rt, nil
}

// Run executes fn on every rank concurrently and waits for completion; the
// first error (or panic, re-reported as an error) aborts the caller after
// all ranks finish.
func (rt *Runtime) Run(fn func(c *Comm) error) error {
	rt.t0 = time.Now()
	errs := make([]error, rt.size)
	var wg sync.WaitGroup
	for r := 0; r < rt.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
				}
			}()
			c := &Comm{rt: rt, rank: rank}
			if rt.profFactory != nil {
				c.prof = rt.profFactory(rank)
			}
			errs[rank] = fn(c)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("mpi: rank %d: %w", r, err)
		}
	}
	return nil
}

// Run is the convenience entry point: build a runtime, run fn on np ranks.
func Run(np int, fn func(c *Comm) error, opts ...Option) error {
	rt, err := NewRuntime(np, opts...)
	if err != nil {
		return err
	}
	return rt.Run(fn)
}

// Comm is one rank's handle onto the runtime (a communicator of all ranks).
type Comm struct {
	rt    *Runtime
	rank  int
	prof  Profiler
	steps []trace.Step // the current collective's schedule, reused per call
}

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.rt.size }

// Time returns the elapsed time since the runtime started.
func (c *Comm) Time() time.Duration { return time.Since(c.rt.t0) }

// enter/exit bracket an MPI call through the profiling layer.
func (c *Comm) enter(call trace.CallID) time.Duration {
	t := c.Time()
	if c.prof != nil {
		c.prof.Before(call, t)
	}
	return t
}

func (c *Comm) exit(call trace.CallID, start time.Duration) time.Duration {
	end := c.Time()
	if c.prof != nil {
		c.prof.After(call, start, end)
	}
	return end
}

// sendCtx/recvCtx are the unprofiled internals.
func (c *Comm) sendCtx(ctx, dst int, data []float64) {
	cp := make([]float64, len(data))
	copy(cp, data)
	c.rt.chans[ctx][c.rank][dst] <- message{data: cp}
}

func (c *Comm) recvCtx(ctx, src int) []float64 {
	m := <-c.rt.chans[ctx][src][c.rank]
	return m.data
}

// send/recv are the collective-context internals used by the collectives in
// collectives.go.
func (c *Comm) send(dst int, data []float64) { c.sendCtx(ctxColl, dst, data) }
func (c *Comm) recv(src int) []float64       { return c.recvCtx(ctxColl, src) }

// Send transmits data to rank dst (blocking once the channel buffer fills).
func (c *Comm) Send(dst int, data []float64) {
	s := c.enter(trace.CallSend)
	c.sendCtx(ctxUser, dst, data)
	e := c.exit(trace.CallSend, s)
	c.recordOp(trace.Send(dst, bytesOf(data)), s, e)
}

// Recv receives the next message from rank src.
func (c *Comm) Recv(src int) []float64 {
	s := c.enter(trace.CallRecv)
	d := c.recvCtx(ctxUser, src)
	e := c.exit(trace.CallRecv, s)
	c.recordOp(trace.Recv(src), s, e)
	return d
}

// Sendrecv sends data to dst and receives from src.
func (c *Comm) Sendrecv(dst int, data []float64, src int) []float64 {
	s := c.enter(trace.CallSendrecv)
	c.sendCtx(ctxUser, dst, data)
	d := c.recvCtx(ctxUser, src)
	e := c.exit(trace.CallSendrecv, s)
	c.recordOp(trace.Sendrecv(dst, src, bytesOf(data)), s, e)
	return d
}
