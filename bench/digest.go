package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"ibpower/internal/harness"
	"ibpower/internal/multijob"
	"ibpower/internal/replay"
	"ibpower/internal/stats"
)

// pinned holds each workload's digest at the default seed. Any change to a
// simulated number changes it; a non-default seed checks only that every
// iteration, traced or not, simulates the same thing.
var pinned = map[string]string{
	"fig7-paper":   "0e0157d415555f3e795da395",
	"spread-8k":    "0bf400f705a37540f3c52bdb",
	"stream-wrf":   "30c2ca3b47662ad5caa06a77",
	"churn-faults": "7e839d110d09d3a81035c38c",
}

// defaultSeed is the seed the pinned digests were recorded at.
const defaultSeed = 42

// The digests hash simulated numbers exactly (%v prints durations to the
// nanosecond and floats in shortest round-trip form) and leave out registry
// names, which the span pass replaces with its wrappers' names.

func digestRows(rows []harness.FigureRow) string {
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%+v\n", r)
	}
	return sum(h)
}

func digestResult(r *replay.Result) string {
	h := sha256.New()
	writeResult(h, r)
	return sum(h)
}

func digestMulti(mr *replay.MultiResult) string {
	h := sha256.New()
	for _, r := range mr.Jobs {
		writeResult(h, r)
	}
	fmt.Fprintf(h, "%d %d %d %d\n", mr.MakeSpan, mr.Transfers, mr.BytesMoved, mr.LinkBusy)
	writeSeries(h, mr.Series)
	return sum(h)
}

func digestChurn(res *multijob.ChurnResult) string {
	h := sha256.New()
	c := *res
	c.Scheduler, c.Series, c.Jobs = "", nil, nil
	fmt.Fprintf(h, "%+v\n", c)
	for _, j := range res.Jobs {
		j.Predictor = ""
		fmt.Fprintf(h, "%+v\n", j)
	}
	writeSeries(h, res.Series)
	return sum(h)
}

func writeResult(h hash.Hash, r *replay.Result) {
	c := *r
	c.Series, c.Timelines = nil, nil
	fmt.Fprintf(h, "%+v\n", c)
	writeSeries(h, r.Series)
}

func writeSeries(h hash.Hash, ts *stats.TimeSeries) {
	if ts != nil {
		if err := ts.WriteJSON(h); err != nil {
			fmt.Fprintf(h, "series: %v\n", err)
		}
	}
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:12]) }
