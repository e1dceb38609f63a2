package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// TimeSeriesDocVersion is the schema version WriteJSON emits; consumers
// must reject documents with a version they do not know.
const TimeSeriesDocVersion = 1

// SeriesSnapshot is the encoded form of one series: the run-wide sketch
// summary plus the per-bucket counts and compensated sums. For a sample
// series sums[i]/counts[i] is the per-interval mean; for a span series
// sums[i] is the weight (e.g. busy seconds) that fell into interval i.
type SeriesSnapshot struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Kind   string    `json:"kind"` // "sample" or "span"
	Count  int64     `json:"count"`
	Mean   float64   `json:"mean"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
	Counts []int64   `json:"counts"`
	Sums   []float64 `json:"sums"`
}

// TimeSeriesDoc is the versioned JSON document a telemetry run emits.
type TimeSeriesDoc struct {
	Version int              `json:"version"`
	TickNS  int64            `json:"tick_ns"`
	Buckets int              `json:"buckets"`
	Series  []SeriesSnapshot `json:"series"`
}

// Snapshot captures the recorder's current state as an encodable document.
// Every field is a deterministic function of the recorded stream, so equal
// recordings snapshot to equal documents.
func (ts *TimeSeries) Snapshot() *TimeSeriesDoc {
	ts.settle()
	doc := &TimeSeriesDoc{
		Version: TimeSeriesDocVersion,
		TickNS:  ts.tick.Nanoseconds(),
		Buckets: ts.used,
		Series:  make([]SeriesSnapshot, len(ts.s)),
	}
	for i := range ts.s {
		se, sk := &ts.s[i], ts.sketch(SeriesID(i))
		kind := "sample"
		if se.span {
			kind = "span"
		}
		snap := SeriesSnapshot{
			Name: se.name, Unit: se.unit, Kind: kind,
			Count: sk.Count(),
			Mean:  sk.Mean(), Min: sk.Min(), Max: sk.Max(),
			P50: sk.P50(), P95: sk.P95(), P99: sk.P99(),
			Counts: make([]int64, ts.used),
			Sums:   make([]float64, ts.used),
		}
		copy(snap.Counts, se.count[:ts.used])
		for b := 0; b < ts.used; b++ {
			snap.Sums[b] = se.sum[b] + se.comp[b]
		}
		doc.Series[i] = snap
	}
	return doc
}

// WriteJSON writes the versioned telemetry document as indented JSON with a
// trailing newline. Output bytes are a deterministic function of the
// recorded stream (encoding/json renders float64 via the shortest
// round-trippable form), so goldens can pin it.
func (ts *TimeSeries) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(ts.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteProm writes the recorder in Prometheus text exposition format: one
// summary family per series (quantile samples plus _sum and _count), ready
// for a scrape endpoint. prefix namespaces the metric names; empty selects
// "ibpower".
func (ts *TimeSeries) WriteProm(w io.Writer, prefix string) error {
	if prefix == "" {
		prefix = "ibpower"
	}
	ts.settle()
	for i := range ts.s {
		se, sk := &ts.s[i], ts.sketch(SeriesID(i))
		name := promName(prefix, se.name)
		if _, err := fmt.Fprintf(w, "# HELP %s %s (%s)\n# TYPE %s summary\n",
			name, se.name, se.unit, name); err != nil {
			return err
		}
		for _, q := range [3]struct {
			phi string
			v   float64
		}{{"0.5", sk.P50()}, {"0.95", sk.P95()}, {"0.99", sk.P99()}} {
			if _, err := fmt.Fprintf(w, "%s{quantile=\"%s\"} %s\n",
				name, q.phi, promFloat(q.v)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n",
			name, promFloat(sk.Sum()), name, sk.Count()); err != nil {
			return err
		}
	}
	return nil
}

// promName joins prefix and series name into a valid Prometheus metric
// name: dots and any other illegal runes become underscores.
func promName(prefix, name string) string {
	var b strings.Builder
	b.Grow(len(prefix) + 1 + len(name))
	b.WriteString(prefix)
	b.WriteByte('_')
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
