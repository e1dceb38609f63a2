package trace

import "time"

// The paper's Table I classifies link idle intervals into three buckets
// around the reactivation time Treact = 10 µs: intervals shorter than
// 2·Treact cannot amortise a lane transition at all; intervals above 200 µs
// are where "significant power can be saved".
const (
	// BucketShort is the upper bound of the adverse bucket (< 20 µs).
	BucketShort = 20 * time.Microsecond
	// BucketLong is the lower bound of the highly profitable bucket (> 200 µs).
	BucketLong = 200 * time.Microsecond
)

// IdleDist is the distribution of idle intervals in the three Table I
// buckets.
type IdleDist struct {
	// Count[i] is the number of intervals in bucket i
	// (0: <20 µs, 1: 20–200 µs, 2: >200 µs).
	Count [3]int
	// Time[i] is the accumulated idle time in bucket i.
	Time [3]time.Duration
}

// TotalCount returns the total number of idle intervals.
func (d IdleDist) TotalCount() int { return d.Count[0] + d.Count[1] + d.Count[2] }

// TotalTime returns the accumulated idle time over all buckets.
func (d IdleDist) TotalTime() time.Duration { return d.Time[0] + d.Time[1] + d.Time[2] }

// CountPct returns bucket i's share of the interval count, in percent.
func (d IdleDist) CountPct(i int) float64 {
	tot := d.TotalCount()
	if tot == 0 {
		return 0
	}
	return 100 * float64(d.Count[i]) / float64(tot)
}

// TimePct returns bucket i's share of the accumulated idle time, in percent.
func (d IdleDist) TimePct(i int) float64 {
	tot := d.TotalTime()
	if tot == 0 {
		return 0
	}
	return 100 * float64(d.Time[i]) / float64(tot)
}

// Add classifies one idle interval into the distribution.
func (d *IdleDist) Add(idle time.Duration) {
	switch {
	case idle < BucketShort:
		d.Count[0]++
		d.Time[0] += idle
	case idle <= BucketLong:
		d.Count[1]++
		d.Time[1] += idle
	default:
		d.Count[2]++
		d.Time[2] += idle
	}
}
