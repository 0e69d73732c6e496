package main

import "time"

// yardstick is a fixed piece of work — 20 000 inserts into a cleared hash
// map — that misses the caches the way the workloads do, allocates
// nothing, and uses nothing of the program under test. The builders this
// benchmark runs on share their memory system with other tenants: over a
// minute the same op runs anywhere between 1× and 2× its quiet time,
// while register-only work keeps its speed (and a sort nearly does). The
// closed loop therefore runs the yardstick between ops, about a tenth of
// the time, and every time metric is reported at the speed of a nominal
// machine: the clock reading divided by the slowdown the yardstick saw
// around it. The clock readings are printed beside them.
type yardstick struct {
	index map[uint64]uint32
}

const (
	yardstickKeys = 20000
	// yardstickNominal is what one call takes on a quiet builder (2.1 GHz
	// Xeon vCPU). It only fixes the scale of the reported times.
	yardstickNominal = 350 * time.Microsecond
	// yardstickShare of a measurement's time goes to the yardstick.
	yardstickShare = 0.1
)

func newYardstick() *yardstick {
	return &yardstick{index: make(map[uint64]uint32, yardstickKeys)}
}

// run does the work once and returns how long it took.
func (y *yardstick) run() time.Duration {
	t0 := time.Now()
	clear(y.index)
	x := uint64(1) // the same keys every call: the work never changes
	for i := uint32(0); i < yardstickKeys; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		y.index[x>>8] = i
	}
	return time.Since(t0)
}

// after runs the yardstick for a tenth of the time just spent on the work
// being measured, three calls at least, and appends how long each took.
// Every measurement interleaves it this way, so the yardstick always
// finds the caches as the measured work left them.
func (y *yardstick) after(spent time.Duration, calls []time.Duration) []time.Duration {
	var used time.Duration
	for n := 0; n < 3 || float64(used) < yardstickShare*float64(spent); n++ {
		took := y.run()
		calls = append(calls, took)
		used += took
	}
	return calls
}

// slowdownOf is how much slower than nominal the machine ran while the
// calls were made: their mean time over the nominal time. The mean, not
// the median: an op lasts as long as a hundred calls, so its time follows
// the machine's average speed over a stretch, bursts included, and a
// fixed number of calls follows every op, so mean op time over mean call
// time is exactly the ratio of the work in the two. Over twenty 20 s
// windows of adaptive_noisy in one process, the quartile spread of the
// median op time was 8.3 % as read, 5.1 % over the median call time and
// 1.6 % over the mean.
func slowdownOf(calls []time.Duration) float64 {
	var sum time.Duration
	for _, d := range calls {
		sum += d
	}
	return float64(sum) / float64(len(calls)) / float64(yardstickNominal)
}
