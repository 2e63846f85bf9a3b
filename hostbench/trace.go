package main

import (
	"encoding/json"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

const (
	allocsMetric = "/gc/heap/allocs:bytes"
	heapMetric   = "/memory/classes/heap/objects:bytes"
)

// readMetric reads one cumulative or gauge runtime metric. It never
// stops the world, so spans and the heap sampler can call it freely.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// stopwatch measures an operation on two clocks, the wall clock and
// the CPU time of the whole process (user plus system, over all its
// threads), and counts the heap bytes it allocates. On a machine shared
// with other tenants the wall clock also counts the time the process
// waited for a core; CPU time counts only the time the program ran, so
// the bounded metrics use it.
type stopwatch struct {
	wall   time.Time
	cpu    float64
	allocs uint64
}

// cost is what a stopwatch measured.
type cost struct {
	wall, cpu float64 // seconds
	allocMiB  float64
}

func startWatch() stopwatch {
	return stopwatch{time.Now(), cpuSeconds(), readMetric(allocsMetric)}
}

func (w stopwatch) elapsed() cost {
	return cost{
		wall:     time.Since(w.wall).Seconds(),
		cpu:      cpuSeconds() - w.cpu,
		allocMiB: float64(readMetric(allocsMetric)-w.allocs) / (1 << 20),
	}
}

// cpuSeconds is the process's CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// span is one timed call from the benchmark into a layer of the
// program. Op groups the spans of one operation; Parent is the index
// of the enclosing span, or -1.
type span struct {
	Name       string  `json:"name"`
	Op         int     `json:"op"`
	Parent     int     `json:"parent"`
	StartS     float64 `json:"start_s"`
	EndS       float64 `json:"end_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	alloc0     uint64
}

func (s span) seconds() float64 { return s.EndS - s.StartS }

// tracer keeps spans in memory for the traced run. Spans are recorded
// only from the benchmark's own code, around calls into each layer's
// public functions; a nil *tracer records nothing, so untraced
// operations run the same code paths without any timing calls.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp starts a new operation; later spans carry its identifier.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{
		Name: name, Op: t.op, Parent: parent,
		alloc0: readMetric(allocsMetric),
		StartS: time.Since(t.t0).Seconds(),
	})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned. Spans close in LIFO order.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.EndS = time.Since(t.t0).Seconds()
	s.AllocBytes = readMetric(allocsMetric) - s.alloc0
	t.open = t.open[:len(t.open)-1]
}

// perOp sums, per operation that recorded any span named name, the
// value f of those spans; operations without such a span are skipped.
func (t *tracer) perOp(name string, f func(span) float64) []float64 {
	sums := map[int]float64{}
	var ops []int
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, ok := sums[s.Op]; !ok {
			ops = append(ops, s.Op)
		}
		sums[s.Op] += f(s)
	}
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = sums[op]
	}
	return out
}

// secondsPerOp is the median over operations of the time spent in
// spans named name.
func (t *tracer) secondsPerOp(name string) float64 {
	return median(t.perOp(name, span.seconds))
}

// mibPerOp is the median over operations of the bytes allocated
// inside spans named name, in MiB.
func (t *tracer) mibPerOp(name string) float64 {
	return median(t.perOp(name, func(s span) float64 { return float64(s.AllocBytes) })) / (1 << 20)
}

// durations returns the duration of every span named name, in seconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// writeJSON writes the spans, one JSON object a line.
func (t *tracer) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// heapInterval is the peak-heap sampling period.
const heapInterval = 2 * time.Millisecond

// heapSampler records the highest heap-object reading taken every
// heapInterval between start and stop — the operation's peak heap.
type heapSampler struct {
	peak uint64
	done chan struct{}
	wg   sync.WaitGroup
}

func (h *heapSampler) start() {
	h.peak = readMetric(heapMetric)
	h.done = make(chan struct{})
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(heapInterval)
		defer tick.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-tick.C:
				if v := readMetric(heapMetric); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
}

// stop ends sampling, waits for the sampler goroutine and returns the
// peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.done)
	h.wg.Wait()
	if v := readMetric(heapMetric); v > h.peak {
		h.peak = v
	}
	return float64(h.peak) / (1 << 20)
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
