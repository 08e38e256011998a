package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metric names a reported quantity and its unit.
type metric struct{ name, unit string }

// e2eMetrics are printed by the untraced pass, in this order.
var e2eMetrics = []metric{
	{"setup_s", "s"},
	{"epochs_per_s", "1/s"},
	{"epoch_p50_ms", "ms"},
	{"decision_p50_ms", "ms"},
	{"system_mbps", "Mb/s"},
	{"alloc_kb_per_epoch", "KiB"},
	{"live_heap_mb", "MiB"},
}

// tailMetrics are printed as comments next to the end-to-end metrics but
// carry no bound: on a shared two-core host their run-to-run spread
// exceeds any bound worth having.
var tailMetrics = []metric{
	{"epoch_p99_ms", "ms"},
	{"decision_p99_ms", "ms"},
}

// layerMetrics are printed by the traced pass, in this order. Busy times
// are self times per epoch; a metric a workload does not reach reads 0.
var layerMetrics = []metric{
	{"trace.epoch_ms", "ms"},
	{"workload.step_ms", "ms"},
	{"workload.population_mean", "count"},
	{"channel.build_ms", "ms"},
	{"channel.refresh_ms", "ms"},
	{"channel.columns_per_epoch", "count"},
	{"channel.per_ms", "ms"},
	{"frame.encode_ms", "ms"},
	{"frame.decode_ms", "ms"},
	{"frame.bytes_per_epoch", "bytes"},
	{"transport.send_ms", "ms"},
	{"transport.recv_ms", "ms"},
	{"transport.frames_per_epoch", "count"},
	{"mac.ingest_ms", "ms"},
	{"mac.nodes_ms", "ms"},
	{"mac.allocframe_ms", "ms"},
	{"mac.reallocate_ms", "ms"},
	{"mac.self_ms", "ms"},
	{"mac.solve_ratio", "ratio"},
	{"cluster.clusters", "count"},
	{"cluster.max_txs", "count"},
	{"cluster.dirty_frac", "ratio"},
	{"alloc.solve_ms", "ms"},
	{"alloc.solves_per_epoch", "count"},
	{"alloc.evaluate_ms", "ms"},
	{"phy.data_ms", "ms"},
	{"phy.frames_per_epoch", "count"},
	{"waveform_per", "ratio"},
	{"other.self_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// maxGateErrs caps the check failures a run records.
const maxGateErrs = 20

// result is what one run reports.
type result struct {
	// attempted counts epochs; failed counts epochs whose entry point
	// returned an error or whose reports went missing.
	attempted, failed int
	gateErrs          []string
	e2e, layers       map[string]float64
	notes             []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// gate records a failed correctness check.
func (r *result) gate(format string, args ...any) {
	if len(r.gateErrs) < maxGateErrs {
		r.gateErrs = append(r.gateErrs, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) failRatio() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// zeroLayers fills every per-layer metric with 0, so a workload sets only
// the layers it reaches.
func (r *result) zeroLayers() {
	for _, m := range layerMetrics {
		r.layers[m.name] = 0
	}
}

// meter accumulates host time and heap allocation over the timed sections
// of a pass, excluding the checks run between them.
type meter struct {
	busy   time.Duration
	alloc  uint64
	t0     time.Time
	a0     uint64
	sample []metrics.Sample
}

func newMeter() *meter {
	return &meter{sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (m *meter) heapAllocs() uint64 {
	metrics.Read(m.sample)
	return m.sample[0].Value.Uint64()
}

// resume starts a timed section.
func (m *meter) resume() {
	m.a0 = m.heapAllocs()
	m.t0 = time.Now()
}

// pause ends the timed section started by resume at the given instant.
func (m *meter) pause(end time.Time) {
	m.busy += end.Sub(m.t0)
	m.alloc += m.heapAllocs() - m.a0
}

// numBlocks is how many blocks an untraced pass is split into. Contention
// from other tenants of a shared host only ever adds time, and it comes in
// spells of seconds, so each timing metric is the fastest quartile of its
// per-block values: spells that cover less than three quarters of a run
// do not move it.
const numBlocks = 10

// block is one timed block of an untraced pass.
type block struct {
	*meter
	epochs             int
	epochLat, decision []float64 // ms
}

// blockSet splits an untraced pass of a given host time into blocks.
type blockSet struct {
	pass, target time.Duration
	list         []*block
}

func newBlocks(pass time.Duration) *blockSet {
	return &blockSet{pass: pass, target: pass / numBlocks, list: []*block{{meter: newMeter()}}}
}

func (b *blockSet) cur() *block { return b.list[len(b.list)-1] }

// advance is called after each timed unit of work. At a boundary — for the
// room workloads the end of a cycle through their input pool, so every
// block runs the same inputs — it reports whether the pass has its host
// time, and otherwise opens a new block once the current one has its
// share.
func (b *blockSet) advance(boundary bool) bool {
	if !boundary {
		return false
	}
	if _, busy := b.total(); busy >= b.pass {
		return true
	}
	if b.cur().busy >= b.target {
		b.list = append(b.list, &block{meter: newMeter()})
	}
	return false
}

// total sums the epochs and host time of every block.
func (b *blockSet) total() (epochs int, busy time.Duration) {
	for _, bl := range b.list {
		epochs += bl.epochs
		busy += bl.busy
	}
	return epochs, busy
}

// report sets the per-block metrics: the fastest quartile of each timing
// (the 75th percentile of throughputs, the 25th of latencies) and the
// median of the allocation rate.
func (b *blockSet) report(r *result) {
	per := func(p float64, f func(*block) float64) float64 {
		var xs []float64
		for _, bl := range b.list {
			if bl.epochs > 0 {
				xs = append(xs, f(bl))
			}
		}
		return quantile(xs, p)
	}
	r.e2e["epochs_per_s"] = per(75, func(bl *block) float64 { return float64(bl.epochs) / bl.busy.Seconds() })
	r.e2e["epoch_p50_ms"] = per(25, func(bl *block) float64 { return median(bl.epochLat) })
	r.e2e["epoch_p99_ms"] = per(25, func(bl *block) float64 { return tailQuantile(bl.epochLat) })
	r.e2e["decision_p50_ms"] = per(25, func(bl *block) float64 { return median(bl.decision) })
	r.e2e["decision_p99_ms"] = per(25, func(bl *block) float64 { return tailQuantile(bl.decision) })
	r.e2e["alloc_kb_per_epoch"] = per(50, func(bl *block) float64 { return float64(bl.alloc) / 1024 / float64(bl.epochs) })
}

// liveHeap is the heap bytes still reachable after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// mib converts a heap byte difference to MiB.
func mib(with, without uint64) float64 { return (float64(with) - float64(without)) / (1 << 20) }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 50) }

// tailQuantile is the p99 reported for a sample: the 99th percentile when
// at least ten samples lie beyond it, otherwise the highest percentile that
// still has ten samples beyond it (the median for fewer than 20 samples).
func tailQuantile(xs []float64) float64 {
	n := float64(len(xs))
	p := math.Min(99, 100*(1-10/n))
	return quantile(xs, math.Max(50, p))
}

// quantile is the nearest-rank p-th percentile of xs.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// medianOf runs f k times and returns the median of its durations in
// seconds — the setup_s estimator.
func medianOf(k int, f func() error) (float64, error) {
	var ds []float64
	for i := 0; i < k; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// subSeed derives the k-th input seed of a run from the workload seed
// (splitmix64), so pools of inputs differ between workload seeds.
func subSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// heldOutSeed is the seed the checks are repeated on in every run: one the
// workload seed never produces as a pool input.
func heldOutSeed(seed int64) int64 { return subSeed(^seed, 1<<20) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// perEpoch divides a total by an epoch count (0 for none).
func perEpoch(total float64, epochs int) float64 {
	if epochs == 0 {
		return 0
	}
	return total / float64(epochs)
}
