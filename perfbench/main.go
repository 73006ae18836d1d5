// Command perfbench is the repository's wall-clock benchmark. It drives
// four workloads through the program's own packages from one process:
//
//	session_short  stream.RunSession, 64 B frames at 2 ft, Workers = nproc
//	session_long   the same session with 1024 B frames
//	flow_overload  stream.RunFlowWS, 4 tags, window 4, 2 retries, 1.2× capacity
//	grid_smoke     grid.Run + grid.VerifyDir + grid.Report on experiments/smoke.json
//
// Run it from the repository root through perfbench/run.sh, which builds
// it from source:
//
//	bash perfbench/run.sh --workload session_short --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it times the calls into each layer from this package,
// keeps the spans in memory, writes them to .bench_build/traces at the
// end and reports the per-layer metrics. The last line of standard
// output is the JSON result; a failed output check exits 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/cmplx"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Seeds: defaultSeed is used while developing a change; heldOutSeed is
// reserved for confirming a claimed gain on inputs the change was not
// tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// workDir holds everything a run writes: grid output directories and
// span dumps. It sits under the build directory run.sh uses.
const workDir = ".bench_build"

// setupRepeats is how many cold child processes setup_s takes the median
// of.
const setupRepeats = 15

// errCheck marks a failed output check: the run reports no numbers.
var errCheck = errors.New("output check failed")

// checkf returns an errCheck-wrapped error.
func checkf(format string, a ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, a...))
}

// opts are the command-line settings every workload receives.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	nproc    int
}

// result is what a workload hands back: its metric values by name and
// the operations it attempted. Every failure stops the run, so the JSON
// line always reports 0 failed.
type result struct {
	attempted int
	metrics   map[string]float64
	// summary lines are printed before the JSON line.
	summary []string
}

func (r *result) set(name string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]float64{}
	}
	r.metrics[name] = v
}

func (r *result) note(format string, a ...any) {
	r.summary = append(r.summary, fmt.Sprintf(format, a...))
}

// workload runs one named workload.
type workload struct {
	run   func(o opts) (*result, error)
	setup func(o opts) error // one cold set-up, run in a child process
}

var workloads = map[string]workload{
	"session_short": {run: func(o opts) (*result, error) { return runSession(o, shortFrameBytes) },
		setup: func(o opts) error { return setupSession(o, shortFrameBytes) }},
	"session_long": {run: func(o opts) (*result, error) { return runSession(o, longFrameBytes) },
		setup: func(o opts) error { return setupSession(o, longFrameBytes) }},
	"flow_overload": {run: runFlow, setup: setupFlow},
	"grid_smoke":    {run: runGrid, setup: setupGrid},
}

func main() {
	var o opts
	var traceFlag int
	var setupChild bool
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measuring time")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&setupChild, "setup-child", false, "run one cold set-up and exit (internal)")
	flag.Parse()
	o.trace = traceFlag == 1
	o.nproc = runtime.NumCPU()
	w, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {%s} --seed N --seconds S --trace 0|1\n",
			strings.Join(sortedNames(workloads), "|"))
		os.Exit(2)
	}
	if setupChild {
		if err := w.setup(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o, w); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errCheck) {
			fmt.Println(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
		}
		os.Exit(1)
	}
}

func run(o opts, w workload) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	declared := spec.EndToEnd
	if o.trace {
		declared = spec.PerLayer
	}
	var setupS float64
	if !o.trace {
		if setupS, err = measureSetup(o); err != nil {
			return err
		}
	}
	res, err := w.run(o)
	if err != nil {
		return err
	}
	if !o.trace {
		res.set("setup_s", setupS)
		res.set("max_rss_mb", maxRSSMiB())
		res.note("setup_s %.4f s (median of %d cold processes)", setupS, setupRepeats)
		res.note("max_rss_mb %.1f MiB", maxRSSMiB())
	}
	out := map[string]metricValue{}
	for name, v := range res.metrics {
		m, ok := declared[name]
		if !ok {
			return fmt.Errorf("metric %q is not declared in BENCHMARK.json for this mode", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %q is %v", name, v)
		}
		out[name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name, m := range declared {
		if _, ok := out[name]; ok {
			continue
		}
		if !o.trace {
			return fmt.Errorf("end-to-end metric %q was not measured", name)
		}
		// A layer this workload does not exercise: no samples.
		out[name] = metricValue{Value: 0, Unit: m.Unit}
	}
	fmt.Printf("env: workload=%s seed=%d held_out_seed=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		o.workload, o.seed, heldOutSeed, o.nproc, runtime.GOMAXPROCS(0), runtime.Version(), commit())
	for _, s := range res.summary {
		fmt.Println(s)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{true, res.attempted, 0, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json this program reads: the
// declared metrics and their units.
type benchSpec struct {
	EndToEnd map[string]declaredMetric
	PerLayer map[string]declaredMetric
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return benchSpec{}, err
	}
	var raw struct {
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return benchSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	index := func(ms []declaredMetric) map[string]declaredMetric {
		out := map[string]declaredMetric{}
		for _, m := range ms {
			out[m.Name] = m
		}
		return out
	}
	return benchSpec{EndToEnd: index(raw.EndToEnd), PerLayer: index(raw.PerLayer)}, nil
}

// measureSetup runs the workload's set-up in setupRepeats fresh child
// processes and returns the median of their user+system CPU time: binary
// load, package initialisation and everything up to the first completed
// operation. CPU time, unlike wall time, does not count the time the host
// takes the virtual CPU away, which on a shared host can exceed the
// set-up itself.
func measureSetup(o opts) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.Command(exe, "--setup-child", "--workload", o.workload, "--seed", fmt.Sprint(o.seed))
		cmd.Stdout = io.Discard
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("setup child: %w", err)
		}
		st := cmd.ProcessState
		times = append(times, (st.UserTime() + st.SystemTime()).Seconds())
	}
	return median(times), nil
}

// stealSeconds is the time the host has withheld from this machine's
// virtual CPUs (the steal column of /proc/stat, in USER_HZ = 100 ticks
// per second), summed over CPUs; 0 where the kernel does not report it.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// maxRSSMiB is the peak resident set size of this process image
// (VmHWM). Unlike getrusage's ru_maxrss it does not carry over the peak
// of the shell that exec'd the benchmark.
func maxRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// heapCounters returns bytes allocated and GC cycles completed so far.
func heapCounters() (totalAlloc uint64, numGC uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.NumGC
}

// opSample is one measured unit of work: a session batch, a flow run or
// a grid pass.
type opSample struct {
	ops        int
	wall, cpu  float64
	steal      float64 // CPU-seconds the host withheld during the op
	allocBytes float64
	gcCycles   float64
	simSeconds float64
	refRate    float64 // reference kernel passes per CPU-second, right after the op
}

// ownWall is the op's wall time without the host's stolen time. Steal
// only accrues while a virtual CPU has work, and this process is the
// only work, so of the cpu+steal CPU-seconds the op was runnable, the
// share cpu/(cpu+steal) is what a dedicated machine would have taken.
func (s opSample) ownWall() float64 {
	if s.steal <= 0 || s.cpu <= 0 {
		return s.wall
	}
	return s.wall * s.cpu / (s.cpu + s.steal)
}

// measure runs op once and samples wall, CPU, steal and heap around it.
func measure(op func() (ops int, simS float64, err error)) (opSample, error) {
	a0, g0 := heapCounters()
	st0 := stealSeconds()
	c0 := cpuSeconds()
	t0 := time.Now()
	n, simS, err := op()
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	st1 := stealSeconds()
	a1, g1 := heapCounters()
	return opSample{ops: n, wall: wall, cpu: c1 - c0, steal: st1 - st0, allocBytes: float64(a1 - a0),
		gcCycles: float64(g1 - g0), simSeconds: simS}, err
}

// repeatFor runs op until seconds have passed (and at least minRuns
// times), timing the reference kernel after each run, and returns every
// sample.
func repeatFor(seconds float64, minRuns int, op func() (int, float64, error)) ([]opSample, error) {
	var out []opSample
	ref := newRefKernel()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(out) < minRuns || time.Now().Before(deadline) {
		s, err := measure(op)
		if err != nil {
			return nil, err
		}
		s.refRate = ref.rate()
		out = append(out, s)
	}
	return out, nil
}

// refPasses is the reference kernel's timed work per calibration: about
// 15 ms on a 2 GHz core.
const refPasses = 12

// refKernel is fixed work that belongs to the benchmark and uses only
// the standard library, so no change to the program moves it: complex
// rotations and multiply-adds over a 1 MiB buffer, the same kind of work
// as the decode path's DSP. On a shared host the machine's speed drifted
// by up to a quarter over a few minutes, even without steal. Timed right
// after each op, this kernel's speed moves with the op's speed, and the
// ratio of the two drifted about four times less.
type refKernel struct{ buf []complex128 }

func newRefKernel() *refKernel {
	k := &refKernel{buf: make([]complex128, 1<<16)}
	for i := range k.buf {
		k.buf[i] = complex(float64(i), 1)
	}
	return k
}

func (k *refKernel) pass() {
	for i := 1; i < len(k.buf); i++ {
		k.buf[i] = k.buf[i-1]*0.5 + k.buf[i]*cmplx.Rect(1, 0.1)
	}
}

// rate runs one untimed pass to bring the buffer into cache, then
// refPasses timed passes, and returns passes per CPU-second.
func (k *refKernel) rate() float64 {
	k.pass()
	c0 := cpuSeconds()
	for n := 0; n < refPasses; n++ {
		k.pass()
	}
	return refPasses / (cpuSeconds() - c0)
}

// throughput sets the end-to-end metrics shared by every workload from
// the per-operation samples, each the median over samples. The two rates
// are in reference units: ops completed in the time the reference
// kernel needs for one pass, over own wall time and over CPU time.
func throughput(res *result, samples []opSample, unit string) {
	var perRef, perRefCPU, alloc, perS, perCPU, refs []float64
	ops := 0
	var wall, steal float64
	for _, s := range samples {
		perS = append(perS, float64(s.ops)/s.ownWall())
		perCPU = append(perCPU, float64(s.ops)/s.cpu)
		perRef = append(perRef, float64(s.ops)/s.ownWall()/s.refRate)
		perRefCPU = append(perRefCPU, float64(s.ops)/s.cpu/s.refRate)
		alloc = append(alloc, s.allocBytes/float64(s.ops))
		refs = append(refs, s.refRate)
		ops += s.ops
		wall += s.wall
		steal += s.steal
	}
	res.attempted = ops
	res.set("ops_per_ref", median(perRef))
	res.set("ops_per_ref_cpu", median(perRefCPU))
	res.set("alloc_bytes_per_op", median(alloc))
	res.note("measured %d %s in %d timed repeats: %.1f op/s own wall, %.1f op/CPU-s, reference kernel %.1f passes/CPU-s, host steal %.1f%% of CPU time",
		ops, unit, len(samples), median(perS), median(perCPU), median(refs),
		100*steal/(wall*float64(runtime.NumCPU())))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (NaN if empty).
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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// commit identifies the code under test: the VCS revision when the
// binary was built inside a repository, otherwise a digest of the
// module's Go sources, go.mod files and committed grid specs.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && !strings.HasPrefix(path, "experiments/") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
