// Command perfbench is the repository benchmark: three workloads that drive
// the simulator's public Go APIs in one process and report end-to-end
// metrics (untraced runs) or per-layer metrics (traced runs). See README.md
// for what each workload stresses and how to read the output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload aged-replay --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The two tables below
// are the metric lists of BENCHMARK.json, in the same order (a test checks
// that they agree).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"replay_rps", "1/s"},
	{"setup_s", "s"},
	{"job_p50_ms", "ms"},
	{"fork_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"workload.next_ns", "ns"},
	{"trace.decode_ns", "ns"},
	{"trace.decode_mb_s", "MB/s"},
	{"core.loop_self_ns", "ns"},
	{"emmc.submit_write_ns", "ns"},
	{"emmc.submit_read_ns", "ns"},
	{"emmc.submit_p99_ns", "ns"},
	{"emmc.gc_submit_ns", "ns"},
	{"emmc.gc_submit_frac", "ratio"},
	{"ufs.submit_read_ns", "ns"},
	{"ufs.submit_write_ns", "ns"},
	{"ufs.submit_p99_ns", "ns"},
	{"ftl.waf", "ratio"},
	{"ftl.gc_page_moves_per_kreq", "count"},
	{"ftl.erases_per_kreq", "count"},
	{"device.host_ns_per_flash_op", "ns"},
	{"core.new_device_ms", "ms"},
	{"core.new_device_alloc_mb", "MB"},
	{"core.new_device_allocs", "count"},
	{"core.restore_sealed_ms", "ms"},
	{"core.restore_alloc_mb", "MB"},
	{"storage.seal_ms", "ms"},
	{"storage.seal_bytes", "bytes"},
	{"devstore.open_device_ms", "ms"},
	{"server.post_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.fork_run_ms", "ms"},
	{"server.result_get_ms", "ms"},
	{"server.result_bytes", "bytes"},
	{"server.polls_per_job", "count"},
	{"server.poll_cpu_frac", "ratio"},
	{"runtime.alloc_bytes_per_req", "bytes"},
	{"runtime.gc_cycles", "1/Mreq"},
	{"bench.job_samples", "count"},
	{"bench.fork_samples", "count"},
	{"bench.trace_overhead_rps", "1/s"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"aged-replay": runAgedReplay,
	"read-ufs":    runReadUFS,
	"jobs-mix":    runJobsMix,
}

// run is one benchmark invocation: its settings, the metrics it reports and
// the outcome of its correctness checks.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	workdir  string   // scratch space inside the checkout, removed at exit
	spans    *spanLog // nil unless traced

	metrics           map[string]float64
	info              map[string]any
	attempted, failed int64
	problems          []string
}

// check records a failed correctness check; it returns ok.
func (r *run) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// inputSeed derives a nonzero generator seed for one input from the
// benchmark seed (splitmix64), so every workload input follows --seed and
// none collides with the repository's canonical seed by accident.
func inputSeed(seed uint64, salt string) uint64 {
	z := seed
	for _, c := range []byte(salt) {
		z = z*131 + uint64(c)
	}
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// digest is a short content hash of v's JSON form: the sim_digest of a run.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain data is digested
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload to run: aged-replay, read-ufs or jobs-mix")
	seed := flag.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 25, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// All of a run's work shares one thread: the replay, the job server and
	// its client, and the GC. The process's CPU time (cpuclock.go) then
	// counts that work and not Go's idle scheduler threads spinning for
	// more, and jobs-mix's job, client and GC never compete for the host's
	// two cores.
	runtime.GOMAXPROCS(1)
	workdir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workdir)

	r := &run{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traced == 1,
		workdir:  workdir,
		metrics:  map[string]float64{},
		info:     map[string]any{},
	}
	if r.traced {
		r.spans = newSpanLog()
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	if r.attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation was attempted\n", r.workload)
		return 1
	}
	if r.traced {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
		if err := r.spans.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		r.info["spans_file"] = path
	}
	printResult(r)
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printResult writes the informational line (host fingerprint, digests,
// sample counts, check outcomes) and then the result line. r.attempted is at
// least 1.
func printResult(r *run) {
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	r.info["workload"] = r.workload
	r.info["seed"] = r.seed
	r.info["traced"] = r.traced
	r.info["host"] = hostFingerprint()
	r.info["error_rate"] = float64(r.failed) / float64(r.attempted)
	r.info["checks_failed"] = len(r.problems)
	r.info["cal_ms"] = median(calRuns)
	info, _ := json.Marshal(r.info)
	fmt.Println(string(info))

	// End-to-end times and rates are scaled to nominal host speed
	// (calibrate.go); per-layer figures are raw.
	defs, slow := endToEnd, hostSlowdown()
	if r.traced {
		defs, slow = perLayer, 1
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v := r.metrics[d.name]
		switch d.unit {
		case "s", "ms":
			v /= slow
		case "1/s":
			v *= slow
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
}

// hostFingerprint identifies the machine and build a result came from, so
// results from different hosts are never compared as if alike.
func hostFingerprint() map[string]any {
	fp := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"go":         runtime.Version(),
		"commit":     sourceCommit(),
	}
	return fp
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceCommit is the VCS revision stamped into the build. When the sources
// were built outside a repository, or from a working tree with uncommitted
// changes, it is "tree-" plus a hash of every Go source and module file
// under the working directory, prefixed by the revision if there is one, so
// that it always names the code that was measured.
func sourceCommit() string {
	var rev string
	modified := false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if rev != "" && !modified {
		return rev
	}
	tree := treeHash()
	if rev != "" {
		return rev + "+" + tree
	}
	return tree
}

// treeHash is "tree-" plus a hash of every Go source and module file under
// the working directory.
func treeHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(body))
		h.Write(body)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil)[:10])
}
