// Command e2ebench is the repository's end-to-end benchmark. Each run
// executes one workload in this process — data generation, training,
// serving, and the load that drives it — for a fixed amount of work
// derived from -seconds, checks every answer against a reference scorer
// kept in this directory, and prints the metrics, with a JSON result as
// the last line. With -trace 1 it times the calls into each layer and
// reports per-layer metrics instead. See README.md.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(*run) error{
	"train":   runTrain,
	"serve":   runServe,
	"tenants": runTenants,
}

func main() {
	var o opts
	flag.StringVar(&o.workload, "workload", "", "workload to run: train, serve or tenants")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 26, "measurement budget; sets the fixed amount of work per phase")
	trace := flag.Int("trace", 0, "1 records per-layer spans and reports per-layer metrics")
	flag.Parse()
	o.trace = *trace == 1
	o.traceDir = filepath.Join(".bench_build", "traces")
	if err := execute(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// execute runs one workload and prints its report.
func execute(o opts, w io.Writer) error {
	fn := workloads[o.workload]
	if fn == nil {
		return fmt.Errorf("unknown workload %q (want train, serve or tenants)", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	r := newRun(o, w)
	r.logf("%s", hostLine())
	r.logf("run: workload=%s seed=%d seconds=%g trace=%v", o.workload, o.seed, o.seconds, o.trace)
	if r.tr != nil {
		r.gc.startHeapSampler()
	}
	err := fn(r)
	r.gc.stopHeapSampler()
	if err != nil {
		return err
	}
	r.e2e["rss_mb"] = peakRSSMB()
	if r.tr != nil {
		r.runtimeLayer()
	}
	return r.report()
}

// finishTrace closes the tracer, writes the spans out and returns them.
func (r *run) finishTrace() ([]span, error) {
	spans := r.tr.finish()
	path, err := writeSpans(r.o.traceDir, r.o.workload, r.o.seed, spans)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	r.logf("trace: %d spans written to %s", len(spans), path)
	return spans, nil
}

// hostLine is the run header's host fingerprint: CPU model, CPU count,
// GOMAXPROCS, the SIMD extensions the kernels select between, and the
// Go version.
func hostLine() string {
	model, flags := "unknown", map[string]bool{}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(k) {
			case "model name":
				model = strings.TrimSpace(v)
			case "flags":
				for _, fl := range strings.Fields(v) {
					flags[fl] = true
				}
			}
		}
		f.Close()
	}
	var isa []string
	for _, fl := range []string{"avx2", "fma", "avx512f", "avx512_vpopcntdq"} {
		if flags[fl] {
			isa = append(isa, fl)
		}
	}
	if len(isa) == 0 {
		isa = []string{"generic"}
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d isa=%s go=%s %s/%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), strings.Join(isa, "+"),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
