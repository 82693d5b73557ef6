// Command vubench is the repository's benchmark: it preloads a base
// through the program's own entry points, serves it with vuserved,
// drives a seeded closed-loop workload over loopback HTTP, kills the
// primary with SIGKILL, restarts it, and checks every output against
// models computed apart from the program. See README.md.
//
//	bash vubench/run.sh --workload sp-small --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics of a traced in-process run with
// --trace 1.
package main

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	mrand "math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
)

// defaultSeed is the seed the README's reference figures use.
const defaultSeed = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	build := flag.String("build", ".bench_build", "directory with the vuserved binary; run data goes below it")
	name := flag.String("workload", "sp-small", "workload: sp-small, sp-large or spj-mix")
	seedFlag := flag.String("seed", strconv.Itoa(defaultSeed), `input seed, or "fresh" for a random one (printed)`)
	seconds := flag.Int("seconds", 10, "run length: sets the fixed number of operations (about this many seconds of work)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	flag.Parse()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() { fatal(fmt.Errorf("stopped by %v", <-sigs)) }()

	w, err := workloadNamed(*name)
	if err != nil {
		fatal(err)
	}
	seed, err := parseSeed(*seedFlag)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	bin := filepath.Join(*build, "vuserved")
	if _, err := os.Stat(bin); err != nil {
		fatal(fmt.Errorf("vuserved binary: %w (run through vubench/run.sh)", err))
	}
	measured := max(2, int(math.Round(float64(*seconds)*w.cyclesPerSecond)))
	warm := max(2, measured/10)
	fmt.Printf("workload %s seed %d: %d warm-up and %d measured cycles per client\n", w.name, seed, warm, measured)
	gen := func() *inputs { return w.gen(w, mrand.New(mrand.NewSource(seed)), warm, measured) }
	env := &runEnv{bin: bin, dir: filepath.Join(*build, "run", w.name), w: w}

	var res *result
	if *trace == 0 {
		res = env.untraced(gen(), w.setups, w.recoveries).endToEnd()
	} else {
		base := env.untraced(gen(), 2, 2)
		base.endToEnd() // prints the untraced figures the overhead is taken against
		spans := filepath.Join(*build, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		res = env.traced(gen(), base, spans)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-36s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func parseSeed(s string) (int64, error) {
	if s == "fresh" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return 0, err
		}
		seed := int64(binary.LittleEndian.Uint64(b[:]) >> 33)
		fmt.Printf("fresh seed: %d\n", seed)
		return seed, nil
	}
	return strconv.ParseInt(s, 10, 64)
}

func fatal(err error) {
	stopAll()
	fmt.Fprintln(os.Stderr, "vubench:", err)
	os.Exit(1)
}

// median and quantile use the same inclusive interpolation as Python's
// statistics.quantiles(method="inclusive").
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
