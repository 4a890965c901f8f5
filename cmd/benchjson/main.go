// Command benchjson summarises `go test -bench` output as the JSON
// record `make bench-json PR=<n>` writes to BENCH_<n>.json. Each
// benchmark, run -count times, becomes one entry holding the median,
// minimum and maximum of every metric it reports — ns/op, B/op,
// allocs/op and its custom metrics. The min–max range is the spread
// within one run of -count repetitions; it understates the spread
// between runs on a shared host. The record also carries the Go
// version, GOMAXPROCS, host, CPU and commit of the run.
//
// Usage:
//
//	go test -run '^$' -bench . -count 6 ./... | go run ./cmd/benchjson -commit "$(git describe --always --dirty)" > BENCH_N.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Report is the BENCH_<n>.json document.
type Report struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Host       string  `json:"host"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Benchmarks []Bench `json:"benchmarks"`
}

// Bench is one benchmark's runs: Metrics maps each unit it reports
// (ns/op, B/op, allocs/op, custom ones) to the spread of its values.
type Bench struct {
	Pkg     string          `json:"pkg"`
	Name    string          `json:"name"`
	Runs    int             `json:"runs"`
	Metrics map[string]Stat `json:"metrics"`
}

// Stat is the median, minimum and maximum of one metric over the runs.
type Stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// parse reads `go test -bench` output. A benchmark's name loses its
// -GOMAXPROCS suffix, which becomes the report's GOMAXPROCS (1 when no
// name carries one, as go test prints it); lines that are not a
// benchmark result or a pkg/cpu header are skipped.
func parse(r io.Reader) (Report, error) {
	var rep Report
	type key struct{ pkg, name string }
	var order []key
	samples := map[key]map[string][]float64{}
	runs := map[key]int{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			rep.CPU = v
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // a benchmark's name on a line of its own, or its log
		}
		name, procs := f[0], 1
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if p, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], p
			}
		}
		if rep.GOMAXPROCS == 0 {
			rep.GOMAXPROCS = procs
		} else if procs != rep.GOMAXPROCS {
			return Report{}, fmt.Errorf("%s ran at GOMAXPROCS %d, the others at %d", f[0], procs, rep.GOMAXPROCS)
		}
		k := key{pkg, name}
		if samples[k] == nil {
			samples[k] = map[string][]float64{}
			order = append(order, k)
		}
		runs[k]++
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return Report{}, fmt.Errorf("%s: metric %q: %v", f[0], f[i+1], err)
			}
			samples[k][f[i+1]] = append(samples[k][f[i+1]], v)
		}
	}
	if err := sc.Err(); err != nil {
		return Report{}, err
	}
	for _, k := range order {
		b := Bench{Pkg: k.pkg, Name: k.name, Runs: runs[k], Metrics: map[string]Stat{}}
		for unit, vs := range samples[k] {
			b.Metrics[unit] = spread(vs)
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return rep, nil
}

// spread returns the median (the mean of the middle two of an even
// count), minimum and maximum of vs.
func spread(vs []float64) Stat {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return Stat{Median: med, Min: s[0], Max: s[n-1]}
}

func main() {
	commit := flag.String("commit", "unknown", "the commit the benchmarks ran at")
	flag.Parse()
	rep, err := parse(os.Stdin)
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	if len(rep.Benchmarks) == 0 {
		log.Fatal("benchjson: no benchmark results on stdin")
	}
	rep.Go = runtime.Version()
	rep.Commit = *commit
	if rep.Host, err = os.Hostname(); err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	os.Stdout.Write(append(out, '\n'))
}
