package obs

import (
	"bytes"
	"os"
	"runtime/metrics"
	"strconv"
)

// Go runtime and process memory, under the conventional Prometheus
// names so stock dashboards pick them up. They sit next to
// ir_cache_bytes on purpose: the cache's byte gauge counts what its
// entries retain, and the gap between it and the live heap is what the
// per-query scratch, the offsets table and everything else costs.
// runtime/metrics reads are cheap and do not stop the world.
var (
	_ = NewGaugeFunc("go_memstats_heap_inuse_bytes",
		"bytes in in-use heap spans (live objects plus the unused tail of their spans)",
		func() float64 {
			return runtimeMetric("/memory/classes/heap/objects:bytes") + runtimeMetric("/memory/classes/heap/unused:bytes")
		})
	_ = NewGaugeFunc("go_memstats_heap_objects",
		"objects on the heap, live or not yet swept",
		func() float64 { return runtimeMetric("/gc/heap/objects:objects") })
	_ = NewGaugeFunc("go_gc_cycles_total",
		"completed garbage-collection cycles",
		func() float64 { return runtimeMetric("/gc/cycles/total:gc-cycles") })
	_ = NewGaugeFunc("process_resident_memory_bytes",
		"resident set size from /proc/self/status (0 where that file does not exist)",
		func() float64 { return ProcStatusBytes("VmRSS") })
)

// runtimeMetric reads one uint64 runtime/metrics sample (0 if this Go
// version does not export it).
func runtimeMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// ProcStatusBytes reads one kB line of /proc/self/status ("VmRSS:
// 123456 kB") in bytes, 0 where the file or the line does not exist:
// VmRSS is the resident set, RssFile its file-backed part.
func ProcStatusBytes(name string) float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	_, rest, ok := bytes.Cut(raw, []byte(name+":"))
	if !ok {
		return 0
	}
	line, _, _ := bytes.Cut(rest, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) == 0 {
		return 0
	}
	kb, err := strconv.ParseFloat(string(fields[0]), 64)
	if err != nil {
		return 0
	}
	return kb * 1024
}
