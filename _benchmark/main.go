// Command benchmark is the repository benchmark. It drives the srb monitor
// in-process from one goroutine, replaying srb-server's event loop for every
// update (frame decode → journal Begin → monitor op → journal Commit → grant
// frames encoded) over waypoint trajectories generated from --seed, checks
// every answer against a brute-force oracle and a snapshot+journal recovery,
// and prints one JSON result line.
//
//	benchmark --workload knn-steady --seed 1 --seconds 8 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, reports the per-layer metrics and the tracing
// overhead, and fails unless both runs made exactly the same counts.
// README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
)

// A --trace 0 run sets up setupReps times, half before the update phase and
// half after recovery, and recovers recoverReps times; setup_s and
// recover_s are the medians.
const (
	setupReps   = 8
	recoverReps = 3
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed: trajectories and query placements")
	seconds := flag.Int("seconds", 10, "run length; the update phase replays seconds × the workload's fixes per second")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an extra traced run")
	workDir := flag.String("workdir", ".bench_build", "existing directory for the journal and snapshot files")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	fixes := int(math.Round(float64(*seconds)*w.fixesPerSecond/segFixes)) * segFixes
	pc := passConfig{fixes: fixes, setupReps: setupReps, recoverReps: recoverReps, workDir: *workDir}
	if *trace == 1 {
		pc.setupReps, pc.recoverReps = 1, 1
	}
	plain, err := runPass(w, *seed, pc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	out := result{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}
	detail := map[string]interface{}{
		"workload": w.name, "seed": *seed, "fixes": fixes, "gomaxprocs": runtime.GOMAXPROCS(0),
		"updates": plain.c.Updates, "ack_samples": len(plain.ackNS), "register_samples": len(plain.regNS),
		"setup_s_reps": nsToS(plain.setupNS), "counts": plain.c, "failures": plain.failures,
		"busy_s": float64(plain.busyNS) / 1e9, "generator_oracle_s": float64(plain.genNS) / 1e9,
		"ack_p99_us":      segAckQuantile(plain, 0.99),
		"register_p99_us": chunkQuantiles(plain.regNS, regChunk, 0.99)[0] / 1e3,
	}
	if *trace == 0 {
		endToEnd(plain, w, out.Metrics)
	} else {
		pc.traced = true
		traced, err := runPass(w, *seed, pc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		out.Attempted += traced.attempted + 1
		out.Failed += traced.failed
		if !reflect.DeepEqual(plain.c, traced.c) {
			out.Failed++
			detail["traced_counts"] = traced.c
			traced.note("the traced run's counts differ from the untraced run's")
		}
		detail["traced_failures"] = traced.failures
		perLayer(plain, traced, out.Metrics)
		detail["spans"] = spanTable(traced.lt)
	}
	out.Correct = out.Failed == 0
	if b, err := json.Marshal(detail); err == nil {
		fmt.Fprintln(os.Stderr, string(b))
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// quantile returns the nearest-rank q-quantile of xs, which it sorts.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// medianF is the median of xs (the mean of the middle two for even n).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianNS(xs []int64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return medianF(f)
}

func nsToS(xs []int64) []float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x) / 1e9
	}
	return f
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// chunkQuantiles returns the median over consecutive chunks of xs of each
// chunk's q-quantile, for each q. A short last chunk joins the one before.
func chunkQuantiles(xs []int64, size int, qs ...float64) []float64 {
	var per [][]float64
	for lo := 0; lo < len(xs); {
		hi := lo + size
		if hi > len(xs) || len(xs)-hi < size {
			hi = len(xs)
		}
		c := append([]int64(nil), xs[lo:hi]...)
		row := make([]float64, len(qs))
		for i, q := range qs {
			row[i] = float64(quantile(c, q))
		}
		per = append(per, row)
		lo = hi
	}
	out := make([]float64, len(qs))
	for i := range qs {
		col := make([]float64, len(per))
		for j := range per {
			col[j] = per[j][i]
		}
		out[i] = medianF(col)
	}
	return out
}

// endToEnd fills the metrics a user of the system sees. Update-phase
// timings are medians over segments, registration latencies medians over
// chunks, setup_s and recover_s medians over repetitions. The gated tails
// are p90s; the p99s, which on a small shared box mostly measure which ops
// a garbage collection or a stolen core catches, are in the detail line.
func endToEnd(r *passResult, w workload, m map[string]metric) {
	var rate, msPerTU []float64
	for _, sg := range r.segs {
		rate = append(rate, ratio(float64(sg.updates), float64(sg.busyNS)/1e9))
		msPerTU = append(msPerTU, float64(sg.busyNS)/1e6/(segFixes*dt))
	}
	reg := chunkQuantiles(r.regNS, regChunk, 0.50, 0.90)
	rec := make([]float64, len(r.loadNS))
	for i := range rec {
		rec[i] = float64(r.loadNS[i]+r.replayNS[i]) / 1e9
	}
	m["ack_p50_us"] = metric{segAckQuantile(r, 0.50), "us"}
	m["ack_p90_us"] = metric{segAckQuantile(r, 0.90), "us"}
	m["updates_per_s"] = metric{medianF(rate), "1/s"}
	m["server_ms_per_tu"] = metric{medianF(msPerTU), "ms"}
	m["comm_cost"] = metric{ratio(float64(r.c.Updates)+1.5*float64(r.c.FixStats.Probes), float64(w.n)*r.simT), "msgs/obj/tu"}
	m["register_p50_us"] = metric{reg[0] / 1e3, "us"}
	m["register_p90_us"] = metric{reg[1] / 1e3, "us"}
	m["recover_s"] = metric{medianF(rec), "s"}
	m["setup_s"] = metric{medianNS(r.setupNS) / 1e9, "s"}
	m["heap_mb"] = metric{float64(r.heapBytes) / (1 << 20), "MiB"}
}

// perLayer fills the per-layer metrics: times from the traced pass, counts
// and runtime figures from the untraced one (they are equal or unperturbed).
func perLayer(plain, traced *passResult, m map[string]metric) {
	lt := traced.lt
	c := plain.c
	upd := float64(c.Updates)
	regs := float64(c.Registers)
	mean := func(k spanKind) float64 { return ratio(float64(lt.total[k]), float64(lt.count[k])) }
	self := func(k spanKind) float64 { return ratio(float64(lt.self[k]), float64(lt.count[k])) }

	m["wire.decode_ns"] = metric{mean(spDecode), "ns"}
	m["wire.encode_ns"] = metric{mean(spEncode), "ns"}
	m["wire.bytes_per_update"] = metric{ratio(float64(c.UpdInBytes+c.UpdOutBytes), upd), "B"}

	m["journal.commit_ns"] = metric{self(spJournal), "ns"}
	m["journal.bytes_per_update"] = metric{ratio(float64(c.JournalBytes), upd), "B"}

	m["monitor.update_self_ns"] = metric{self(spUpdate), "ns"}
	m["monitor.register_self_ns"] = metric{self(spRegister), "ns"}
	m["monitor.safe_regions_per_update"] = metric{ratio(float64(c.UpdStats.SafeRegionsBuilt), upd), "count"}
	m["monitor.reevals_per_update"] = metric{ratio(float64(c.UpdStats.Reevaluations), upd), "count"}
	m["monitor.full_reeval_ratio"] = metric{ratio(float64(c.Stats.FullReevals), float64(c.Stats.Reevaluations)), "ratio"}
	m["monitor.probes_per_update"] = metric{ratio(float64(c.UpdStats.Probes), upd), "count"}
	m["monitor.probes_per_register"] = metric{ratio(float64(c.RegStats.Probes), regs), "count"}
	m["monitor.probes_avoided_ratio"] = metric{ratio(float64(c.Stats.ProbesAvoided), float64(c.Stats.ProbesAvoided+c.Stats.Probes)), "ratio"}

	m["index.update_ns"] = metric{mean(spIdxUpdate), "ns"}
	m["index.calls_per_update"] = metric{ratio(float64(lt.idxInUpdate), float64(lt.count[spUpdate])), "count"}
	m["index.collect_ns"] = metric{mean(spIdxCollect), "ns"}
	m["index.items_per_collect"] = metric{ratio(float64(lt.items[spIdxCollect]), float64(lt.count[spIdxCollect])), "count"}
	m["index.visits_per_search"] = metric{ratio(float64(lt.count[spIdxVisit]), float64(lt.count[spIdxSeeds])), "count"}
	m["index.visit_ns"] = metric{mean(spIdxVisit), "ns"}

	m["shard.migrations_per_update"] = metric{ratio(float64(c.Migrations), upd), "count"}
	m["shard.scatters_per_register"] = metric{ratio(float64(c.RegScatters), regs), "count"}
	m["shard.strays"] = metric{float64(c.Strays), "count"}

	m["pipeline.plan_ns_per_burst"] = metric{mean(spPlan), "ns"}
	m["pipeline.apply_ns_per_update"] = metric{ratio(float64(lt.pipeUpdateTotal), float64(lt.pipeUpdates)), "ns"}
	m["pipeline.fast_fraction"] = metric{ratio(float64(c.Pipeline.Fast), float64(c.Pipeline.Updates)), "ratio"}
	m["pipeline.plan_waste"] = metric{ratio(float64(c.Pipeline.Planned-c.Pipeline.Fast), float64(c.Pipeline.Planned)), "ratio"}

	m["snapshot.save_s"] = metric{float64(plain.snapSaveNS) / 1e9, "s"}
	m["snapshot.bytes"] = metric{float64(c.SnapshotBytes), "B"}
	m["recovery.load_s"] = metric{medianNS(plain.loadNS) / 1e9, "s"}
	m["recovery.replay_s"] = metric{medianNS(plain.replayNS) / 1e9, "s"}
	m["recovery.entries_per_s"] = metric{ratio(float64(c.ReplayEntries), medianNS(plain.replayNS)/1e9), "1/s"}

	m["probe.ns"] = metric{mean(spProbe), "ns"}

	m["gc.pause_ms"] = metric{float64(plain.gcPauseNS) / 1e6, "ms"}
	m["alloc.bytes_per_update"] = metric{ratio(float64(plain.allocBytes), upd), "B"}
	m["alloc.objects_per_update"] = metric{ratio(float64(plain.allocObjs), upd), "count"}

	m["bench.driver_s"] = metric{float64(plain.genNS) / 1e9, "s"}
	m["trace.overhead"] = metric{ratio(medianSegBusy(traced), medianSegBusy(plain)) - 1, "ratio"}
}

// segAckQuantile is the median over segments of each segment's q-quantile
// ack latency, in microseconds.
func segAckQuantile(r *passResult, q float64) float64 {
	var v []float64
	for _, sg := range r.segs {
		v = append(v, float64(quantile(append([]int64(nil), r.ackNS[sg.ack0:sg.ack1]...), q))/1e3)
	}
	return medianF(v)
}

func medianSegBusy(r *passResult) float64 {
	b := make([]float64, len(r.segs))
	for i, sg := range r.segs {
		b[i] = float64(sg.busyNS)
	}
	return medianF(b)
}

// spanTable summarizes the traced pass per span kind for the detail line.
func spanTable(lt *layerTotals) map[string][3]int64 {
	out := map[string][3]int64{}
	for k := spanKind(0); k < numSpanKinds; k++ {
		if lt.count[k] > 0 {
			out[spanNames[k]] = [3]int64{lt.count[k], lt.total[k], lt.self[k]}
		}
	}
	return out
}
