package main

import (
	"fmt"
	"strings"
)

// Workload names are stable: later issues cite them.
const (
	wFig12       = "fig12-sweep"
	wInstantiate = "instantiate-scale"
	wFire        = "fire-steady"
	wBatch       = "pipeline-batch"
	wScalar      = "pipeline-scalar"
	wNPB         = "npb"
	wServe       = "serve-sessions"
	wRemote      = "remote-tcp"
)

type workloadDef struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json
	run  func(*run) error
}

// workloads lists the eight workloads in the order a full set runs them.
var workloads = []workloadDef{
	{wFig12, "Paper Fig. 12: 18 connlib connectors x N in {2,8,32} under the free-running driver; engine dispatch, op registration and lock contention do the work, links and compile do none", runFig12},
	{wInstantiate, "Paper headline (compile once, instantiate any N): fresh Compile, then Connect(N), first item, 64 items, Close for N=2..64; front end, Instantiate and first expansion do the work, steady dispatch none", runInstantiate},
	{wFire, "Pure dispatch: one task alternating Send/Recv on a warmed Fifo1 lane; no parking, links or contention, so it bypasses every link/runtime/wire optimisation", runFire},
	{wBatch, "8-stage Fifo1 chain on the shared runtime moved in batches of 64: region links, fused bursts and runtime wake-ups dominate, registration is amortised away", runBatch},
	{wScalar, "The same chain, options and values with k=1 plus a one-in-flight phase: per-item registration and park/wake dominate, fusion never triggers; shows a batch-path gain that taxes the scalar path", runScalar},
	{wNPB, "Paper Fig. 13: NPB kernels on the Reo fabric with 4 slaves; compute-bound, so coordination-layer changes predict no movement and a regression means cost leaked into tasks", runNPB},
	{wServe, "The real reo-serve binary over loopback HTTP, 2 closed-loop clients churning sessions: WithReuse pool and shared-Runtime attach/detach under HTTP/JSON; bypass for dispatch changes", runServe},
	{wRemote, "RemoteLanes split across two WithRemoteRegions instances over real loopback sockets: wire codec, credit/ack pumps, syscalls; capacity-1 links make it RTT-bound, so dispatch changes predict no movement", runRemote},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef is one end-to-end metric: what a user of the system sees.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline's median by which the metric may
	// get worse before -compare calls it worse; 0 means it must repeat
	// exactly.
	Bound float64
	// Workloads it is reported on; nil means every workload.
	Workloads []string
	// Gated metrics are the ones BENCHMARK.json lists as end_to_end. The
	// driver wants every one of them from every run, never 0, and steady
	// from run to run, so only metrics that are defined on all eight
	// workloads and held their spread there qualify (README, "Bounds").
	Gated bool
}

func (d metricDef) appliesTo(w string) bool {
	if d.Workloads == nil {
		return true
	}
	for _, x := range d.Workloads {
		if x == w {
			return true
		}
	}
	return false
}

// endToEnd is the registry of end-to-end metrics. Bounds were measured
// (README, "Bounds"), not guessed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, nil, true},
	{"ops_per_s", "1/s", "higher", 0.25, nil, true},
	{"op_p50_us", "us", "lower", 0.25, nil, true},
	{"op_p99_us", "us", "lower", 0.25, []string{wBatch, wScalar, wNPB, wServe, wRemote}, false},
	{"steps_per_s", "1/s", "higher", 0.25, []string{wFig12, wFire}, false},
	{"items_per_s", "1/s", "higher", 0.25, []string{wBatch, wScalar, wServe, wRemote}, false},
	{"compile_ms", "ms", "lower", 0.25, []string{wInstantiate}, false},
	{"connect_us", "us", "lower", 0.25, []string{wInstantiate}, false},
	{"first_item_us", "us", "lower", 0.25, []string{wInstantiate}, false},
	{"wall_s", "s", "lower", 0.25, []string{wNPB}, false},
	{"peak_rss_mb", "MB", "lower", 0.25, []string{wInstantiate, wServe}, false},
	{"allocs_per_op", "count", "lower", 0, []string{wFire, wBatch, wScalar, wRemote}, false},
	{"failed_ops_share", "share", "lower", 0, nil, false},
}

func mustMetric(name string) metricDef {
	for _, d := range endToEnd {
		if d.Name == name {
			return d
		}
	}
	panic("benchmark: metric " + name + " is not in the registry")
}

// layerDef is one per-layer metric of the traced run. Moves names the
// end-to-end metric and workload the layer is expected to move — the
// prediction a later change is held against.
type layerDef struct {
	Name   string
	Unit   string
	Better string
	Layer  string
	Moves  string
}

// expand writes a.{x,y} style families out: one layerDef per suffix.
func family(prefix string, suffixes []string, unit, better, layer, moves string) []layerDef {
	var out []layerDef
	for _, s := range suffixes {
		out = append(out, layerDef{prefix + s, unit, better, layer, moves})
	}
	return out
}

var npbKernels = []string{"CG", "MG", "FT", "LU", "IS"}

// shareLayers are the span groups the traced workload's wall time is
// attributed to (share.<group>).
var shareLayers = []string{"compile", "connect", "port_ops", "close", "drive", "npb", "http", "oracle", "harness"}

var perLayer = buildPerLayer()

func buildPerLayer() []layerDef {
	const (
		onCompile  = "compile_ms -> instantiate-scale"
		onConnect  = "connect_us -> instantiate-scale"
		onFirst    = "first_item_us -> instantiate-scale"
		onDispatch = "steps_per_s -> fire-steady, fig12-sweep; none on npb, remote-tcp"
		onBatch    = "items_per_s -> pipeline-batch"
		onScalar   = "items_per_s, op_p50_us -> pipeline-scalar"
		onServe    = "items_per_s, op_p50_us, peak_rss_mb -> serve-sessions"
		onRemote   = "items_per_s, op_p50_us -> remote-tcp"
		onNPB      = "wall_s -> npb"
		recorded   = "recorded only"
	)
	var l []layerDef
	add := func(name, unit, better, layer, moves string) {
		l = append(l, layerDef{name, unit, better, layer, moves})
	}
	add("parser.parse_us", "us", "lower", "parser", onCompile)
	add("parser.bytes_per_s", "1/s", "higher", "parser", onCompile)
	add("sema.check_us", "us", "lower", "sema", onCompile)
	add("compile.build_us", "us", "lower", "compile", onCompile)
	l = append(l, family("instantiate.us.", []string{"n2", "n8", "n32", "n64"}, "us", "lower", "compile.Instantiate", onConnect)...)
	add("instantiate.auts.n64", "count", "lower", "compile.Instantiate", onConnect)
	add("ca.plan_regions_us.n64", "us", "lower", "ca", "connect_us -> instantiate-scale; setup_s -> pipeline-*")
	add("ca.regions.n64", "count", "higher", "ca", recorded)
	add("ca.links.n64", "count", "higher", "ca", recorded)
	add("ca.static_product_us.n8", "us", "lower", "ca", recorded)
	add("ca.static_failed_cells", "count", "lower", "ca", recorded)
	add("engine.new_us.n64", "us", "lower", "engine build", onConnect)
	add("engine.new_regions_us.n64", "us", "lower", "engine build", onConnect)
	add("engine.ns_per_step.fire", "ns", "lower", "engine dispatch", onDispatch)
	add("engine.send_ns", "ns", "lower", "engine dispatch", onDispatch)
	add("engine.recv_ns", "ns", "lower", "engine dispatch", onDispatch)
	l = append(l, family("engine.guard_evals_per_step.", []string{"fire", "fig12"}, "count", "lower", "engine dispatch", onDispatch)...)
	l = append(l, family("engine.ns_per_step.fig12_", []string{"n2", "n8", "n32"}, "ns", "lower", "engine dispatch", onDispatch)...)
	l = append(l, family("engine.steps.", []string{"fire", "pipeline"}, "count", "lower", "engine dispatch", "exact for the fixed item count")...)
	l = append(l, family("engine.expansions.", []string{"fig12_n32", "instantiate_n64"}, "count", "lower", "engine expansion", "first_item_us -> instantiate-scale; steps_per_s -> fig12-sweep (N=32 cells)")...)
	add("engine.first_step_us.n64", "us", "lower", "engine expansion", onFirst)
	add("link.ns_per_crossing", "ns", "lower", "engine.link", onScalar)
	add("link.ns_per_crossing.batch64", "ns", "lower", "engine.link", onBatch)
	add("runtime.transit_us.sync", "us", "lower", "engine.runtime", onScalar)
	add("runtime.transit_us.shared", "us", "lower", "engine.runtime", onScalar)
	add("runtime.handoff_us", "us", "lower", "engine.runtime", "op_p50_us -> pipeline-scalar; items_per_s -> pipeline-batch")
	add("runtime.workers", "count", "higher", "engine.runtime", recorded)
	add("reo.connect_fresh_us", "us", "lower", "reo API / pool", onConnect)
	add("reo.connect_reused_us", "us", "lower", "reo API / pool", onServe)
	add("reo.close_us", "us", "lower", "reo API / pool", onServe)
	add("reo.churn_cycles_per_s", "1/s", "higher", "reo API / pool", onServe)
	add("reo.churn_allocs_per_cycle", "count", "lower", "reo API / pool", onServe)
	add("reo.heap_kb_per_instance", "KB", "lower", "reo API / pool", "peak_rss_mb -> serve-sessions")
	kinds := []string{"int", "bulk1k", "batch4"}
	l = append(l, family("wire.write_ns.", kinds, "ns", "lower", "wire", onRemote)...)
	l = append(l, family("wire.read_ns.", kinds, "ns", "lower", "wire", onRemote)...)
	l = append(l, family("wire.bytes_per_frame.", kinds, "B", "lower", "wire", "exact")...)
	add("wire.allocs_per_frame", "count", "lower", "wire", "allocs_per_op -> remote-tcp")
	l = append(l, family("tcp.items_per_s.", []string{"lanes1", "lanes4", "bulk1k_lanes4"}, "1/s", "higher", "engine.tcp", onRemote)...)
	add("tcp.lane_overlap", "ratio", "higher", "engine.tcp", onRemote)
	add("tcp.pair_connect_ms", "ms", "lower", "engine.tcp", "setup_s -> remote-tcp")
	add("mem.items_per_s.lanes4", "1/s", "higher", "engine.link", recorded)
	add("gen.generate_parametric_ms", "ms", "lower", "gen", recorded)
	add("gen.emitted_bytes", "B", "lower", "gen", recorded)
	add("gen.templates", "count", "lower", "gen", recorded)
	add("genrun.new_us.n16", "us", "lower", "genrun", recorded)
	add("gen.ns_per_step.fabric_n16", "ns", "lower", "genrun", recorded)
	add("engine.ns_per_step.fabric_n16", "ns", "lower", "engine dispatch", recorded)
	add("gen.speedup.fabric_n16", "ratio", "higher", "genrun", "the gap one firing core must close")
	for _, k := range npbKernels {
		variants := []string{"reo_ms", "orig_ms", "gen_ms"}
		if k == "LU" {
			// The generated fabric has no slave pipeline, which LU needs.
			variants = variants[:2]
		}
		l = append(l, family("npb."+k+".", variants, "ms", "lower", "npb", onNPB)...)
		add("npb."+k+".steps", "count", "lower", "npb", "exact")
	}
	add("npb.reo_vs_orig", "ratio", "lower", "npb", "the Fig. 13 comparison")
	l = append(l, family("serve.", []string{"create_us", "send_us", "recv_us", "delete_us"}, "us", "lower", "reo-serve", onServe)...)
	// The two end-to-end metrics that are 0 by design cannot be gated by
	// the driver (it wants metrics that are never 0), so they are recorded
	// here, per workload that pins them.
	l = append(l, family("allocs_per_op.", []string{"fire", "batch64", "scalar", "tcp_lanes4"}, "count", "lower", "engine", "allocs_per_op, exact 0")...)
	add("harness.failed_ops_share", "share", "lower", "harness", "exact 0")
	add("harness.build_s", "s", "lower", "harness", recorded)
	add("harness.gomaxprocs", "count", "higher", "harness", recorded)
	add("harness.cores", "count", "higher", "harness", recorded)
	add("trace.overhead_share", "share", "lower", "harness", recorded)
	add("trace.spans", "count", "lower", "harness", recorded)
	l = append(l, family("share.", shareLayers, "share", "lower", "traced workload", "self time of the workload's own spans")...)
	return l
}

func layerByName(name string) (layerDef, bool) {
	for _, d := range perLayer {
		if d.Name == name {
			return d, true
		}
	}
	return layerDef{}, false
}

// checkRegistry panics on a malformed registry: names must fit the
// driver's grammar and be unique.
func checkRegistry() {
	seen := make(map[string]bool)
	check := func(name string) {
		ok := name != "" && len(name) <= 64
		for i, c := range name {
			alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
			if !alnum && (i == 0 || !strings.ContainsRune("_.-", c)) {
				ok = false
			}
		}
		if !ok || seen[name] {
			panic(fmt.Sprintf("benchmark: bad or duplicate name %q in the registry", name))
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
	}
	for _, d := range endToEnd {
		check(d.Name)
	}
	for _, d := range perLayer {
		check(d.Name)
	}
}
