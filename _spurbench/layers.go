package main

// layerMetrics is everything a traced run measured; emitLayers turns it
// into the fixed per-layer metric list. Every workload prints every
// per-layer metric: a layer the workload bypasses reads 0 (no calls, no
// time), which is itself the measurement.
type layerMetrics struct {
	// split holds the cells' time split and simulated counts, per sweep
	// pass (sweeps) or per cold compute (fleet).
	split layerSplit
	// genRefs is the reference count behind split.gen when it differs
	// from split.refs (the sampled sweep times generation on its own).
	genRefs int64
	// cellSecs are one pass's per-cell (or per-group) program
	// times, wall that pass's wall time and busy the worker-seconds its
	// wall covers, for the parallel-layer metrics; workers is the pass's
	// worker count.
	cellSecs   []float64
	wall, busy float64
	workers    int
	// overhead is traced wall over untraced wall, minus 1.
	overhead float64
	sampled  *sampledLayers
	budget   float64
	fleet    *fleetLayers
	// attempted and failed are the run's operation counts.
	attempted, failed int
}

// fleetLayers is the service-fleet workload's split.
type fleetLayers struct {
	reqPerS                                       float64
	hitP50, hitP99, proxyHitP50, coldP50, coldP90 float64 // ms
	getUsP50, putMsP50                            float64
	hits, misses                                  float64
	handlerHitUsP50, computeMsP50                 float64
	rejected, deduped                             float64
	proxiedFrac, proxyHopMs                       float64
	outboxPendingEnd, outboxDrainS                float64
	clientOverheadUs                              float64
	coldTimeFrac                                  float64
}

func emitLayers(res *result, m layerMetrics) {
	s := m.split
	genRefs := m.genRefs
	if genRefs == 0 {
		genRefs = s.refs
	}
	res.add("workload.gen_s", s.gen, "s")
	res.add("workload.ns_per_ref", 1e9*ratio(s.gen, float64(genRefs)), "ns")
	res.add("core.access_s", s.access, "s")
	res.add("core.access_ns_per_ref", 1e9*ratio(s.access, float64(s.refs)), "ns")
	res.add("core.refs", float64(s.ev.Refs), "count")
	res.add("core.misses", float64(s.ev.Misses), "count")
	res.add("core.miss_ratio", ratio(float64(s.ev.Misses), float64(s.ev.Refs)), "ratio")
	res.add("core.nds", float64(s.ev.Nds), "count")
	res.add("core.ndm", float64(s.ev.Ndm), "count")
	res.add("core.ref_faults", float64(s.ev.RefFaults), "count")
	res.add("core.page_flushes", float64(s.ev.PageFlushes), "count")
	res.add("vm.page_ins", float64(s.pager.PageIns), "count")
	res.add("vm.page_outs", float64(s.pager.PageOuts), "count")
	res.add("vm.zero_fills", float64(s.pager.ZeroFills), "count")
	res.add("vm.scans", float64(s.pager.Scans), "count")
	res.add("vm.reclaims", float64(s.pager.Reclaims), "count")

	timed := s.setup + s.gen + s.access + s.audit
	loop := 0.0
	if s.cells > 0 {
		loop = s.cells - timed
	}
	res.add("machine.setup_s", s.setup, "s")
	res.add("machine.cell_s", s.cells, "s")
	res.add("machine.audit_s", s.audit, "s")
	res.add("machine.loop_s", loop, "s")

	res.add("parallel.cells", float64(len(m.cellSecs)), "count")
	res.add("parallel.cell_s_p50", median(m.cellSecs), "s")
	res.add("parallel.cell_s_max", maxOf(m.cellSecs), "s")
	res.add("parallel.worker_util", ratio(m.busy, m.wall*float64(m.workers)), "ratio")

	var sl sampledLayers
	if m.sampled != nil {
		sl = *m.sampled
	}
	res.add("sample.profile_s", sl.profile, "s")
	res.add("sample.plan_s", sl.plan, "s")
	res.add("sample.measure_s", sl.measure, "s")
	res.add("sample.estimate_s", sl.estimate, "s")
	res.add("sample.detailed_refs", float64(sl.detailed), "refs")
	res.add("sample.detailed_frac", ratio(float64(sl.detailed), m.budget), "ratio")

	var f fleetLayers
	if m.fleet != nil {
		f = *m.fleet
	}
	res.add("expstore.get_us_p50", f.getUsP50, "us")
	res.add("expstore.put_ms_p50", f.putMsP50, "ms")
	res.add("expstore.hits", f.hits, "count")
	res.add("expstore.misses", f.misses, "count")
	res.add("expstore.hit_ratio", ratio(f.hits, f.hits+f.misses), "ratio")
	res.add("server.handler_hit_us_p50", f.handlerHitUsP50, "us")
	res.add("server.compute_ms_p50", f.computeMsP50, "ms")
	res.add("server.rejected", f.rejected, "count")
	res.add("server.deduped", f.deduped, "count")
	res.add("cluster.proxied_frac", f.proxiedFrac, "ratio")
	res.add("cluster.proxy_hop_ms", f.proxyHopMs, "ms")
	res.add("cluster.outbox_pending_end", f.outboxPendingEnd, "count")
	res.add("cluster.outbox_drain_s", f.outboxDrainS, "s")
	res.add("client.overhead_us", f.clientOverheadUs, "us")
	res.add("fleet.req_per_s", f.reqPerS, "req/s")
	res.add("fleet.hit_p50_ms", f.hitP50, "ms")
	res.add("fleet.hit_p99_ms", f.hitP99, "ms")
	res.add("fleet.proxy_hit_p50_ms", f.proxyHitP50, "ms")
	res.add("fleet.cold_p50_ms", f.coldP50, "ms")
	res.add("fleet.cold_p90_ms", f.coldP90, "ms")
	res.add("fleet.cold_time_frac", f.coldTimeFrac, "ratio")

	res.add("fail_frac", ratio(float64(m.failed), float64(m.attempted)), "ratio")
	res.add("trace.overhead_frac", m.overhead, "ratio")
	coverage := ratio(timed, s.traced)
	if m.sampled != nil {
		coverage = ratio(sl.profile+sl.plan+sl.measure+sl.estimate, sl.groups)
	}
	res.add("trace.coverage_frac", coverage, "ratio")
}
