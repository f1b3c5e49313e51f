//! Per-layer numbers, reduced from the spans of traced missions as each
//! mission ends.

use crate::stats::{nearest_rank, percentile, self_time, sorted};
use crate::timed::{Layer, Span, Tally, Trace};
use crate::workloads::Flight;

/// Per-layer accumulators over the traced missions of one run.
#[derive(Debug, Default)]
pub struct LayerStats {
    /// Traced missions absorbed.
    pub missions: u64,
    wall_ns: u64,
    quanta: u64,
    step_ns: u64,
    self_ns: u64,
    step_us: Vec<f64>,
    self_us: Vec<f64>,
    env_ns: u64,
    env_step_us: Vec<f64>,
    env_data_us: Vec<f64>,
    grant_ns: u64,
    grant_us: Vec<f64>,
    cycles: u64,
    cost_grants: u64,
    cost_ns: u64,
    /// Wall of every call the synchronizer makes on its RTL endpoint.
    rtl_calls_ns: u64,
    send_us: Vec<f64>,
    recv_us: Vec<f64>,
    packets: u64,
    bytes: u64,
    errors: u64,
    retries: u64,
    resyncs: u64,
    injected: u64,
    hits: u64,
    misses: u64,
}

fn us(span: &Span) -> f64 {
    span.ns() as f64 / 1e3
}

fn total_ns<'a>(spans: impl IntoIterator<Item = &'a Span>) -> u64 {
    spans.into_iter().map(Span::ns).sum()
}

impl LayerStats {
    /// Adds one traced mission that ran from `start` to `end` (ns on the
    /// run's span clock).
    pub fn absorb(&mut self, start: u64, end: u64, flight: &Flight) {
        self.missions += 1;
        self.wall_ns += end - start;
        self.hits += flight.cache.0;
        self.misses += flight.cache.1;
        self.retries += flight.recovery.retries;
        self.resyncs += flight.recovery.resyncs;
        self.injected += flight.injected;
        let Some(trace) = &flight.trace else {
            return;
        };
        let Trace {
            steps,
            env,
            proxy,
            wire,
            soc,
        } = trace;

        // Self time of each step: its wall minus the union of every layer
        // span under it (env and RTL overlap in parallel mode; transport
        // calls nest inside the grant that made them).
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); steps.spans.len()];
        for tally in [Some(env), proxy.as_ref(), wire.as_ref(), Some(soc)]
            .into_iter()
            .flatten()
        {
            for span in &tally.spans {
                let parent = usize::try_from(span.quantum).ok();
                if let Some(kids) = parent.and_then(|q| children.get_mut(q)) {
                    kids.push((span.start, span.end));
                }
            }
        }
        for (step, kids) in steps.spans.iter().zip(&mut children) {
            let own = self_time((step.start, step.end), kids);
            self.self_ns += own;
            self.self_us.push(own as f64 / 1e3);
            self.step_ns += step.ns();
            self.step_us.push(us(step));
        }
        self.quanta += steps.spans.len() as u64;

        self.env_ns += total_ns(&env.spans);
        for span in &env.spans {
            match span.layer {
                Layer::EnvStep => self.env_step_us.push(us(span)),
                Layer::EnvData => self.env_data_us.push(us(span)),
                _ => {}
            }
        }

        let grants = soc.spans.iter().filter(|s| s.layer == Layer::Grant);
        for span in grants.clone() {
            self.grant_us.push(us(span));
        }
        self.grant_ns += total_ns(grants);
        self.cycles += soc.cycles;
        self.cost_grants += soc.cost_grants;
        self.cost_ns += soc.cost_ns;

        // The synchronizer talks to a remote proxy when there is one, and
        // to the SoC's bridge queues otherwise; the latter are then the
        // transport.
        self.rtl_calls_ns += total_ns(&proxy.as_ref().unwrap_or(soc).spans);
        let (link, send, recv): (&Tally, _, _) = match wire {
            Some(wire) => (wire, Layer::Send, Layer::Recv),
            None => (soc, Layer::Push, Layer::Drain),
        };
        for span in &link.spans {
            if span.layer == send {
                self.send_us.push(us(span));
            } else if span.layer == recv {
                self.recv_us.push(us(span));
            }
        }
        self.packets += link.packets;
        self.bytes += link.bytes;
        self.errors += link.errors;
    }

    /// The per-layer metrics. `extra` supplies what the spans do not: the
    /// untraced phase, the cache, the probes and the simulated totals.
    pub fn metrics(&self, extra: &Extra) -> Vec<Metric> {
        let per_mission = |v: u64| v as f64 / self.missions.max(1) as f64;
        let wall = self.wall_ns.max(1) as f64;
        let step_us = sorted(self.step_us.clone());
        let self_us = sorted(self.self_us.clone());
        let env_step_us = sorted(self.env_step_us.clone());
        let env_data_us = sorted(self.env_data_us.clone());
        let grant_us = sorted(self.grant_us.clone());
        let send_us = sorted(self.send_us.clone());
        let recv_us = sorted(self.recv_us.clone());
        let lookups = self.hits + self.misses;
        let p = &extra.probes;
        vec![
            Metric::quantile("sync.step_us_p50", &step_us, 50.0, "us"),
            Metric::quantile("sync.step_us_p99", &step_us, 99.0, "us"),
            Metric::quantile("sync.self_us_p50", &self_us, 50.0, "us"),
            Metric::new(
                "sync.self_share",
                self.self_ns as f64 / wall,
                "ratio",
                self.quanta,
            ),
            Metric::quantile("envsim.step_frames_us_p50", &env_step_us, 50.0, "us"),
            Metric::quantile("envsim.step_frames_us_p99", &env_step_us, 99.0, "us"),
            Metric::quantile("envsim.handle_data_us_p50", &env_data_us, 50.0, "us"),
            Metric::new(
                "envsim.busy_share",
                self.env_ns as f64 / wall,
                "ratio",
                self.quanta,
            ),
            Metric::quantile("soc.grant_us_p50", &grant_us, 50.0, "us"),
            Metric::quantile("soc.grant_us_p99", &grant_us, 99.0, "us"),
            Metric::new(
                "soc.sim_cycles_per_busy_s",
                self.cycles as f64 / (self.grant_ns.max(1) as f64 / 1e9),
                "cycles/s",
                self.quanta,
            ),
            Metric::new(
                "soc.busy_share",
                self.grant_ns as f64 / wall,
                "ratio",
                self.quanta,
            ),
            Metric::new(
                "soc.cost_model_grants",
                per_mission(self.cost_grants),
                "count/mission",
                self.missions,
            ),
            Metric::new(
                "soc.cost_model_ms",
                per_mission(self.cost_ns) / 1e6,
                "ms/mission",
                self.missions,
            ),
            Metric::new(
                "soc.cost_model_share",
                self.cost_ns as f64 / wall,
                "ratio",
                self.missions,
            ),
            Metric::new(
                "cache.hits",
                per_mission(self.hits),
                "count/mission",
                self.missions,
            ),
            Metric::new(
                "cache.misses",
                per_mission(self.misses),
                "count/mission",
                self.missions,
            ),
            Metric::new(
                "cache.hit_ratio",
                if lookups == 0 {
                    0.0
                } else {
                    self.hits as f64 / lookups as f64
                },
                "ratio",
                self.missions,
            ),
            Metric::new("cache.entries", extra.cache_entries as f64, "count", 1),
            Metric::new(
                "cache.file_bytes",
                extra.cache_file_bytes as f64,
                "bytes",
                1,
            ),
            Metric::quantile("transport.send_us_p50", &send_us, 50.0, "us"),
            Metric::quantile("transport.recv_wait_us_p50", &recv_us, 50.0, "us"),
            Metric::quantile("transport.recv_wait_us_p99", &recv_us, 99.0, "us"),
            Metric::new(
                "transport.packets",
                per_mission(self.packets),
                "count/mission",
                self.missions,
            ),
            Metric::new(
                "transport.bytes",
                per_mission(self.bytes),
                "bytes/mission",
                self.missions,
            ),
            Metric::new(
                "transport.errors",
                per_mission(self.errors),
                "count/mission",
                self.missions,
            ),
            Metric::new(
                "transport.overhead_us_per_quantum",
                self.rtl_calls_ns.saturating_sub(self.grant_ns) as f64
                    / 1e3
                    / self.quanta.max(1) as f64,
                "us",
                self.quanta,
            ),
            Metric::new(
                "recovery.retries",
                per_mission(self.retries),
                "count/mission",
                self.missions,
            ),
            Metric::new(
                "recovery.resyncs",
                per_mission(self.resyncs),
                "count/mission",
                self.missions,
            ),
            Metric::new(
                "faults.injected",
                per_mission(self.injected),
                "count/mission",
                self.missions,
            ),
            Metric::new(
                "recovery.grant_success_ratio",
                self.quanta as f64 / (self.quanta + self.retries).max(1) as f64,
                "ratio",
                self.quanta,
            ),
            Metric::new(
                "kernel.trace_ns_per_instr",
                p.kernel_trace_ns_per_instr,
                "ns",
                1,
            ),
            Metric::new("cpu.ns_per_instr", p.cpu_ns_per_instr, "ns", 1),
            Metric::new("mem.ns_per_access", p.mem_ns_per_access, "ns", 1),
            Metric::new("gemmini.matmul_us", p.gemmini_matmul_us, "us", 1),
            Metric::new(
                "cache.context_hash_ns_per_kib",
                p.context_hash_ns_per_kib,
                "ns/KiB",
                1,
            ),
            Metric::new("snap.mem_save_mb_per_s", p.mem_save_mb_per_s, "MB/s", 1),
            Metric::new(
                "snap.mem_restore_mb_per_s",
                p.mem_restore_mb_per_s,
                "MB/s",
                1,
            ),
            Metric::new("snap.mission_snapshot_us", p.mission_snapshot_us, "us", 1),
            Metric::new("snap.mission_resume_us", p.mission_resume_us, "us", 1),
            Metric::new("soc.cpu.instrs", extra.totals.cpu_instrs as f64, "count", 1),
            Metric::new("soc.l2.misses", extra.totals.l2_misses as f64, "count", 1),
            Metric::new("soc.accel_macs", extra.totals.accel_macs as f64, "count", 1),
            Metric::new("app.inferences", extra.totals.inferences as f64, "count", 1),
            Metric::new("host.yardstick_ms", extra.yardstick_ms, "ms", 1),
            Metric::new(
                "bench.trace_overhead_pct",
                extra.trace_overhead_pct,
                "%",
                self.missions,
            ),
            Metric::new(
                "bench.unattributed_share",
                self.wall_ns.saturating_sub(self.step_ns) as f64 / wall,
                "ratio",
                self.missions,
            ),
        ]
    }
}

/// Per-layer inputs that do not come from spans.
#[derive(Debug, Clone, Copy)]
pub struct Extra {
    /// Traced over untraced normalized mission p50 of the same run, minus
    /// one, in percent.
    pub trace_overhead_pct: f64,
    /// Median yardstick time of the untraced phase, ms.
    pub yardstick_ms: f64,
    /// Entries in the workload's cache.
    pub cache_entries: usize,
    /// Bytes of that cache on disk.
    pub cache_file_bytes: u64,
    /// Micro-probe results.
    pub probes: crate::probes::Probes,
    /// Simulated statistics of the reference pass.
    pub totals: crate::workloads::SimTotals,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarizes.
    pub samples: u64,
    /// False when the samples cannot support the value: a percentile
    /// with fewer than ten samples beyond it, or a non-finite result.
    pub resolved: bool,
}

impl Metric {
    /// A metric from a computed value.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
            resolved: value.is_finite(),
        }
    }

    /// Percentile `p` of ascending `samples`. When too few samples lie
    /// beyond it, the nearest-rank value is kept but marked unresolved.
    pub fn quantile(name: &'static str, samples: &[f64], p: f64, unit: &'static str) -> Metric {
        let (value, resolved) = match percentile(samples, p) {
            Some(v) => (v, true),
            None if samples.is_empty() => (0.0, false),
            None => (nearest_rank(samples, p), false),
        };
        Metric {
            resolved,
            ..Metric::new(name, value, unit, samples.len() as u64)
        }
    }
}
