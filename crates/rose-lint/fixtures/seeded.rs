//! Seeded-violation fixture for `rose-lint --self-test`.
//!
//! This file is **not compiled** — it lives outside `src/` and exists
//! only to be linted. It seeds at least one violation of every rule, plus
//! the negative cases that must NOT fire, so the self-test proves both
//! halves: the linter catches what it claims to catch, and suppression
//! works as documented.

use std::collections::HashMap; // DET002: seeded violation
use std::time::SystemTime; // DET001: seeded violation

fn seeded_wall_clock() -> u64 {
    let started = Instant::now(); // DET001: seeded violation
    started.elapsed().as_micros() as u64 // CAST001: seeded violation
}

fn seeded_system_clock() -> u64 {
    // SystemTime::now() is nondeterministic (DET001): host timing goes
    // through the profiler's sanctioned Stopwatch API instead.
    SystemTime::now().elapsed().as_secs()
}

fn seeded_panics(rx: Receiver<Packet>) {
    let packet = rx.recv().unwrap(); // PANIC001: seeded violation
    match packet {
        Packet::Shutdown => {}
        _ => panic!("unexpected"), // PANIC001: seeded violation
    }
}

// TRACE001: seeded violation — opens a span it never closes.
fn seeded_unbalanced_span(tracer: &mut Tracer, now: u64) {
    tracer.span_begin_cycles(Track::SocCpu, "leaky", now, vec![]);
    work();
}

// ANN001: seeded violation — allow without the mandatory reason, which
// also means the unwrap below still fires PANIC001.
// rose-lint: allow(PANIC001)
fn seeded_reasonless_allow(x: Option<u8>) -> u8 {
    x.unwrap()
}

// SNAP001: seeded violation — a rest pattern lets a future field slip
// past the snapshot without breaking the build.
fn save_state(&self, w: &mut SnapWriter) {
    let Self { ticks, .. } = self;
    w.u64(*ticks);
}

// DET003: seeded violation — the entry point looks clean; the wall clock
// hides two calls down. The diagnostic must print the chain
// `Soc::step → seeded_tick_helper → seeded_wall_clock`.
impl Soc {
    pub fn step(&mut self) -> u64 {
        seeded_tick_helper()
    }
}

fn seeded_tick_helper() -> u64 {
    seeded_wall_clock()
}

// PANIC002: seeded violation — this helper looks harmless here, but
// `seeded_bridge.rs` (linted under a virtual crates/rose-bridge/src path)
// calls it from the fault path, where its unwrap can deadlock the
// lockstep peer.
fn seeded_decode_helper(frame: &[u8]) -> u8 {
    *frame.first().unwrap()
}

// SNAP002: seeded violation — `dropped_frames` appears in neither codec
// body, so snapshots silently lose it on every fork/resume.
struct SeededRecorder {
    ticks: u64,
    dropped_frames: u64,
}

impl SeededRecorder {
    fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.ticks);
    }

    fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.ticks = r.u64()?;
        Ok(())
    }
}

// ANN002: seeded violation — the unordered map this allow once excused is
// long gone, so the annotation suppresses nothing and must be deleted.
// rose-lint: allow(DET002, historical: the frontier map used to be a HashMap)
fn seeded_stale_allow(frontier: &BTreeMap<u64, u64>) -> bool {
    frontier.is_empty()
}

// ---------------------------------------------------------------------
// Negative half: everything below here must lint clean.
// ---------------------------------------------------------------------

fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
    // Ranges share the `..` spelling but follow an expression, not a
    // `{`/`,` — the codec's queue loops must stay clean.
    for _ in 0..r.usize()? {
        self.q.push_back(r.bytes()?);
    }
    Ok(())
}

use std::collections::BTreeMap; // ordered: fine

fn clean_exact_cycle_math(frames: u64, hz_num: u64, hz_den: u64) -> u64 {
    // Widening through u128 is the sanctioned pattern, not a violation.
    let wide = frames as u128 * hz_num as u128 / hz_den as u128;
    // rose-lint: allow(CAST001, quotient bounded by the grant window, proven above)
    let narrow = wide as u64;
    narrow
}

fn clean_annotated_fault(map: &BTreeMap<u64, u64>) -> u64 {
    // rose-lint: allow(PANIC001, key inserted unconditionally three lines up)
    *map.get(&0).expect("key zero present")
}

fn clean_balanced_span(tracer: &mut Tracer, now: u64) {
    tracer.span_begin_cycles(Track::SocCpu, "tidy", now, vec![]);
    work();
    tracer.span_end_cycles(Track::SocCpu, "tidy", now);
}

fn clean_string_lookalikes() -> &'static str {
    // Rule tokens inside literals and comments are invisible to the lexer:
    // unwrap(), panic!, Instant::now(), HashMap.
    "unwrap() panic! Instant::now() HashMap SystemTime"
}

#[cfg(test)]
mod tests {
    // Test code is exempt from the contract wholesale.
    #[test]
    fn tests_may_do_anything() {
        let t = Instant::now();
        let m: HashMap<u8, u8> = HashMap::new();
        m.get(&0).unwrap();
        let _ = (t.elapsed().as_nanos() as u64, m);
    }
}
