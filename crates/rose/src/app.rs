//! The trail-navigation target programs.
//!
//! These are the companion-computer applications of the evaluation: a
//! DNN-based end-to-end controller that requests a camera frame over the
//! RoSÉ I/O, runs inference on the simulated SoC, and sends angular and
//! linear velocity targets to the flight controller (Sections 4.2.2, 5.2).
//!
//! Two variants exist, selected by [`ControllerChoice`]:
//!
//! * **Static** — one fixed network (Figures 10–12, 14).
//! * **Dynamic** — the dynamic runtime of Section 5.3: reads the forward
//!   depth sensor, computes the deadline (Equations 3–5), and selects the
//!   high-accuracy network when time allows or the low-latency network
//!   (with an argmax policy) when a collision is imminent.

use crate::deadline::DeadlineModel;
use crate::message::{AppMessage, TrailInfo};
use rose_dnn::lower::lower_inference;
use rose_dnn::perception::PerceptionHead;
use rose_dnn::DnnModel;
use rose_sim_core::lock;
use rose_sim_core::rng::SimRng;
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use rose_socsim::program::{ProgContext, TargetProgram};
use rose_socsim::TargetOp;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Controller gains β of Equation 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlGains {
    /// β_l: lateral velocity per unit class-probability difference (m/s).
    pub beta_lateral: f64,
    /// β_ω: yaw rate per unit class-probability difference (rad/s).
    pub beta_yaw: f64,
}

impl Default for ControlGains {
    fn default() -> ControlGains {
        ControlGains {
            beta_lateral: 3.0,
            beta_yaw: 2.5,
        }
    }
}

impl ControlGains {
    /// Serializes the gains.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let ControlGains {
            beta_lateral,
            beta_yaw,
        } = self;
        w.f64(*beta_lateral);
        w.f64(*beta_yaw);
    }

    /// Restores gains.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<ControlGains, SnapError> {
        Ok(ControlGains {
            beta_lateral: r.f64()?,
            beta_yaw: r.f64()?,
        })
    }
}

/// Which controller runs on the companion computer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControllerChoice {
    /// A single fixed DNN.
    Static(DnnModel),
    /// The dynamic runtime: select per-inference based on the deadline.
    Dynamic {
        /// Low-latency fallback network (run with an argmax policy).
        fast: DnnModel,
        /// High-accuracy network used when the deadline allows.
        accurate: DnnModel,
        /// Switch to `fast` when `t_process` (Eq. 5) drops below this (s).
        threshold_s: f64,
    },
}

impl ControllerChoice {
    /// The paper's dynamic configuration: ResNet14 + ResNet6 (Section 5.3).
    pub fn dynamic_default() -> ControllerChoice {
        ControllerChoice::Dynamic {
            fast: DnnModel::ResNet6,
            accurate: DnnModel::ResNet14,
            threshold_s: 0.35,
        }
    }

    /// Serializes the controller choice with a stable one-byte tag.
    pub fn save_state(&self, w: &mut SnapWriter) {
        match self {
            ControllerChoice::Static(model) => {
                w.u8(0);
                w.tag(model);
            }
            ControllerChoice::Dynamic {
                fast,
                accurate,
                threshold_s,
            } => {
                w.u8(1);
                w.tag(fast);
                w.tag(accurate);
                w.f64(*threshold_s);
            }
        }
    }

    /// Restores a controller choice.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::BadTag`] on an unknown tag.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<ControllerChoice, SnapError> {
        match r.u8()? {
            0 => Ok(ControllerChoice::Static(r.tag()?)),
            1 => Ok(ControllerChoice::Dynamic {
                fast: r.tag()?,
                accurate: r.tag()?,
                threshold_s: r.f64()?,
            }),
            tag => Err(SnapError::BadTag {
                context: "ControllerChoice",
                tag,
            }),
        }
    }
}

/// Metrics the application records as it flies (the quantitative metrics
/// of the artifact: DNN latency, inference counts, model selections).
#[derive(Debug, Clone, Default)]
pub struct AppMetrics {
    /// Per-inference latency, image request → command send, in cycles
    /// (Figure 16c's measurement), one entry per completed inference.
    pub latencies_cycles: Vec<u64>,
    /// Inferences executed with the fast (argmax) network.
    pub fast_inferences: u64,
    /// Deadline evaluations that selected the fast network.
    pub deadline_switches: u64,
    /// Control-loop iterations whose request→command latency exceeded the
    /// mission's deadline budget (0 when no budget is configured).
    pub deadline_misses: u64,
    /// Control-loop iterations flown without a valid depth reading (the
    /// sensor answered the blackout sentinel).
    pub degraded_depth: u64,
    /// Commands computed by the classical fallback controller instead of
    /// the DNN (deadline-pressure rung of the degradation ladder).
    pub classical_commands: u64,
    /// Set once the degraded-iteration streak crossed the mission's abort
    /// threshold; the mission loop winds down cleanly when it sees this.
    pub abort_requested: bool,
    /// Sensor responses the SoC's RX watchdog gave up on (lost in flight
    /// on a lossy transport); each one degrades that iteration.
    pub lost_responses: u64,
}

impl AppMetrics {
    /// Completed inferences.
    pub fn inferences(&self) -> u64 {
        self.latencies_cycles.len() as u64
    }

    /// Velocity commands sent: one per DNN inference or classical command.
    pub fn commands(&self) -> u64 {
        self.inferences() + self.classical_commands
    }

    /// Mean inference latency in cycles (0 if none).
    pub fn mean_latency_cycles(&self) -> f64 {
        if self.latencies_cycles.is_empty() {
            0.0
        } else {
            self.latencies_cycles.iter().sum::<u64>() as f64 / self.latencies_cycles.len() as f64
        }
    }
}

impl AppMetrics {
    fn save_state(&self, w: &mut SnapWriter) {
        let AppMetrics {
            latencies_cycles,
            fast_inferences,
            deadline_switches,
            deadline_misses,
            degraded_depth,
            classical_commands,
            abort_requested,
            lost_responses,
        } = self;
        w.seq(latencies_cycles, |w, &lat| w.u64(lat));
        w.u64(*fast_inferences);
        w.u64(*deadline_switches);
        w.u64(*deadline_misses);
        w.u64(*degraded_depth);
        w.u64(*classical_commands);
        w.bool(*abort_requested);
        w.u64(*lost_responses);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.latencies_cycles = r.seq(SnapReader::u64)?;
        self.fast_inferences = r.u64()?;
        self.deadline_switches = r.u64()?;
        self.deadline_misses = r.u64()?;
        self.degraded_depth = r.u64()?;
        self.classical_commands = r.u64()?;
        self.abort_requested = r.bool()?;
        self.lost_responses = r.u64()?;
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum State {
    /// Request the depth sensor (dynamic runtime only).
    RequestDepth,
    AwaitDepth,
    RequestImage,
    AwaitImage,
    /// Drain the lowered inference ops.
    Inference,
    SendCommand,
}

rose_sim_core::snap_tag!(State {
    RequestDepth = 0,
    AwaitDepth = 1,
    RequestImage = 2,
    AwaitImage = 3,
    Inference = 4,
    SendCommand = 5,
});

/// The trail-navigation application (a [`TargetProgram`]).
pub struct TrailNavApp {
    choice: ControllerChoice,
    gains: ControlGains,
    velocity: f64,
    altitude: f64,
    deadline: DeadlineModel,
    /// Lowered inference ops per model (accurate first, fast second for
    /// the dynamic runtime).
    plans: Vec<(DnnModel, Vec<TargetOp>)>,
    heads: Vec<(DnnModel, PerceptionHead)>,
    state: State,
    queue: VecDeque<TargetOp>,
    current_model: DnnModel,
    use_argmax: bool,
    last_trail: TrailInfo,
    request_cycle: u64,
    /// Control-loop deadline budget in SoC cycles (0 = no budget; never
    /// counts a miss). Structural config, like `gains`.
    deadline_budget_cycles: u64,
    /// True while the deadline-pressure rung of the degradation ladder is
    /// engaged: the next iteration skips the DNN and computes a classical
    /// proportional command instead.
    use_classical: bool,
    /// True when this iteration's depth reading was the blackout sentinel.
    depth_degraded: bool,
    /// Consecutive degraded iterations (invalid depth or deadline miss).
    degraded_streak: u64,
    /// Degraded-streak length that requests a clean mission abort
    /// (0 = never abort). Structural config.
    abort_after_degraded: u64,
    metrics: Arc<Mutex<AppMetrics>>,
}

impl std::fmt::Debug for TrailNavApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrailNavApp")
            .field("choice", &self.choice)
            .field("state", &self.state)
            .field("velocity", &self.velocity)
            .finish()
    }
}

impl TrailNavApp {
    /// Builds the application.
    ///
    /// * `choice` — static or dynamic controller selection.
    /// * `has_accelerator` — lowers convolutions to the accelerator or to
    ///   CPU kernels (Table 2 config C).
    /// * `velocity` — the forward velocity target (m/s).
    /// * `rng` — noise stream for the perception heads.
    ///
    /// Returns the program plus a shared handle to its metrics.
    pub fn new(
        choice: ControllerChoice,
        has_accelerator: bool,
        velocity: f64,
        rng: &SimRng,
    ) -> (TrailNavApp, Arc<Mutex<AppMetrics>>) {
        let models: Vec<DnnModel> = match choice {
            ControllerChoice::Static(m) => vec![m],
            ControllerChoice::Dynamic { fast, accurate, .. } => vec![accurate, fast],
        };
        let plans: Vec<(DnnModel, Vec<TargetOp>)> = models
            .iter()
            .map(|&m| (m, lower_inference(&m.plan(), has_accelerator)))
            .collect();
        let heads = models
            .iter()
            .map(|&m| (m, PerceptionHead::new(m, rng)))
            .collect();
        let metrics = Arc::new(Mutex::new(AppMetrics::default()));
        let initial_state = match choice {
            ControllerChoice::Static(_) => State::RequestImage,
            ControllerChoice::Dynamic { .. } => State::RequestDepth,
        };
        let app = TrailNavApp {
            current_model: models[0],
            choice,
            gains: ControlGains::default(),
            velocity,
            altitude: 1.5,
            deadline: DeadlineModel::default(),
            plans,
            heads,
            state: initial_state,
            queue: VecDeque::new(),
            use_argmax: false,
            last_trail: TrailInfo::default(),
            request_cycle: 0,
            deadline_budget_cycles: 0,
            use_classical: false,
            depth_degraded: false,
            degraded_streak: 0,
            abort_after_degraded: 0,
            metrics: Arc::clone(&metrics),
        };
        (app, metrics)
    }

    /// Overrides the control gains.
    pub fn set_gains(&mut self, gains: ControlGains) {
        self.gains = gains;
    }

    /// Arms the per-frame deadline budget: each request→command latency is
    /// compared against `budget_s` (converted to cycles at `clock_hz`) and
    /// a miss is counted in [`AppMetrics::deadline_misses`]. A non-positive
    /// budget disables the check.
    pub fn set_deadline_budget(&mut self, budget_s: f64, clock_hz: f64) {
        self.deadline_budget_cycles = if budget_s > 0.0 && clock_hz > 0.0 {
            (budget_s * clock_hz) as u64
        } else {
            0
        };
    }

    /// Arms the abort rung of the degradation ladder: after `streak`
    /// consecutive degraded control-loop iterations (blacked-out depth or
    /// missed deadline), [`AppMetrics::abort_requested`] is raised and the
    /// mission loop winds down cleanly. 0 (the default) never aborts.
    pub fn set_abort_after_degraded(&mut self, streak: u64) {
        self.abort_after_degraded = streak;
    }

    fn plan_for(&self, model: DnnModel) -> &[TargetOp] {
        &self
            .plans
            .iter()
            .find(|(m, _)| *m == model)
            // rose-lint: allow(PANIC002, new() builds a plan for every DnnModel variant)
            .expect("plan built at construction")
            .1
    }

    fn select_model(&mut self, depth: f64) -> DnnModel {
        match self.choice {
            ControllerChoice::Static(m) => m,
            ControllerChoice::Dynamic {
                fast,
                accurate,
                threshold_s,
            } => {
                let t_process = self.deadline.t_process(depth, self.velocity);
                if t_process < threshold_s {
                    lock(&self.metrics).deadline_switches += 1;
                    self.use_argmax = true;
                    fast
                } else {
                    self.use_argmax = false;
                    accurate
                }
            }
        }
    }

    fn command_from(&mut self, trail: TrailInfo) -> AppMessage {
        let model = self.current_model;
        let head = &mut self
            .heads
            .iter_mut()
            .find(|(m, _)| *m == model)
            // rose-lint: allow(PANIC002, new() builds a head for every DnnModel variant)
            .expect("head built at construction")
            .1;
        let out = head.classify(trail.heading_error, trail.lateral_offset, trail.half_width);
        let (angular, lateral) = if self.use_argmax {
            // Argmax policy: full-magnitude corrections from the fast net
            // (Section 5.3).
            (out.angular.one_hot(), out.lateral.one_hot())
        } else {
            (out.angular, out.lateral)
        };
        // Equation 2: corrections proportional to softmax differences.
        let yaw_rate = self.gains.beta_yaw * (angular.right() - angular.left());
        let v_lateral = self.gains.beta_lateral * (lateral.right() - lateral.left());
        AppMessage::Command {
            forward: self.velocity,
            lateral: v_lateral,
            yaw_rate,
            altitude: self.altitude,
        }
    }

    /// The classical fallback controller: proportional corrections from
    /// the trail estimate alone, no perception. Crude, but cheap enough to
    /// always meet the deadline — the middle rung of the degradation
    /// ladder when DNN inference misses its budget.
    fn classical_command(&self, trail: TrailInfo) -> AppMessage {
        let yaw_rate = -self.gains.beta_yaw * trail.heading_error;
        let lateral = -self.gains.beta_lateral * (trail.lateral_offset / trail.half_width.max(0.1));
        AppMessage::Command {
            forward: self.velocity,
            lateral,
            yaw_rate,
            altitude: self.altitude,
        }
    }
}

impl TargetProgram for TrailNavApp {
    fn next_op(&mut self, ctx: &mut ProgContext) -> TargetOp {
        loop {
            match self.state {
                State::RequestDepth => {
                    self.state = State::AwaitDepth;
                    return TargetOp::Send(AppMessage::DepthRequest.encode());
                }
                State::AwaitDepth => {
                    match ctx.take_message() {
                        // The RX watchdog gave up: the depth response was
                        // lost in flight. Degrade exactly like a blackout
                        // reading and move on.
                        None if ctx.rx_timed_out() => {
                            lock(&self.metrics).lost_responses += 1;
                            self.depth_degraded = true;
                            self.current_model = self.select_model(0.0);
                            self.state = State::RequestImage;
                        }
                        None => return TargetOp::Recv,
                        Some(bytes) => {
                            let depth = match AppMessage::decode(&bytes) {
                                Ok(AppMessage::Depth { depth }) => depth,
                                // Unexpected payload: be conservative.
                                _ => 0.0,
                            };
                            if depth < 0.0 {
                                // Blackout sentinel: no valid reading.
                                // Dead-reckon conservatively — assume an
                                // imminent obstacle so the fast network
                                // (argmax policy) takes over.
                                lock(&self.metrics).degraded_depth += 1;
                                self.depth_degraded = true;
                                self.current_model = self.select_model(0.0);
                            } else {
                                self.current_model = self.select_model(depth);
                            }
                            self.state = State::RequestImage;
                        }
                    }
                }
                State::RequestImage => {
                    self.request_cycle = ctx.now();
                    self.state = State::AwaitImage;
                    return TargetOp::Send(AppMessage::ImageRequest.encode());
                }
                State::AwaitImage => match ctx.take_message() {
                    // Lost perception: no fresh trail estimate this
                    // iteration. Fly the classical rung on the stale
                    // estimate rather than wedging behind a response that
                    // will never arrive.
                    None if ctx.rx_timed_out() => {
                        lock(&self.metrics).lost_responses += 1;
                        self.depth_degraded = true;
                        self.use_classical = true;
                        self.queue = VecDeque::new();
                        self.state = State::Inference;
                    }
                    None => return TargetOp::Recv,
                    Some(bytes) => {
                        if let Ok(AppMessage::Image { trail, .. }) = AppMessage::decode(&bytes) {
                            self.last_trail = trail;
                        }
                        // The classical rung skips the DNN entirely: the
                        // queue stays empty and the iteration falls
                        // straight through to the command.
                        self.queue = if self.use_classical {
                            VecDeque::new()
                        } else {
                            self.plan_for(self.current_model).iter().cloned().collect()
                        };
                        self.state = State::Inference;
                    }
                },
                State::Inference => match self.queue.pop_front() {
                    Some(op) => return op,
                    None => self.state = State::SendCommand,
                },
                State::SendCommand => {
                    let command = if self.use_classical {
                        self.classical_command(self.last_trail)
                    } else {
                        self.command_from(self.last_trail)
                    };
                    let latency = ctx.now().saturating_sub(self.request_cycle);
                    let mut missed = false;
                    {
                        let mut m = lock(&self.metrics);
                        if self.use_classical {
                            m.classical_commands += 1;
                        } else {
                            m.latencies_cycles.push(latency);
                            if self.use_argmax {
                                m.fast_inferences += 1;
                            }
                        }
                        if self.deadline_budget_cycles > 0 && latency > self.deadline_budget_cycles
                        {
                            m.deadline_misses += 1;
                            missed = true;
                        }
                        // The degradation ladder: a degraded iteration
                        // (no valid depth, or a missed deadline) extends
                        // the streak; a clean one resets it. A sustained
                        // streak requests a clean abort.
                        let ladder_armed = self.abort_after_degraded > 0;
                        if self.depth_degraded || (missed && ladder_armed) {
                            self.degraded_streak += 1;
                            if self.abort_after_degraded > 0
                                && self.degraded_streak >= self.abort_after_degraded
                            {
                                m.abort_requested = true;
                            }
                        } else {
                            self.degraded_streak = 0;
                        }
                    }
                    // Deadline pressure engages the classical rung for the
                    // next iteration; a clean iteration releases it. The
                    // rung only arms together with the abort threshold —
                    // with the ladder disarmed, a deadline budget stays
                    // pure host-side accounting and must not perturb the
                    // flown trajectory.
                    self.use_classical = missed && self.abort_after_degraded > 0;
                    self.depth_degraded = false;
                    self.state = match self.choice {
                        ControllerChoice::Static(_) => State::RequestImage,
                        ControllerChoice::Dynamic { .. } => State::RequestDepth,
                    };
                    return TargetOp::Send(command.encode());
                }
            }
        }
    }

    fn name(&self) -> &str {
        match self.choice {
            ControllerChoice::Static(_) => "trail-nav-static",
            ControllerChoice::Dynamic { .. } => "trail-nav-dynamic",
        }
    }

    /// Serializes the application's dynamic state. Configuration (choice,
    /// gains, velocity, altitude, deadline parameters) and the lowered
    /// inference plans are structural — rebuilt from
    /// [`MissionConfig`](crate::mission::MissionConfig) on resume. The
    /// current model is stored as an index into the plan table, so no
    /// model codec is needed.
    fn save_state(&self, w: &mut SnapWriter) {
        let TrailNavApp {
            choice: _,
            gains: _,
            velocity: _,
            altitude: _,
            deadline: _,
            plans,
            heads,
            state,
            queue,
            current_model,
            use_argmax,
            last_trail,
            request_cycle,
            deadline_budget_cycles: _,
            use_classical,
            depth_degraded,
            degraded_streak,
            abort_after_degraded: _,
            metrics,
        } = self;
        for (_, head) in heads {
            head.save_state(w);
        }
        w.tag(state);
        w.seq(queue, |w, op| op.save_state(w));
        let model_idx = plans
            .iter()
            .position(|(m, _)| m == current_model)
            // rose-lint: allow(PANIC002, current_model is only ever set from plans' keys)
            .expect("current model always has a plan");
        w.u8(model_idx as u8);
        w.bool(*use_argmax);
        last_trail.save_state(w);
        w.u64(*request_cycle);
        w.bool(*use_classical);
        w.bool(*depth_degraded);
        w.u64(*degraded_streak);
        lock(metrics).save_state(w);
    }

    /// Restores the application's dynamic state.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot, including a model
    /// index outside this app's plan table.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for (_, head) in &mut self.heads {
            head.restore_state(r)?;
        }
        self.state = r.tag()?;
        self.queue = r.seq(TargetOp::restore_state)?;
        let model_idx = r.u8()? as usize;
        self.current_model = match self.plans.get(model_idx) {
            Some((m, _)) => *m,
            None => {
                return Err(SnapError::BadTag {
                    context: "TrailNavApp model index",
                    tag: model_idx as u8,
                });
            }
        };
        self.use_argmax = r.bool()?;
        self.last_trail = TrailInfo::restore_state(r)?;
        self.request_cycle = r.u64()?;
        self.use_classical = r.bool()?;
        self.depth_degraded = r.bool()?;
        self.degraded_streak = r.u64()?;
        lock(&self.metrics).restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rose_socsim::Soc;
    use rose_socsim::SocConfig;

    fn run_app_with_responder(
        choice: ControllerChoice,
        grants: u32,
    ) -> (Arc<Mutex<AppMetrics>>, u64) {
        run_app_with_depth(choice, grants, 30.0, 0)
    }

    fn run_app_with_depth(
        choice: ControllerChoice,
        grants: u32,
        depth: f64,
        abort_after: u64,
    ) -> (Arc<Mutex<AppMetrics>>, u64) {
        let rng = SimRng::new(1);
        let (mut app, metrics) = TrailNavApp::new(choice, true, 3.0, &rng);
        app.set_abort_after_degraded(abort_after);
        let mut soc = Soc::new(SocConfig::config_a(), Box::new(app));
        let mut commands = 0;
        for _ in 0..grants {
            // Answer every request like the environment would.
            for payload in soc.bridge_mut().host_drain_tx() {
                match AppMessage::decode(&payload).unwrap() {
                    AppMessage::ImageRequest => {
                        let reply = AppMessage::Image {
                            width: 64,
                            height: 64,
                            pixels: vec![0; 4096],
                            trail: TrailInfo {
                                lateral_offset: 0.8,
                                heading_error: 0.3,
                                half_width: 1.6,
                                progress: 1.0,
                            },
                        };
                        soc.bridge_mut().host_push_rx(reply.encode());
                    }
                    AppMessage::DepthRequest => {
                        soc.bridge_mut()
                            .host_push_rx(AppMessage::Depth { depth }.encode());
                    }
                    AppMessage::Command { .. } => commands += 1,
                    other => panic!("unexpected {other:?}"),
                }
            }
            soc.run_cycles(20_000_000);
        }
        (metrics, commands)
    }

    #[test]
    fn static_app_closes_the_loop() {
        let (metrics, commands) =
            run_app_with_responder(ControllerChoice::Static(DnnModel::ResNet14), 40);
        let m = lock(&metrics);
        assert!(
            m.inferences() >= 2,
            "expected >=2 inferences, got {}",
            m.inferences()
        );
        assert_eq!(m.commands(), m.inferences());
        assert!(commands >= 1);
        // Latency covers the lowered inference (~107 ms on config A) plus
        // sync-boundary waits.
        let mean = m.mean_latency_cycles();
        assert!(
            mean > 80_000_000.0,
            "latency {mean} should include inference"
        );
    }

    #[test]
    fn dynamic_app_uses_accurate_model_when_safe() {
        let (metrics, _) = run_app_with_responder(ControllerChoice::dynamic_default(), 40);
        let m = lock(&metrics);
        assert!(m.inferences() >= 1);
        // Depth 30 m at 3 m/s: 10 s to impact — never switch to the fast
        // network.
        assert_eq!(m.fast_inferences, 0);
        assert_eq!(m.deadline_switches, 0);
    }

    #[test]
    fn blacked_out_depth_degrades_to_the_fast_network() {
        let (metrics, commands) = run_app_with_depth(
            ControllerChoice::dynamic_default(),
            40,
            rose_envsim::uav::DEPTH_INVALID,
            0,
        );
        let m = lock(&metrics);
        assert!(m.inferences() >= 1);
        // Every iteration saw the sentinel: all degraded, all flown on the
        // conservative fast network, and the loop kept closing. (The depth
        // count may lead by one in-flight iteration.)
        assert!(m.degraded_depth >= m.inferences());
        assert_eq!(m.fast_inferences, m.inferences());
        assert!(commands >= 1);
        // No abort threshold armed: the mission never requests one.
        assert!(!m.abort_requested);
    }

    #[test]
    fn sustained_degradation_requests_a_clean_abort() {
        let (metrics, _) = run_app_with_depth(
            ControllerChoice::dynamic_default(),
            40,
            rose_envsim::uav::DEPTH_INVALID,
            2,
        );
        let m = lock(&metrics);
        assert!(m.degraded_depth >= 2, "degraded {}", m.degraded_depth);
        assert!(m.abort_requested, "streak of {} degraded", m.degraded_depth);
    }

    #[test]
    fn classical_fallback_commands_are_corrective() {
        let rng = SimRng::new(5);
        let (app, _) = TrailNavApp::new(
            ControllerChoice::Static(DnnModel::ResNet14),
            true,
            3.0,
            &rng,
        );
        // Far left of the trail, pointing left: corrections must be
        // rightward (negative lateral, negative yaw) — same sign contract
        // as the DNN path, but deterministic.
        let trail = TrailInfo {
            lateral_offset: 1.2,
            heading_error: 0.35,
            half_width: 1.6,
            progress: 0.0,
        };
        match app.classical_command(trail) {
            AppMessage::Command {
                lateral, yaw_rate, ..
            } => {
                assert!(lateral < 0.0, "lateral {lateral}");
                assert!(yaw_rate < 0.0, "yaw {yaw_rate}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn command_signs_are_corrective() {
        let rng = SimRng::new(5);
        let (mut app, _) = TrailNavApp::new(
            ControllerChoice::Static(DnnModel::ResNet34),
            true,
            3.0,
            &rng,
        );
        // UAV far left of the trail and pointing left: corrections must be
        // rightward (negative lateral, negative yaw).
        let trail = TrailInfo {
            lateral_offset: 1.2,
            heading_error: 0.35,
            half_width: 1.6,
            progress: 0.0,
        };
        let mut lat_sum = 0.0;
        let mut yaw_sum = 0.0;
        for _ in 0..200 {
            match app.command_from(trail) {
                AppMessage::Command {
                    lateral, yaw_rate, ..
                } => {
                    lat_sum += lateral;
                    yaw_sum += yaw_rate;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(lat_sum < 0.0, "lateral correction sum {lat_sum}");
        assert!(yaw_sum < 0.0, "yaw correction sum {yaw_sum}");
    }

    #[test]
    fn bigger_models_command_sharper_corrections() {
        let rng = SimRng::new(6);
        let trail = TrailInfo {
            lateral_offset: -1.2,
            heading_error: -0.35,
            half_width: 1.6,
            progress: 0.0,
        };
        let mean_yaw = |model| {
            let (mut app, _) = TrailNavApp::new(ControllerChoice::Static(model), true, 3.0, &rng);
            let mut sum = 0.0;
            for _ in 0..300 {
                if let AppMessage::Command { yaw_rate, .. } = app.command_from(trail) {
                    sum += yaw_rate;
                }
            }
            sum / 300.0
        };
        let small = mean_yaw(DnnModel::ResNet6);
        let large = mean_yaw(DnnModel::ResNet34);
        assert!(
            large > small + 0.1,
            "ResNet34 correction {large} vs ResNet6 {small}"
        );
    }
}
