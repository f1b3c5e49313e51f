//! A sensor-fusion controller with irregular, data-dependent branch
//! execution (the paper's §6: "controller networks that perform sensor
//! fusion have separate backbones for each class of sensor ... branches of
//! the network can be executed at different rates depending on sensor
//! data, providing opportunities for both software and hardware schedulers
//! to improve performance").
//!
//! [`FusionApp`] runs two backbones on the simulated SoC:
//!
//! * an **IMU branch** — a small MLP over inertial samples, executed every
//!   control step (cheap, ~ms);
//! * an **image branch** — the convolutional trail classifier, executed
//!   only when the vehicle state demands fresh vision: the IMU reports
//!   high angular rate (aggressive maneuvering) or the last image is
//!   stale.
//!
//! The resulting SoC load is bimodal and data-dependent — exactly the
//! irregular execution pattern the paper points at for future scheduler
//! research.

use crate::app::{AppMetrics, ControlGains};
use crate::message::{AppMessage, TrailInfo};
use crate::mission::{run_program_mission, MissionConfig, MissionReport};
use parking_lot::Mutex;
use rose_dnn::lower::lower_inference;
use rose_dnn::perception::PerceptionHead;
use rose_dnn::DnnModel;
use rose_sim_core::rng::SimRng;
use rose_socsim::kernel::Kernel;
use rose_socsim::program::{ProgContext, TargetProgram};
use rose_socsim::TargetOp;
use std::collections::VecDeque;
use std::sync::Arc;

/// Fusion-controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusionConfig {
    /// The vision backbone.
    pub image_model: DnnModel,
    /// Gyro magnitude (rad/s) above which fresh vision is demanded.
    pub gyro_threshold: f64,
    /// Maximum image staleness (control steps) before a refresh.
    pub max_staleness: u32,
    /// IMU MLP hidden width (the IMU branch is `6 → hidden → hidden → 8`).
    pub imu_hidden: usize,
}

impl Default for FusionConfig {
    fn default() -> FusionConfig {
        FusionConfig {
            image_model: DnnModel::ResNet14,
            gyro_threshold: 0.35,
            max_staleness: 8,
            imu_hidden: 64,
        }
    }
}

/// The branch counters the fusion application records. Its per-step
/// request → command latencies go to the mission's [`AppMetrics`], one
/// entry per control step, like every program's.
#[derive(Debug, Clone, Default)]
pub struct FusionMetrics {
    /// Steps that ran the image branch.
    pub image_branch_runs: u64,
    /// Steps that flew on the previous inertial estimate because the IMU
    /// reply failed to decode (sensor-loss dead-reckoning).
    pub dead_reckoned: u64,
}

impl FusionMetrics {
    /// Fraction of `steps` control steps that executed the (expensive)
    /// image branch.
    pub fn image_branch_rate(&self, steps: u64) -> f64 {
        if steps == 0 {
            0.0
        } else {
            self.image_branch_runs as f64 / steps as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    RequestImu,
    AwaitImu,
    RequestImage,
    AwaitImage,
    Compute,
    SendCommand,
}

/// The sensor-fusion target program.
pub struct FusionApp {
    config: FusionConfig,
    velocity: f64,
    gains: ControlGains,
    image_plan: Vec<TargetOp>,
    imu_plan: Vec<TargetOp>,
    head: PerceptionHead,
    state: State,
    queue: VecDeque<TargetOp>,
    run_image_branch: bool,
    staleness: u32,
    last_gyro_z: f64,
    last_trail: TrailInfo,
    request_cycle: u64,
    metrics: Arc<Mutex<AppMetrics>>,
    branch_metrics: Arc<Mutex<FusionMetrics>>,
}

impl std::fmt::Debug for FusionApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusionApp")
            .field("config", &self.config)
            .field("state", &self.state)
            .finish()
    }
}

impl FusionApp {
    /// Builds the application and its shared handles: the mission's
    /// application counters and the branch counters.
    pub fn new(
        config: FusionConfig,
        has_accelerator: bool,
        velocity: f64,
        rng: &SimRng,
    ) -> (FusionApp, Arc<Mutex<AppMetrics>>, Arc<Mutex<FusionMetrics>>) {
        let image_plan = lower_inference(&config.image_model.plan(), has_accelerator);
        // IMU branch: a 3-layer MLP with a small framework cost; runs on
        // the CPU (too small for the mesh).
        let h = config.imu_hidden;
        let imu_plan = vec![
            TargetOp::CpuKernel(Kernel::FrameworkNode { tensors: 3 }),
            TargetOp::CpuKernel(Kernel::MatMul { m: 1, k: 6, n: h }),
            TargetOp::CpuKernel(Kernel::Elementwise {
                n: h,
                kind: rose_socsim::kernel::ElemKind::Relu,
            }),
            TargetOp::CpuKernel(Kernel::MatMul { m: 1, k: h, n: h }),
            TargetOp::CpuKernel(Kernel::Elementwise {
                n: h,
                kind: rose_socsim::kernel::ElemKind::Relu,
            }),
            TargetOp::CpuKernel(Kernel::MatMul { m: 1, k: h, n: 8 }),
        ];
        let metrics = Arc::new(Mutex::new(AppMetrics::default()));
        let branch_metrics = Arc::new(Mutex::new(FusionMetrics::default()));
        (
            FusionApp {
                head: PerceptionHead::new(config.image_model, rng),
                config,
                velocity,
                gains: ControlGains::default(),
                image_plan,
                imu_plan,
                state: State::RequestImu,
                queue: VecDeque::new(),
                run_image_branch: true, // first step always sees the world
                staleness: 0,
                last_gyro_z: 0.0,
                last_trail: TrailInfo::default(),
                request_cycle: 0,
                metrics: Arc::clone(&metrics),
                branch_metrics: Arc::clone(&branch_metrics),
            },
            metrics,
            branch_metrics,
        )
    }
}

impl TargetProgram for FusionApp {
    fn next_op(&mut self, ctx: &mut ProgContext) -> TargetOp {
        loop {
            match self.state {
                State::RequestImu => {
                    self.request_cycle = ctx.now();
                    self.state = State::AwaitImu;
                    return TargetOp::Send(AppMessage::ImuRequest.encode());
                }
                State::AwaitImu => match ctx.take_message() {
                    None => return TargetOp::Recv,
                    Some(bytes) => {
                        if let Ok(AppMessage::Imu { gyro, .. }) = AppMessage::decode(&bytes) {
                            self.last_gyro_z = gyro[2];
                        } else {
                            // Sensor loss: dead-reckon on the previous
                            // inertial estimate rather than latch up.
                            self.branch_metrics.lock().dead_reckoned += 1;
                        }
                        // Data-dependent branch decision: fresh vision on
                        // aggressive maneuvers or stale features.
                        self.run_image_branch = self.last_gyro_z.abs() > self.config.gyro_threshold
                            || self.staleness >= self.config.max_staleness;
                        self.state = if self.run_image_branch {
                            State::RequestImage
                        } else {
                            State::Compute
                        };
                    }
                },
                State::RequestImage => {
                    self.state = State::AwaitImage;
                    return TargetOp::Send(AppMessage::ImageRequest.encode());
                }
                State::AwaitImage => match ctx.take_message() {
                    None => return TargetOp::Recv,
                    Some(bytes) => {
                        if let Ok(AppMessage::Image { trail, .. }) = AppMessage::decode(&bytes) {
                            self.last_trail = trail;
                        }
                        self.state = State::Compute;
                    }
                },
                State::Compute => {
                    // Queue the branch workloads: IMU MLP always, conv
                    // backbone only when triggered.
                    self.queue = self.imu_plan.iter().cloned().collect();
                    if self.run_image_branch {
                        self.queue.extend(self.image_plan.iter().cloned());
                        self.staleness = 0;
                    } else {
                        self.staleness += 1;
                    }
                    self.state = State::SendCommand;
                }
                State::SendCommand => {
                    if let Some(op) = self.queue.pop_front() {
                        return op;
                    }
                    let out = self.head.classify(
                        self.last_trail.heading_error,
                        self.last_trail.lateral_offset,
                        self.last_trail.half_width,
                    );
                    let yaw_rate = self.gains.beta_yaw * (out.angular.right() - out.angular.left());
                    let lateral =
                        self.gains.beta_lateral * (out.lateral.right() - out.lateral.left());
                    if self.run_image_branch {
                        self.branch_metrics.lock().image_branch_runs += 1;
                    }
                    self.metrics
                        .lock()
                        .latencies_cycles
                        .push(ctx.now().saturating_sub(self.request_cycle));
                    self.state = State::RequestImu;
                    return TargetOp::Send(
                        AppMessage::Command {
                            forward: self.velocity,
                            lateral,
                            yaw_rate,
                            altitude: 1.5,
                        }
                        .encode(),
                    );
                }
            }
        }
    }

    fn name(&self) -> &str {
        "sensor-fusion"
    }
}

/// Runs a closed-loop mission with the fusion controller, through
/// [`run_program_mission`]. The report's application counters hold one
/// request → command latency per control step; the returned
/// [`FusionMetrics`] hold the branch counters.
pub fn run_fusion_mission(
    mission: &MissionConfig,
    fusion: FusionConfig,
) -> (MissionReport, FusionMetrics) {
    let rng = SimRng::new(mission.seed);
    let (app, metrics, branch_metrics) = FusionApp::new(
        fusion,
        mission.soc.has_accelerator(),
        mission.velocity,
        &rng,
    );
    let report = run_program_mission(mission, Box::new(app), &metrics);
    let branch_metrics = branch_metrics.lock().clone();
    (report, branch_metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rose_envsim::WorldKind;

    #[test]
    fn fusion_mission_completes_tunnel() {
        let mission = MissionConfig {
            max_sim_seconds: 45.0,
            ..MissionConfig::default()
        };
        let (r, branches) = run_fusion_mission(&mission, FusionConfig::default());
        assert!(r.completed, "fusion controller should finish the tunnel");
        assert!(r.app.commands() > 50);
        // A healthy transport never forces a dead-reckoned step.
        assert_eq!(branches.dead_reckoned, 0);
        // In a straight tunnel, most steps are IMU-only (low angular
        // rates): the image branch runs at a reduced, irregular rate.
        let rate = branches.image_branch_rate(r.app.commands());
        assert!(
            (0.05..0.8).contains(&rate),
            "image branch rate {rate} should be sparse but nonzero"
        );
    }

    #[test]
    fn curvy_world_raises_the_image_branch_rate() {
        let rate = |(r, branches): (MissionReport, FusionMetrics)| {
            branches.image_branch_rate(r.app.commands())
        };
        let tunnel = rate(run_fusion_mission(
            &MissionConfig {
                max_sim_seconds: 30.0,
                ..MissionConfig::default()
            },
            FusionConfig::default(),
        ));
        let s_shape = rate(run_fusion_mission(
            &MissionConfig {
                world: WorldKind::SShape,
                velocity: 6.0,
                max_sim_seconds: 30.0,
                ..MissionConfig::default()
            },
            FusionConfig::default(),
        ));
        assert!(s_shape > tunnel, "s-shape {s_shape} vs tunnel {tunnel}");
    }

    #[test]
    fn latencies_are_bimodal() {
        let mission = MissionConfig {
            world: WorldKind::SShape,
            velocity: 6.0,
            max_sim_seconds: 30.0,
            ..MissionConfig::default()
        };
        let (r, _) = run_fusion_mission(&mission, FusionConfig::default());
        let (mut cheap, mut expensive) = (0u32, 0u32);
        for &lat in &r.app.latencies_cycles {
            if lat < 40_000_000 {
                cheap += 1; // IMU-only step (< 40 ms)
            } else if lat > 80_000_000 {
                expensive += 1; // image-branch step (> 80 ms)
            }
        }
        assert!(cheap > 0, "expected cheap IMU-only steps");
        assert!(expensive > 0, "expected expensive image-branch steps");
    }
}
