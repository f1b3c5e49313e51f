//! A classical model-predictive-control workload with data-dependent
//! runtime (the paper's §6: "many classical algorithms such as SLAM and
//! nonlinear MPC build upon iterative optimization algorithms ... with
//! data-dependent runtime behaviors, where RoSÉ can capture their
//! performance implications on both hardware and software").
//!
//! [`MpcSolver`] is a real trajectory optimizer: gradient descent (with an
//! adjoint backward pass) over a yaw-rate control sequence for linearized
//! corridor-tracking dynamics, iterating **until convergence** — so the
//! iteration count, and therefore the compute time billed to the simulated
//! SoC, depends on how far the UAV has strayed. [`MpcApp`] wraps it as a
//! target program: the closed loop couples flight state → solver
//! iterations → SoC latency → control delay → flight state.

use crate::app::AppMetrics;
use crate::message::{AppMessage, TrailInfo};
use crate::mission::{run_program_mission, MissionConfig, MissionReport};
use rose_sim_core::lock;
use rose_sim_core::math::clamp;
use rose_socsim::kernel::Kernel;
use rose_socsim::program::{ProgContext, TargetProgram};
use rose_socsim::TargetOp;
use std::sync::{Arc, Mutex};

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpcConfig {
    /// Prediction horizon (steps).
    pub horizon: usize,
    /// Step length (s).
    pub dt: f64,
    /// Lateral-offset cost weight.
    pub q_offset: f64,
    /// Heading-error cost weight.
    pub q_heading: f64,
    /// Control-effort cost weight.
    pub r_control: f64,
    /// Gradient-descent step size.
    pub step_size: f64,
    /// Convergence threshold on the gradient norm.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Abstract CPU operations billed per solver iteration (one forward +
    /// one adjoint pass over the horizon).
    pub ops_per_iter: usize,
}

impl Default for MpcConfig {
    fn default() -> MpcConfig {
        MpcConfig {
            horizon: 16,
            dt: 0.1,
            q_offset: 1.0,
            q_heading: 0.6,
            r_control: 0.08,
            step_size: 0.05,
            tolerance: 1e-3,
            max_iters: 400,
            ops_per_iter: 60_000,
        }
    }
}

/// The result of one solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MpcSolution {
    /// Optimized yaw-rate sequence.
    pub controls: Vec<f64>,
    /// Iterations until convergence (or the cap).
    pub iterations: usize,
    /// Final cost.
    pub cost: f64,
}

/// The corridor-tracking trajectory optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpcSolver {
    config: MpcConfig,
}

impl MpcSolver {
    /// Creates a solver.
    pub fn new(config: MpcConfig) -> MpcSolver {
        MpcSolver { config }
    }

    /// The configuration.
    pub fn config(&self) -> &MpcConfig {
        &self.config
    }

    /// Solves for the yaw-rate sequence minimizing tracking cost from the
    /// initial `(lateral_offset, heading_error)` at forward speed `v`.
    ///
    /// Dynamics (linearized corridor frame):
    /// `y' = v·ψ`, `ψ' = r` with control `r`.
    pub fn solve(&self, lateral_offset: f64, heading_error: f64, v: f64) -> MpcSolution {
        let cfg = &self.config;
        let h = cfg.horizon;
        let mut controls = vec![0.0f64; h];
        let mut iterations = 0;
        let mut cost = f64::INFINITY;

        for iter in 0..cfg.max_iters {
            iterations = iter + 1;
            // Forward rollout.
            let mut ys = Vec::with_capacity(h + 1);
            let mut psis = Vec::with_capacity(h + 1);
            let (mut y, mut psi) = (lateral_offset, heading_error);
            ys.push(y);
            psis.push(psi);
            for &r in &controls {
                (y, psi) = (y + cfg.dt * v * psi, psi + cfg.dt * r);
                ys.push(y);
                psis.push(psi);
            }
            cost = (1..=h)
                .map(|k| cfg.q_offset * ys[k] * ys[k] + cfg.q_heading * psis[k] * psis[k])
                .sum::<f64>()
                + controls.iter().map(|r| cfg.r_control * r * r).sum::<f64>();

            // Adjoint backward pass: lambda_k = dJ/d(state_k).
            let mut lam_y = 0.0;
            let mut lam_psi = 0.0;
            let mut grad = vec![0.0f64; h];
            for k in (0..h).rev() {
                // Stage cost at state k+1.
                lam_y += 2.0 * cfg.q_offset * ys[k + 1];
                lam_psi += 2.0 * cfg.q_heading * psis[k + 1];
                // Control gradient: r_k affects psi_{k+1} by dt.
                grad[k] = 2.0 * cfg.r_control * controls[k] + cfg.dt * lam_psi;
                // Propagate through dynamics transposed.
                lam_psi += cfg.dt * v * lam_y;
            }

            let gnorm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
            if gnorm < cfg.tolerance {
                break;
            }
            for (r, g) in controls.iter_mut().zip(&grad) {
                *r -= cfg.step_size * g;
                *r = clamp(*r, -2.5, 2.5);
            }
        }
        MpcSolution {
            controls,
            iterations,
            cost,
        }
    }
}

/// The solver counters the MPC application records. Its request → command
/// latencies go to the mission's [`AppMetrics`], like every program's.
#[derive(Debug, Clone, Default)]
pub struct MpcMetrics {
    /// Solver iteration count per control step.
    pub iterations: Vec<usize>,
}

impl MpcMetrics {
    /// Mean solver iterations (0 if none).
    pub fn mean_iterations(&self) -> f64 {
        if self.iterations.is_empty() {
            0.0
        } else {
            self.iterations.iter().sum::<usize>() as f64 / self.iterations.len() as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(clippy::enum_variant_names)] // "State" here means vehicle state, not the enum
enum State {
    RequestState,
    AwaitState,
    Solving,
    SendCommand,
}

/// The MPC corridor-tracking target program.
pub struct MpcApp {
    solver: MpcSolver,
    velocity: f64,
    state: State,
    last_trail: TrailInfo,
    pending_solution: Option<MpcSolution>,
    request_cycle: u64,
    metrics: Arc<Mutex<AppMetrics>>,
    solver_metrics: Arc<Mutex<MpcMetrics>>,
}

impl std::fmt::Debug for MpcApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpcApp")
            .field("velocity", &self.velocity)
            .field("state", &self.state)
            .finish()
    }
}

impl MpcApp {
    /// Builds the application and its shared handles: the mission's
    /// application counters and the solver's.
    pub fn new(
        config: MpcConfig,
        velocity: f64,
    ) -> (MpcApp, Arc<Mutex<AppMetrics>>, Arc<Mutex<MpcMetrics>>) {
        let metrics = Arc::new(Mutex::new(AppMetrics::default()));
        let solver_metrics = Arc::new(Mutex::new(MpcMetrics::default()));
        (
            MpcApp {
                solver: MpcSolver::new(config),
                velocity,
                state: State::RequestState,
                last_trail: TrailInfo::default(),
                pending_solution: None,
                request_cycle: 0,
                metrics: Arc::clone(&metrics),
                solver_metrics: Arc::clone(&solver_metrics),
            },
            metrics,
            solver_metrics,
        )
    }
}

impl TargetProgram for MpcApp {
    fn next_op(&mut self, ctx: &mut ProgContext) -> TargetOp {
        loop {
            match self.state {
                State::RequestState => {
                    self.request_cycle = ctx.now();
                    self.state = State::AwaitState;
                    // State comes back with the image channel's ground
                    // truth (the MPC consumes pose estimates rather than
                    // pixels).
                    return TargetOp::Send(AppMessage::ImageRequest.encode());
                }
                State::AwaitState => match ctx.take_message() {
                    None => return TargetOp::Recv,
                    Some(bytes) => {
                        if let Ok(AppMessage::Image { trail, .. }) = AppMessage::decode(&bytes) {
                            self.last_trail = trail;
                        }
                        self.state = State::Solving;
                    }
                },
                State::Solving => {
                    // Run the real solver functionally; bill its iteration
                    // count as data-dependent compute on the simulated CPU.
                    let solution = self.solver.solve(
                        self.last_trail.lateral_offset,
                        self.last_trail.heading_error,
                        self.velocity,
                    );
                    let ops = solution.iterations * self.solver.config().ops_per_iter;
                    lock(&self.solver_metrics)
                        .iterations
                        .push(solution.iterations);
                    self.pending_solution = Some(solution);
                    self.state = State::SendCommand;
                    return TargetOp::CpuKernel(Kernel::Control { ops });
                }
                State::SendCommand => {
                    // rose-lint: allow(PANIC002, SendCommand is only entered after Solve stores a solution)
                    let solution = self.pending_solution.take().expect("solved");
                    let yaw_rate = solution.controls.first().copied().unwrap_or(0.0);
                    // Lateral velocity from a proportional term on the
                    // offset (the solver handles heading).
                    let lateral = clamp(-1.2 * self.last_trail.lateral_offset, -2.5, 2.5);
                    lock(&self.metrics)
                        .latencies_cycles
                        .push(ctx.now().saturating_sub(self.request_cycle));
                    self.state = State::RequestState;
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
        "mpc-corridor-tracking"
    }
}

/// Runs a closed-loop mission with the MPC controller in place of the DNN
/// application, through [`run_program_mission`]. The report's application
/// counters hold one request → command latency per command; the returned
/// [`MpcMetrics`] hold the solver iterations.
pub fn run_mpc_mission(mission: &MissionConfig, mpc: MpcConfig) -> (MissionReport, MpcMetrics) {
    let (app, metrics, solver_metrics) = MpcApp::new(mpc, mission.velocity);
    let report = run_program_mission(mission, Box::new(app), &metrics);
    let solver_metrics = lock(&solver_metrics).clone();
    (report, solver_metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_converges_to_low_cost() {
        let solver = MpcSolver::new(MpcConfig::default());
        let sol = solver.solve(1.0, 0.2, 3.0);
        assert!(sol.iterations > 1);
        // The optimized sequence steers back: first control turns away
        // from the offset (offset +1 left, heading +0.2 left -> turn
        // right = negative yaw rate).
        assert!(sol.controls[0] < 0.0, "first control {}", sol.controls[0]);
        // Cost is far below the do-nothing rollout cost.
        let idle = solver.solve(1.0, 0.2, 3.0).cost; // converged cost
        let unsteered = MpcConfig {
            max_iters: 1,
            ..MpcConfig::default()
        };
        let one_iter = MpcSolver::new(unsteered).solve(1.0, 0.2, 3.0);
        assert!(idle < one_iter.cost * 0.8, "{idle} vs {}", one_iter.cost);
    }

    #[test]
    fn iterations_are_data_dependent() {
        let solver = MpcSolver::new(MpcConfig::default());
        let centered = solver.solve(0.01, 0.0, 3.0);
        let strayed = solver.solve(1.2, 0.3, 3.0);
        assert!(
            strayed.iterations > centered.iterations,
            "strayed {} vs centered {}",
            strayed.iterations,
            centered.iterations
        );
    }

    #[test]
    fn perfectly_centered_needs_no_control() {
        let solver = MpcSolver::new(MpcConfig::default());
        let sol = solver.solve(0.0, 0.0, 3.0);
        assert!(sol.iterations <= 2, "iterations {}", sol.iterations);
        assert!(sol.cost < 1e-9);
    }

    #[test]
    fn faster_flight_changes_the_solution() {
        let solver = MpcSolver::new(MpcConfig::default());
        let slow = solver.solve(0.8, 0.0, 2.0);
        let fast = solver.solve(0.8, 0.0, 10.0);
        assert_ne!(slow.controls[0], fast.controls[0]);
    }
}
