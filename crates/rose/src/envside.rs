//! The environment endpoint: decoding data packets into simulator API
//! calls.
//!
//! Algorithm 1's translation step: "the synchronizer receives the packet,
//! decodes it, and then makes an ... request over RPC to AirSim. Finally,
//! the data is encoded as a packet and transmitted back over the SoC's
//! I/O" (Section 3.4.2).

use crate::message::{AppMessage, TrailInfo};
use rose_bridge::sync::EnvSide;
use rose_envsim::api::VelocityTarget;
use rose_envsim::uav::UavSim;

/// Wraps a [`UavSim`] as the synchronizer's environment endpoint.
pub struct CoSimEnv {
    sim: UavSim,
    /// Count of undecodable payloads (kept, not panicked, so a corrupt
    /// packet surfaces in reports rather than killing the co-simulation).
    decode_errors: u64,
}

impl std::fmt::Debug for CoSimEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoSimEnv")
            .field("sim", &self.sim)
            .field("decode_errors", &self.decode_errors)
            .finish()
    }
}

impl CoSimEnv {
    /// Wraps a UAV simulation.
    pub fn new(sim: UavSim) -> CoSimEnv {
        CoSimEnv {
            sim,
            decode_errors: 0,
        }
    }

    /// The wrapped simulation.
    pub fn sim(&self) -> &UavSim {
        &self.sim
    }

    /// Mutable simulation access (between sync periods).
    pub fn sim_mut(&mut self) -> &mut UavSim {
        &mut self.sim
    }

    /// Unwraps the simulation.
    pub fn into_sim(self) -> UavSim {
        self.sim
    }

    /// Corrupt payloads observed.
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// Serializes the endpoint: the wrapped UAV simulation plus the
    /// decode-error counter.
    pub fn save_state(&self, w: &mut rose_sim_core::snap::SnapWriter) {
        let CoSimEnv { sim, decode_errors } = self;
        sim.save_state(w);
        w.u64(*decode_errors);
    }

    /// Restores the endpoint.
    ///
    /// # Errors
    ///
    /// Propagates [`rose_sim_core::snap::SnapError`] on a malformed
    /// snapshot.
    pub fn restore_state(
        &mut self,
        r: &mut rose_sim_core::snap::SnapReader<'_>,
    ) -> Result<(), rose_sim_core::snap::SnapError> {
        self.sim.restore_state(r)?;
        self.decode_errors = r.u64()?;
        Ok(())
    }

    fn trail_info(&self) -> TrailInfo {
        let pose = self.sim.pose();
        let q = self.sim.world().trail_query(pose.position, pose.yaw);
        TrailInfo {
            lateral_offset: q.lateral_offset,
            heading_error: q.heading_error,
            half_width: q.half_width,
            progress: q.progress,
        }
    }
}

impl EnvSide for CoSimEnv {
    fn step_frames(&mut self, frames: u64) {
        self.sim.step_frames(frames);
    }

    fn handle_data(&mut self, payload: &[u8]) -> Vec<Vec<u8>> {
        let msg = match AppMessage::decode(payload) {
            Ok(m) => m,
            Err(_) => {
                self.decode_errors += 1;
                return Vec::new();
            }
        };
        match msg {
            AppMessage::ImageRequest => {
                let trail = self.trail_info();
                let img = self.sim.image();
                vec![AppMessage::Image {
                    width: img.width() as u16,
                    height: img.height() as u16,
                    pixels: img.into_bytes(),
                    trail,
                }
                .encode()]
            }
            AppMessage::DepthRequest => {
                vec![AppMessage::Depth {
                    depth: self.sim.depth().depth,
                }
                .encode()]
            }
            AppMessage::ImuRequest => {
                let s = self.sim.imu();
                vec![AppMessage::Imu {
                    accel: [s.accel.x, s.accel.y, s.accel.z],
                    gyro: [s.gyro.x, s.gyro.y, s.gyro.z],
                }
                .encode()]
            }
            AppMessage::Command {
                forward,
                lateral,
                yaw_rate,
                altitude,
            } => {
                self.sim.set_target(VelocityTarget {
                    forward,
                    lateral,
                    yaw_rate,
                    altitude,
                });
                Vec::new() // actuation has no response payload
            }
            // Environment-bound tags only; a response tag arriving here
            // indicates a confused peer — count and ignore.
            AppMessage::Image { .. } | AppMessage::Depth { .. } | AppMessage::Imu { .. } => {
                self.decode_errors += 1;
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rose_envsim::uav::UavSimConfig;
    use rose_envsim::world::World;
    use rose_flightctl::SimpleFlight;
    use rose_sim_core::rng::SimRng;

    fn env() -> CoSimEnv {
        let config = UavSimConfig::default();
        let fc = SimpleFlight::default_for(config.quad);
        CoSimEnv::new(UavSim::new(
            config,
            World::tunnel(),
            Box::new(fc),
            &SimRng::new(3),
        ))
    }

    #[test]
    fn image_request_returns_image_with_ground_truth() {
        let mut e = env();
        let responses = e.handle_data(&AppMessage::ImageRequest.encode());
        assert_eq!(responses.len(), 1);
        match AppMessage::decode(&responses[0]).unwrap() {
            AppMessage::Image {
                width,
                height,
                pixels,
                trail,
            } => {
                assert_eq!((width, height), (64, 64));
                assert_eq!(pixels.len(), 4096);
                assert!(trail.half_width > 0.0);
                assert!(trail.lateral_offset.abs() < 0.1, "starts centered");
            }
            other => panic!("expected image, got {other:?}"),
        }
    }

    #[test]
    fn depth_request_returns_depth() {
        let mut e = env();
        let responses = e.handle_data(&AppMessage::DepthRequest.encode());
        match AppMessage::decode(&responses[0]).unwrap() {
            AppMessage::Depth { depth } => assert!(depth > 0.0),
            other => panic!("expected depth, got {other:?}"),
        }
    }

    #[test]
    fn command_actuates_without_response() {
        let mut e = env();
        let responses = e.handle_data(
            &AppMessage::Command {
                forward: 2.5,
                lateral: 0.0,
                yaw_rate: 0.1,
                altitude: 1.5,
            }
            .encode(),
        );
        assert!(responses.is_empty());
        assert_eq!(e.sim().target().forward, 2.5);
    }

    #[test]
    fn corrupt_payloads_are_counted_not_fatal() {
        let mut e = env();
        assert!(e.handle_data(&[0xde, 0xad]).is_empty());
        assert_eq!(e.decode_errors(), 1);
    }
}
