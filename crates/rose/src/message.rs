//! The application-level data-packet codec.
//!
//! Data packets are the only packets visible to the simulated SoC
//! (Section 3.4.1). The companion-computer application and the
//! synchronizer exchange these messages as the payloads of
//! `Packet::Data`: sensor requests flow SoC → environment, sensor data
//! flows back, and velocity commands flow SoC → flight controller.
//!
//! The encoding is a fixed little-endian binary format (one tag byte plus
//! fields), mirroring the serialized structs the paper's C++ bridge driver
//! moves through the bridge queues.
//!
//! # Ground truth rider
//!
//! [`AppMessage::Image`] carries, alongside the rendered pixels, the
//! ground-truth trail pose ([`TrailInfo`]) used by the calibrated
//! perception head (see DESIGN.md §1). The paper's SoC decodes the image
//! with a trained network; we ride the ground truth along the same data
//! path so the closed loop sees identical message sizes and timing.

use bytes::{Buf, BufMut};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Ground-truth pose of the UAV relative to the trail at capture time.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TrailInfo {
    /// Signed lateral offset in meters (positive = UAV left of trail).
    pub lateral_offset: f64,
    /// Signed heading error in radians (positive = UAV points left).
    pub heading_error: f64,
    /// Local corridor half-width in meters.
    pub half_width: f64,
    /// Arc-length progress along the trail in meters.
    pub progress: f64,
}

impl TrailInfo {
    /// Serializes the trail estimate.
    pub fn save_state(&self, w: &mut rose_sim_core::snap::SnapWriter) {
        let TrailInfo {
            lateral_offset,
            heading_error,
            half_width,
            progress,
        } = self;
        w.f64(*lateral_offset);
        w.f64(*heading_error);
        w.f64(*half_width);
        w.f64(*progress);
    }

    /// Restores a trail estimate.
    ///
    /// # Errors
    ///
    /// Propagates [`rose_sim_core::snap::SnapError`] on a malformed
    /// snapshot.
    pub fn restore_state(
        r: &mut rose_sim_core::snap::SnapReader<'_>,
    ) -> Result<TrailInfo, rose_sim_core::snap::SnapError> {
        Ok(TrailInfo {
            lateral_offset: r.f64()?,
            heading_error: r.f64()?,
            half_width: r.f64()?,
            progress: r.f64()?,
        })
    }
}

/// An application-level message carried in a data packet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AppMessage {
    /// SoC → env: capture a camera frame.
    ImageRequest,
    /// SoC → env: read the forward depth sensor.
    DepthRequest,
    /// SoC → env: read the IMU.
    ImuRequest,
    /// env → SoC: an IMU sample.
    Imu {
        /// Body-frame specific force (m/s²).
        accel: [f64; 3],
        /// Body-frame angular rate (rad/s).
        gyro: [f64; 3],
    },
    /// env → SoC: a camera frame (+ ground-truth rider).
    Image {
        /// Image width in pixels.
        width: u16,
        /// Image height in pixels.
        height: u16,
        /// Grayscale pixels, row-major.
        pixels: Vec<u8>,
        /// Ground-truth trail pose at capture time.
        trail: TrailInfo,
    },
    /// env → SoC: a depth reading in meters.
    Depth {
        /// Distance to the nearest obstacle along the heading.
        depth: f64,
    },
    /// SoC → env: velocity targets for the flight controller.
    Command {
        /// Forward velocity target (m/s, body frame).
        forward: f64,
        /// Lateral velocity target (m/s, body frame, positive left).
        lateral: f64,
        /// Yaw rate target (rad/s, positive counterclockwise).
        yaw_rate: f64,
        /// Altitude hold target (m).
        altitude: f64,
    },
}

const TAG_IMAGE_REQ: u8 = 0x10;
const TAG_DEPTH_REQ: u8 = 0x11;
const TAG_IMU_REQ: u8 = 0x12;
const TAG_IMAGE: u8 = 0x20;
const TAG_DEPTH: u8 = 0x21;
const TAG_IMU: u8 = 0x22;
const TAG_COMMAND: u8 = 0x30;

/// A message decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessageError {
    /// Payload too short for its tag.
    Truncated,
    /// Unknown tag byte.
    BadTag(u8),
}

impl fmt::Display for MessageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MessageError::Truncated => write!(f, "truncated message"),
            MessageError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
        }
    }
}

impl std::error::Error for MessageError {}

impl AppMessage {
    /// Length of the encoded message in bytes: the tag plus its fields.
    fn encoded_len(&self) -> usize {
        1 + match self {
            AppMessage::ImageRequest | AppMessage::DepthRequest | AppMessage::ImuRequest => 0,
            AppMessage::Imu { .. } => 48,
            AppMessage::Image { pixels, .. } => 8 + pixels.len() + 32,
            AppMessage::Depth { .. } => 8,
            AppMessage::Command { .. } => 32,
        }
    }

    /// Serializes the message to bytes, allocated once at their exact size.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        match self {
            AppMessage::ImageRequest => buf.put_u8(TAG_IMAGE_REQ),
            AppMessage::DepthRequest => buf.put_u8(TAG_DEPTH_REQ),
            AppMessage::ImuRequest => buf.put_u8(TAG_IMU_REQ),
            AppMessage::Imu { accel, gyro } => {
                buf.put_u8(TAG_IMU);
                for v in accel.iter().chain(gyro) {
                    buf.put_f64_le(*v);
                }
            }
            AppMessage::Image {
                width,
                height,
                pixels,
                trail,
            } => {
                buf.put_u8(TAG_IMAGE);
                buf.put_u16_le(*width);
                buf.put_u16_le(*height);
                buf.put_u32_le(pixels.len() as u32);
                buf.put_slice(pixels);
                buf.put_f64_le(trail.lateral_offset);
                buf.put_f64_le(trail.heading_error);
                buf.put_f64_le(trail.half_width);
                buf.put_f64_le(trail.progress);
            }
            AppMessage::Depth { depth } => {
                buf.put_u8(TAG_DEPTH);
                buf.put_f64_le(*depth);
            }
            AppMessage::Command {
                forward,
                lateral,
                yaw_rate,
                altitude,
            } => {
                buf.put_u8(TAG_COMMAND);
                buf.put_f64_le(*forward);
                buf.put_f64_le(*lateral);
                buf.put_f64_le(*yaw_rate);
                buf.put_f64_le(*altitude);
            }
        }
        buf
    }

    /// Decodes a message from bytes.
    ///
    /// # Errors
    ///
    /// [`MessageError::Truncated`] or [`MessageError::BadTag`] on corrupt
    /// payloads.
    pub fn decode(bytes: &[u8]) -> Result<AppMessage, MessageError> {
        let mut buf = bytes;
        if buf.is_empty() {
            return Err(MessageError::Truncated);
        }
        let tag = buf.get_u8();
        let need = |buf: &&[u8], n: usize| {
            if buf.len() < n {
                Err(MessageError::Truncated)
            } else {
                Ok(())
            }
        };
        match tag {
            TAG_IMAGE_REQ => Ok(AppMessage::ImageRequest),
            TAG_DEPTH_REQ => Ok(AppMessage::DepthRequest),
            TAG_IMU_REQ => Ok(AppMessage::ImuRequest),
            TAG_IMU => {
                need(&buf, 48)?;
                let mut vals = [0.0f64; 6];
                for v in &mut vals {
                    *v = buf.get_f64_le();
                }
                Ok(AppMessage::Imu {
                    accel: [vals[0], vals[1], vals[2]],
                    gyro: [vals[3], vals[4], vals[5]],
                })
            }
            TAG_IMAGE => {
                need(&buf, 8)?;
                let width = buf.get_u16_le();
                let height = buf.get_u16_le();
                let len = buf.get_u32_le() as usize;
                need(&buf, len + 32)?;
                let pixels = buf[..len].to_vec();
                buf.advance(len);
                let trail = TrailInfo {
                    lateral_offset: buf.get_f64_le(),
                    heading_error: buf.get_f64_le(),
                    half_width: buf.get_f64_le(),
                    progress: buf.get_f64_le(),
                };
                Ok(AppMessage::Image {
                    width,
                    height,
                    pixels,
                    trail,
                })
            }
            TAG_DEPTH => {
                need(&buf, 8)?;
                Ok(AppMessage::Depth {
                    depth: buf.get_f64_le(),
                })
            }
            TAG_COMMAND => {
                need(&buf, 32)?;
                Ok(AppMessage::Command {
                    forward: buf.get_f64_le(),
                    lateral: buf.get_f64_le(),
                    yaw_rate: buf.get_f64_le(),
                    altitude: buf.get_f64_le(),
                })
            }
            t => Err(MessageError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: AppMessage) {
        let bytes = msg.encode();
        assert_eq!(bytes.len(), msg.encoded_len(), "reserved size is exact");
        assert_eq!(AppMessage::decode(&bytes), Ok(msg));
    }

    #[test]
    fn roundtrip_all_variants() {
        roundtrip(AppMessage::ImageRequest);
        roundtrip(AppMessage::DepthRequest);
        roundtrip(AppMessage::ImuRequest);
        roundtrip(AppMessage::Imu {
            accel: [0.1, -9.81, 0.3],
            gyro: [-0.02, 0.0, 1.5],
        });
        roundtrip(AppMessage::Image {
            width: 64,
            height: 64,
            pixels: (0..4096u32).map(|i| (i % 251) as u8).collect(),
            trail: TrailInfo {
                lateral_offset: -0.4,
                heading_error: 0.12,
                half_width: 1.6,
                progress: 23.5,
            },
        });
        roundtrip(AppMessage::Depth { depth: 17.25 });
        roundtrip(AppMessage::Command {
            forward: 3.0,
            lateral: -0.5,
            yaw_rate: 0.2,
            altitude: 1.5,
        });
    }

    #[test]
    fn truncated_rejected() {
        let full = AppMessage::Command {
            forward: 1.0,
            lateral: 2.0,
            yaw_rate: 3.0,
            altitude: 4.0,
        }
        .encode();
        for cut in [0, 1, 16, full.len() - 1] {
            assert_eq!(
                AppMessage::decode(&full[..cut]),
                Err(MessageError::Truncated)
            );
        }
    }

    #[test]
    fn bad_tag_rejected() {
        assert_eq!(AppMessage::decode(&[0xff]), Err(MessageError::BadTag(0xff)));
    }

    #[test]
    fn image_payload_size_matches_camera() {
        // A 64x64 image message is ~4 KiB — the dominant bridge payload.
        let msg = AppMessage::Image {
            width: 64,
            height: 64,
            pixels: vec![0; 4096],
            trail: TrailInfo::default(),
        };
        let len = msg.encode().len();
        assert_eq!(len, 1 + 2 + 2 + 4 + 4096 + 32);
    }
}
