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

use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use std::fmt;

/// Ground-truth pose of the UAV relative to the trail at capture time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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
    pub fn save_state(&self, w: &mut SnapWriter) {
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
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<TrailInfo, SnapError> {
        Ok(TrailInfo {
            lateral_offset: r.f64()?,
            heading_error: r.f64()?,
            half_width: r.f64()?,
            progress: r.f64()?,
        })
    }
}

/// An application-level message carried in a data packet.
#[derive(Debug, Clone, PartialEq)]
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

/// A message's fields are fixed-width or sized by an earlier field, so the
/// only way their reads fail is by running off the end of the payload.
impl From<SnapError> for MessageError {
    fn from(_: SnapError) -> MessageError {
        MessageError::Truncated
    }
}

/// Appends `vals` as little-endian `f64` bit patterns.
fn put_f64s(buf: &mut Vec<u8>, vals: &[f64]) {
    for v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

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
            AppMessage::ImageRequest => buf.push(TAG_IMAGE_REQ),
            AppMessage::DepthRequest => buf.push(TAG_DEPTH_REQ),
            AppMessage::ImuRequest => buf.push(TAG_IMU_REQ),
            AppMessage::Imu { accel, gyro } => {
                buf.push(TAG_IMU);
                put_f64s(&mut buf, accel);
                put_f64s(&mut buf, gyro);
            }
            AppMessage::Image {
                width,
                height,
                pixels,
                trail,
            } => {
                buf.push(TAG_IMAGE);
                buf.extend_from_slice(&width.to_le_bytes());
                buf.extend_from_slice(&height.to_le_bytes());
                buf.extend_from_slice(&(pixels.len() as u32).to_le_bytes());
                buf.extend_from_slice(pixels);
                // The rider's layout is `TrailInfo::save_state`'s, which
                // `decode` reads back through `restore_state`.
                put_f64s(
                    &mut buf,
                    &[
                        trail.lateral_offset,
                        trail.heading_error,
                        trail.half_width,
                        trail.progress,
                    ],
                );
            }
            AppMessage::Depth { depth } => {
                buf.push(TAG_DEPTH);
                put_f64s(&mut buf, &[*depth]);
            }
            AppMessage::Command {
                forward,
                lateral,
                yaw_rate,
                altitude,
            } => {
                buf.push(TAG_COMMAND);
                put_f64s(&mut buf, &[*forward, *lateral, *yaw_rate, *altitude]);
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
        let mut r = SnapReader::new(bytes);
        Ok(match r.u8()? {
            TAG_IMAGE_REQ => AppMessage::ImageRequest,
            TAG_DEPTH_REQ => AppMessage::DepthRequest,
            TAG_IMU_REQ => AppMessage::ImuRequest,
            TAG_IMU => AppMessage::Imu {
                accel: [r.f64()?, r.f64()?, r.f64()?],
                gyro: [r.f64()?, r.f64()?, r.f64()?],
            },
            TAG_IMAGE => {
                let width = r.u16()?;
                let height = r.u16()?;
                let len = r.u32()? as usize;
                AppMessage::Image {
                    width,
                    height,
                    pixels: r.raw(len)?.to_vec(),
                    trail: TrailInfo::restore_state(&mut r)?,
                }
            }
            TAG_DEPTH => AppMessage::Depth { depth: r.f64()? },
            TAG_COMMAND => AppMessage::Command {
                forward: r.f64()?,
                lateral: r.f64()?,
                yaw_rate: r.f64()?,
                altitude: r.f64()?,
            },
            t => return Err(MessageError::BadTag(t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One message of every variant.
    fn every_variant() -> Vec<AppMessage> {
        vec![
            AppMessage::ImageRequest,
            AppMessage::DepthRequest,
            AppMessage::ImuRequest,
            AppMessage::Imu {
                accel: [0.1, -9.81, 0.3],
                gyro: [-0.02, 0.0, 1.5],
            },
            AppMessage::Image {
                width: 64,
                height: 64,
                pixels: (0..4096u32).map(|i| (i % 251) as u8).collect(),
                trail: TrailInfo {
                    lateral_offset: -0.4,
                    heading_error: 0.12,
                    half_width: 1.6,
                    progress: 23.5,
                },
            },
            AppMessage::Depth { depth: 17.25 },
            AppMessage::Command {
                forward: 3.0,
                lateral: -0.5,
                yaw_rate: 0.2,
                altitude: 1.5,
            },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for msg in every_variant() {
            let bytes = msg.encode();
            assert_eq!(bytes.len(), msg.encoded_len(), "reserved size is exact");
            assert_eq!(AppMessage::decode(&bytes), Ok(msg));
        }
    }

    #[test]
    fn truncated_rejected() {
        for msg in every_variant() {
            let full = msg.encode();
            for cut in 0..full.len() {
                assert_eq!(
                    AppMessage::decode(&full[..cut]),
                    Err(MessageError::Truncated),
                    "{msg:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn image_pixel_count_past_the_end_rejected() {
        let mut raw = AppMessage::Image {
            width: 2,
            height: 2,
            pixels: vec![1, 2, 3, 4],
            trail: TrailInfo::default(),
        }
        .encode();
        // The pixel count sits after the tag and both dimensions.
        raw[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(AppMessage::decode(&raw), Err(MessageError::Truncated));
        // One pixel too many leaves the rider a byte short.
        raw[5..9].copy_from_slice(&5u32.to_le_bytes());
        assert_eq!(AppMessage::decode(&raw), Err(MessageError::Truncated));
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
